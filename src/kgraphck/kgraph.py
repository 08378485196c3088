"""Finite k-graph skeletons and normal-form path arithmetic.

A k-graph is presented by a k-colored skeleton plus one factorization square
per composable bicolored edge pair.  Validation checks the square tables are
endpoint-compatible bijections and, for rank >= 3, that the two swap orders
on every tricolored composable triple agree; these conditions make the
induced path category satisfy the unique-factorization property.

Paths are value objects in color-ascending normal form: all color-1 edges
first, then color-2, and so on, with consecutive edges composable reading
from the range end.  Equality of paths is equality of normal forms.
"""

from __future__ import annotations

import graphlib
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .degree import Degree
from .errors import (
    CyclicGraphUnsupported,
    DegreeOutOfRange,
    DuplicateId,
    HexagonViolation,
    IncompatibleEndpoints,
    InvalidSpec,
    MissingSquare,
    NonBijectiveSquare,
    NotComposable,
    UnknownColor,
)


@dataclass(frozen=True)
class Edge:
    """A skeleton edge of one color, pointing from its source to its range."""

    id: str
    color: int
    range: str
    source: str


@dataclass(frozen=True)
class SkeletonSpec:
    """Unvalidated presentation of a k-graph.

    ``squares`` entries are 4-tuples (e, f, f2, e2) asserting that the
    bicolored length-2 paths e-then-f and f2-then-e2 are equal; e and e2
    share a color, as do f and f2.
    """

    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    squares: tuple[tuple[str, str, str, str], ...]


class Path:
    """A morphism of the path category, in color-ascending normal form.

    Vertices are the degree-0 paths (empty word).  Identity is determined
    by (graph, range, word); the word stores edge ids.
    """

    __slots__ = ("graph", "range", "word", "_degree", "_source", "_key", "_hash")

    def __init__(self, graph: "KGraph", range_vertex: str, word: tuple[str, ...]):
        self.graph = graph
        self.range = range_vertex
        self.word = word
        self._degree = None
        self._source = None
        self._key = None
        self._hash = None

    @property
    def degree(self) -> Degree:
        if self._degree is None:
            counts = [0] * self.graph.rank
            for eid in self.word:
                counts[self.graph.edge(eid).color - 1] += 1
            self._degree = Degree(*counts)
        return self._degree

    @property
    def source(self) -> str:
        if self._source is None:
            self._source = (
                self.graph.edge(self.word[-1]).source if self.word else self.range
            )
        return self._source

    def is_vertex(self) -> bool:
        return not self.word

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Path)
            and self.graph is other.graph
            and self.range == other.range
            and self.word == other.word
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.range, self.word))
        return self._hash

    def __repr__(self) -> str:
        return f"Path({self.token()})"

    def token(self) -> str:
        """Canonical text form: the vertex id, or edge ids joined by '.'."""
        return self.range if not self.word else ".".join(self.word)

    def sort_key(self):
        if self._key is None:
            self._key = (self.degree.coords, self.word, self.range)
        return self._key


def path_sort_key(p: Path):
    """Canonical path order: degree-lex, then word-lex, then range."""
    return p.sort_key()


class KGraph:
    """A validated k-graph skeleton with derived indices.

    Construct via :func:`validate`.  Instances are immutable after
    construction and safe to share; path enumeration results are cached.
    """

    def __init__(self, spec: SkeletonSpec, swaps: dict):
        self.spec = spec
        self.rank = spec.rank
        self.vertices = tuple(sorted(spec.vertices))
        self._vset = set(self.vertices)
        self._edges = {e.id: e for e in spec.edges}
        # edges indexed by (range vertex, color), in id order
        self._out: dict[tuple[str, int], tuple[Edge, ...]] = {}
        for v in self.vertices:
            for c in range(1, self.rank + 1):
                self._out[(v, c)] = tuple(
                    sorted(
                        (e for e in spec.edges if e.range == v and e.color == c),
                        key=lambda e: e.id,
                    )
                )
        self._swaps = swaps
        self._acyclic = self._compute_acyclic()
        self._paths_cache: dict[tuple[str, Degree], tuple[Path, ...]] = {}
        self._all_paths: tuple[Path, ...] | None = None
        self._max_degree: Degree | None = None
        # operation memos; Paths are immutable value objects, so keying on
        # them is safe, and these caches only ever grow
        self._split_cache: dict = {}
        self._mce_cache: dict = {}

    # -- basic accessors --

    def edge(self, eid: str) -> Edge:
        return self._edges[eid]

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.spec.edges

    def edges_from(self, v: str, color: int) -> tuple[Edge, ...]:
        """Edges of ``color`` with range ``v`` (the continuations out of v)."""
        return self._out[(v, color)]

    def vertex_path(self, v: str) -> Path:
        if v not in self._vset:
            raise InvalidSpec(f"unknown vertex {v!r}")
        return Path(self, v, ())

    def edge_path(self, eid: str) -> Path:
        e = self.edge(eid)
        return Path(self, e.range, (eid,))

    def path(self, range_vertex: str, word: Sequence[str]) -> Path:
        """Build the path with the given edge word, normalizing it."""
        word = tuple(word)
        if range_vertex not in self._vset:
            raise InvalidSpec(f"unknown vertex {range_vertex!r}")
        v = range_vertex
        for eid in word:
            e = self._edges.get(eid)
            if e is None:
                raise InvalidSpec(f"unknown edge {eid!r}")
            if e.range != v:
                raise NotComposable(f"edge {eid!r} does not continue from {v!r}")
            v = e.source
        return Path(self, range_vertex, self._normalize(word))

    def _compute_acyclic(self) -> bool:
        succ = {v: set() for v in self.spec.vertices}
        for e in self.spec.edges:
            succ[e.range].add(e.source)
        try:
            tuple(graphlib.TopologicalSorter(succ).static_order())
            return True
        except graphlib.CycleError:
            return False

    @property
    def is_acyclic(self) -> bool:
        return self._acyclic

    @property
    def max_degree(self) -> Degree:
        """Coordinatewise maximum of d(lambda) over all paths (acyclic only)."""
        if not self._acyclic:
            raise CyclicGraphUnsupported("max_degree requires an acyclic skeleton")
        if self._max_degree is None:
            longest = []
            for c in range(1, self.rank + 1):
                memo: dict[str, int] = {}

                def depth(v: str, c=c, memo=memo) -> int:
                    if v not in memo:
                        memo[v] = max(
                            (1 + depth(e.source) for e in self.edges_from(v, c)),
                            default=0,
                        )
                    return memo[v]

                longest.append(max((depth(v) for v in self.vertices), default=0))
            self._max_degree = Degree(*longest)
        return self._max_degree

    # -- square rewriting --

    def _swap(self, a: str, b: str) -> tuple[str, str]:
        """Rewrite the adjacent bicolored word (a, b) via its square."""
        return self._swaps[(a, b)]

    def _normalize(self, word: tuple[str, ...]) -> tuple[str, ...]:
        """Insertion-sort the word into ascending color blocks via squares."""
        out = list(word)
        color = {eid: self._edges[eid].color for eid in set(word)}
        for i in range(1, len(out)):
            j = i
            while j > 0 and color[out[j]] < color[out[j - 1]]:
                left, right = self._swaps[(out[j - 1], out[j])]
                out[j - 1], out[j] = left, right
                color[left] = self._edges[left].color
                color[right] = self._edges[right].color
                j -= 1
        return tuple(out)

    # -- enumeration --

    def paths(self, v: str, n: Degree) -> tuple[Path, ...]:
        """All degree-``n`` paths with range ``v``, in canonical order.

        Every color-ascending composable word is its own normal form, so the
        nested per-color enumeration below produces each path exactly once.
        """
        key = (v, n)
        cached = self._paths_cache.get(key)
        if cached is not None:
            return cached
        if len(n) != self.rank:
            raise ValueError("degree rank mismatch")
        if v not in self._vset:
            raise InvalidSpec(f"unknown vertex {v!r}")
        results: list[Path] = []

        def by_color(color: int, start: str, acc: list[str]) -> None:
            if color > self.rank:
                results.append(Path(self, v, tuple(acc)))
                return
            chain(color, n[color - 1], start, acc)

        def chain(color: int, remaining: int, u: str, acc: list[str]) -> None:
            if remaining == 0:
                by_color(color + 1, u, acc)
                return
            for e in self.edges_from(u, color):
                acc.append(e.id)
                chain(color, remaining - 1, e.source, acc)
                acc.pop()

        by_color(1, v, [])
        results.sort(key=path_sort_key)
        out = tuple(results)
        self._paths_cache[key] = out
        return out

    def paths_up_to(self, v: str, bound: Degree) -> tuple[Path, ...]:
        """Union of paths(v, n) over all n <= bound, canonically ordered."""
        out: list[Path] = []
        for n in bound.below():
            out.extend(self.paths(v, n))
        out.sort(key=path_sort_key)
        return tuple(out)

    def all_paths(self) -> tuple[Path, ...]:
        """Every morphism of the (finite) path category; acyclic graphs only."""
        if not self._acyclic:
            raise CyclicGraphUnsupported("the path category is infinite")
        if self._all_paths is None:
            out: list[Path] = []
            for v in self.vertices:
                out.extend(self.paths_up_to(v, self.max_degree))
            out.sort(key=path_sort_key)
            self._all_paths = tuple(out)
        return self._all_paths

    def paths_at(self, v: str) -> tuple[Path, ...]:
        """vLambda: all paths with range v (acyclic graphs only)."""
        return tuple(p for p in self.all_paths() if p.range == v)

    def paths_into(self, v: str) -> tuple[Path, ...]:
        """Lambda v: all paths with source v (acyclic graphs only)."""
        return tuple(p for p in self.all_paths() if p.source == v)


# -- construction ------------------------------------------------------------


def validate(spec: SkeletonSpec) -> KGraph:
    """Validate a skeleton and return the k-graph it presents.

    Raises MissingSquare, NonBijectiveSquare, IncompatibleEndpoints or
    HexagonViolation naming the offending edges; DuplicateId for a repeated
    vertex or edge id, UnknownColor for a color outside 1..rank, and
    InvalidSpec for other structural problems (unknown ids, bad squares).
    """
    if spec.rank < 1:
        raise InvalidSpec("rank must be >= 1")
    vset: set[str] = set()
    for v in spec.vertices:
        if v in vset:
            raise DuplicateId(f"duplicate vertex id {v!r}")
        vset.add(v)
    edges: dict[str, Edge] = {}
    for e in spec.edges:
        if e.id in edges or e.id in vset:
            raise DuplicateId(f"duplicate id {e.id!r}")
        if not 1 <= e.color <= spec.rank:
            raise UnknownColor(f"edge {e.id!r} has color {e.color} outside 1..{spec.rank}")
        if e.range not in vset or e.source not in vset:
            raise InvalidSpec(f"edge {e.id!r} references unknown vertices")
        edges[e.id] = e

    swaps: dict[tuple[str, str], tuple[str, str]] = {}

    def add_swap(a: str, b: str, c: str, d: str) -> None:
        # word (a, b) rewrites to (c, d)
        if (a, b) in swaps and swaps[(a, b)] != (c, d):
            raise NonBijectiveSquare(
                f"pair ({a}, {b}) appears in two squares with different images"
            )
        swaps[(a, b)] = (c, d)

    for entry in spec.squares:
        if len(entry) != 4:
            raise InvalidSpec(f"square {entry!r} is not a 4-tuple")
        e, f, f2, e2 = entry
        for eid in entry:
            if eid not in edges:
                raise InvalidSpec(f"square {entry!r} references unknown edge {eid!r}")
        ce, cf = edges[e].color, edges[f].color
        if ce == cf:
            raise InvalidSpec(f"square {entry!r} relates same-colored edges")
        if edges[f2].color != cf or edges[e2].color != ce:
            raise InvalidSpec(f"square {entry!r} has mismatched colors")
        if edges[e].source != edges[f].range:
            raise IncompatibleEndpoints(f"square {entry!r}: {e} and {f} not composable")
        if edges[f2].source != edges[e2].range:
            raise IncompatibleEndpoints(f"square {entry!r}: {f2} and {e2} not composable")
        if edges[e].range != edges[f2].range:
            raise IncompatibleEndpoints(f"square {entry!r}: ranges of {e} and {f2} differ")
        if edges[f].source != edges[e2].source:
            raise IncompatibleEndpoints(f"square {entry!r}: sources of {f} and {e2} differ")
        add_swap(e, f, f2, e2)
        add_swap(f2, e2, e, f)

    # completeness and injectivity of each color-pair bijection
    by_color: dict[int, list[Edge]] = {c: [] for c in range(1, spec.rank + 1)}
    for e in edges.values():
        by_color[e.color].append(e)
    images: dict[tuple[str, str], tuple[str, str]] = {}
    for i, j in itertools.permutations(range(1, spec.rank + 1), 2):
        for a in by_color[i]:
            for b in by_color[j]:
                if a.source != b.range:
                    continue
                if (a.id, b.id) not in swaps:
                    raise MissingSquare(
                        f"no square for composable pair ({a.id}, {b.id})"
                    )
                img = swaps[(a.id, b.id)]
                if img in images and images[img] != (a.id, b.id):
                    raise NonBijectiveSquare(
                        f"pairs {images[img]} and {(a.id, b.id)} share the image {img}"
                    )
                images[img] = (a.id, b.id)

    # hexagon condition: both swap orders agree on tricolored triples
    if spec.rank >= 3:
        def swap_at(word: tuple[str, str, str], pos: int) -> tuple[str, str, str]:
            a, b = word[pos], word[pos + 1]
            c, d = swaps[(a, b)]
            out = list(word)
            out[pos], out[pos + 1] = c, d
            return tuple(out)

        for b in edges.values():
            lefts = [a for a in edges.values() if a.source == b.range and a.color != b.color]
            rights = [c for c in edges.values() if c.range == b.source]
            for a in lefts:
                for c in rights:
                    if len({a.color, b.color, c.color}) != 3:
                        continue
                    w = (a.id, b.id, c.id)
                    lhs = swap_at(swap_at(swap_at(w, 0), 1), 0)
                    rhs = swap_at(swap_at(swap_at(w, 1), 0), 1)
                    if lhs != rhs:
                        raise HexagonViolation(
                            f"swap orders disagree on triple {w}: {lhs} vs {rhs}"
                        )

    return KGraph(spec, swaps)


# -- path operations ---------------------------------------------------------


def compose(p: Path, q: Path) -> Path:
    """The normal form of pq; requires s(p) = r(q)."""
    if p.graph is not q.graph:
        raise NotComposable("paths from different graphs")
    if p.source != q.range:
        raise NotComposable(f"s({p.token()}) = {p.source} != {q.range} = r({q.token()})")
    return Path(p.graph, p.range, p.graph._normalize(p.word + q.word))


def compose_all(paths: Iterable[Path]) -> Path:
    """The normal form of p1 p2 ... pn for a nonempty sequence of paths."""
    it = iter(paths)
    out = next(it)
    for p in it:
        out = compose(out, p)
    return out


def _split(p: Path, m: Degree) -> tuple[Path, Path]:
    """Factor p = (prefix, rest) with d(prefix) = m, via square rewriting.

    Peels edges color by color: within normal form the first letter of each
    color is preceded only by strictly smaller colors, so bubbling it to the
    front uses one square per inversion and leaves the rest normal.
    """
    g = p.graph
    key = (p.range, p.word, m.coords)
    hit = g._split_cache.get(key)
    if hit is not None:
        return hit
    word = list(p.word)
    prefix: list[str] = []
    for color in range(1, g.rank + 1):
        for _ in range(m[color - 1]):
            pos = next(i for i, eid in enumerate(word) if g.edge(eid).color == color)
            for i in range(pos, 0, -1):
                word[i - 1], word[i] = g._swap(word[i - 1], word[i])
            prefix.append(word.pop(0))
    pre = Path(g, p.range, tuple(prefix))
    out = (pre, Path(g, pre.source, tuple(word)))
    g._split_cache[key] = out
    return out


def segment(p: Path, m: Degree, n: Degree) -> Path:
    """The unique middle factor lambda(m, n); requires 0 <= m <= n <= d(p)."""
    d = p.degree
    zero = Degree.zero(len(d))
    if not (zero <= m and m <= n and n <= d):
        raise DegreeOutOfRange(f"need 0 <= {m} <= {n} <= {d}")
    _, rest = _split(p, m)
    mid, _ = _split(rest, n - m)
    return mid


def vertex_at(p: Path, n: Degree) -> str:
    """The vertex x(n) that p passes through at degree n."""
    return segment(p, n, n).range
