"""Minimal common extensions, extension sets, and the grid closure.

mce(mu, nu) enumerates the degree-(d(mu) v d(nu)) paths extending both
arguments; finiteness is automatic for finite skeletons.  pi_closure is the
least set containing its input and closed under transporting extensions
across equal-degree, equal-source pairs; it indexes the matrix-unit grids
used by the representation module.  One semi-naive routine,
:meth:`PathIndex.close`, computes every closure on numbered paths, a grid
being an ``int`` bitmask: it extends an already-closed set by new paths and
examines only the triples that touch them.  The same index answers every
matrix-unit query about a grid: its pairs, and the tails of a row index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .degree import Degree
from .errors import ClosureBudgetExceeded, RangeMismatch
from .kgraph import KGraph, Path, compose, path_sort_key, segment, _split


@dataclass(frozen=True)
class MinPair:
    """A pair (alpha, beta) with mu.alpha = nu.beta a minimal common extension."""

    alpha: Path
    beta: Path


class PathFamily:
    """A finite set of paths sharing a common range vertex.

    Used both for exhaustive-set candidates (where members must avoid the
    vertex path itself) and for plain finite path sets at a vertex.
    """

    __slots__ = ("graph", "vertex", "members", "_sorted", "_key")

    def __init__(self, graph: KGraph, vertex: str, members: Iterable[Path]):
        members = frozenset(members)
        for p in members:
            if p.range != vertex:
                raise RangeMismatch(
                    f"member {p.token()} has range {p.range}, expected {vertex}"
                )
        self.graph = graph
        self.vertex = vertex
        self.members = members
        self._sorted = None
        self._key = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_members())

    def __contains__(self, p: Path) -> bool:
        return p in self.members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PathFamily)
            and self.vertex == other.vertex
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.vertex, self.members))

    def __repr__(self) -> str:
        return f"PathFamily({self.vertex}: {{{', '.join(p.token() for p in self)}}})"

    def sorted_members(self) -> tuple[Path, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.members, key=path_sort_key))
        return self._sorted

    def is_vertex_free(self) -> bool:
        return all(not p.is_vertex() for p in self.members)

    def sort_key(self):
        if self._key is None:
            self._key = (
                self.vertex,
                len(self.members),
                tuple(p.sort_key() for p in self.sorted_members()),
            )
        return self._key


def family(graph: KGraph, members: Iterable[Path], vertex: str | None = None) -> PathFamily:
    members = list(members)
    if vertex is None:
        if not members:
            raise ValueError("empty family needs an explicit range vertex")
        vertex = members[0].range
    return PathFamily(graph, vertex, members)


# -- minimal common extensions ------------------------------------------------


def mce(mu: Path, nu: Path) -> tuple[Path, ...]:
    """All minimal common extensions of mu and nu (empty if ranges differ)."""
    if mu.graph is not nu.graph or mu.range != nu.range:
        return ()
    g = mu.graph
    hit = g._mce_cache.get((mu, nu))
    if hit is not None:
        return hit
    top = mu.degree | nu.degree
    zero = Degree.zero(g.rank)
    out = tuple(
        lam
        for lam in g.paths(mu.range, top)
        if segment(lam, zero, mu.degree) == mu
        and segment(lam, zero, nu.degree) == nu
    )
    g._mce_cache[(mu, nu)] = out
    return out


def lambda_min(mu: Path, nu: Path) -> tuple[MinPair, ...]:
    """The pairs (alpha, beta) with mu.alpha = nu.beta in mce(mu, nu)."""
    out = []
    for lam in mce(mu, nu):
        alpha = _split(lam, mu.degree)[1]
        beta = _split(lam, nu.degree)[1]
        out.append(MinPair(alpha, beta))
    return tuple(out)


def ext(mu: Path, members: Iterable[Path] | PathFamily) -> tuple[Path, ...]:
    """Ext(mu; E): tails alpha at s(mu) with mu.alpha refining some member.

    Members must share mu's range; deduplicates alpha across witnesses.
    """
    if isinstance(members, PathFamily):
        if members.vertex != mu.range:
            raise RangeMismatch(
                f"family at {members.vertex} but mu has range {mu.range}"
            )
        members = members.members
    out = set()
    for nu in members:
        if nu.range != mu.range:
            raise RangeMismatch(
                f"member {nu.token()} has range {nu.range}, expected {mu.range}"
            )
        for pair in lambda_min(mu, nu):
            out.add(pair.alpha)
    return tuple(sorted(out, key=path_sort_key))


def ext_family(mu: Path, members: Iterable[Path] | PathFamily) -> PathFamily:
    """Ext(mu; E) packaged as a family at s(mu)."""
    return PathFamily(mu.graph, mu.source, ext(mu, members))


def has_prefix_in(p: Path, members: Iterable[Path]) -> bool:
    """Whether p = mu.tail for some mu among members (p in E.Lambda)."""
    zero = Degree.zero(p.graph.rank)
    for mu in members:
        if mu.range == p.range and mu.degree <= p.degree:
            if segment(p, zero, mu.degree) == mu:
                return True
    return False


# -- grid closure --------------------------------------------------------------


# closure steps after which a grid closure gives up: grids are finite, so
# only a library bug reaches it
_CLOSURE_BUDGET = 100_000


def _bits(mask: int):
    """The set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PathIndex:
    """Paths numbered in order of first use, so that a set of them is an
    ``int`` bitmask, with the memos of the grid closures over them.

    ``matched`` and ``by_range`` hold the mask of the numbered paths of each
    (degree, source) and each range; ``exts`` maps (mu, sigma) to the mask of
    Ext(mu; {sigma}) and ``products`` maps (lam, tails mask) to the mask of
    the products lam.alpha.  Closures over one index share these memos.
    The grid queries :meth:`pairs`, :meth:`tails` and :meth:`tail_paths`
    keep each lam's proper extensions, with the count of paths examined, in
    ``extensions``.
    """

    __slots__ = ("paths", "index", "matched", "by_range", "exts", "products", "extensions")

    def __init__(self):
        self.paths: list[Path] = []
        self.index: dict[Path, int] = {}
        self.matched: dict[tuple[Degree, str], int] = {}
        self.by_range: dict[str, int] = {}
        self.exts: dict[tuple[int, int], int] = {}
        self.products: dict[tuple[int, int], int] = {}
        self.extensions: dict[int, tuple[int, int]] = {}

    def bit(self, p: Path) -> int:
        """The number of p, assigned on first use."""
        i = self.index.get(p)
        if i is None:
            i = self.index[p] = len(self.paths)
            self.paths.append(p)
            key = (p.degree, p.source)
            self.matched[key] = self.matched.get(key, 0) | 1 << i
            self.by_range[p.range] = self.by_range.get(p.range, 0) | 1 << i
        return i

    def mask(self, paths: Iterable[Path]) -> int:
        out = 0
        for p in paths:
            out |= 1 << self.bit(p)
        return out

    def decode(self, mask: int) -> tuple[Path, ...]:
        """The paths of mask in canonical order."""
        return tuple(sorted((self.paths[i] for i in _bits(mask)), key=path_sort_key))

    def pairs(self, grid: int) -> list[tuple[int, list[int]]]:
        """The grid's :func:`pairs_ds` in order, as each lam with its mus."""
        paths = self.paths
        order = sorted(_bits(grid), key=lambda i: paths[i].sort_key())
        mates: dict[tuple[Degree, str], list[int]] = {}
        for i in order:
            mates.setdefault((paths[i].degree, paths[i].source), []).append(i)
        return [(i, mates[(paths[i].degree, paths[i].source)]) for i in order]

    def tails(self, i: int, grid: int) -> int:
        """The mask of the lam.nu in the grid with d(nu) > 0, lam path i; lam's
        extensions are kept, and extended by the paths numbered since."""
        out, seen = self.extensions.get(i, (0, 0))
        lam = self.paths[i]
        for j in range(seen, len(self.paths)):
            rho = self.paths[j]
            if j != i and rho.range == lam.range and lam.degree <= rho.degree:
                if _split(rho, lam.degree)[0] == lam:
                    out |= 1 << j
        self.extensions[i] = (out, len(self.paths))
        return grid & out

    def tail_paths(self, i: int, tails: int) -> tuple[Path, ...]:
        """The nu of the lam.nu in a :meth:`tails` mask, lam path i, in index
        order; a caller needing path order sorts them once."""
        d = self.paths[i].degree
        return tuple(_split(self.paths[j], d)[1] for j in _bits(tails))

    def close(self, base: int, new: Iterable[Path], budget: int = _CLOSURE_BUDGET) -> int:
        """The least closed superset of ``base | new``, for a closed ``base``.

        Semi-naive: each added path is processed once, against itself and
        the paths processed before it, so a triple (lam, mu, sigma) is
        visited once, when the last of its paths is processed, and triples
        inside ``base`` are never visited.  Returns ``base`` when every new
        path is already in it.  The budget counts (lam, mu, sigma, alpha)
        steps.
        """
        queue = self.mask(new) & ~base
        closed = base | queue
        done = base
        paths, matched, by_range = self.paths, self.matched, self.by_range
        exts, products = self.exts, self.products
        steps = 0
        while queue:
            low = queue & -queue
            queue ^= low
            done |= low
            i = low.bit_length() - 1
            p = paths[i]
            same = done & matched[(p.degree, p.source)]
            here = done & by_range[p.range]
            # every triple holding p, once, as (mu, sigma, mask of lams): p as
            # lam; else p as mu; else p as sigma
            work = [
                (mu, sigma, low)
                for mu in _bits(same)
                for sigma in _bits(done & by_range[paths[mu].range])
            ]
            if same != low:
                work += [(i, sigma, same ^ low) for sigma in _bits(here)]
            for mu in _bits(here ^ low):
                q = paths[mu]
                lams = done & matched[(q.degree, q.source)] & ~low
                if lams:
                    work.append((mu, i, lams))
            for mu, sigma, lams in work:
                alphas = exts.get((mu, sigma))
                if alphas is None:
                    alphas = exts[(mu, sigma)] = self.mask(ext(paths[mu], (paths[sigma],)))
                if not alphas:
                    continue
                count = alphas.bit_count()
                for lam in _bits(lams):
                    steps += count
                    if steps > budget:
                        raise ClosureBudgetExceeded(f"pi_closure exceeded {budget} steps")
                    grown = products.get((lam, alphas))
                    if grown is None:
                        grown = products[(lam, alphas)] = self.mask(
                            compose(paths[lam], paths[alpha]) for alpha in _bits(alphas)
                        )
                    grown &= ~closed
                    closed |= grown
                    queue |= grown
        return closed


def pi_closure(members: Iterable[Path], budget: int = _CLOSURE_BUDGET) -> tuple[Path, ...]:
    """Least superset closed under lam.Ext(mu; {sigma}) for matched pairs.

    The closure rule: lam, mu, sigma in G with d(lam) = d(mu) and
    s(lam) = s(mu) implies lam.Ext(mu; {sigma}) is contained in G.  Degrees
    never exceed the join of the input degrees, so the result is finite even
    on cyclic skeletons.  The closure is computed semi-naively (each triple
    of paths is examined once); the step budget counts each
    (lam, mu, sigma, alpha) step once and guards against library bugs.
    """
    index = PathIndex()
    return index.decode(index.close(0, members, budget))


def pairs_ds(paths: Iterable[Path]) -> tuple[tuple[Path, Path], ...]:
    """All ordered pairs from the set with equal degree and equal source."""
    index = PathIndex()
    rows = index.pairs(index.mask(paths))
    return tuple((index.paths[i], index.paths[j]) for i, mus in rows for j in mus)
