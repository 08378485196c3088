"""Minimal common extensions, extension sets, and the grid closure.

mce(mu, nu) enumerates the degree-(d(mu) v d(nu)) paths extending both
arguments; finiteness is automatic for finite skeletons.  pi_closure is the
least set containing its input and closed under transporting extensions
across equal-degree, equal-source pairs; it indexes the matrix-unit grids
used by the representation module.  One semi-naive routine, ``_close``,
computes every closure: it extends an already-closed set by new paths and
examines only the triples that touch them.
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


def pairs_ds(paths: Iterable[Path]) -> tuple[tuple[Path, Path], ...]:
    """All ordered pairs from the set with equal degree and equal source."""
    items = sorted(set(paths), key=path_sort_key)
    return tuple(
        (lam, mu)
        for lam in items
        for mu in items
        if lam.degree == mu.degree and lam.source == mu.source
    )


# closure steps after which a grid closure gives up: grids are finite, so
# only a library bug reaches it
_CLOSURE_BUDGET = 100_000


def _close(
    base: frozenset[Path],
    new: Iterable[Path],
    budget: int,
    exts: dict[tuple[Path, Path], tuple[Path, ...]] | None = None,
    products: dict[tuple[Path, Path], Path] | None = None,
) -> frozenset[Path]:
    """The least closed superset of ``base | new``, for a closed ``base``.

    Semi-naive: each added path is processed once, against itself and the
    paths processed before it, so a triple (lam, mu, sigma) is visited once,
    when the last of its paths is processed, and triples inside ``base`` are
    never visited.  Ext(mu; {sigma}) is computed once per pair, for sigma
    with range r(mu) only, and kept in ``exts``; each product lam.alpha is
    kept in ``products``.  Callers closing many sets over one graph pass the
    same two dicts.  Returns ``base`` itself when every new path is already
    in it.  The budget counts (lam, mu, sigma, alpha) steps.
    """
    new = [p for p in new if p not in base]
    if not new:
        return base
    matched: dict[tuple[Degree, str], list[Path]] = {}  # by (degree, source)
    by_range: dict[str, list[Path]] = {}
    exts = {} if exts is None else exts
    products = {} if products is None else products

    def admit(p: Path) -> None:
        matched.setdefault((p.degree, p.source), []).append(p)
        by_range.setdefault(p.range, []).append(p)

    def tails(mu: Path, sigma: Path) -> tuple[Path, ...]:
        out = exts.get((mu, sigma))
        if out is None:
            out = exts[(mu, sigma)] = ext(mu, (sigma,))
        return out

    for p in base:
        admit(p)
    closed = set(base)
    queue = []
    for p in new:
        if p not in closed:
            closed.add(p)
            queue.append(p)
    steps = 0
    while queue:
        p = queue.pop()
        admit(p)
        # every triple holding p, once: p as lam; else p as mu; else p as sigma
        work = [
            (p, tails(mu, sigma))
            for mu in matched[(p.degree, p.source)]
            for sigma in by_range[mu.range]
        ]
        for sigma in by_range[p.range]:
            alphas = tails(p, sigma)
            if alphas:
                work += [(lam, alphas) for lam in matched[(p.degree, p.source)] if lam != p]
        for mu in by_range[p.range]:
            alphas = tails(mu, p) if mu != p else ()
            if alphas:
                work += [(lam, alphas) for lam in matched[(mu.degree, mu.source)] if lam != p]
        for lam, alphas in work:
            for alpha in alphas:
                steps += 1
                if steps > budget:
                    raise ClosureBudgetExceeded(f"pi_closure exceeded {budget} steps")
                cand = products.get((lam, alpha))
                if cand is None:
                    cand = products[(lam, alpha)] = compose(lam, alpha)
                if cand not in closed:
                    closed.add(cand)
                    queue.append(cand)
    return frozenset(closed)


def pi_closure(members: Iterable[Path], budget: int = _CLOSURE_BUDGET) -> tuple[Path, ...]:
    """Least superset closed under lam.Ext(mu; {sigma}) for matched pairs.

    The closure rule: lam, mu, sigma in G with d(lam) = d(mu) and
    s(lam) = s(mu) implies lam.Ext(mu; {sigma}) is contained in G.  Degrees
    never exceed the join of the input degrees, so the result is finite even
    on cyclic skeletons.  The closure is computed semi-naively (each triple
    of paths is examined once); the step budget counts each
    (lam, mu, sigma, alpha) step once and guards against library bugs.
    """
    return tuple(sorted(_close(frozenset(), members, budget), key=path_sort_key))
