"""Deciding exhaustiveness and enumerating finite exhaustive families.

A family E at v is exhaustive when every path at v has a common refinement
with some member: a hitting condition.  ``is_exhaustive`` and
``fe_enumerate`` share one list of obstruction paths that E must meet.  On
acyclic graphs it is vLambda, met through a common extension; when every
vertex reachable from v continues in every color it is vLambda^N for any N
at or above the member degrees, met by a member prefix.  Both prove
exhaustiveness.  Otherwise a bounded window of vLambda, met through common
extensions, can only refute, and an unrefuted family is Unknown.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .degree import Degree, join_all
from .errors import BudgetExceeded
from .kgraph import KGraph, Path
from .alignment import PathFamily, has_prefix_in, mce


class Status(Enum):
    EXHAUSTIVE = "exhaustive"
    NOT_EXHAUSTIVE = "not-exhaustive"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ExhaustiveVerdict:
    status: Status
    witness: Path | None

    def __bool__(self) -> bool:
        return self.status is Status.EXHAUSTIVE


def _reachable_vertices(graph: KGraph, v: str) -> set[str]:
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for c in range(1, graph.rank + 1):
            for e in graph.edges_from(u, c):
                if e.source not in seen:
                    seen.add(e.source)
                    stack.append(e.source)
    return seen


def _source_free_from(graph: KGraph, v: str) -> bool:
    """Every vertex reachable from v continues in every color."""
    return all(
        graph.edges_from(u, c)
        for u in _reachable_vertices(graph, v)
        for c in range(1, graph.rank + 1)
    )


def _compatible(lam: Path, members) -> bool:
    return any(mce(lam, mu) for mu in members)


def _obstructions(graph: KGraph, v: str, n: Degree, depth: Degree):
    """(paths to meet, meets(path, members), whether meeting all proves it).

    ``n`` is the prefix degree of the source-free case, ``depth`` the window
    of the refute-only case; the paths come in canonical order.
    """
    if graph.is_acyclic:
        return graph.paths_at(v), _compatible, True
    if _source_free_from(graph, v):
        return graph.paths(v, n), has_prefix_in, True
    return graph.paths_up_to(v, depth), _compatible, False


def is_exhaustive(E: PathFamily, depth: Degree | None = None) -> ExhaustiveVerdict:
    """Decide whether E is exhaustive at its range vertex.

    Exact on acyclic graphs (every path at v) and on source-free reachable
    regions (the degree-N paths, N the join of member degrees).  Otherwise
    searches vLambda up to ``depth`` (default N + (1, ..., 1)) for a path
    no member meets and returns Unknown if none is found.
    """
    g = E.graph
    if not E.members:
        return ExhaustiveVerdict(Status.NOT_EXHAUSTIVE, g.vertex_path(E.vertex))
    N = join_all((p.degree for p in E.members), g.rank)
    if depth is None:
        depth = N + Degree(*([1] * g.rank))
    paths, meets, proves = _obstructions(g, E.vertex, N, depth)
    for lam in paths:
        if not meets(lam, E.members):
            return ExhaustiveVerdict(Status.NOT_EXHAUSTIVE, lam)
    return ExhaustiveVerdict(Status.EXHAUSTIVE if proves else Status.UNKNOWN, None)


def _subset_count(n: int, max_size: int) -> int:
    return sum(math.comb(n, s) for s in range(1, min(n, max_size) + 1))


def _candidates(graph: KGraph, v: str, depth: Degree) -> list[Path]:
    """The non-vertex window paths at v, canonically ordered."""
    return [p for p in graph.paths_up_to(v, depth) if not p.is_vertex()]


def _require_subset_budget(candidates: list[Path], max_size: int, budget: int) -> None:
    """Raise BudgetExceeded when the subsets of at most ``max_size``
    candidates, which a listing visits, outnumber ``budget``."""
    if _subset_count(len(candidates), max_size) > budget:
        raise BudgetExceeded(
            f"{len(candidates)} candidate paths exceed the subset budget {budget}"
        )


def _hit_masks(graph: KGraph, v: str, depth: Degree, candidates: list[Path]):
    """The distinct bitmasks of the candidates meeting each obstruction, or
    None where the obstructions cannot prove exhaustiveness; a family of
    candidates is exhaustive when its mask meets every one."""
    # the window bounds every member degree, so it serves as the prefix degree
    paths, meets, proves = _obstructions(graph, v, depth, depth)
    if not proves:
        return None
    return {
        sum(1 << i for i, mu in enumerate(candidates) if meets(lam, (mu,)))
        for lam in paths
    }


def fe_enumerate(
    graph: KGraph,
    v: str,
    depth: Degree,
    max_size: int,
    budget: int = 200_000,
) -> tuple[PathFamily, ...]:
    """All exhaustive E in vLambda^{<=depth} minus the vertex, |E| <= max_size.

    For acyclic graphs with depth at or above the maximum degree this is
    exactly the v-ranged part of the finite-exhaustive universe, up to the
    size cap.  A subset is kept when it meets, for every obstruction, the
    bitmask of candidates meeting it; where the obstructions cannot prove
    exhaustiveness nothing is kept.  Output is canonically sorted.
    """
    candidates = _candidates(graph, v, depth)
    _require_subset_budget(candidates, max_size, budget)
    masks = _hit_masks(graph, v, depth, candidates)
    if masks is None:
        return ()
    out = []
    for size in range(1, min(len(candidates), max_size) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            mask = sum(1 << i for i in combo)
            if all(mask & m for m in masks):
                out.append(PathFamily(graph, v, [candidates[i] for i in combo]))
    out.sort(key=lambda f: f.sort_key())
    return tuple(out)


def minimal_exhaustive(
    graph: KGraph,
    v: str,
    depth: Degree,
    max_size: int,
    budget: int = 200_000,
) -> tuple[PathFamily, ...]:
    """The inclusion-minimal families among fe_enumerate's output.

    These are the minimal transversals, of at most ``max_size`` members, of
    the hypergraph of hit masks.  The search branches on the first mask the
    chosen set misses, adding each of its candidates not yet banned and
    banning the ones tried before it, so no subset is visited twice; a
    branch ends once some chosen member is no longer the only one meeting
    some mask, since no superset can be minimal.  ``budget`` still counts
    the candidate subsets, as in ``fe_enumerate``.
    """
    candidates = _candidates(graph, v, depth)
    _require_subset_budget(candidates, max_size, budget)
    masks = _hit_masks(graph, v, depth, candidates)
    if masks is None or 0 in masks:
        return ()
    # fewest hitters first keeps the branching narrow
    order = sorted(masks, key=lambda m: (m.bit_count(), m))
    found: list[int] = []

    def grow(chosen: int, banned: int, size: int) -> None:
        missed = 0
        critical = 0
        for m in order:
            hit = m & chosen
            if not hit:
                if not missed:
                    missed = m
            elif not hit & (hit - 1):
                critical |= hit
        if critical != chosen:
            return
        if not missed:
            found.append(chosen)
            return
        if size >= max_size:
            return
        free = missed & ~banned
        while free:
            bit = free & -free
            grow(chosen | bit, banned, size + 1)
            banned |= bit
            free ^= bit

    grow(0, 0, 0)
    out = [
        PathFamily(graph, v, [c for i, c in enumerate(candidates) if chosen >> i & 1])
        for chosen in found
    ]
    out.sort(key=lambda f: f.sort_key())
    return tuple(out)
