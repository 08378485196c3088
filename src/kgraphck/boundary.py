"""Boundary paths, the grid graphs, and the aperiodicity apparatus.

A path x is a compatible boundary path for a satiated collection S when,
at every lattice point n <= d(x), every member family of S based at the
vertex x(n) is met by a segment of x starting there.  On acyclic graphs the
boundary is a finite set of ordinary paths and everything here is exact;
the constructive builder follows the diagonal-scheduled obligation scheme
and optionally avoids all initial segments from a family outside S.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degree import Degree
from .errors import (
    CyclicGraphUnsupported,
    DomainError,
    InvariantViolated,
    NoSeparation,
    PreconditionFailed,
)
from .kgraph import (
    Edge,
    KGraph,
    Path,
    SkeletonSpec,
    compose,
    path_sort_key,
    segment,
    validate,
    vertex_at,
)
from .alignment import PathFamily, ext_family, has_prefix_in, lambda_min, mce
from .satiation import FamilyCollection, Membership, member


# -- grid graphs ----------------------------------------------------------------


def omega(k: int, m: Degree) -> KGraph:
    """The rank-k grid graph on the lattice points below m.

    One color-i edge from n + e_i down to n whenever n + e_i <= m; all
    squares are forced, so the skeleton is valid by construction.
    """
    if len(m) != k:
        raise ValueError("degree rank mismatch")

    def vid(n: Degree) -> str:
        return ",".join(str(c) for c in n)

    def eid(i: int, n: Degree) -> str:
        return f"c{i}:{vid(n)}"

    vertices = tuple(vid(n) for n in m.below())
    edges = []
    for n in m.below():
        for i in range(1, k + 1):
            ni = n + Degree.unit(k, i)
            if ni <= m:
                edges.append(Edge(eid(i, n), i, vid(n), vid(ni)))
    squares = []
    for n in m.below():
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                nij = n + Degree.unit(k, i) + Degree.unit(k, j)
                if nij <= m:
                    ni = n + Degree.unit(k, i)
                    nj = n + Degree.unit(k, j)
                    squares.append((eid(i, n), eid(j, ni), eid(j, n), eid(i, nj)))
    return validate(SkeletonSpec(k, vertices, tuple(edges), tuple(squares)))


# -- diagonal listing -------------------------------------------------------------


def position(m: int, n: int) -> int:
    """Index of (m, n) in the diagonal listing of pairs of positive integers."""
    if m < 1 or n < 1:
        raise DomainError("position is defined on positive integers")
    return (m + n - 1) * (m + n - 2) // 2 + m


def position_inverse(l: int) -> tuple[int, int]:
    """The l-th pair in the diagonal listing; inverse of :func:`position`."""
    if l < 1:
        raise DomainError("position indices start at 1")
    t = 2
    while (t - 1) * (t - 2) // 2 < l:
        t += 1
    t -= 1
    m = l - (t - 1) * (t - 2) // 2
    return (m, t - m)


# -- boundary membership ----------------------------------------------------------


def is_boundary(x: Path, S: FamilyCollection) -> bool:
    """Whether x meets a member of every family of S it passes."""
    S.require_exact("boundary membership")
    return is_boundary_windowed(x, S) is Membership.YES


def is_boundary_windowed(x: Path, S: FamilyCollection) -> Membership:
    """Three-valued membership against a windowed collection.

    A violated member family is definitive (the full satiation only grows),
    but passing every windowed family leaves the verdict open.  Checking
    only inclusion-minimal families at each vertex is equivalent: a path
    that misses a family misses each of its subfamilies.
    """
    d = x.degree
    for n in d.below():
        u = vertex_at(x, n)
        for E in S.minimal_at(u):
            if not any(
                n + lam.degree <= d and segment(x, n, n + lam.degree) == lam
                for lam in E.sorted_members()
            ):
                return Membership.NO
    return Membership.YES if S.exact else Membership.UNKNOWN


def boundary_path(x: Path, S: FamilyCollection) -> Path:
    """x, once checked to be a boundary path for S."""
    if not is_boundary(x, S):
        raise PreconditionFailed(f"{x.token()} is not a boundary path for the collection")
    return x


def boundary_paths(v: str, S: FamilyCollection) -> tuple[Path, ...]:
    """All boundary paths with range v, canonically ordered; never empty;
    listed once per collection and vertex and kept in the collection's views."""
    g = S.graph
    g.vertex_path(v)  # raises on an unknown vertex, whose path list would be empty
    if not g.is_acyclic:
        raise CyclicGraphUnsupported("boundary enumeration needs a finite path category")
    S.require_exact("boundary membership")
    out = S.view(("boundary", v), lambda: tuple(x for x in g.paths_at(v) if is_boundary(x, S)))
    if not out:
        raise InvariantViolated(
            f"empty boundary at {v}: satiated collections never strand a vertex"
        )
    return out


def extend(lam: Path, x: Path, S: FamilyCollection) -> Path:
    """lam.x as a boundary path for S; membership is re-checked, not assumed."""
    return boundary_path(compose(lam, x), S)


def restrict(x: Path, n: Degree, S: FamilyCollection) -> Path:
    """The tail of x past degree n, as a boundary path for S; re-checked."""
    return boundary_path(segment(x, n, x.degree), S)


# -- constructive builder -----------------------------------------------------------

# loop passes after which construct_boundary gives up: every pass but the last
# extends the path by positive degree, so on an acyclic graph the loop ends
# within (total of max_degree) + 1 passes
_CONSTRUCT_STEPS = 10_000


def construct_boundary(
    v: str,
    S: FamilyCollection,
    avoid: PathFamily | None = None,
) -> Path:
    """Build a boundary path at v by serving diagonal-scheduled obligations.

    Obligation (m, j) asks that the tail of the path beyond checkpoint m
    eventually begins with a member of the j-th family at that checkpoint's
    source; obligations are served in diagonal-listing order, extending the
    path through an extension set when unmet.  When ``avoid`` is a family
    outside S, extension choices additionally keep Ext(current; avoid)
    outside S, which forces the result to have no initial segment in avoid.
    """
    g = S.graph
    lam = g.vertex_path(v)  # raises on an unknown vertex
    if not g.is_acyclic:
        raise CyclicGraphUnsupported("constructive boundary needs a finite path category")
    S.require_exact("boundary membership")
    if avoid is not None:
        if avoid.vertex != v:
            raise PreconditionFailed("avoid family must be based at the start vertex")
        if not avoid.is_vertex_free():
            # every path has the vertex path as an initial segment
            raise PreconditionFailed("avoid family contains a vertex path")
        if member(avoid, S) is Membership.YES:
            raise PreconditionFailed("avoid family belongs to the collection")

    checkpoints: list[Path] = [lam]
    listings: list[tuple[PathFamily, ...]] = [S.at(lam.source)]
    avoid_ext = avoid  # Ext(lam; avoid), maintained incrementally

    def satisfied(m: int, j: int) -> bool:
        E = listings[m][j]
        tail = segment(lam, checkpoints[m].degree, lam.degree)
        return has_prefix_in(tail, E.members)

    guard = 0
    while True:
        guard += 1
        if guard > _CONSTRUCT_STEPS:
            raise InvariantViolated("boundary construction failed to terminate")
        pending = [
            (m, j)
            for m in range(len(checkpoints))
            for j in range(len(listings[m]))
            if not satisfied(m, j)
        ]
        if not pending:
            break
        m, j = min(pending, key=lambda mj: position(mj[0] + 1, mj[1] + 1))
        E = listings[m][j]
        tail = segment(lam, checkpoints[m].degree, lam.degree)
        candidates = ext_family(tail, E).sorted_members()
        if avoid_ext is not None:
            candidates = tuple(
                alpha
                for alpha in candidates
                if not has_prefix_in(alpha, avoid_ext.members)
                and member(ext_family(alpha, avoid_ext), S) is Membership.NO
            )
            # guaranteed nonempty: otherwise the avoided family would belong
            # to the collection, contradicting the precondition
            if not candidates:
                raise InvariantViolated("no admissible extension; collection not satiated?")
        nu = candidates[0]
        lam = compose(lam, nu)
        if avoid_ext is not None:
            avoid_ext = ext_family(nu, avoid_ext)
        checkpoints.append(lam)
        listings.append(S.at(lam.source))

    out = boundary_path(lam, S)
    if avoid is not None and has_prefix_in(lam, avoid.members):
        raise InvariantViolated(f"constructed {lam.token()} has an initial segment in avoid")
    return out


# -- aperiodicity -----------------------------------------------------------------


def is_aperiodic_path(x: Path) -> bool:
    """Whether no two distinct paths into r(x) admit a common extension over x."""
    g = x.graph
    if not g.is_acyclic:
        raise CyclicGraphUnsupported(
            "aperiodicity quantifies over all paths into r(x); "
            "use aperiodicity_counterexample with a window on cyclic graphs"
        )
    return _periodic_pair(x, g.paths_into(x.range)) is None


def aperiodicity_counterexample(
    x: Path, window: Degree
) -> tuple[Path, Path] | None:
    """A pair (lam, mu) within the window witnessing periodicity, if any.

    Bounded semantics for cyclic graphs: None means no counterexample was
    found up to the window, not that x is aperiodic.
    """
    g = x.graph
    into = [
        p
        for v in g.vertices
        for p in g.paths_up_to(v, window)
        if p.source == x.range
    ]
    into.sort(key=path_sort_key)
    return _periodic_pair(x, into)


def _periodic_pair(x: Path, into) -> tuple[Path, Path] | None:
    """The first pair lam, mu (lam before mu in ``into``) of distinct paths
    into r(x) with lam.x and mu.x having a common extension."""
    for i, lam in enumerate(into):
        for mu in into[i + 1 :]:
            if mce(compose(lam, x), compose(mu, x)):
                return (lam, mu)
    return None


def separation_degree(x: Path, lam: Path, mu: Path) -> Degree:
    """Least n (by total then lexicographic order) separating lam and mu over x.

    Returns the first n <= d(x) with no minimal common extension of
    lam.x(0,n) and mu.x(0,n); raises NoSeparation when the scan exhausts,
    signalling that x fails aperiodicity for this pair.
    """
    if lam == mu:
        raise PreconditionFailed("need distinct paths")
    if lam.source != x.range or mu.source != x.range:
        raise PreconditionFailed("paths must end at r(x)")
    zero = Degree.zero(x.graph.rank)
    scan = sorted(x.degree.below(), key=lambda n: (n.total, n.coords))
    for n in scan:
        head = segment(x, zero, n)
        if not lambda_min(compose(lam, head), compose(mu, head)):
            return n
    raise NoSeparation(f"no separation degree below {x.degree}")


# -- condition (C) -----------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCReport:
    ok: bool
    vertex_witnesses: dict[str, Path]
    avoidance_witnesses: dict[tuple[str, PathFamily], Path]
    failures: tuple[tuple[str, PathFamily | None], ...]


def condition_c(S: FamilyCollection, maximal: bool = False) -> ConditionCReport:
    """Search for aperiodic boundary witnesses at every vertex.

    For each vertex an aperiodic boundary path must exist, and for each
    universe family F outside the collection an aperiodic boundary path
    avoiding every initial segment from F (the first such path is the
    witness); failures list the (vertex, family) pairs with no witness.
    Each aperiodic path's initial segments are read from the collection's
    path facts, so a family escapes a path when it is disjoint from that set.

    With ``maximal`` only the maximal families outside S are searched
    (:meth:`~kgraphck.satiation.FamilyCollection.maximal_outside`), and
    ``ok`` is unchanged: a witness for F serves every subfamily of F, and
    on an exact universe, which boundary listing requires, every family
    outside S lies below a maximal one.
    """
    g = S.graph
    vertex_witnesses: dict[str, Path] = {}
    avoidance_witnesses: dict[tuple[str, PathFamily], Path] = {}
    failures: list[tuple[str, PathFamily | None]] = []
    for v in g.vertices:
        aperiodic = [x for x in boundary_paths(v, S) if is_aperiodic_path(x)]
        if aperiodic:
            vertex_witnesses[v] = aperiodic[0]
        else:
            failures.append((v, None))
        prefixes = [(x, S.facts.prefixes(x)) for x in aperiodic]
        for F in S.maximal_outside(v) if maximal else S.outside(v):
            witness = next((x for x, pre in prefixes if F.members.isdisjoint(pre)), None)
            if witness is not None:
                avoidance_witnesses[(v, F)] = witness
            else:
                failures.append((v, F))
    return ConditionCReport(
        not failures, vertex_witnesses, avoidance_witnesses, tuple(failures)
    )
