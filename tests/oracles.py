"""Brute-force oracles, independent of the library code paths they check.

These recompute the operations from their definitions by exhaustive search:
square rewriting closures for normal forms, prefix enumeration for
factorizations and common extensions, subset/BFS enumeration of satiated
collections for the closure operator.  Slow on purpose; used on desk-scale
fixtures only.
"""

# annotations stay strings: perfbench re-imports the package several times, and
# an evaluated alias such as Sequence[Path] would sit in typing's cache and keep
# every imported generation alive
from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

from kgraphck.degree import Degree, join_all
from kgraphck.errors import (
    BudgetExceeded,
    ClosureBudgetExceeded,
    FixpointBudgetExceeded,
    InexactUniverse,
    PairNotInGrid,
    UniverseTooLarge,
)
from kgraphck.kgraph import (
    Edge,
    Path,
    SkeletonSpec,
    compose,
    path_sort_key,
    segment,
    validate,
    vertex_at,
)
from kgraphck.alignment import PathFamily, ext, ext_family, has_prefix_in, lambda_min, pi_closure
from kgraphck.boundary import ConditionCReport, boundary_paths, condition_c, is_aperiodic_path
from kgraphck.exhaustive import Status, _source_free_from, _subset_count, fe_enumerate
from kgraphck.matrices import SparseMatrix
from kgraphck.repn import (
    CheckResult,
    CKFamily,
    FaithfulnessVerdict,
    GapVanishing,
    MatrixUnitReport,
    _z_power,
    evaluate,
    gap_product,
    gauge_unitary,
    verify_family,
)
from kgraphck.satiation import (
    FamilyCollection,
    Membership,
    Violation,
    _graftings,
    _require_truncation_budget,
    _with_images,
    is_satiated,
    member,
    sigma1,
    sigma4,
)


# -- rewriting ----------------------------------------------------------------


def rewrite_closure(graph, word):
    """All edge words reachable from `word` by single square applications."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        w = frontier.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if graph.edge(a).color != graph.edge(b).color:
                c, d = graph._swap(a, b)
                w2 = w[:i] + (c, d) + w[i + 2 :]
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
    return seen


def normal_forms_by_search(graph, word):
    """The color-ascending words in the rewriting closure (should be one)."""
    def ascending(w):
        colors = [graph.edge(e).color for e in w]
        return all(c1 <= c2 for c1, c2 in zip(colors, colors[1:]))

    return sorted(w for w in rewrite_closure(graph, word) if ascending(w))


# -- factorization ------------------------------------------------------------


def brute_factorizations(p, m):
    """All pairs (q, r) with d(q) = m and q.r = p, by full enumeration."""
    g = p.graph
    out = []
    for q in g.paths(p.range, m):
        for r in g.paths(q.source, p.degree - m):
            if compose(q, r) == p:
                out.append((q, r))
    return out


def brute_prefix_test(lam, mu):
    """Whether lam extends mu, via factorization enumeration only."""
    if not (mu.degree <= lam.degree) or mu.range != lam.range:
        return False
    return any(q == mu for q, _ in brute_factorizations(lam, mu.degree))


def brute_mce(mu, nu):
    if mu.range != nu.range:
        return set()
    g = mu.graph
    top = mu.degree | nu.degree
    return {
        lam
        for lam in g.paths(mu.range, top)
        if brute_prefix_test(lam, mu) and brute_prefix_test(lam, nu)
    }


def brute_ext(mu, members):
    out = set()
    for nu in members:
        for lam in brute_mce(mu, nu):
            for q, alpha in brute_factorizations(lam, mu.degree):
                if q == mu:
                    out.add(alpha)
    return out


def brute_pi_closure(members):
    """Fixpoint of the transport rule computed by blunt re-scanning."""
    closed = set(members)
    while True:
        additions = set()
        for lam in closed:
            for mu in closed:
                if lam.degree != mu.degree or lam.source != mu.source:
                    continue
                for sigma in closed:
                    if sigma.range != mu.range:
                        continue
                    for alpha in brute_ext(mu, [sigma]):
                        additions.add(compose(lam, alpha))
        if additions <= closed:
            return closed
        closed |= additions


def naive_pi_closure(members, budget=100_000):
    """The grid closure by rounds: every matched pair against every sigma of
    the previous round's snapshot, until a round adds nothing.  Counts every
    (lam, mu, sigma, alpha) step of every round against the budget."""
    closed = set(members)
    work = True
    steps = 0
    while work:
        work = False
        snapshot = sorted(closed, key=path_sort_key)
        for lam, mu in scan_pairs_ds(snapshot):
            for sigma in snapshot:
                for alpha in ext(mu, [s for s in (sigma,) if s.range == mu.range]):
                    steps += 1
                    if steps > budget:
                        raise ClosureBudgetExceeded(f"pi_closure exceeded {budget} steps")
                    cand = compose(lam, alpha)
                    if cand not in closed:
                        closed.add(cand)
                        work = True
    return tuple(sorted(closed, key=path_sort_key))


def path_set_close(
    base: frozenset[Path],
    new: Iterable[Path],
    budget: int,
    exts: dict[tuple[Path, Path], tuple[Path, ...]] | None = None,
    products: dict[tuple[Path, Path], Path] | None = None,
) -> frozenset[Path]:
    """``PathIndex.close`` on frozensets of paths: the least closed superset
    of ``base | new``, for a closed ``base``, computed semi-naively.

    Each added path is processed once, against itself and the paths
    processed before it, so a triple (lam, mu, sigma) is visited once and
    triples inside ``base`` never are.  ``exts`` keeps Ext(mu; {sigma}) and
    ``products`` each lam.alpha; closures over one graph may share them.
    Returns ``base`` itself when every new path is in it.  The budget counts
    (lam, mu, sigma, alpha) steps.
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


def brute_is_exhaustive(E, window_paths):
    """Exhaustiveness by brute extension search over an explicit window."""
    return all(brute_ext(lam, E.members) for lam in window_paths)


def branch_is_exhaustive(E: PathFamily, depth: Degree | None = None):
    """(status, witness) by the three separate scans is_exhaustive replaced.

    Acyclic graphs scan vLambda for an empty extension set, source-free
    regions scan the degree-N paths for a missing member prefix, and other
    graphs scan the window below ``depth`` for an empty extension set.
    """
    g = E.graph
    v = E.vertex
    if not E.members:
        return Status.NOT_EXHAUSTIVE, g.vertex_path(v)

    if g.is_acyclic:
        for lam in g.paths_at(v):
            if not ext(lam, E):
                return Status.NOT_EXHAUSTIVE, lam
        return Status.EXHAUSTIVE, None

    N = join_all((p.degree for p in E.members), g.rank)
    zero = Degree.zero(g.rank)
    if _source_free_from(g, v):
        for x in g.paths(v, N):
            if not any(segment(x, zero, mu.degree) == mu for mu in E.members):
                return Status.NOT_EXHAUSTIVE, x
        return Status.EXHAUSTIVE, None

    if depth is None:
        depth = N + Degree(*([1] * g.rank))
    for lam in g.paths_up_to(v, depth):
        if not ext(lam, E):
            return Status.NOT_EXHAUSTIVE, lam
    return Status.UNKNOWN, None


def subset_fe_enumerate(graph, v, depth, max_size, budget=200_000):
    """fe_enumerate by running branch_is_exhaustive on every candidate subset."""
    candidates = [p for p in graph.paths_up_to(v, depth) if not p.is_vertex()]
    if _subset_count(len(candidates), max_size) > budget:
        raise BudgetExceeded(
            f"{len(candidates)} candidate paths exceed the subset budget {budget}"
        )
    out = []
    for size in range(1, min(len(candidates), max_size) + 1):
        for combo in itertools.combinations(candidates, size):
            fam = PathFamily(graph, v, combo)
            if branch_is_exhaustive(fam)[0] is Status.EXHAUSTIVE:
                out.append(fam)
    out.sort(key=lambda f: f.sort_key())
    return tuple(out)


def pairwise_minimal_exhaustive(graph, v, depth, max_size, budget=200_000):
    """minimal_exhaustive by dropping every fe_enumerate family that has a
    proper subfamily in the same list."""
    families = fe_enumerate(graph, v, depth, max_size, budget)
    return tuple(
        f
        for f in families
        if not any(g is not f and g.members < f.members for g in families)
    )


# -- satiated collections -------------------------------------------------------


def all_satiated_by_subsets(base: FamilyCollection):
    """Every satiated collection, by checking all 2^|U| subsets (tiny U only)."""
    U = base.universe_all()
    assert len(U) <= 12, "subset enumeration oracle needs a tiny universe"
    out = []
    for r in range(len(U) + 1):
        for combo in itertools.combinations(U, r):
            C = base.with_members(combo)
            if is_satiated(C)[0]:
                out.append(frozenset(C.members))
    return out


def four_loop_is_satiated(collection: FamilyCollection) -> tuple[bool, list[Violation]]:
    """``is_satiated`` with each axiom's images enumerated by a loop of its
    own, apart from the closure maps: the reference for the shared images."""
    violations: list[Violation] = []
    members = collection.members

    for fam in collection.sorted_members():
        for cand in collection.universe(fam.vertex):
            if fam.members <= cand.members and cand not in members:
                violations.append(
                    Violation("S1", f"{fam!r} subset of {cand!r} not in collection")
                )

    for fam in collection.sorted_members():
        for mu in collection.window_paths(fam.vertex):
            if has_prefix_in(mu, fam.members):
                continue
            target = ext_family(mu, fam)
            if target not in members and collection.in_window(target):
                violations.append(
                    Violation(
                        "S2",
                        f"Ext({mu.token()}; {fam!r}) = {target!r} not in collection",
                    )
                )

    for fam in collection.sorted_members():
        for target in segment_truncations(fam, budget=collection.budget):
            if target not in members and collection.in_window(target):
                violations.append(
                    Violation("S3", f"truncation {target!r} of {fam!r} missing")
                )

    for fam in collection.sorted_members():
        for grafted in _graftings(collection, fam, budget=collection.budget):
            if grafted not in members and collection.in_window(grafted):
                violations.append(
                    Violation("S4", f"grafting {grafted!r} of {fam!r} missing")
                )

    return (not violations, violations)


def windowless_graftings(collection: FamilyCollection, fam: PathFamily, budget: int | None = None):
    """``satiation._graftings`` with every member in each pool, also those
    grafting past the window: its in-window graftings in the same order."""
    pools = {p: collection.at(p.source) for p in fam.sorted_members()}
    graftable = [p for p, pool in pools.items() if pool]
    produced = 0
    for r in range(len(graftable) + 1):
        for subset in itertools.combinations(graftable, r):
            produced += math.prod(len(pools[p]) for p in subset)
            if budget is not None and produced > budget:
                raise UniverseTooLarge(f"grafting enumeration for {fam!r} exceeds the budget {budget}")
            kept = fam.members.difference(subset)
            for assignment in itertools.product(*(pools[p] for p in subset)):
                grafted = set(kept)
                for lam, sub in zip(subset, assignment):
                    grafted.update(compose(lam, q) for q in sub.members)
                yield PathFamily(fam.graph, fam.vertex, grafted)


def filtered_maximal_outside(collection: FamilyCollection, v: str) -> list[PathFamily]:
    """``maximal_outside`` by its definition over ``outside(v)``: the F with
    F u {p} a member for every non-vertex window path p not in F."""
    inside = {E.members for E in collection.at(v)}
    candidates = [p for p in collection.window_paths(v) if not p.is_vertex()]
    return [
        F
        for F in collection.outside(v)
        if all(F.members | {p} in inside for p in candidates if p not in F.members)
    ]


def segment_truncations(fam: PathFamily, budget: int | None = None):
    """``satiation._truncations`` with each prefix cut by ``segment``, apart
    from the path facts: the same families in the same order."""
    if budget is not None:
        _require_truncation_budget(fam, budget)
    members = fam.sorted_members()
    per_member = [
        [n for n in p.degree.below() if not n.is_zero()] for p in members
    ]
    zero = Degree.zero(fam.graph.rank)
    index: dict[Path, int] = {}
    options = [
        [index.setdefault(segment(p, zero, n), len(index)) for n in opts]
        for p, opts in zip(members, per_member)
    ]
    prefixes = list(index)
    seen: set[frozenset] = set()
    for choice in itertools.product(*options):
        cut = frozenset(choice)
        if cut not in seen:
            seen.add(cut)
            yield PathFamily(fam.graph, fam.vertex, [prefixes[i] for i in cut])


def segment_extension_images(collection: FamilyCollection, fam: PathFamily):
    """``satiation._extension_images`` by ``has_prefix_in`` and ``ext_family``."""
    mus = collection.window_paths(fam.vertex)
    return ((mu, ext_family(mu, fam)) for mu in mus if not has_prefix_in(mu, fam.members))


def segment_truncation_images(collection: FamilyCollection, fam: PathFamily):
    """``satiation._truncation_images`` by :func:`segment_truncations`."""
    return ((None, F) for F in segment_truncations(fam, budget=collection.budget))


def _truncation_choices(fam: PathFamily, budget: int | None = None):
    """All choice vectors 0 < n_lam <= d(lam) over the members."""
    members = fam.sorted_members()
    per_member = [
        [n for n in p.degree.below() if not n.is_zero()] for p in members
    ]
    count = 1
    for opts in per_member:
        count *= len(opts)
    if budget is not None and count > budget:
        raise UniverseTooLarge(
            f"{count} truncation vectors for {fam!r} exceed the budget {budget}"
        )
    for choice in itertools.product(*per_member):
        yield tuple(zip(members, choice))


def _truncate(fam: PathFamily, choice) -> PathFamily:
    zero = Degree.zero(fam.graph.rank)
    cut = {segment(p, zero, n) for p, n in choice}
    return PathFamily(fam.graph, fam.vertex, cut)


def naive_satiate(
    collection: FamilyCollection, max_rounds: int = 1_000
) -> FamilyCollection:
    """The satiation fixpoint with every map applied to every member each
    round, S2 and S3 by the ``segment`` images above."""
    current = collection
    for _ in range(max_rounds):
        stepped = sigma1(current)
        stepped = _with_images(stepped, stepped.sorted_members(), segment_extension_images)
        stepped = _with_images(stepped, stepped.sorted_members(), segment_truncation_images)
        stepped = sigma4(stepped)
        if stepped.members == current.members:
            return current
        current = stepped
    raise FixpointBudgetExceeded(f"satiation did not stabilize in {max_rounds} rounds")


class AxiomClosure:
    """Fast direct saturation under the four axioms, over universe bitmasks.

    Independent of the sigma-map fixpoint: transitions are read straight off
    the axioms (supersets, extension transport, truncations, graftings) and
    saturated with a worklist.
    """

    def __init__(self, base: FamilyCollection):
        from kgraphck.alignment import ext_family, has_prefix_in

        self.base = base
        self.U = base.universe_all()
        self.idx = {f: i for i, f in enumerate(self.U)}
        self.supersets = []
        self.exts = []
        self.truncs = []
        for f in self.U:
            self.supersets.append(
                [self.idx[g2] for g2 in base.universe(f.vertex) if f.members <= g2.members]
            )
            es = set()
            for mu in base.window_paths(f.vertex):
                if not has_prefix_in(mu, f.members):
                    es.add(self.idx[ext_family(mu, f)])
            self.exts.append(sorted(es))
            ts = set()
            for choice in _truncation_choices(f):
                ts.add(self.idx[_truncate(f, choice)])
            self.truncs.append(sorted(ts))
        self.by_vertex = {}
        for f in self.U:
            self.by_vertex.setdefault(f.vertex, []).append(self.idx[f])
        self._graft_cache = {}

    def _graft_targets(self, fi, mask):
        f = self.U[fi]
        out = set()
        members = f.sorted_members()
        for r in range(1, len(members) + 1):
            for subset in itertools.combinations(members, r):
                pools = []
                for p in subset:
                    pool = [
                        j
                        for j in self.by_vertex.get(p.source, [])
                        if (mask >> j) & 1
                    ]
                    if not pool:
                        pools = None
                        break
                    pools.append(pool)
                if pools is None:
                    continue
                for assign in itertools.product(*pools):
                    key = (fi, subset, assign)
                    if key not in self._graft_cache:
                        new = set(f.members) - set(subset)
                        for lam, j in zip(subset, assign):
                            new.update(compose(lam, q) for q in self.U[j].members)
                        self._graft_cache[key] = self.idx[
                            PathFamily(f.graph, f.vertex, new)
                        ]
                    out.add(self._graft_cache[key])
        return out

    def close(self, mask: int) -> int:
        changed = True
        while changed:
            changed = False
            for fi in range(len(self.U)):
                if not (mask >> fi) & 1:
                    continue
                for j in itertools.chain(
                    self.supersets[fi], self.exts[fi], self.truncs[fi]
                ):
                    if not (mask >> j) & 1:
                        mask |= 1 << j
                        changed = True
                for j in self._graft_targets(fi, mask):
                    if not (mask >> j) & 1:
                        mask |= 1 << j
                        changed = True
        return mask

    def mask_of(self, members) -> int:
        out = 0
        for f in members:
            out |= 1 << self.idx[f]
        return out

    def members_of(self, mask: int):
        return frozenset(self.U[i] for i in range(len(self.U)) if (mask >> i) & 1)

    def all_closed(self):
        """Every satiated collection, enumerated as closed sets by BFS."""
        bottom = self.close(0)
        closed = {bottom}
        frontier = [bottom]
        while frontier:
            D = frontier.pop()
            for fi in range(len(self.U)):
                if (D >> fi) & 1:
                    continue
                E = self.close(D | (1 << fi))
                if E not in closed:
                    closed.add(E)
                    frontier.append(E)
        return sorted(closed)

    def intersection_of_satiated_containing(self, members, closed_masks) -> frozenset:
        want = self.mask_of(members)
        acc = None
        for mask in closed_masks:
            if mask & want == want:
                acc = mask if acc is None else acc & mask
        assert acc is not None, "full universe should always qualify"
        return self.members_of(acc)


# -- matrix-unit grids by scanning ----------------------------------------------------
#
# The grid queries of alignment.PathIndex recomputed from the path sets: each
# call scans the grid for the pair or the tails it needs.


def scan_pairs_ds(paths):
    """All ordered pairs from the set with equal degree and equal source."""
    items = sorted(set(paths), key=path_sort_key)
    return tuple(
        (lam, mu)
        for lam in items
        for mu in items
        if lam.degree == mu.degree and lam.source == mu.source
    )


def scan_grid_tails(PiE, lam):
    """The positive-degree nu with lam.nu in the grid set."""
    zero = Degree.zero(lam.graph.rank)
    out = []
    for rho in PiE:
        if rho != lam and rho.range == lam.range and lam.degree <= rho.degree:
            if segment(rho, zero, lam.degree) == lam:
                out.append(segment(rho, lam.degree, rho.degree))
    return tuple(sorted(out, key=path_sort_key))


def scan_theta(T: CKFamily, PiE, lam, mu):
    """The matrix unit t_lam (prod of gaps over grid tails) t_mu*."""
    pis = set(PiE)
    if lam not in pis or mu not in pis or lam.degree != mu.degree or lam.source != mu.source:
        raise PairNotInGrid(f"({lam.token()}, {mu.token()})")
    mid = gap_product(T, scan_grid_tails(PiE, lam), lam.source)
    return T.op(lam) @ mid @ T.op(mu).adjoint()


def scan_nonzero_theta_pattern(S: FamilyCollection, PiE):
    """Grid pairs whose row index's tail family is not in S."""
    if not S.exact:
        raise InexactUniverse("the vanishing pattern needs an exact universe")
    nonzero = {
        lam
        for lam in PiE
        if member(PathFamily(lam.graph, lam.source, scan_grid_tails(PiE, lam)), S)
        is not Membership.YES
    }
    return frozenset((lam, mu) for lam, mu in scan_pairs_ds(PiE) if lam in nonzero)


def scan_matrix_unit_check(T: CKFamily, PiE) -> MatrixUnitReport:
    """matrix_unit_check with every matrix unit from ``scan_theta``."""
    grid = scan_pairs_ds(PiE)
    zero = SparseMatrix.zero(T.dim)
    thetas = {(lam, mu): scan_theta(T, PiE, lam, mu) for lam, mu in grid}
    adjoint_dev = max(
        ((mat.adjoint() - thetas[(mu, lam)]).max_abs() for (lam, mu), mat in thetas.items()),
        default=0.0,
    )
    product_dev = max(
        ((m1 @ m2 - (thetas[(lam, tau)] if mu == sig else zero)).max_abs()
        for (lam, mu), m1 in thetas.items()
        for (sig, tau), m2 in thetas.items()),
        default=0.0,
    )
    span_dev = 0.0
    for lam, mu in grid:
        rhs = zero
        for nu in (lam.graph.vertex_path(lam.source),) + scan_grid_tails(PiE, lam):
            rhs = rhs + thetas[(compose(lam, nu), compose(mu, nu))]
        span_dev = max(span_dev, (T.op(lam) @ T.op(mu).adjoint() - rhs).max_abs())
    return MatrixUnitReport(adjoint_dev, product_dev, span_dev, len(grid))


# -- faithfulness and the uniqueness hypotheses ----------------------------------------


def per_window_faithful_on_core_check(
    T: CKFamily,
    S: FamilyCollection,
    windows: Iterable[Sequence[Path]] = (),
) -> FaithfulnessVerdict:
    """Two routes to injectivity on the degree-fixed subalgebra.

    Route (a): over each window's grid, every universally nonzero matrix
    unit is nonzero in T.  Route (b): every vertex operator is nonzero and
    every gap product over a universe family outside S is nonzero.  The
    supplied windows are augmented, vertex by vertex, with the window {v},
    whose unit theta(v,v) = t_v makes route (a) fail on a zero vertex
    operator, and then one window per family outside S at v (the family
    plus v), which makes route (a) fail whenever a gap product outside S
    vanishes.  Any disagreement indicates a library bug.
    """
    g = T.graph
    windows = [tuple(w) for w in windows]
    for v in g.vertices:
        windows.append((g.vertex_path(v),))
        for F in S.universe(v):
            if F not in S.members:
                windows.append((g.vertex_path(v),) + F.sorted_members())

    a_viol: list[str] = []
    for window in windows:
        PiE = pi_closure(window)
        pattern = scan_nonzero_theta_pattern(S, PiE)
        for lam, mu in sorted(pattern, key=lambda p: (p[0].sort_key(), p[1].sort_key())):
            if scan_theta(T, PiE, lam, mu).is_zero():
                a_viol.append(
                    f"theta({lam.token()},{mu.token()}) vanished in grid of size {len(PiE)}"
                )

    b_viol: list[str] = []
    for v in g.vertices:
        if T.vertex_op(v).is_zero():
            b_viol.append(f"vertex operator {v} is zero")
    for F in S.universe_all():
        if F not in S.members and gap_product(T, F.members, F.vertex).is_zero():
            b_viol.append(f"gap product of {F!r} vanished")

    return FaithfulnessVerdict(not a_viol, not b_viol, a_viol, b_viol)


def per_family_condition_c(S: FamilyCollection) -> ConditionCReport:
    """condition_c with each family's escape test run as a prefix search
    (``has_prefix_in``) over every aperiodic boundary path."""
    g = S.graph
    vertex_witnesses = {}
    avoidance_witnesses = {}
    failures = []
    for v in g.vertices:
        aperiodic = [x for x in boundary_paths(v, S) if is_aperiodic_path(x)]
        if aperiodic:
            vertex_witnesses[v] = aperiodic[0]
        else:
            failures.append((v, None))
        for F in S.universe(v):
            if F in S.members:
                continue
            escaping = [x for x in aperiodic if not has_prefix_in(x, F.members)]
            if escaping:
                avoidance_witnesses[(v, F)] = escaping[0]
            else:
                failures.append((v, F))
    return ConditionCReport(not failures, vertex_witnesses, avoidance_witnesses, tuple(failures))


def universe_gap_vanishing(T: CKFamily, S: FamilyCollection) -> GapVanishing:
    """gap_vanishing by computing the gap product of every universe family."""
    members_vanish = True
    outside = []
    for F in S.universe_all():
        vanishes = gap_product(T, F.members, F.vertex).is_zero()
        if F in S.members:
            members_vanish = members_vanish and vanishes
        elif vanishes:
            outside.append(F)
    return GapVanishing(members_vanish, tuple(outside))


def all_members_ck(T: CKFamily, S: FamilyCollection) -> CheckResult:
    """verify_family's CK result from every member's gap product; ``max``
    returns the first member in family order reaching the largest."""
    gaps = [(gap_product(T, E.members, E.vertex).max_abs(), E) for E in S.sorted_members()]
    worst, bad = max(gaps, key=lambda gap: gap[0], default=(0.0, None))
    return CheckResult("CK", worst == 0.0, worst, f"gap product of {bad!r}" if worst else "")


def every_svd_gauge_unitary_check(T: CKFamily, zs) -> float:
    """gauge_unitary_check with the 2-norm (an SVD) of every difference."""
    import numpy as np

    worst = 0.0
    for z in zs:
        U = gauge_unitary(T, z)
        for lam in T.graph.all_paths():
            mat = T.op(lam).to_dense()
            dev = np.linalg.norm(U @ mat @ U.conj().T - _z_power(z, lam.degree) * mat, 2)
            worst = max(worst, float(dev))
    return worst


def every_pair_tck3(T: CKFamily) -> CheckResult:
    """TCK3 over every ordered pair (lam, mu) of paths, in path order, with
    no pair skipped: the reference for ``repn._tck3``."""
    worst = 0.0
    bad = ""
    paths = T.graph.all_paths()
    for lam in paths:
        for mu in paths:
            rhs = SparseMatrix.zero(T.dim)
            for pair in lambda_min(lam, mu):
                rhs = rhs + T.op(pair.alpha) @ T.op(pair.beta).adjoint()
            d = (T.op(lam).adjoint() @ T.op(mu) - rhs).max_abs()
            if d > worst:
                worst, bad = d, f"({lam.token()}, {mu.token()})"
    return CheckResult("TCK3", worst == 0.0, worst, bad)


def loop_sampled_gauge_average(T: CKFamily, a, zs):
    """sampled_gauge_average with both products taken by matrix product."""
    import numpy as np

    acc = np.zeros((T.dim, T.dim), dtype=complex)
    mat = evaluate(a, T).to_dense()
    for z in zs:
        U = gauge_unitary(T, z)
        acc += U @ mat @ U.conj().T
    return acc / len(zs)


def dense_gauge_unitary_check(T: CKFamily, zs) -> float:
    """gauge_unitary_check with every difference formed densely: two
    products per grid point and path, each skipped by its Schur bound or
    given an SVD as in ``repn.gauge_unitary_check``."""
    import numpy as np

    tiny = np.finfo(float).tiny
    worst = 0.0
    for z in zs:
        U = gauge_unitary(T, z)
        U_star = U.conj().T
        for lam in T.graph.all_paths():
            mat = T.op(lam).to_dense()
            D = U @ mat @ U_star - _z_power(z, lam.degree) * mat
            entries = np.abs(D)
            norm1 = entries.sum(axis=0).max(initial=0.0)
            norm_inf = entries.sum(axis=1).max(initial=0.0)
            if not norm1 or (
                min(norm1, norm_inf) >= tiny
                and np.sqrt(norm1) * np.sqrt(norm_inf) * (1 + 1e-6) <= worst
            ):
                continue
            worst = max(worst, float(np.linalg.norm(D, 2)))
    return worst


def unkept_gap_product(T: CKFamily, members, v: str) -> SparseMatrix:
    """prod over E of (t_v - t_lam t_lam*) from the unit, in path order,
    with nothing kept: the reference for ``repn.gap_product``."""
    out = SparseMatrix.identity(T.dim)
    for lam in sorted(set(members), key=path_sort_key):
        out = out @ (T.vertex_op(v) - T.op(lam) @ T.op(lam).adjoint())
    return out


def matrix_only(T: CKFamily) -> CKFamily:
    """T with every operator a ``SparseMatrix`` of the same entries: every
    check on the copy runs on ``SparseMatrix`` products, the reference for
    the ``PartialInjection`` operators (``CKFamily`` would narrow them back,
    so the copy's operators are set after it is built)."""
    out = CKFamily(T.graph, T.dim, {}, basis=T.basis)
    out.ops = {lam: SparseMatrix(mat.rows, mat.cols, mat.data) for lam, mat in T.ops.items()}
    return out


def separate_uniqueness_hypotheses(T: CKFamily, S: FamilyCollection):
    """(relations, vertices nonzero, gaps nonzero, condition (C)), each
    computed on its own."""
    report = verify_family(T, S)
    vertices = all(not T.vertex_op(v).is_zero() for v in T.graph.vertices)
    gaps = all(
        not gap_product(T, F.members, F.vertex).is_zero()
        for F in S.universe_all()
        if F not in S.members
    )
    cond = condition_c(S).ok
    return (report.ok, vertices, gaps, cond)


# -- boundary paths -----------------------------------------------------------------


def is_boundary_full_check(x, S: FamilyCollection) -> bool:
    """Boundary membership checked against every member family of S, not
    only the inclusion-minimal ones that ``boundary.is_boundary`` uses."""
    if not S.exact:
        raise InexactUniverse("boundary membership needs an exact universe")
    d = x.degree
    for n in d.below():
        u = vertex_at(x, n)
        for E in S.at(u):
            if not any(
                n + lam.degree <= d and segment(x, n, n + lam.degree) == lam
                for lam in E.sorted_members()
            ):
                return False
    return True


# -- random valid skeletons -------------------------------------------------------


def random_1graph(rng: random.Random, n_vertices: int, color: int, prefix: str):
    """A random DAG layer: edges only from higher to lower index."""
    vertices = [f"{prefix}{i}" for i in range(n_vertices)]
    edges = []
    eid = 0
    for j in range(1, n_vertices):
        targets = rng.sample(range(j), k=rng.randint(1, j))
        for i in targets:
            for _ in range(rng.randint(1, 2)):
                edges.append(Edge(f"{prefix}e{eid}", color, vertices[i], vertices[j]))
                eid += 1
    return vertices, edges


def random_product_spec(rng: random.Random, rank: int) -> SkeletonSpec:
    """Product of `rank` random DAG layers with flip squares; always valid.

    A color-i product edge is a layer-i edge tensored with fixed vertices in
    the other layers; squares commute the two layer edges of a bicolored
    composable pair, acting on disjoint coordinates.
    """
    sizes = rng.choice([(2, 3), (3, 2), (2, 2)]) if rank == 2 else (2, 3, 1)
    layers = [random_1graph(rng, sizes[i], i + 1, f"L{i}_") for i in range(rank)]
    axes = [layer[0] for layer in layers]

    def vid(coords):
        return "|".join(coords)

    registry: dict = {}
    edges: list[Edge] = []

    def prod_edge(i: int, e: Edge, rest: tuple) -> Edge:
        # rest: the fixed coordinates of the other layers, in layer order
        key = (i, e.id, rest)
        if key not in registry:
            coords_r = list(rest)
            coords_r.insert(i, e.range)
            coords_s = list(rest)
            coords_s.insert(i, e.source)
            pe = Edge(f"{e.id}@{vid(rest)}", i + 1, vid(coords_r), vid(coords_s))
            registry[key] = pe
            edges.append(pe)
        return registry[key]

    for i in range(rank):
        others = axes[:i] + axes[i + 1 :]
        for e in layers[i][1]:
            for rest in itertools.product(*others):
                prod_edge(i, e, rest)

    def scatter(i, x, j, y, rest):
        # full coordinate list with slots i, j filled and `rest` elsewhere
        coords = list(rest)
        coords.insert(min(i, j), None)
        coords.insert(max(i, j), None)
        coords[i], coords[j] = x, y
        return coords

    squares = []
    for i in range(rank):
        for j in range(i + 1, rank):
            others = [axes[m] for m in range(rank) if m not in (i, j)]
            for e in layers[i][1]:
                for f in layers[j][1]:
                    for rest in itertools.product(*others):
                        cE = scatter(i, None, j, f.range, rest)
                        cF = scatter(i, e.source, j, None, rest)
                        cF2 = scatter(i, e.range, j, None, rest)
                        cE2 = scatter(i, None, j, f.source, rest)

                        def strip(coords, slot):
                            return tuple(
                                c for m, c in enumerate(coords) if m != slot
                            )

                        E = prod_edge(i, e, strip(cE, i))
                        F = prod_edge(j, f, strip(cF, j))
                        F2 = prod_edge(j, f, strip(cF2, j))
                        E2 = prod_edge(i, e, strip(cE2, i))
                        squares.append((E.id, F.id, F2.id, E2.id))

    vertices = tuple(vid(c) for c in itertools.product(*axes))
    return SkeletonSpec(rank, vertices, tuple(edges), tuple(squares))


def random_single_vertex_spec(rng: random.Random, rank: int) -> SkeletonSpec:
    """One vertex, random loop counts, random bijection on the (1,2) pair.

    Any bijection works for rank 2; for rank 3 the remaining pairs get flip
    squares, which satisfies the triple condition for any (1,2) bijection.
    """
    counts = [rng.randint(1, 3) for _ in range(rank)]
    edges = []
    for c in range(1, rank + 1):
        for i in range(counts[c - 1]):
            edges.append(Edge(f"c{c}e{i}", c, "v", "v"))
    by_color = {c: [e for e in edges if e.color == c] for c in range(1, rank + 1)}
    squares = []
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            lhs = list(itertools.product(by_color[i], by_color[j]))
            rhs = list(itertools.product(by_color[j], by_color[i]))
            if (i, j) == (1, 2):
                rng.shuffle(rhs)
            else:
                rhs = [(f, e) for e, f in lhs]
            for (e, f), (f2, e2) in zip(lhs, rhs):
                squares.append((e.id, f.id, f2.id, e2.id))
    return SkeletonSpec(rank, ("v",), tuple(edges), tuple(squares))


def random_spec(rng: random.Random, rank: int) -> SkeletonSpec:
    kind = rng.choice(["product", "single", "single"])
    if kind == "product":
        return random_product_spec(rng, rank)
    return random_single_vertex_spec(rng, rank)


def random_graphs(seed: int, count: int):
    """A reproducible batch of validated random rank-2/3 graphs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.choice([2, 2, 3])
        spec = random_spec(rng, rank)
        out.append(validate(spec))
    return out
