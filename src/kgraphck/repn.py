"""Concrete Cuntz-Krieger families as sparse matrices, and their checks.

The boundary-path representation acts on the span of boundary paths by
prepending; all defining relations hold exactly there with 0/1 rational
entries.  Matrix-unit grids realize the finite-dimensional pieces of the
degree-fixed subalgebra; the faithfulness checks compare the combinatorial
nonzero pattern of the universal grid against a concrete family.

Each check is one matrix expression over the operators, which are
``SparseMatrix`` or, where every entry is exactly 1 with at most one per
row and per column (the boundary representation, or a bundle that kept that
shape), ``PartialInjection`` (see :mod:`kgraphck.matrices`); a check's
deviation and witness do not depend on the type.  The gauge check takes the
SVD of a difference only where its Schur bound exceeds the maximum so far,
and reads the bound of every partial injection's difference off one dense
product per grid point, bit for bit the entries of the difference itself
(:func:`gauge_unitary_check`): about 80 complex products on
``omega(2,(3,2))`` where forming every difference takes 1,440.

The checks do work in proportion to the antichain edges and the distinct
grids, not the universe.  When TCK1-TCK3 hold exactly (checked once per
family), the gap product is antitone in the family, so the CK check and
:func:`gap_vanishing` read one member-gap verdict taken at the minimal
members of S (:func:`member_gaps`), and the families outside S are decided
at the maximal ones; otherwise every member and universe family is read.
The family keeps its gap products, each extending the product over its
sorted members but the last (:func:`gap_product`).  Under the same
hypothesis on an exact universe, with no zero vertex operator, the
faithfulness check's route (a) passes when those gap verdicts do (the
matrix-unit lemma, :func:`faithful_on_core_check`); otherwise it walks the
grid {v} of each vertex and the grid of each family outside S, each distinct
grid once, on the grid queries of :class:`~kgraphck.alignment.PathIndex`.
At a vertex where S has no member the gap checks list no universe: the one
maximal family outside S is read off the hit masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    HypothesisNotMet,
    IncompleteFamily,
    InvariantViolated,
    PairNotInGrid,
    PreconditionFailed,
)
from .kgraph import KGraph, Path, compose, path_sort_key
from .alignment import PathFamily, PathIndex, _bits, ext, lambda_min
from .satiation import FamilyCollection, Membership, member
from .boundary import boundary_paths, condition_c
from .formal import FormalElement, formal_mul, gauge_expectation
from .matrices import PartialInjection, SparseMatrix, narrow

if TYPE_CHECKING:
    import numpy as np


class CKFamily:
    """An assignment of operators to every path of a finite category.

    Each operator that is a 0/1 partial injection is kept as a
    ``PartialInjection`` (:func:`~kgraphck.matrices.narrow`).  ``basis``
    optionally labels the carrier's coordinates (for instance by boundary
    paths), which the gauge checks require.  Use :func:`verify_family` for
    the full relation check; construction only validates shapes.  The
    operators are fixed at construction, so the family keeps its relation
    checks, gap products and facts about its last collection (:meth:`kept`).
    """

    def __init__(
        self,
        graph: KGraph,
        dim: int,
        ops: dict[Path, SparseMatrix | PartialInjection],
        basis: tuple[Path, ...] | None = None,
    ):
        for lam, mat in ops.items():
            if (mat.rows, mat.cols) != (dim, dim):
                raise ValueError(f"operator for {lam.token()} has wrong shape")
        self.graph = graph
        self.dim = dim
        self.ops = {lam: narrow(mat) for lam, mat in ops.items()}
        self.basis = basis
        self._gap_products: dict[str, dict] = {}  # see gap_product
        self._relations: tuple[CheckResult, ...] | None = None
        self._kept: dict = {}  # fact -> (collection, value), see kept
        self._gauge: dict = {}  # grid point -> diagonal of U_z, see gauge_unitary

    def relation_checks(self) -> tuple[CheckResult, ...]:
        """TCK1-TCK3 for this family, checked on first use and then kept
        (the operators are fixed at construction)."""
        if self._relations is None:
            self._relations = _relation_checks(self)
        return self._relations

    def kept(self, S: FamilyCollection, fact):
        """fact(self, S) (:func:`member_gaps`, :func:`gap_vanishing`), kept
        for the last collection it was asked about."""
        kept = self._kept.get(fact)
        if kept is None or kept[0] is not S:
            kept = self._kept[fact] = (S, fact(self, S))
        return kept[1]

    def is_rational(self) -> bool:
        """Whether every operator entry is an exact rational."""
        return all(
            isinstance(v, Fraction) for mat in self.ops.values() for v in mat.data.values()
        )

    def exact_relations(self) -> bool:
        """Whether TCK1-TCK3 hold exactly on rational entries."""
        return self.is_rational() and all(r.ok for r in self.relation_checks())

    def op(self, lam: Path) -> SparseMatrix | PartialInjection:
        mat = self.ops.get(lam)
        if mat is None:
            raise IncompleteFamily(f"no operator assigned to {lam.token()}")
        return mat

    def vertex_op(self, v: str) -> SparseMatrix | PartialInjection:
        return self.op(self.graph.vertex_path(v))

    def range_projection(self, lam: Path) -> SparseMatrix | PartialInjection:
        m = self.op(lam)
        return m @ m.adjoint()

    def zero_vertices(self) -> tuple[str, ...]:
        """The vertices whose operator is zero, in vertex order."""
        return tuple(v for v in self.graph.vertices if self.vertex_op(v).is_zero())

    def is_degenerate(self) -> bool:
        return len(self.zero_vertices()) == len(self.graph.vertices)

    def to_complex(self) -> "CKFamily":
        """The same family over complex floats, with fresh caches; each
        ``PartialInjection`` is kept (its products involve no arithmetic)."""
        ops = {
            lam: mat if isinstance(mat, PartialInjection) else SparseMatrix(
                mat.rows, mat.cols, {k: complex(v) for k, v in mat.data.items()}
            )
            for lam, mat in self.ops.items()
        }
        return CKFamily(self.graph, self.dim, ops, basis=self.basis)


def evaluate(a: FormalElement, T: CKFamily) -> SparseMatrix:
    """The *-homomorphic evaluation of a formal element in the family."""
    out = SparseMatrix.zero(T.dim)
    for (lam, mu), coeff in a.terms.items():
        out = out + (T.op(lam) @ T.op(mu).adjoint()) * coeff
    return out


def gap_product(
    T: CKFamily, members: Iterable[Path], v: str
) -> SparseMatrix | PartialInjection:
    """prod over E of (t_v - t_lam t_lam*), taken in path order; the empty
    product is the unit.

    The family keeps the product of every sorted prefix of E it has been
    asked about, as a trie over the members at v whose first level holds
    the factors, so a product extends the longest kept prefix by one
    factor: the same product, taken left to right.
    """
    root = node = T._gap_products.setdefault(v, {})
    out = None
    for lam in sorted(set(members), key=path_sort_key):
        if lam not in root:
            root[lam] = (T.vertex_op(v) - T.range_projection(lam), {})
        if lam not in node:
            node[lam] = (out @ root[lam][0], {})
        out, node = node[lam]
    return PartialInjection.identity(T.dim) if out is None else out


# -- relation checks ------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    ok: bool
    deviation: float
    detail: str = ""


@dataclass
class FamilyReport:
    results: list[CheckResult] = field(default_factory=list)
    degenerate: bool = False

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def max_deviation(self) -> float:
        return max((r.deviation for r in self.results), default=0.0)

    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]


def _relation_checks(T: CKFamily) -> tuple[CheckResult, ...]:
    """TCK1-TCK3, each with its worst deviation and where it occurred.

    When TCK1 and TCK2 hold exactly on rational entries, t_lam equals
    t_r(lam) t_lam and the vertex projections are orthogonal, so t_lam* t_mu
    vanishes exactly when r(lam) != r(mu), as does its sum over the empty
    lambda_min(lam, mu): TCK3 then needs only the pairs with a common range.
    """
    paths = T.graph.all_paths()
    tck1, tck2 = _tck1(T), _tck2(T, paths)
    rational = T.is_rational()
    common_range = tck1.ok and tck2.ok and rational
    return (tck1, tck2, _tck3(T, paths, common_range, unordered=rational))


def _tck1(T: CKFamily) -> CheckResult:
    g = T.graph
    worst = 0.0
    bad = ""
    for v in g.vertices:
        tv = T.vertex_op(v)
        d = max((tv @ tv - tv).max_abs(), (tv.adjoint() - tv).max_abs())
        if d > worst:
            worst, bad = d, f"projection defect at {v}"
        for w in g.vertices:
            if w > v:
                d = (tv @ T.vertex_op(w)).max_abs()
                if d > worst:
                    worst, bad = d, f"overlap of {v} and {w}"
    return CheckResult("TCK1", worst == 0.0, worst, bad)


def _tck2(T: CKFamily, paths: Sequence[Path]) -> CheckResult:
    worst = 0.0
    bad = ""
    for lam in paths:
        for mu in paths:
            if lam.source != mu.range:
                continue
            d = (T.op(lam) @ T.op(mu) - T.op(compose(lam, mu))).max_abs()
            if d > worst:
                worst, bad = d, f"({lam.token()}, {mu.token()})"
    return CheckResult("TCK2", worst == 0.0, worst, bad)


def _tck3(
    T: CKFamily, paths: Sequence[Path], common_range: bool, unordered: bool
) -> CheckResult:
    """TCK3 over the pairs (lam, mu) in path order; with ``unordered`` (exact
    entries) only the pairs with lam no later than mu.

    On exact entries t_mu* t_lam is (t_lam* t_mu)*, and lambda_min(mu, lam)
    is lambda_min(lam, mu) with each pair swapped, so the two differences
    are adjoints with the same largest entry.  The first pair reaching the
    maximum then has lam no later than mu, and the witness is unchanged.
    """
    worst = 0.0
    bad = ""
    zero = PartialInjection.zero(T.dim)
    ops = [T.op(mu) for mu in paths]
    for i, lam in enumerate(paths):
        lam_star = ops[i].adjoint()
        first = i if unordered else 0
        for mu, t_mu in zip(paths[first:], ops[first:]):
            if common_range and mu.range != lam.range:
                continue
            lhs = lam_star @ t_mu
            rhs = zero
            for pair in lambda_min(lam, mu):
                rhs = rhs + T.op(pair.alpha) @ T.op(pair.beta).adjoint()
            d = (lhs - rhs).max_abs()
            if d > worst:
                worst, bad = d, f"({lam.token()}, {mu.token()})"
    return CheckResult("TCK3", worst == 0.0, worst, bad)


def verify_family(T: CKFamily, S: FamilyCollection | None = None) -> FamilyReport:
    """Check the partial-isometry relations and the gap relation.

    The four checks: vertex operators are mutually orthogonal projections;
    composition is multiplicative; adjoint cross-terms expand over minimal
    common extensions; and the gap product vanishes for every member of S,
    if given (:func:`member_gaps`).  Exact for rational entries.  The first
    three depend on the family alone and are computed once per family
    (``relation_checks``).
    """
    report = FamilyReport(list(T.relation_checks()), degenerate=T.is_degenerate())
    worst, bad = (0.0, None) if S is None else T.kept(S, member_gaps)
    detail = "" if bad is None else f"gap product of {bad!r}"
    report.results.append(CheckResult("CK", worst == 0.0, worst, detail))
    return report


def member_gaps(T: CKFamily, S: FamilyCollection) -> tuple[float, PathFamily | None]:
    """The largest max_abs of a member's gap product, and the first member in
    family order reaching it (None if all vanish).  When TCK1-TCK3 hold
    exactly on rational entries the gap products are projections, antitone
    in the family and largest on the diagonal, and a family follows its
    subfamilies, so the minimal members give the same answer."""
    members = [E for v in S.graph.vertices for E in S.minimal_at(v)] if T.exact_relations() else S
    worst, bad = 0.0, None
    for E in members:
        d = gap_product(T, E.members, E.vertex).max_abs()
        if d > worst:
            worst, bad = d, E
    return worst, bad


# -- the boundary-path representation ----------------------------------------------


def boundary_rep(graph: KGraph, S: FamilyCollection, verify: bool = True) -> CKFamily:
    """The family acting on the span of boundary paths by prepending.

    Basis vectors are the boundary paths for S; the operator of lam sends
    e_x to e_{lam.x} when s(lam) = r(x) and kills it otherwise.  The result
    passes every relation exactly, with the members of S as generators.
    """
    basis = sorted((x for v in graph.vertices for x in boundary_paths(v, S)), key=path_sort_key)
    index = {x: i for i, x in enumerate(basis)}
    dim = len(basis)
    ops = {}
    for lam in graph.all_paths():
        prepend = {col: index[compose(lam, x)] for x, col in index.items() if lam.source == x.range}
        ops[lam] = PartialInjection(dim, dim, prepend)
    T = CKFamily(graph, dim, ops, basis=tuple(basis))
    if verify:
        report = verify_family(T, S)
        if not report.ok:
            raise InvariantViolated(f"boundary representation failed: {report.failed()}")
        if T.zero_vertices():
            raise InvariantViolated("boundary representation has a zero vertex operator")
    return T


# -- matrix-unit grids ---------------------------------------------------------------


def grid_tails(PiE: Sequence[Path], lam: Path) -> tuple[Path, ...]:
    """The positive-degree nu with lam.nu in the grid set, lam in it, in path order."""
    return tuple(sorted(_pair_tails(PiE, lam, lam), key=path_sort_key))


def _pair_tails(PiE: Sequence[Path], lam: Path, mu: Path) -> tuple[Path, ...]:
    """The grid tails of lam in index order, for a pair (lam, mu) of the grid's pairs_ds."""
    index = PathIndex()
    grid = index.mask(PiE)
    i, j = index.bit(lam), index.bit(mu)
    if not grid & 1 << i or not grid & index.matched[(lam.degree, lam.source)] & 1 << j:
        raise PairNotInGrid(f"({lam.token()}, {mu.token()})")
    return index.tail_paths(i, index.tails(i, grid))


def _row_unit(T: CKFamily, lam: Path, tails: Iterable[Path]) -> SparseMatrix | PartialInjection:
    """t_lam (gap product over lam's grid tails); times t_mu* it is theta."""
    return T.op(lam) @ gap_product(T, tails, lam.source)


def theta(T: CKFamily, PiE: Sequence[Path], lam: Path, mu: Path) -> SparseMatrix | PartialInjection:
    """The matrix unit t_lam (prod of gaps over grid tails) t_mu*."""
    return _row_unit(T, lam, _pair_tails(PiE, lam, mu)) @ T.op(mu).adjoint()


def formal_theta(PiE: Sequence[Path], lam: Path, mu: Path) -> FormalElement:
    """The same matrix unit expanded symbolically in the formal algebra."""
    sv = lam.graph.vertex_path(lam.source)
    word = FormalElement.generator(sv, sv)
    for nu in sorted(_pair_tails(PiE, lam, mu), key=path_sort_key):
        gap = FormalElement.generator(sv, sv) - FormalElement.generator(nu, nu)
        word = formal_mul(word, gap)
    left = FormalElement.generator(lam, sv)
    right = FormalElement.generator(sv, mu)
    return formal_mul(formal_mul(left, word), right)


@dataclass
class MatrixUnitReport:
    adjoint_dev: float
    product_dev: float
    span_dev: float
    pairs: int

    @property
    def ok(self) -> bool:
        return self.adjoint_dev == 0.0 and self.product_dev == 0.0 and self.span_dev == 0.0

    def max_deviation(self) -> float:
        return max(self.adjoint_dev, self.product_dev, self.span_dev)


def matrix_unit_check(T: CKFamily, PiE: Sequence[Path]) -> MatrixUnitReport:
    """Verify the adjoint/product matrix-unit identities and the span identity.

    The grid elements must satisfy theta* = theta with swapped indices,
    multiply like matrix units, and sum back to t_lam t_mu* along tails.
    """
    index = PathIndex()
    grid = index.mask(PiE)
    paths = index.paths
    zero = PartialInjection.zero(T.dim)
    tails, thetas = {}, {}
    for i, mus in index.pairs(grid):
        lam = paths[i]
        nus = index.tail_paths(i, index.tails(i, grid))
        row = _row_unit(T, lam, nus)
        tails[lam] = tuple(sorted(nus, key=path_sort_key))  # the span sums in path order
        for j in mus:
            thetas[(lam, paths[j])] = row @ T.op(paths[j]).adjoint()

    adjoint_dev = 0.0
    for (lam, mu), mat in thetas.items():
        adjoint_dev = max(adjoint_dev, (mat.adjoint() - thetas[(mu, lam)]).max_abs())

    product_dev = 0.0
    for (lam, mu), m1 in thetas.items():
        for (sig, tau), m2 in thetas.items():
            expected = thetas[(lam, tau)] if mu == sig else zero
            product_dev = max(product_dev, (m1 @ m2 - expected).max_abs())

    span_dev = 0.0
    for lam, mu in thetas:
        rhs = zero
        # nu ranges over all tails with lam.nu in the grid set, the vertex
        # path included (lam itself is a grid element)
        for nu in (lam.graph.vertex_path(lam.source),) + tails[lam]:
            rhs = rhs + thetas[(compose(lam, nu), compose(mu, nu))]
        span_dev = max(span_dev, (T.op(lam) @ T.op(mu).adjoint() - rhs).max_abs())

    return MatrixUnitReport(adjoint_dev, product_dev, span_dev, len(thetas))


def _nonzero_tails(
    S: FamilyCollection, index: PathIndex, i: int, tails: int
) -> tuple[Path, ...] | None:
    """The tails nu of lam.nu in the mask, lam path i, when their family is
    not in S, so that row lam's matrix units are universally nonzero; else
    None.  Without members at s(lam) no family is tested."""
    lam = index.paths[i]
    nus = index.tail_paths(i, tails)
    if S.at(lam.source) and member(PathFamily(lam.graph, lam.source, nus), S) is Membership.YES:
        return None
    return nus


def nonzero_theta_pattern(S: FamilyCollection, PiE: Sequence[Path]) -> frozenset[tuple[Path, Path]]:
    """Grid pairs whose universal matrix unit is nonzero.

    A grid element vanishes universally exactly when the tail family of its
    row index belongs to the collection; empty or non-exhaustive tail
    families never do.  Needs an exact universe for definite membership.
    """
    S.require_exact("the vanishing pattern")
    index = PathIndex()
    grid = index.mask(PiE)
    out = []
    for i, mus in index.pairs(grid):
        if _nonzero_tails(S, index, i, index.tails(i, grid)) is not None:
            out += ((index.paths[i], index.paths[j]) for j in mus)
    return frozenset(out)


# -- gap products against membership ----------------------------------------------------


@dataclass(frozen=True)
class GapVanishing:
    """Where the gap products of the universe families vanish, against S."""

    members_vanish: bool
    vanished_outside: tuple[PathFamily, ...]  # in universe order

    @property
    def iff_membership(self) -> bool:
        return self.members_vanish and not self.vanished_outside


def _vanishes(T: CKFamily, F: PathFamily) -> bool:
    return gap_product(T, F.members, F.vertex).is_zero()


def gap_vanishing(T: CKFamily, S: FamilyCollection) -> GapVanishing:
    """Whether the gap product of every member of S vanishes (read off
    :func:`member_gaps`), and the universe families outside S whose gap
    product vanishes.  When TCK1-TCK3 hold the gap product of F is a
    projection antitone in F, so on an exact universe with rational entries
    no family outside S vanishes if no maximal one does (every family
    outside S lies below one, and at a vertex without members it is read
    without listing the universe); otherwise, or if one does, each is
    checked."""
    vertices = S.graph.vertices
    members_vanish = T.kept(S, member_gaps)[0] == 0.0
    if S.exact and T.exact_relations():
        if not any(_vanishes(T, F) for v in vertices for F in S.maximal_outside(v)):
            return GapVanishing(members_vanish, ())
    # only here is every vertex's universe listed, and an oversized one fails
    outside = [F for v in vertices for F in S.outside(v)]
    return GapVanishing(members_vanish, tuple(F for F in outside if _vanishes(T, F)))


# -- faithfulness --------------------------------------------------------------------


@dataclass
class FaithfulnessVerdict:
    route_a_ok: bool
    route_b_ok: bool
    route_a_violations: list[str]
    route_b_violations: list[str]

    @property
    def faithful(self) -> bool:
        return self.route_a_ok and self.route_b_ok

    @property
    def routes_agree(self) -> bool:
        return self.route_a_ok == self.route_b_ok


def _route_b(T: CKFamily, gaps: GapVanishing) -> list[str]:
    """Zero vertex operators, and vanished gap products of families outside S."""
    out = [f"vertex operator {v} is zero" for v in T.zero_vertices()]
    out += [f"gap product of {F!r} vanished" for F in gaps.vanished_outside]
    return out


def _walk_grids(S: FamilyCollection, index: PathIndex, v: str):
    """The grid {v}, then the grid of each family outside S at v in universe
    order: the closure of v and the family, extending the grid of the family
    minus its last member (each extension of a grid by a path computed once)."""
    grid_v = index.close(0, (S.graph.vertex_path(v),))
    yield grid_v
    closures: dict[tuple[int, Path], int] = {}
    for F in S.outside(v):
        grid = grid_v
        for p in F.sorted_members():
            key = (grid, p)
            nxt = closures.get(key)
            if nxt is None:
                nxt = closures[key] = index.close(grid, (p,))
            grid = nxt
        yield grid


def _route_a(T: CKFamily, S: FamilyCollection) -> list[str]:
    """Each universally nonzero matrix unit vanishing in T, named with the
    size of the first grid holding it, in order of that grid's first use
    and then of lam and mu.

    A unit depends only on lam, mu and lam's tails mask in the grid, so each
    (lam, tails) row, its membership test and t_lam times its gap product
    are computed once, and each unit is checked once.
    """
    g = S.graph
    index = PathIndex()
    # every vertex is listed before the exactness test, so a listing past
    # the budget fails first
    if any([S.outside(v) for v in g.vertices]):
        S.require_exact("the vanishing pattern")
    grids: dict[int, None] = {}  # distinct grids, in order of first use
    for v in g.vertices:
        grids.update(dict.fromkeys(_walk_grids(S, index, v)))
    paths, matched = index.paths, index.matched
    rows: dict[tuple[int, int], SparseMatrix | PartialInjection | None] = {}
    read: dict[tuple[int, int], int] = {}  # (lam, tails) -> mask of the mus checked
    vanished = []
    for k, grid in enumerate(grids):
        for i in _bits(grid):
            lam = paths[i]
            key = (i, index.tails(i, grid))
            mus = grid & matched[(lam.degree, lam.source)] & ~read.get(key, 0)
            if not mus:
                continue
            read[key] = read.get(key, 0) | mus
            if key not in rows:
                nus = _nonzero_tails(S, index, i, key[1])
                rows[key] = None if nus is None else _row_unit(T, lam, nus)
            if rows[key] is None:
                continue
            for j in _bits(mus):
                mu = paths[j]
                if (rows[key] @ T.op(mu).adjoint()).is_zero():
                    text = f"theta({lam.token()},{mu.token()}) vanished in grid of size {grid.bit_count()}"
                    vanished.append((k, lam.sort_key(), mu.sort_key(), text))
    return [text for *_, text in sorted(vanished)]


def faithful_on_core_check(T: CKFamily, S: FamilyCollection) -> FaithfulnessVerdict:
    """Two routes to injectivity on the degree-fixed subalgebra.

    Route (a): every universally nonzero matrix unit is nonzero in T, over
    the grid {v} of each vertex, whose unit theta(v,v) = t_v fails on a zero
    vertex operator, and the grid of each family outside S (the family plus
    its range vertex), which fail whenever a gap product outside S vanishes;
    disagreement there indicates a library bug.  Each distinct grid is
    examined once (:func:`_route_a`).  Route (b): every vertex operator is
    nonzero and every gap product over a universe family outside S is
    nonzero (see :func:`gap_vanishing`).

    Route (a) is independent of route (b) but for one exception, the
    matrix-unit lemma: when TCK1-TCK3 hold exactly on rational entries and
    the universe is exact, theta(lam, mu) theta(lam, mu)* = t_lam Q t_lam*,
    Q the gap product over lam's tails: t_s(lam), at least a nonzero
    t_nu t_nu*, or at least the gap product of a maximal family outside S.
    So with no zero vertex operator and no vanished gap product outside S
    route (a) passes with no grid enumerated; otherwise the grids are
    walked to name the units.
    """
    lemma = S.exact and T.exact_relations() and not T.zero_vertices()
    a_viol = [] if lemma and not T.kept(S, gap_vanishing).vanished_outside else _route_a(T, S)
    b_viol = _route_b(T, T.kept(S, gap_vanishing))
    return FaithfulnessVerdict(not a_viol, not b_viol, a_viol, b_viol)


def shift_gaps_check(T: CKFamily, members: Iterable[Path], mu: Path):
    """Deviation of the gap-shift identity for (E, mu); zero for any family.

    Compares prod(t_v - t_lam t_lam*) t_mu t_mu* against
    t_mu prod over Ext(mu;E) of (t_s - t_alpha t_alpha*) t_mu*, with empty
    products equal to the unit.
    """
    members = list(members)
    v = mu.range
    tails = ext(mu, [p for p in members if p.range == v])
    lhs = gap_product(T, members, v) @ T.range_projection(mu)
    rhs = T.op(mu) @ gap_product(T, tails, mu.source) @ T.op(mu).adjoint()
    return (lhs - rhs).max_abs()


# -- uniqueness-theorem hypotheses ----------------------------------------------------


@dataclass
class UniquenessHypotheses:
    relations_ok: bool
    route_b_ok: bool
    condition_c_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.relations_ok and self.route_b_ok and self.condition_c_ok


def check_uniqueness_hypotheses(T: CKFamily, S: FamilyCollection) -> UniquenessHypotheses:
    """Verified relations, route (b) of the faithfulness check, and condition (C)."""
    return UniquenessHypotheses(
        verify_family(T, S).ok,
        not _route_b(T, T.kept(S, gap_vanishing)),
        condition_c(S, maximal=True).ok,
    )


def expectation_contraction_check(
    T: CKFamily, a: FormalElement, hypotheses: UniquenessHypotheses
) -> tuple[float, float]:
    """Operator norms of the expected and the full element; lhs <= rhs.

    Requires verified relations, nonzero vertices and gaps, and a clean
    aperiodicity report, mirroring the uniqueness theorem's hypotheses.
    """
    if not hypotheses.all_ok:
        raise HypothesisNotMet("uniqueness hypotheses not verified for this family")
    lhs = evaluate(gauge_expectation(a), T).norm2()
    rhs = evaluate(a, T).norm2()
    return lhs, rhs


# -- gauge checks ----------------------------------------------------------------------


def _z_power(z: Sequence[complex], n: Iterable[int]) -> complex:
    """z^n for a degree n or its coordinates."""
    out = 1 + 0j
    for zi, ni in zip(z, n):
        out *= zi**ni
    return out


def _z_powers(z: Sequence[complex], paths: Iterable[Path]) -> dict[tuple[int, ...], complex]:
    """z^{d(lam)} for each degree of the paths, computed once per degree and
    keyed by its coordinates."""
    return {n: _z_power(z, n) for n in {lam.degree.coords for lam in paths}}


def gauge_unitary(T: CKFamily, z: Sequence[complex]) -> np.ndarray:
    """U_z = diag(z^{d(x)}) over the basis; the family keeps each grid
    point's diagonal, not the matrix."""
    import numpy as np

    if T.basis is None:
        raise PreconditionFailed("gauge checks need a basis-labeled family")
    diagonal = T._gauge.get(tuple(z))
    if diagonal is None:
        powers = _z_powers(z, T.basis)
        diagonal = T._gauge[tuple(z)] = np.array([powers[x.degree.coords] for x in T.basis])
    return np.diag(diagonal)


def gauge_unitary_check(T: CKFamily, zs: Iterable[Sequence[complex]]) -> float:
    """max over z, lam of || U_z t_lam U_z* - z^{d(lam)} t_lam ||.

    The 2-norm of a difference D (an SVD) is taken only where it can raise
    the maximum.  Every matrix has ||D||_2 <= sqrt(||D||_1 ||D||_inf)
    (Schur), so D is skipped when it is zero, or when that bound, widened by
    1e-6 against the rounding of the SVD, is at most the maximum so far and
    its column and row sums are not subnormal (where their rounding is not
    relative).  The result is the maximum of the same norms as with every
    SVD taken.

    For a partial injection t_lam the bound is read without forming D.  U_z
    is diagonal, so U_z t_lam and U_z J (J the all-ones matrix) hold the
    exact entries u_i, and each entry of the second product is one term
    u_i conj(u_j) plus exact zeros: on the support of t_lam, U_z t_lam U_z*
    equals W = U_z J U_z*, a product of the same shape and layout, bit for
    bit.  A partial injection has at most one entry per row and per column,
    so ||D||_1 = ||D||_inf is the largest |W_ij - z^{d(lam)}| over that
    support.  One W per grid point then stands for every path's two
    products, and D is formed only for an SVD; a ``SparseMatrix`` operator
    forms its difference as before.
    """
    import numpy as np

    tiny = np.finfo(float).tiny
    paths = T.graph.all_paths()
    ops = [T.op(lam) for lam in paths]
    # the supports of the nonzero partial injections, concatenated in path
    # order; a path's largest entry is reduced from its run
    on_support = [
        (lam, t) for lam, t in zip(paths, ops) if isinstance(t, PartialInjection) and t.map
    ]
    rows = np.array([i for _, t in on_support for i in t.map.values()], dtype=np.intp)
    cols = np.array([j for _, t in on_support for j in t.map], dtype=np.intp)
    sizes = [len(t.map) for _, t in on_support]
    starts = np.cumsum([0] + sizes[:-1])
    ones = np.ones((T.dim, T.dim), dtype=complex)
    worst = 0.0
    for z in zs:
        U = gauge_unitary(T, z)
        U_star = U.conj().T
        powers = _z_powers(z, paths)

        def difference(lam: Path, mat: np.ndarray) -> np.ndarray:
            return U @ mat @ U_star - powers[lam.degree.coords] * mat

        largest = {}
        if on_support:
            W = U @ ones @ U_star
            shifts = np.repeat([powers[lam.degree.coords] for lam, _ in on_support], sizes)
            runs = np.maximum.reduceat(np.abs(W[rows, cols] - shifts), starts)
            largest = {lam: m for (lam, _), m in zip(on_support, runs)}
        for lam, t in zip(paths, ops):
            if isinstance(t, PartialInjection):
                norm1 = norm_inf = largest.get(lam, 0.0)
            else:
                entries = np.abs(difference(lam, t.to_dense()))
                norm1 = entries.sum(axis=0).max(initial=0.0)
                norm_inf = entries.sum(axis=1).max(initial=0.0)
            if not norm1 or (
                min(norm1, norm_inf) >= tiny
                and np.sqrt(norm1) * np.sqrt(norm_inf) * (1 + 1e-6) <= worst
            ):
                continue
            worst = max(worst, float(np.linalg.norm(difference(lam, t.to_dense()), 2)))
    return worst


def gauge_grid(graph: KGraph) -> list[tuple[complex, ...]]:
    """Roots-of-unity grid fine enough to average to the exact expectation.

    Coordinate i runs over the (D_i + 1)-th roots of unity where D is the
    maximum path degree, so discrete averaging kills every skew term.
    """
    import numpy as np

    D = graph.max_degree
    axes = [
        [np.exp(2j * np.pi * t / (d + 1)) for t in range(d + 1)] for d in D
    ]
    return [tuple(z) for z in itertools.product(*axes)]


def sampled_gauge_average(
    T: CKFamily, a: FormalElement, zs: Sequence[Sequence[complex]]
) -> np.ndarray:
    """Average of U_z eval(a) U_z* over the samples.

    When eval(a) has real entries (every rational family), U_z eval(a) is
    formed by scaling row i by u_i: the matrix product's entries are the same
    single products u_i m_ij plus exact zeros, so the average is unchanged.
    """
    import numpy as np

    acc = np.zeros((T.dim, T.dim), dtype=complex)
    mat = evaluate(a, T).to_dense()
    real = not mat.imag.any()
    for z in zs:
        U = gauge_unitary(T, z)
        left = np.diagonal(U)[:, None] * mat if real else U @ mat
        acc += left @ U.conj().T
    return acc / len(zs)
