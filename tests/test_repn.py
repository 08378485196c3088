import random
from fractions import Fraction

import numpy as np
import pytest

from kgraphck.degree import Degree
from kgraphck import repn
from kgraphck.errors import (
    HypothesisNotMet,
    IncompleteFamily,
    InexactUniverse,
    InvariantViolated,
    PairNotInGrid,
)
from kgraphck.kgraph import compose
from kgraphck.alignment import family, pairs_ds, pi_closure
from kgraphck.satiation import (
    FamilyCollection,
    Membership,
    full_fe_collection,
    member,
    satiate,
)
from kgraphck.boundary import boundary_paths, condition_c, omega
from kgraphck.formal import FormalElement, gauge_expectation
from kgraphck.matrices import PartialInjection, SparseMatrix
from kgraphck.repn import (
    CKFamily,
    boundary_rep,
    check_uniqueness_hypotheses,
    evaluate,
    expectation_contraction_check,
    faithful_on_core_check,
    formal_theta,
    gap_product,
    gauge_grid,
    gauge_unitary_check,
    matrix_unit_check,
    nonzero_theta_pattern,
    sampled_gauge_average,
    shift_gaps_check,
    theta,
    verify_family,
)

import oracles
from test_formal import random_element


def zero_family(graph, dim=1):
    """The family assigning the zero matrix to every path."""
    return CKFamily(graph, dim, {lam: SparseMatrix.zero(dim) for lam in graph.all_paths()})


@pytest.fixture(scope="module")
def sat_a(omega11):
    fam = family(omega11, [omega11.edge_path("c1:0,0")])
    return satiate(FamilyCollection(omega11, [fam]))


@pytest.fixture(scope="module")
def rep_a(omega11, sat_a):
    return boundary_rep(omega11, sat_a)


# -- verify_family ------------------------------------------------------------------


def test_zero_family_passes_degenerate(omega11):
    Z = zero_family(omega11)
    report = verify_family(Z)
    assert report.ok
    assert report.degenerate


def test_boundary_rep_passes_exactly(rep_a, sat_a):
    report = verify_family(rep_a, sat_a)
    assert report.ok
    assert report.max_deviation() == 0.0
    assert not report.degenerate


def test_fault_injection_reported(omega11, sat_a, rep_a):
    ops = dict(rep_a.ops)
    victim = omega11.paths("0,0", Degree(1, 1))[0]
    ops[victim] = SparseMatrix.zero(rep_a.dim)  # break TCK2 for one composite
    broken = CKFamily(omega11, rep_a.dim, ops, basis=rep_a.basis)
    report = verify_family(broken, sat_a)
    assert not report.ok
    failed = {r.name for r in report.failed()}
    assert "TCK2" in failed
    tck2 = next(r for r in report.results if r.name == "TCK2")
    # the reported pair composes to the broken operator
    lam_tok, mu_tok = tck2.detail.strip("()").split(", ")
    from kgraphck.graphio import parse_path

    reported = compose(parse_path(omega11, lam_tok), parse_path(omega11, mu_tok))
    assert reported == victim


def test_incomplete_family(omega11):
    lone = omega11.vertex_path("0,0")
    T = CKFamily(omega11, 1, {lone: SparseMatrix.identity(1)})
    with pytest.raises(IncompleteFamily):
        verify_family(T)


def test_vertex_nonzero_iff_all_nonzero(omega11, omega21):
    # once every vertex acts nonzero, every path does too
    for g in (omega11, omega21):
        T = boundary_rep(g, satiate(FamilyCollection(g)))
        assert all(not T.vertex_op(v).is_zero() for v in g.vertices)
        assert all(not T.op(lam).is_zero() for lam in g.all_paths())


def test_range_projections_commute(rep_a, omega11):
    paths = omega11.all_paths()
    for lam in paths:
        for mu in paths:
            p, q = rep_a.range_projection(lam), rep_a.range_projection(mu)
            assert (p @ q - q @ p).is_zero()


# -- boundary_rep -------------------------------------------------------------------


def test_rep_dimension_counts(omega11, sat_a):
    T = boundary_rep(omega11, sat_a)
    assert T.dim == 6
    full = full_fe_collection(omega11)
    assert boundary_rep(omega11, full).dim == 4


def test_line_rep_shift(omega12):
    # the 3-vertex line with no gap relations: basis is all 6 paths, and a
    # single edge acts as a rank-2 sum of shifts... with S empty the edge at
    # vertex 0 maps e_x to e_{ex} for the two paths based at its source
    S = FamilyCollection(omega12)
    T = boundary_rep(omega12, S)
    assert T.dim == 6
    e0 = omega12.edge_path("c1:0")
    assert T.op(e0).nnz() == 2


def test_one_vertex_line_rep(omega12):
    # with the full collection the basis keeps only the maximal paths
    full = full_fe_collection(omega12)
    T = boundary_rep(omega12, full)
    assert T.dim == 3  # one maximal boundary path per vertex
    e0 = omega12.edge_path("c1:0")
    assert T.op(e0).nnz() == 1


def test_single_edge_line_shift():
    # the 2-vertex line with no gap relations: all 3 paths form the basis
    # and the edge acts as a rank-1 shift
    from kgraphck.boundary import omega

    g = omega(1, Degree(1))
    T = boundary_rep(g, FamilyCollection(g))
    assert T.dim == 3
    e = g.edge_path("c1:0")
    mat = T.op(e)
    assert mat.nnz() == 1
    assert (mat @ mat).is_zero()
    assert (mat.adjoint() @ mat - T.vertex_op("1")).is_zero()


def test_rep_respects_satiation_generators(omega21):
    # a family verified against generators also satisfies the relation for
    # every member of the satiation
    g = omega21
    gen = family(g, [g.edge_path("c1:0,0"), g.edge_path("c2:0,0")])
    C = FamilyCollection(g, [gen])
    S = satiate(C)
    T = boundary_rep(g, S)
    assert verify_family(T, C).ok
    for fam in S.members:
        assert gap_product(T, fam.members, fam.vertex).is_zero()


def test_rep_self_check_raises_typed_errors(monkeypatch, omega11, sat_a):
    # both self-checks raise InvariantViolated, so they also run under python -O
    failed = repn.FamilyReport([repn.CheckResult("TCK1", False, 1.0)])
    monkeypatch.setattr(repn, "verify_family", lambda T, S: failed)
    with pytest.raises(InvariantViolated, match="boundary representation failed"):
        boundary_rep(omega11, sat_a)
    assert boundary_rep(omega11, sat_a, verify=False).dim == 6

    monkeypatch.setattr(repn, "verify_family", lambda T, S: repn.FamilyReport())
    monkeypatch.setattr(PartialInjection, "is_zero", lambda self: True)
    with pytest.raises(InvariantViolated, match="zero vertex operator"):
        boundary_rep(omega11, sat_a)


# -- theta ------------------------------------------------------------------------------


def test_theta_vertex_only_grid(omega11, rep_a):
    v = omega11.vertex_path("0,0")
    assert (theta(rep_a, (v,), v, v) - rep_a.op(v)).is_zero()


def test_theta_requires_grid_pair(omega11, rep_a):
    v = omega11.vertex_path("0,0")
    a = omega11.edge_path("c1:0,0")
    with pytest.raises(PairNotInGrid):
        theta(rep_a, (v,), v, a)


def test_theta_projection_characterization(omega11):
    # with the full collection, theta at (a, a) keeps exactly the boundary
    # paths extending a with no strictly longer grid continuation
    full = full_fe_collection(omega11)
    T = boundary_rep(omega11, full)
    a = omega11.edge_path("c1:0,0")
    b = omega11.edge_path("c2:0,0")
    v = omega11.vertex_path("0,0")
    PiE = pi_closure((v, a, b))
    mat = theta(T, PiE, a, a)
    # direct basis characterization
    expected = {}
    c = omega11.paths("0,0", Degree(1, 1))[0]
    for i, x in enumerate(T.basis):
        keeps = x.range == "0,0" and x.word[: len(a.word)] == a.word and x != c
        if keeps:
            expected[(i, i)] = Fraction(1)
    assert mat == SparseMatrix(T.dim, T.dim, expected)


def test_theta_adjoint_symmetry(rep_a, omega11):
    rng = random.Random(3)
    paths = omega11.all_paths()
    for _ in range(10):
        window = rng.sample(paths, rng.randint(1, 3))
        PiE = pi_closure(window)
        for lam, mu in pairs_ds(PiE):
            assert (
                theta(rep_a, PiE, lam, mu).adjoint() - theta(rep_a, PiE, mu, lam)
            ).is_zero()


def test_formal_theta_matches_matrix(rep_a, omega11):
    rng = random.Random(5)
    paths = omega11.all_paths()
    for _ in range(8):
        window = rng.sample(paths, rng.randint(1, 3))
        PiE = pi_closure(window)
        for lam, mu in pairs_ds(PiE):
            sym = evaluate(formal_theta(PiE, lam, mu), rep_a)
            assert (sym - theta(rep_a, PiE, lam, mu)).is_zero()


# -- matrix unit identities -----------------------------------------------------------


def test_matrix_units_zero_family(omega11):
    Z = zero_family(omega11)
    v = omega11.vertex_path("0,0")
    report = matrix_unit_check(Z, (v,))
    assert report.ok


def test_matrix_units_on_grids(omega12, omega11, omega21):
    rng = random.Random(7)
    for g in (omega12, omega11, omega21):
        T = boundary_rep(g, satiate(FamilyCollection(g)))
        paths = g.all_paths()
        for _ in range(5):
            window = rng.sample(paths, rng.randint(1, 3))
            PiE = pi_closure(window)
            report = matrix_unit_check(T, PiE)
            assert report.ok, (g, window)


def test_matrix_units_fault_detected(omega11, rep_a):
    ops = dict(rep_a.ops)
    a = omega11.edge_path("c1:0,0")
    ops[a] = ops[a] * Fraction(2)  # no longer a partial isometry
    broken = CKFamily(omega11, rep_a.dim, ops, basis=rep_a.basis)
    v = omega11.vertex_path("0,0")
    b = omega11.edge_path("c2:0,0")
    PiE = pi_closure((v, a, b))
    report = matrix_unit_check(broken, PiE)
    assert not report.ok


# -- nonzero pattern ---------------------------------------------------------------------


def test_pattern_all_nonzero_for_empty_collection(omega11):
    S = FamilyCollection(omega11)
    v = omega11.vertex_path("0,0")
    a = omega11.edge_path("c1:0,0")
    b = omega11.edge_path("c2:0,0")
    PiE = pi_closure((v, a, b))
    pattern = nonzero_theta_pattern(S, PiE)
    assert pattern == frozenset(pairs_ds(PiE))


def test_pattern_agrees_with_boundary_rep(omega11, omega21):
    # the combinatorial pattern equals actual vanishing in the rep
    rng = random.Random(11)
    for g in (omega11, omega21):
        for S in (
            FamilyCollection(g),
            satiate(FamilyCollection(g, [family(g, [g.edge_path(g.edges[0].id)])])),
            full_fe_collection(g),
        ):
            T = boundary_rep(g, S)
            paths = g.all_paths()
            for _ in range(6):
                window = rng.sample(paths, rng.randint(1, 3))
                PiE = pi_closure(window)
                pattern = nonzero_theta_pattern(S, PiE)
                for lam, mu in pairs_ds(PiE):
                    nonzero = not theta(T, PiE, lam, mu).is_zero()
                    assert nonzero == ((lam, mu) in pattern)


def test_sink_thetas_nonzero(omega11):
    # no exhaustive sets end at a sink, so diagonal units there survive
    full = full_fe_collection(omega11)
    T = boundary_rep(omega11, full)
    c = omega11.paths("0,0", Degree(1, 1))[0]
    PiE = pi_closure((c,))
    assert not theta(T, PiE, c, c).is_zero()


# -- gap products and membership -----------------------------------------------------------


def test_gap_product_iff_membership(omega11, omega21):
    for g in (omega11, omega21):
        for S in (
            FamilyCollection(g),
            satiate(FamilyCollection(g, [family(g, [g.edge_path(g.edges[0].id)])])),
            full_fe_collection(g),
        ):
            T = boundary_rep(g, S)
            for F in S.universe_all():
                vanishes = gap_product(T, F.members, F.vertex).is_zero()
                assert vanishes == (member(F, S) is Membership.YES)


def test_moving_nonzero_gaps(omega11, sat_a):
    # compressing a surviving gap product along an avoiding boundary path
    # keeps it nonzero
    from kgraphck.alignment import has_prefix_in
    from kgraphck.kgraph import segment

    T = boundary_rep(omega11, sat_a)
    for F in sat_a.universe_all():
        if F in sat_a.members:
            continue
        for bp in boundary_paths(F.vertex, sat_a):
            if has_prefix_in(bp, F.members):
                continue
            for n in bp.degree.below():
                head = segment(bp, Degree(0, 0), n)
                compressed = (
                    gap_product(T, F.members, F.vertex) @ T.range_projection(head)
                )
                assert not compressed.is_zero()
                assert shift_gaps_check(T, F.members, head) == 0


def _gap_families(g, chain):
    """Families to check against each collection of the chain: the boundary
    representations of the chain (a larger collection's representation
    kills gaps outside a smaller one), a tampered one, the float versions
    and the zero family."""
    reps = [boundary_rep(g, S) for S in chain]
    ops = dict(reps[0].ops)
    lam = max(ops, key=lambda p: p.sort_key())
    ops[lam] = ops[lam] * Fraction(2)  # no longer a partial isometry
    tampered = CKFamily(g, reps[0].dim, ops, basis=reps[0].basis)
    return reps + [tampered, oracles.complex_family(reps[0]), oracles.complex_family(reps[-1]), zero_family(g)]


@pytest.mark.parametrize("name", ["omega11", "omega21", "omega22", "b7.0", "b7.3"])
def test_gap_vanishing_matches_universe_loop(request, monkeypatch, name):
    if name in FAITHFUL_DIFFERENTIAL:
        g = FAITHFUL_DIFFERENTIAL[name]()
    else:
        g = request.getfixturevalue(name)
    universe = FamilyCollection(g).universe_all()
    chain = [
        satiate(FamilyCollection(g)),
        satiate(FamilyCollection(g, [random.Random(name).choice(universe)])),
        full_fe_collection(g),
    ]
    products = []

    def counting_gap_product(T, members, v):
        products.append(v)
        return gap_product(T, members, v)

    shortcuts = 0
    for T in _gap_families(g, chain):
        for S in chain:
            want = oracles.universe_gap_vanishing(T, S)
            monkeypatch.setattr(repn, "gap_product", counting_gap_product)
            got = repn.gap_vanishing(T, S)
            monkeypatch.undo()
            assert got == want
            shortcuts += len(products) < len(universe)
            products.clear()
    assert shortcuts >= 3  # the antichain-edge checks decided some cases


def _noncommuting_family(g):
    """On omega11: every vertex acts as the identity on C^2, and at 0,0 the
    gaps of b, a and ab project onto e1, (e1 + e2)/2 and e2."""
    half = Fraction(1, 2)
    proj = {
        "c2:0,0": {(1, 1): Fraction(1)},
        "c1:0,0": {(0, 0): half, (0, 1): -half, (1, 0): -half, (1, 1): half},
        "c1:0,0.c2:1,0": {(0, 0): Fraction(1)},
    }
    ops = {
        lam: SparseMatrix.identity(2)
        if lam.is_vertex()
        else SparseMatrix(2, 2, proj.get(lam.token(), {}))
        for lam in g.all_paths()
    }
    return CKFamily(g, 2, ops)


def test_gap_vanishing_without_commuting_projections(omega11):
    # the gap product of {b, ab} vanishes, that of the larger {b, a, ab}
    # does not, so the relations fail and every family is checked
    g = omega11
    T = _noncommuting_family(g)
    S = FamilyCollection(g)
    got = repn.gap_vanishing(T, S)
    assert got == oracles.universe_gap_vanishing(T, S)
    vanished = {tuple(p.token() for p in F) for F in got.vanished_outside}
    assert ("c2:0,0", "c1:0,0.c2:1,0") in vanished
    assert ("c2:0,0", "c1:0,0", "c1:0,0.c2:1,0") not in vanished


def _ck(T, S):
    """verify_family's CK result for T against S."""
    return verify_family(T, S).results[-1]


@pytest.mark.parametrize("name", ["omega11", "omega21", "b7.0"])
def test_ck_matches_all_members_oracle(request, name):
    # intact representations, each against every collection of the chain
    # (a smaller collection's representation against a larger one), a
    # scaled one, float copies, the zero family, tampered bundles, and
    # collections of generators only
    from test_injections import TAMPERS, tamper
    from kgraphck.cli import _bundle_load, _bundle_of

    g = FAITHFUL_DIFFERENTIAL[name]() if name in FAITHFUL_DIFFERENTIAL else request.getfixturevalue(name)
    universe = FamilyCollection(g).universe_all()
    rng = random.Random(f"{name}:ck")
    chain = [
        satiate(FamilyCollection(g)),
        satiate(FamilyCollection(g, [rng.choice(universe)])),
        full_fe_collection(g),
    ]
    generators = [FamilyCollection(g, rng.sample(universe, k)) for k in (1, 3, 6)]
    doc = _bundle_of(boundary_rep(g, chain[0]))
    families = _gap_families(g, chain) + [_bundle_load(g, tamper(doc, g, kind)) for kind in TAMPERS]
    failing = 0
    for T in families:
        for S in chain + generators:
            want = oracles.all_members_ck(T, S)
            assert _ck(T, S) == want
            assert T.kept(S, repn.gap_vanishing).members_vanish == want.ok
            failing += not want.ok
    assert failing >= 10


def test_ck_reads_every_member_without_commuting_projections(omega11):
    # the gap product of the minimal member {b, ab} vanishes and that of
    # {b, a, ab} does not, so the minimal members alone would pass CK
    g = omega11
    T = _noncommuting_family(g)
    b, a, ab = (g.paths("0,0", Degree(*d))[0] for d in ((0, 1), (1, 0), (1, 1)))
    S = FamilyCollection(g, [family(g, [b, ab]), family(g, [b, a, ab])])
    assert gap_product(T, [b, ab], "0,0").is_zero()
    assert T.is_rational() and not all(r.ok for r in T.relation_checks())
    want = oracles.all_members_ck(T, S)
    assert not want.ok
    assert _ck(T, S) == want
    assert not T.kept(S, repn.gap_vanishing).members_vanish


def test_ck_witness_is_first_in_family_order(omega21):
    # with the identity at 0,0 several members reach the largest deviation;
    # CK names the first of them in family order
    from kgraphck.cli import _bundle_load, _bundle_of

    g = omega21
    S = satiate(FamilyCollection(g, [family(g, [g.edge_path("c1:0,0")])]))
    doc = _bundle_of(boundary_rep(g, S))
    doc["operators"]["0,0"] = [[i, i, "1"] for i in range(doc["dimension"])]
    T = _bundle_load(g, doc)
    worst, first = T.kept(S, repn.member_gaps)
    reaching = [
        E for E in S.sorted_members() if gap_product(T, E.members, E.vertex).max_abs() == worst
    ]
    assert worst > 0 and len(reaching) > 1 and first == reaching[0]
    assert _ck(T, S) == oracles.all_members_ck(T, S)
    assert _ck(T, S).detail == f"gap product of {first!r}"


# -- faithfulness -------------------------------------------------------------------------


def test_faithful_positive(omega11, omega21):
    for g in (omega11, omega21):
        for S in (
            FamilyCollection(g),
            satiate(FamilyCollection(g, [family(g, [g.edge_path(g.edges[0].id)])])),
            full_fe_collection(g),
        ):
            T = boundary_rep(g, S)
            verdict = faithful_on_core_check(T, S)
            assert verdict.faithful
            assert verdict.routes_agree


def test_faithful_negative_larger_collection(omega11, sat_a):
    # representing a strictly larger satiated collection collapses matrix
    # units; both routes must report the failure
    S_small = FamilyCollection(omega11)  # satiate of nothing
    T_big = boundary_rep(omega11, sat_a)
    verdict = faithful_on_core_check(T_big, S_small)
    assert not verdict.faithful
    assert verdict.routes_agree
    assert not verdict.route_a_ok and not verdict.route_b_ok

    full = full_fe_collection(omega11)
    T_full = boundary_rep(omega11, full)
    verdict2 = faithful_on_core_check(T_full, sat_a)
    assert not verdict2.faithful
    assert verdict2.routes_agree


def test_faithful_needs_exact_universe(omega21):
    # route (a) reads membership of tail families, which a capped universe
    # cannot decide; a collection with no family outside it needs none
    T = boundary_rep(omega21, satiate(FamilyCollection(omega21)))
    capped = FamilyCollection(omega21, max_family_size=1)
    with pytest.raises(InexactUniverse):
        faithful_on_core_check(T, capped)
    with pytest.raises(InexactUniverse):
        nonzero_theta_pattern(capped, pi_closure([omega21.vertex_path("0,0")]))
    no_families = FamilyCollection(omega21, max_family_size=0)
    assert no_families.universe_all() == ()
    assert faithful_on_core_check(T, no_families).route_a_ok


def test_zero_family_not_faithful(omega11):
    S = FamilyCollection(omega11)
    Z = zero_family(omega11)
    verdict = faithful_on_core_check(Z, S)
    assert not verdict.faithful
    assert any("vertex" in v for v in verdict.route_b_violations)


# -- differential: each matrix unit once, against the per-window check ----------------------


# "omega11" and "omega21" are conftest fixtures; the batch-7 members are the
# acyclic ones of oracles.random_graphs(7, 6) whose universe is small
FAITHFUL_DIFFERENTIAL = {
    "omega22": lambda: omega(2, Degree(2, 2)),
    "omega111": lambda: omega(3, Degree(1, 1, 1)),
    **{f"b7.{i}": lambda i=i: oracles.random_graphs(7, 6)[i] for i in (0, 1, 3)},
}


def _oracle_verdict(monkeypatch, T, S):
    """The per-window verdict, and its route (a) violations with each
    repeated matrix unit (lam, mu, tails of lam in the grid) dropped."""
    vanished = []

    scan_theta = oracles.scan_theta

    def recording_theta(T, PiE, lam, mu):
        mat = scan_theta(T, PiE, lam, mu)
        if mat.is_zero():
            vanished.append((lam, mu, oracles.scan_grid_tails(PiE, lam)))
        return mat

    monkeypatch.setattr(oracles, "scan_theta", recording_theta)
    verdict = oracles.per_window_faithful_on_core_check(T, S)
    monkeypatch.undo()
    assert len(vanished) == len(verdict.route_a_violations)
    seen = set()
    first = []
    for text, unit in zip(verdict.route_a_violations, vanished):
        if unit not in seen:
            seen.add(unit)
            first.append(text)
    return verdict, first


@pytest.mark.parametrize("name", ["omega11", "omega21", *FAITHFUL_DIFFERENTIAL])
def test_faithful_matches_per_window_oracle(request, monkeypatch, name):
    if name in FAITHFUL_DIFFERENTIAL:
        g = FAITHFUL_DIFFERENTIAL[name]()
    else:
        g = request.getfixturevalue(name)
    universe = FamilyCollection(g).universe_all()
    chain = [
        satiate(FamilyCollection(g)),
        satiate(FamilyCollection(g, [random.Random(name).choice(universe)])),
        full_fe_collection(g),
    ]
    reps = [boundary_rep(g, S) for S in chain]
    pairs = list(zip(reps, chain))
    pairs += [
        (reps[j], chain[i])
        for i, j in ((0, 1), (0, 2), (1, 2))
        if chain[i].members < chain[j].members
    ]
    pairs += [(zero_family(g), S) for S in chain]
    failing = 0
    for T, S in pairs:
        new = faithful_on_core_check(T, S)
        old, old_route_a = _oracle_verdict(monkeypatch, T, S)
        assert new.route_a_ok == old.route_a_ok
        assert new.route_b_ok == old.route_b_ok
        assert new.route_b_violations == old.route_b_violations
        assert new.route_a_violations == old_route_a
        hyp = check_uniqueness_hypotheses(T, S)
        assert hyp.all_ok == all(oracles.separate_uniqueness_hypotheses(T, S))
        failing += not new.faithful
    assert failing >= 3


def test_hypotheses_condition_c_matches_per_family_oracle(omega21, parallel_square):
    # condition (C)'s ok from the maximal families outside S, against every
    # family outside S; parallel_square fails it
    cases = []
    for g in (omega21, parallel_square, oracles.random_graphs(7, 6)[0]):
        base = FamilyCollection(g)
        rng = random.Random(len(g.vertices))
        draws = [rng.choice(base.universe_all()) for _ in range(2)]
        cases += [base] + [satiate(base.with_members([F])) for F in draws]
    verdicts = set()
    for S in cases:
        want = oracles.per_family_condition_c(S).ok
        assert condition_c(S, maximal=True).ok == want
        T = boundary_rep(S.graph, S)
        assert check_uniqueness_hypotheses(T, S).condition_c_ok == want
        verdicts.add(want)
    assert verdicts == {True, False}


# -- shift gaps -----------------------------------------------------------------------------


def test_shift_gaps_vertex_and_empty(rep_a, omega11):
    v = omega11.vertex_path("0,0")
    a = omega11.edge_path("c1:0,0")
    assert shift_gaps_check(rep_a, [a], v) == 0
    # empty extension set: both sides equal the range projection
    assert shift_gaps_check(rep_a, [], a) == 0


def test_shift_gaps_random(omega21):
    rng = random.Random(13)
    T = boundary_rep(omega21, satiate(FamilyCollection(omega21)))
    paths = omega21.all_paths()
    for _ in range(60):
        mu = rng.choice(paths)
        pool = [p for p in paths if p.range == mu.range]
        E = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        assert shift_gaps_check(T, E, mu) == 0


# -- gauge -----------------------------------------------------------------------------------


def test_gauge_unitary_trivial_and_sampled(rep_a):
    assert gauge_unitary_check(rep_a, [(1.0, 1.0)]) == 0.0
    assert gauge_unitary_check(rep_a, [(-1.0, 1.0)]) <= 1e-12
    rng = random.Random(17)
    zs = [
        tuple(np.exp(2j * np.pi * rng.random()) for _ in range(2)) for _ in range(8)
    ]
    assert gauge_unitary_check(rep_a, zs) <= 1e-12


def test_gauge_average_matches_expectation(omega11, omega21):
    rng = random.Random(19)
    for g in (omega11, omega21):
        T = boundary_rep(g, satiate(FamilyCollection(g)))
        zs = gauge_grid(g)
        for _ in range(5):
            a = random_element(rng, g)
            avg = sampled_gauge_average(T, a, zs)
            exact = evaluate(gauge_expectation(a), T).to_dense()
            assert np.abs(avg - exact).max() <= 1e-9


# -- expectation contraction --------------------------------------------------------------


def test_contraction_requires_hypotheses(omega11, rep_a, sat_a):
    bad = check_uniqueness_hypotheses(
        zero_family(omega11), FamilyCollection(omega11)
    )
    assert not bad.all_ok
    a = FormalElement.generator(
        omega11.vertex_path("0,0"), omega11.vertex_path("0,0")
    )
    with pytest.raises(HypothesisNotMet):
        expectation_contraction_check(rep_a, a, bad)


def test_contraction_holds(omega21):
    rng = random.Random(23)
    S = satiate(FamilyCollection(omega21))
    T = boundary_rep(omega21, S)
    hyp = check_uniqueness_hypotheses(T, S)
    assert hyp.all_ok
    for _ in range(20):
        a = random_element(rng, omega21, terms=6)
        lhs, rhs = expectation_contraction_check(T, a, hyp)
        assert lhs <= rhs + 1e-9


def test_random_acyclic_graphs_full_pipeline():
    # beyond the grid fixtures: relations, faithfulness and membership
    # coincide on arbitrary valid acyclic skeletons
    import oracles
    from kgraphck.errors import UniverseTooLarge

    rng = random.Random(99)
    tested = 0
    for g in oracles.random_graphs(seed=31, count=12):
        if not g.is_acyclic or len(g.all_paths()) > 40:
            continue
        try:
            S = full_fe_collection(g, budget=50_000)
        except UniverseTooLarge:
            continue
        T = boundary_rep(g, S)  # construction re-verifies every relation
        verdict = faithful_on_core_check(T, S)
        assert verdict.faithful and verdict.routes_agree
        window = rng.sample(g.all_paths(), 2)
        assert matrix_unit_check(T, pi_closure(window)).ok
        tested += 1
    assert tested >= 2


def test_contraction_equality_cases(omega11, rep_a, sat_a):
    hyp = check_uniqueness_hypotheses(rep_a, sat_a)
    assert hyp.all_ok
    a = omega11.edge_path("c1:0,0")
    equal = FormalElement.generator(a, a, Fraction(2))
    lhs, rhs = expectation_contraction_check(rep_a, equal, hyp)
    assert abs(lhs - rhs) <= 1e-12
    c = omega11.paths("0,0", Degree(1, 1))[0]
    skew = FormalElement.generator(c, omega11.vertex_path("1,1"))
    lhs, rhs = expectation_contraction_check(rep_a, skew, hyp)
    assert lhs == 0.0 and rhs > 0
