"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a one-line pass summary on success; pytest -v adds the
per-criterion pass/fail line.  Exact criteria assert deviation == 0 on the
rational backend; the analytic gauge/norm criteria use the stated float
tolerances.  Criteria touching boundary representations run on the acyclic
fixtures; the cyclic fixture participates through windowed path arithmetic.
"""

import itertools
import random

import numpy as np
import pytest

from kgraphck.degree import Degree
from kgraphck.kgraph import compose, segment
from kgraphck.alignment import ext, ext_family, family, has_prefix_in, pi_closure
from kgraphck.satiation import (
    FamilyCollection,
    Membership,
    full_fe_collection,
    member,
    satiate,
)
from kgraphck.boundary import boundary_paths, condition_c, construct_boundary
from kgraphck.formal import gauge_expectation
from kgraphck.repn import (
    boundary_rep,
    check_uniqueness_hypotheses,
    evaluate,
    expectation_contraction_check,
    faithful_on_core_check,
    gap_product,
    gauge_unitary_check,
    matrix_unit_check,
    sampled_gauge_average,
    shift_gaps_check,
)

import oracles


@pytest.fixture(scope="module")
def fixture_graphs(omega13, omega11, omega21, g1):
    return {"omega13": omega13, "omega11": omega11, "omega21": omega21, "g1": g1}


@pytest.fixture(scope="module")
def acyclic_setups(omega13, omega11, omega21):
    """Per acyclic fixture: the three satiated collections and their reps."""
    rng = random.Random(2024)
    setups = []
    for name, g in (("omega13", omega13), ("omega11", omega11), ("omega21", omega21)):
        empty = satiate(FamilyCollection(g))
        universe = FamilyCollection(g).universe_all()
        one = satiate(FamilyCollection(g, [rng.choice(universe)]))
        full = full_fe_collection(g)
        collections = {"empty": empty, "one": one, "full": full}
        reps = {key: boundary_rep(g, S) for key, S in collections.items()}
        setups.append((name, g, collections, reps))
    return setups


def test_c01_factorization_uniqueness(fixture_graphs):
    """Every degree split factors uniquely; brute force agrees with segment."""
    checked = 0
    zero2 = Degree(0, 0)

    def check(g, paths):
        nonlocal checked
        zero = Degree.zero(g.rank)
        for p in paths:
            for m in p.degree.below():
                pairs = oracles.brute_factorizations(p, m)
                assert len(pairs) == 1, (p.token(), m)
                q, r = pairs[0]
                assert q == segment(p, zero, m)
                assert r == segment(p, m, p.degree)
                checked += 1

    for name in ("omega13", "omega11", "omega21"):
        g = fixture_graphs[name]
        check(g, g.all_paths())
    g1 = fixture_graphs["g1"]
    check(g1, g1.paths_up_to("v", Degree(3, 3)))
    for g in oracles.random_graphs(seed=11, count=20):
        window = Degree(*([2] * g.rank)) if g.rank == 2 else Degree(1, 1, 1)
        paths = [p for v in g.vertices for p in g.paths_up_to(v, window)]
        check(g, paths)
    print(f"criterion 1: factorization uniqueness PASS ({checked} splits)")


def test_c02_extension_composition_identity(fixture_graphs):
    """Ext(lam2; Ext(lam1; E)) = Ext(lam1 lam2; E), 500 random instances."""
    rng = random.Random(501)
    per_graph = 125
    total = 0
    for name, g in fixture_graphs.items():
        window = Degree(*([2] * g.rank))
        for _ in range(per_graph):
            v = rng.choice(g.vertices)
            pool = g.paths_up_to(v, window)
            lam1 = rng.choice(pool)
            lam2 = rng.choice(g.paths_up_to(lam1.source, window))
            E = family(g, rng.sample(pool, rng.randint(1, min(3, len(pool)))), vertex=v)
            lhs = set(ext(lam2, ext_family(lam1, E)))
            rhs = set(ext(compose(lam1, lam2), E))
            assert lhs == rhs, (name, lam1.token(), lam2.token())
            total += 1
    assert total == 500
    print(f"criterion 2: extension composition identity PASS ({total} instances)")


def test_c03_matrix_unit_suite(acyclic_setups):
    """Adjoint, product, and span identities hold exactly on random grids."""
    rng = random.Random(303)
    grids = 0
    for name, g, collections, reps in acyclic_setups:
        paths = g.all_paths()
        windows = [
            tuple(rng.sample(paths, rng.randint(1, 3))) for _ in range(10)
        ]
        for key, T in reps.items():
            for window in windows:
                PiE = pi_closure(window)
                report = matrix_unit_check(T, PiE)
                assert report.max_deviation() == 0.0, (name, key, window)
                grids += 1
    print(f"criterion 3: matrix-unit identities PASS ({grids} grids, deviation 0)")


def test_c04_satiation_least_fixpoint(omega11, omega21):
    """satiate(C) is the intersection of all satiated collections over C."""
    # unit square: literal enumeration of all 2^9 collections
    base11 = FamilyCollection(omega11)
    satiated11 = oracles.all_satiated_by_subsets(base11)
    U11 = base11.universe_all()
    count = 0
    for size in range(0, 3):
        for combo in itertools.combinations(U11, size):
            meets = [s for s in satiated11 if set(combo) <= s]
            expected = frozenset.intersection(*meets)
            assert satiate(base11.with_members(combo)).members == expected
            count += 1

    # larger grid: enumerate every satiated collection as a closed set of
    # the direct axiom saturation, then intersect
    base21 = FamilyCollection(omega21)
    closure = oracles.AxiomClosure(base21)
    closed_masks = closure.all_closed()
    U21 = base21.universe_all()
    for size in range(0, 3):
        for combo in itertools.combinations(U21, size):
            expected = closure.intersection_of_satiated_containing(combo, closed_masks)
            assert satiate(base21.with_members(combo)).members == expected
            count += 1

    # closure-operator laws on random generator collections
    rng = random.Random(404)
    laws = 0
    for base in (base11, base21):
        universe = base.universe_all()
        for _ in range(25):
            A = base.with_members(rng.sample(universe, rng.randint(0, 2)))
            B = base.with_members(
                set(A.members) | set(rng.sample(universe, rng.randint(0, 2)))
            )
            SA, SB = satiate(A), satiate(B)
            assert A.members <= SA.members
            assert SA.members <= SB.members
            assert satiate(SA).members == SA.members
            laws += 1
    print(
        f"criterion 4: satiation least-fixpoint PASS "
        f"({count} generators, {laws} law instances)"
    )


def test_c05_gap_products_encode_membership(acyclic_setups):
    """Gap product vanishes exactly on members of the satiated collection."""
    families = 0
    for name, g, collections, reps in acyclic_setups:
        for key, S in collections.items():
            T = reps[key]
            for F in S.universe_all():
                vanishes = gap_product(T, F.members, F.vertex).is_zero()
                assert vanishes == (member(F, S) is Membership.YES), (name, key, F)
                families += 1
    print(f"criterion 5: gap products encode membership PASS ({families} checks)")


def test_c06_faithfulness_routes(acyclic_setups):
    """Both faithfulness routes agree, positively and negatively."""
    positives = negatives = 0
    for name, g, collections, reps in acyclic_setups:
        for key, S in collections.items():
            verdict = faithful_on_core_check(reps[key], S)
            assert verdict.faithful and verdict.routes_agree, (name, key)
            positives += 1
        chain = [collections["empty"], collections["one"], collections["full"]]
        for small, large in itertools.combinations(chain, 2):
            if not small.members < large.members:
                continue
            T_large = boundary_rep(g, large)
            verdict = faithful_on_core_check(T_large, small)
            assert not verdict.faithful, (name,)
            assert verdict.routes_agree, (name,)
            assert not verdict.route_a_ok and not verdict.route_b_ok
            negatives += 1
    assert negatives > 0
    print(
        f"criterion 6: faithfulness characterization PASS "
        f"({positives} faithful, {negatives} collapsing)"
    )


def test_c07_shift_gaps(acyclic_setups):
    """The gap-shift identity has deviation zero on 200 random pairs."""
    rng = random.Random(707)
    instances = 0
    while instances < 200:
        name, g, collections, reps = acyclic_setups[instances % len(acyclic_setups)]
        T = reps[rng.choice(["empty", "one", "full"])]
        paths = g.all_paths()
        mu = rng.choice(paths)
        pool = [p for p in paths if p.range == mu.range]
        E = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        assert shift_gaps_check(T, E, mu) == 0
        instances += 1
    print(f"criterion 7: gap-shift identity PASS ({instances} pairs, deviation 0)")


def _eight_point_grid(rank):
    """Roots-of-unity grid with exactly eight points, fine enough to average
    away every skew term on the fixtures (degree spans 3 and 1)."""
    if rank == 1:
        ns = (8,)
    else:
        ns = (4, 2)
    axes = [[np.exp(2j * np.pi * t / n) for t in range(n)] for n in ns]
    return [tuple(z) for z in itertools.product(*axes)]


def test_c08_gauge_compatibility(acyclic_setups):
    """Diagonal gauge unitaries scale generators; averaging them recovers
    the degree-diagonal expectation."""
    from test_formal import random_element

    rng = random.Random(808)
    worst_unitary = 0.0
    worst_average = 0.0
    for name, g, collections, reps in acyclic_setups:
        zs = _eight_point_grid(g.rank)
        assert len(zs) == 8
        for key, T in reps.items():
            worst_unitary = max(worst_unitary, gauge_unitary_check(T, zs))
            for _ in range(4):
                a = random_element(rng, g, terms=5)
                avg = sampled_gauge_average(T, a, zs)
                exact = evaluate(gauge_expectation(a), T).to_dense()
                worst_average = max(worst_average, float(np.abs(avg - exact).max()))
    assert worst_unitary <= 1e-12
    assert worst_average <= 1e-9
    print(
        f"criterion 8: gauge compatibility PASS "
        f"(unitary dev {worst_unitary:.2e}, averaging dev {worst_average:.2e})"
    )


def test_c09_expectation_contraction(acyclic_setups):
    """Norm of the expected part never exceeds the norm of the element."""
    from test_formal import random_element

    rng = random.Random(909)
    checked = 0
    hyps = {}
    for name, g, collections, reps in acyclic_setups:
        for key, S in collections.items():
            report = condition_c(S)
            assert report.ok, (name, key)
            hyps[(name, key)] = check_uniqueness_hypotheses(reps[key], S)
            assert hyps[(name, key)].all_ok
    while checked < 100:
        name, g, collections, reps = acyclic_setups[checked % len(acyclic_setups)]
        key = rng.choice(["empty", "one", "full"])
        a = random_element(rng, g, terms=10)
        lhs, rhs = expectation_contraction_check(reps[key], a, hyps[(name, key)])
        assert lhs <= rhs + 1e-9, (name, key, lhs, rhs)
        checked += 1
    print(f"criterion 9: expectation contraction PASS ({checked} elements)")


def test_c10_boundary_existence_and_avoidance(acyclic_setups):
    """Boundaries are nonempty everywhere; construction avoids any family
    outside the collection and lands in the enumerated boundary."""
    constructions = 0
    for name, g, collections, reps in acyclic_setups:
        for key, S in collections.items():
            enumerated = {
                v: set(boundary_paths(v, S)) for v in g.vertices
            }
            for v in g.vertices:
                assert enumerated[v], (name, key, v)
                bp = construct_boundary(v, S)
                assert bp in enumerated[v]
                for F in S.universe(v):
                    if member(F, S) is Membership.YES:
                        continue
                    got = construct_boundary(v, S, avoid=F)
                    assert got in enumerated[v], (name, key, v)
                    assert not has_prefix_in(got, F.members)
                    escaping = {
                        x for x in enumerated[v] if not has_prefix_in(x, F.members)
                    }
                    assert got in escaping and escaping
                    constructions += 1
    print(
        f"criterion 10: boundary existence and avoidance PASS "
        f"({constructions} avoiding constructions)"
    )
