import itertools
import random

import pytest

from kgraphck.boundary import omega
from kgraphck.degree import Degree
from kgraphck.alignment import family
from kgraphck.errors import (
    BUDGET_ERRORS,
    ClosureInvariantViolated,
    InvariantViolated,
    UniverseTooLarge,
)
from kgraphck.exhaustive import Status, is_exhaustive
from kgraphck.graphio import parse_path
from kgraphck.kgraph import Edge, SkeletonSpec, validate
from kgraphck import satiation
from kgraphck.satiation import (
    FamilyCollection,
    Membership,
    _check_family,
    _graftings,
    _truncations,
    full_fe_collection,
    is_satiated,
    member,
    satiate,
    sigma1,
    sigma2,
    sigma3,
    sigma4,
)

import oracles


@pytest.fixture(scope="module")
def sq(omega11):
    g = omega11
    return {
        "base": FamilyCollection(g),
        "a": family(g, [g.edge_path("c1:0,0")]),
        "b": family(g, [g.edge_path("c2:0,0")]),
        "c": family(g, [g.paths("0,0", Degree(1, 1))[0]]),
        "a'": family(g, [g.edge_path("c1:0,1")]),
        "b'": family(g, [g.edge_path("c2:1,0")]),
        "ab": family(g, [g.edge_path("c1:0,0"), g.edge_path("c2:0,0")]),
    }


def members_tokens(collection):
    return sorted(
        tuple(p.token() for p in f) for f in collection.sorted_members()
    )


# -- is_satiated -------------------------------------------------------------------


def test_full_fe_satiated(omega11, omega21):
    for g in (omega11, omega21):
        full = full_fe_collection(g)
        ok, violations = is_satiated(full)
        assert ok and not violations


def test_empty_satiated(sq):
    assert is_satiated(sq["base"])[0]


def test_upward_closure_alone_not_satiated(sq, omega11):
    up = sq["base"].with_members(
        [f for f in sq["base"].universe("0,0") if sq["a"].members <= f.members]
    )
    ok, violations = is_satiated(up)
    assert not ok
    first = violations[0]
    assert first.axiom == "S2"
    assert "c1:0,1" in first.detail  # the missing extension family {a'}


# -- sigma maps ---------------------------------------------------------------------


def test_sigma3_truncations_of_corner(sq):
    out = sigma3(sq["base"].with_members([sq["c"]]))
    assert sq["a"] in out.members
    assert sq["b"] in out.members
    assert sq["c"] in out.members


def test_sigma2_transports(sq):
    out = sigma2(sq["base"].with_members([sq["a"]]))
    assert sq["a'"] in out.members


def test_sigma_maps_contain_input(omega21):
    rng = random.Random(5)
    base = FamilyCollection(omega21)
    universe = base.universe_all()
    for _ in range(8):
        C = base.with_members(rng.sample(universe, rng.randint(1, 3)))
        for sig in (sigma1, sigma2, sigma3, sigma4):
            assert C.members <= sig(C).members


def test_sigma_outputs_exhaustive_vertex_free(omega21):
    rng = random.Random(7)
    base = FamilyCollection(omega21)
    universe = base.universe_all()
    for _ in range(5):
        C = base.with_members(rng.sample(universe, 2))
        for sig in (sigma1, sigma2, sigma3, sigma4):
            for fam in sig(C).members:
                assert fam.is_vertex_free()
                assert is_exhaustive(fam).status is Status.EXHAUSTIVE


def _truncation_graphs():
    batch = oracles.random_graphs(7, 6)
    return [
        omega(2, Degree(1, 1)),
        omega(2, Degree(2, 1)),
        omega(3, Degree(1, 1, 1)),
        batch[0],
        batch[1],
        batch[3],
    ]


def _oracle_truncations(fam, budget=None):
    choices = oracles._truncation_choices(fam, budget=budget)
    return list(dict.fromkeys(oracles._truncate(fam, c) for c in choices))


def test_truncations_match_choice_vector_oracle():
    # one family per distinct truncation, in first-choice-vector order
    for g in _truncation_graphs():
        for fam in FamilyCollection(g).universe_all():
            assert list(_truncations(fam)) == _oracle_truncations(fam)


def test_truncations_budget_matches_oracle():
    checked = 0
    for g in _truncation_graphs():
        for fam in FamilyCollection(g).universe_all():
            vectors = sum(1 for _ in oracles._truncation_choices(fam))
            if vectors < 2:
                continue
            assert len(list(_truncations(fam, budget=vectors))) >= 1
            with pytest.raises(UniverseTooLarge) as got:
                list(_truncations(fam, budget=vectors - 1))
            with pytest.raises(UniverseTooLarge) as want:
                _oracle_truncations(fam, budget=vectors - 1)
            assert str(got.value) == str(want.value)
            checked += 1
    assert checked > 0


def test_is_satiated_reports_each_violation_once(omega21):
    g = omega21
    tokens = ["c1:0,0.c2:1,0", "c1:0,0.c1:1,0", "c1:0,0.c1:1,0.c2:2,0"]
    fam = family(g, [parse_path(g, t) for t in tokens])
    C = FamilyCollection(g).with_members([fam])
    ok, violations = is_satiated(C)
    assert not ok
    assert assert_reports_missing_images(C)
    # each S3 violation is a missing truncation by one choice vector
    per_vector = {
        oracles._truncate(fam, c) for c in oracles._truncation_choices(fam)
    }
    missing = {t for t in per_vector if t not in C.members}
    s3 = {v.detail for v in violations if v.axiom == "S3"}
    assert s3 and s3 <= {f"truncation {t!r} of {fam!r} missing" for t in missing}


def test_check_family_raises_typed_error(omega11, omega21):
    assert not issubclass(ClosureInvariantViolated, BUDGET_ERRORS)
    assert issubclass(ClosureInvariantViolated, InvariantViolated)
    # an exact universe whose cached set lost one family: the superset map
    # meets that family inside the window
    exact = FamilyCollection(omega11)
    universe = exact.universe("0,0")
    gen = min(universe, key=lambda f: len(f.members))
    dropped = next(f for f in universe if gen.members < f.members)
    exact._universe_sets["0,0"] = exact._universe_sets["0,0"] - {dropped}
    with pytest.raises(ClosureInvariantViolated, match="inside the window"):
        sigma1(exact.with_members([gen]))
    with pytest.raises(ClosureInvariantViolated, match="inside the window"):
        _check_family(exact, dropped)
    # a family beyond the window is dropped on a windowed universe, and is an
    # error on a universe that claims to be exact
    windowed = FamilyCollection(omega21, depth=Degree(1, 1))
    windowed.universe_all()
    deep = family(omega21, omega21.paths("0,0", Degree(2, 1)))
    assert not windowed.in_window(deep)
    assert _check_family(windowed, deep) is None
    windowed.exact = True
    with pytest.raises(ClosureInvariantViolated, match="exact universe"):
        _check_family(windowed, deep)


# -- satiate -------------------------------------------------------------------------


def _generator_draws(base, rng, draws):
    universe = base.universe_all()
    for _ in range(draws):
        yield base.with_members(rng.sample(universe, min(len(universe), rng.randint(1, 2))))


def test_satiate_matches_naive_fixpoint(g1, omega11, omega21, omega13, omega12, parallel_square):
    rng = random.Random(17)
    batch = oracles.random_graphs(7, 6)
    acyclic = (omega11, omega21, omega13, omega12, parallel_square, batch[0], batch[1], batch[3])
    bases = [FamilyCollection(g1, (), depth=Degree(1, 1))]
    bases += [FamilyCollection(g) for g in acyclic]
    for base in bases:
        for C in _generator_draws(base, rng, 4):
            assert satiate(C).members == oracles.naive_satiate(C).members


def test_satiate_rounds_match_naive_composite(monkeypatch, omega21, parallel_square):
    # the semi-naive rounds reproduce the naive composite round by round,
    # not only at the fixpoint
    import kgraphck.satiation as satiation

    rounds = []

    def recording_sigma4(collection):
        out = sigma4(collection)
        rounds.append(out.members)
        return out

    monkeypatch.setattr(satiation, "sigma4", recording_sigma4)
    rng = random.Random(23)
    batch = oracles.random_graphs(7, 6)
    bases = [FamilyCollection(g) for g in (omega21, parallel_square, batch[0], batch[3])]
    for base in bases:
        for C in _generator_draws(base, rng, 3):
            rounds.clear()
            satiate(C)
            naive = []
            current = C
            while True:
                stepped = sigma4(sigma3(sigma2(sigma1(current))))
                naive.append(stepped.members)
                if stepped.members == current.members:
                    break
                current = stepped
            assert rounds == naive


def test_satiate_budget_matches_naive(omega21):
    rng = random.Random(19)
    base = FamilyCollection(omega21)
    raised = 0
    for C in _generator_draws(base, rng, 6):
        C.budget = 3
        outcomes = []
        for fn in (satiate, oracles.naive_satiate):
            try:
                outcomes.append(fn(C).members)
            except BUDGET_ERRORS as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        raised += outcomes[0] is UniverseTooLarge
    assert raised > 0


def test_satiate_empty_and_full(omega11):
    base = FamilyCollection(omega11)
    assert satiate(base).members == frozenset()
    full = full_fe_collection(omega11)
    assert satiate(full).members == full.members


def test_satiate_square_example(sq):
    S = satiate(sq["base"].with_members([sq["a"]]))
    assert members_tokens(S) == [
        ("c1:0,0",),
        ("c1:0,0", "c1:0,0.c2:1,0"),
        ("c1:0,1",),
        ("c2:0,0", "c1:0,0"),
        ("c2:0,0", "c1:0,0", "c1:0,0.c2:1,0"),
    ]
    assert is_satiated(S)[0]


def test_member_verdicts(sq):
    S = satiate(sq["base"].with_members([sq["a"]]))
    assert member(sq["a"], S) is Membership.YES
    assert member(sq["ab"], S) is Membership.YES  # upward closure
    assert member(sq["b'"], S) is Membership.NO
    assert member(sq["b"], S) is Membership.NO


def test_member_unknown_on_window(g1):
    windowed = FamilyCollection(g1, (), depth=Degree(1, 1))
    assert not windowed.exact
    fam = family(g1, [g1.edge_path("b")])
    S = windowed.with_members([fam])
    assert member(fam, S) is Membership.YES
    other = family(g1, [g1.edge_path("r")])
    assert member(other, S) is Membership.UNKNOWN


def test_satiate_is_closure_operator(omega11, omega21):
    rng = random.Random(11)
    for g, rounds in ((omega11, 30), (omega21, 20)):
        base = FamilyCollection(g)
        universe = base.universe_all()
        for _ in range(rounds):
            A = base.with_members(rng.sample(universe, rng.randint(0, 2)))
            B = base.with_members(
                set(A.members) | set(rng.sample(universe, rng.randint(0, 2)))
            )
            SA, SB = satiate(A), satiate(B)
            assert A.members <= SA.members  # extensive
            assert SA.members <= SB.members  # monotone
            assert satiate(SA).members == SA.members  # idempotent


def test_satiate_interleaved_same_fixpoint(omega11):
    # applying the four maps one at a time converges to the same collection
    rng = random.Random(13)
    base = FamilyCollection(omega11)
    universe = base.universe_all()
    for _ in range(10):
        C = base.with_members(rng.sample(universe, rng.randint(1, 2)))
        composite = satiate(C)
        current = C
        while True:
            stepped = current
            for sig in (sigma1, sigma2, sigma3, sigma4):
                stepped = sig(stepped)
            if stepped.members == current.members:
                break
            current = stepped
        assert current.members == composite.members


def test_satiate_minimality_by_deletion(sq):
    # removing any non-generator member breaks satiation
    C = sq["base"].with_members([sq["a"]])
    S = satiate(C)
    for fam in S.members:
        if fam == sq["a"]:
            continue
        pruned = sq["base"].with_members(set(S.members) - {fam})
        assert not is_satiated(pruned)[0]


def test_satiate_equals_subset_enumeration_intersection(omega11):
    # literal oracle: visit all 2^9 collections, keep the satiated ones
    base = FamilyCollection(omega11)
    universe = base.universe_all()
    assert len(universe) == 9
    satiated = oracles.all_satiated_by_subsets(base)
    for size in range(0, 3):
        for combo in itertools.combinations(universe, size):
            want = set(combo)
            meets = [s for s in satiated if want <= s]
            expected = frozenset.intersection(*meets)
            got = satiate(base.with_members(combo)).members
            assert got == expected


def test_axiom_closure_bfs_agrees_with_subsets(omega11):
    # the closed-set enumeration oracle reproduces the literal one
    base = FamilyCollection(omega11)
    closure = oracles.AxiomClosure(base)
    closed = {closure.members_of(m) for m in closure.all_closed()}
    assert closed == set(oracles.all_satiated_by_subsets(base))


def test_covering_family_forces_membership(omega11, omega21):
    # for a satiated collection: if some member E has every path either
    # extending F or transporting into the collection along F, then F itself
    # belongs; checked by full enumeration over universe families F
    from kgraphck.alignment import ext_family, has_prefix_in
    from kgraphck.satiation import Membership, member

    for g in (omega11, omega21):
        base = FamilyCollection(g)
        first = base.universe_all()[0]
        for S in (satiate(base.with_members([first])), full_fe_collection(g)):
            for F in S.universe_all():
                covered = any(
                    all(
                        has_prefix_in(mu, F.members)
                        or member(ext_family(mu, F), S) is Membership.YES
                        for mu in E.sorted_members()
                    )
                    for E in S.at(F.vertex)
                )
                if covered:
                    assert member(F, S) is Membership.YES


def test_minimal_antichain_regenerates_members(omega11, omega21):
    # the minimal members of a satiated collection regenerate it by upward
    # closure within the universe
    for g in (omega11, omega21):
        base = FamilyCollection(g)
        gen = base.universe_all()[0]
        for S in (satiate(base.with_members([gen])), full_fe_collection(g)):
            for v in g.vertices:
                minimal = S.minimal_at(v)
                regenerated = {
                    cand
                    for cand in S.universe(v)
                    if any(m.members <= cand.members for m in minimal)
                }
                assert regenerated == set(S.at(v))


# -- the shared axiom images and the collection's views ------------------------------


def _two_squares():
    """e at v meets f in two ways, e.f1 = f.e1 and e.f2 = f.e2, so
    Ext(e; {f}) = {f1, f2} is larger than {f}."""
    return validate(
        SkeletonSpec(
            2,
            ("v", "a", "b", "c1", "c2"),
            (
                Edge("e", 1, "v", "a"),
                Edge("f", 2, "v", "b"),
                Edge("f1", 2, "a", "c1"),
                Edge("e1", 1, "b", "c1"),
                Edge("f2", 2, "a", "c2"),
                Edge("e2", 1, "b", "c2"),
            ),
            (("e", "f1", "f", "e1"), ("e", "f2", "f", "e2")),
        )
    )


def _differential_collections(g1, omega11, omega21, omega13, omega12, parallel_square):
    """Collections over exact, windowed and capped universes: seeded draws of
    one to three families (rarely satiated), their S1 closures, and their
    satiations where those finish within the budget."""
    rng = random.Random(29)
    batch = oracles.random_graphs(7, 6)
    two_squares = _two_squares()
    acyclic = (omega11, omega21, omega13, omega12, parallel_square, two_squares)
    bases = [FamilyCollection(g) for g in acyclic + (batch[0], batch[1], batch[3])]
    bases += [
        FamilyCollection(g1, (), depth=Degree(1, 1)),
        FamilyCollection(omega21, depth=Degree(1, 1)),
        FamilyCollection(omega21, max_family_size=2),
        FamilyCollection(batch[0], max_family_size=2),
        # S2 images of the size-1 families escape this window
        FamilyCollection(two_squares, max_family_size=1),
    ]
    for base in bases:
        yield base
        universe = base.universe_all()
        for _ in range(3):
            C = base.with_members(rng.sample(universe, min(len(universe), rng.randint(1, 3))))
            yield C
            yield sigma1(C)
            try:
                yield satiate(C)
            except UniverseTooLarge:
                pass


@pytest.fixture(scope="module")
def differential(g1, omega11, omega21, omega13, omega12, parallel_square):
    return list(_differential_collections(g1, omega11, omega21, omega13, omega12, parallel_square))


def _outcome(fn, C):
    try:
        return fn(C)
    except UniverseTooLarge as exc:
        return str(exc)


def assert_reports_missing_images(C, oracle_budget=None):
    """is_satiated(C) against the four-loop oracle, run within oracle_budget
    (C's own budget if None): the same verdict, and each violation one the
    oracle lists, so a missing in-window image, listed once.  Where the
    oracle exhausts its budget the verdict is whether satiate keeps C."""
    ok, violations = is_satiated(C)
    small = C.with_members(C.members)
    small.budget = oracle_budget or C.budget
    want = _outcome(oracles.four_loop_is_satiated, small)
    if isinstance(want, str):
        assert ok == (satiate(C).members == C.members)
        return False
    assert ok == want[0]
    assert len(set(violations)) == len(violations)
    assert set(violations) <= set(want[1])
    return True


def test_is_satiated_matches_four_loop_oracle(differential):
    verdicts = set()
    for C in differential:
        assert assert_reports_missing_images(C)
        verdicts.add(is_satiated(C)[0])
    assert verdicts == {True, False}


def _single_step_corpus():
    """Collections over exact, windowed and capped universes: seeded
    generator sets, their sigma1 images, their satiations, and each
    satiation with one minimal member removed."""
    rng = random.Random(37)
    batch = oracles.random_graphs(11, 6)  # 2 and 5 acyclic, 0 and 3 single-vertex
    exact = (omega(1, Degree(2)), omega(2, Degree(2, 1)), omega(3, Degree(1, 1, 1)), batch[2], batch[5])
    bases = [FamilyCollection(g) for g in exact]
    bases += [FamilyCollection(batch[3], depth=Degree(1, 1))]
    bases += [FamilyCollection(batch[0], depth=Degree(2, 1), max_family_size=2)]
    bases += [FamilyCollection(g, max_family_size=2) for g in (omega(2, Degree(2, 2)), batch[2])]
    bases += [FamilyCollection(batch[5], max_family_size=3)]
    for base in bases:
        universe = base.universe_all()
        for _ in range(2):
            C = base.with_members(rng.sample(universe, min(len(universe), rng.randint(1, 3))))
            yield "generators", C
            yield "sigma1", sigma1(C)
            S = satiate(C)
            yield "satiate", S
            for v in S.graph.vertices:
                for E in S.minimal_at(v):
                    yield "minimal removed", S.with_members(S.members - {E})


def test_is_satiated_on_minimal_members_matches_four_loop_oracle():
    # the oracle reads every image of every member, is_satiated only the
    # single steps of the minimal members; a small oracle budget keeps the
    # run short and sends the larger collections to satiate instead
    kinds = {}
    for kind, C in _single_step_corpus():
        by_oracle = assert_reports_missing_images(C, oracle_budget=100)
        kinds.setdefault(kind, set()).add((is_satiated(C)[0], by_oracle))
    assert set(kinds) == {"generators", "sigma1", "satiate", "minimal removed"}
    assert {ok for ok, _ in kinds["minimal removed"]} == {True, False}
    assert {by_oracle for seen in kinds.values() for _, by_oracle in seen} == {True, False}


def test_views_match_definitions(differential):
    maximal_checked = 0
    for C in differential:
        members = C.sorted_members()
        for v in C.graph.vertices:
            at_v = [E for E in members if E.vertex == v]
            assert list(C.at(v)) == at_v
            assert list(C.minimal_at(v)) == [
                E for E in at_v if not any(D != E and D.members <= E.members for D in at_v)
            ]
            outside = [F for F in C.universe_all() if F.vertex == v and F not in members]
            assert list(C.outside(v)) == outside
            if C.exact and C.members == sigma1(C).members:
                # closed under supersets: the maximal families outside C,
                # by comparing every pair of them
                assert list(C.maximal_outside(v)) == [
                    F for F in outside if not any(F.members < G.members for G in outside)
                ]
                maximal_checked += len(outside) > len(C.maximal_outside(v)) > 0
    assert maximal_checked > 0


def test_with_members_validates_new_families_and_resets_views(monkeypatch, omega21):
    base = FamilyCollection(omega21)
    universe = base.universe_all()
    C = base.with_members(universe[:3])
    assert C.at("0,0") and C.minimal_at("0,0") and C.outside("0,0")
    validated = []
    real = FamilyCollection._validate_member

    def recording(self, fam):
        validated.append(fam)
        real(self, fam)

    monkeypatch.setattr(FamilyCollection, "_validate_member", recording)
    D = C.with_members(universe[:5])
    assert set(validated) == set(universe[3:5]) and len(validated) == 2
    assert set(D.outside("0,0")) == {F for F in D.universe("0,0") if F not in universe[:5]}
    assert set(C.outside("0,0")) == {F for F in C.universe("0,0") if F not in universe[:3]}
    assert len(D.sorted_members()) == 5 and len(C.sorted_members()) == 3
    with pytest.raises(ValueError, match="vertex path"):
        C.with_members([family(omega21, [omega21.vertex_path("0,0")])])


# -- the maximal non-member without the universe ----------------------------------------


def test_maximal_outside_matches_filter(differential):
    # at a vertex without members maximal_outside reads the hit masks; the
    # filter over outside(v) defines it for any collection, closed under S1
    # or not, on exact, windowed and capped universes
    read_off_masks = unclosed = 0
    for C in differential:
        for v in C.graph.vertices:
            got = list(C.maximal_outside(v))
            assert got == oracles.filtered_maximal_outside(C, v)
            if not C.at(v) and got:
                read_off_masks += 1
                unclosed += C.members != sigma1(C).members
    assert read_off_masks and unclosed


def test_maximal_outside_past_the_subset_budget():
    # listing omega(2,(3,2))'s 11 candidates at 0,0 exceeds a budget of 3;
    # the one maximal non-member of the empty collection does not list them
    g = omega(2, Degree(3, 2))
    C = FamilyCollection(g, budget=3)
    with pytest.raises(UniverseTooLarge, match="11 candidate paths exceed the subset budget 3"):
        C.universe("0,0")
    (F,) = C.maximal_outside("0,0")
    assert F.sorted_members() == tuple(p for p in g.paths_up_to("0,0", g.max_degree) if not p.is_vertex())
    assert C.maximal_outside("3,2") == ()  # a vertex with no path out of it


# -- graftings within the window ------------------------------------------------------------


def test_graftings_leave_out_pool_members_past_the_window(monkeypatch, g1):
    # the same in-window graftings in the same order, and the same satiation
    # and violations, as with every member in the pools
    bases = [
        FamilyCollection(g1, depth=Degree(1, 1)),
        FamilyCollection(validate(oracles.random_single_vertex_spec(random.Random(2), 2)), depth=Degree(1, 1)),
    ]
    rng = random.Random(31)
    dropped = 0
    for base in bases:
        universe = base.universe_all()
        for _ in range(4):
            C = satiate(base.with_members(rng.sample(universe, rng.randint(1, 2))))
            for fam in C.sorted_members():
                every = list(oracles.windowless_graftings(C, fam))
                inside = [F for F in every if all(p.degree <= C.depth for p in F.members)]
                assert list(_graftings(C, fam)) == inside
                dropped += len(every) > len(inside)
            D = base.with_members(rng.sample(universe, rng.randint(1, 2)))
            want = satiate(D), is_satiated(D)
            monkeypatch.setattr(satiation, "_graftings", oracles.windowless_graftings)
            assert (satiate(D), is_satiated(D)) == want
            monkeypatch.undo()
    assert dropped


def test_windowed_graftings_decide_within_the_budget():
    # these two families once exhausted the grafting budget (200,000)
    # after 20 s; in-window graftings decide in well under a second
    g = validate(oracles.random_single_vertex_spec(random.Random(4), 2))
    base = FamilyCollection(g, depth=Degree(1, 1))
    tokens = (("c2e1", "c1e0", "c1e0.c2e0"), ("c2e1", "c1e0.c2e0", "c1e0.c2e1"))
    C = base.with_members([family(g, [parse_path(g, t) for t in fam]) for fam in tokens])
    S = satiate(C)
    assert C.members < S.members
    assert is_satiated(S) == oracles.four_loop_is_satiated(S) == (True, [])
