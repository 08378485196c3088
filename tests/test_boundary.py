import random

import pytest

from kgraphck.degree import Degree
from kgraphck import boundary
from kgraphck.errors import (
    CyclicGraphUnsupported,
    DomainError,
    InvalidSpec,
    InvariantViolated,
    NoSeparation,
    PreconditionFailed,
)
from kgraphck.kgraph import compose, segment
from kgraphck.alignment import family, has_prefix_in, mce, ext_family
from kgraphck.satiation import (
    FamilyCollection,
    Membership,
    full_fe_collection,
    member,
    satiate,
)
from kgraphck.boundary import (
    aperiodicity_counterexample,
    boundary_path,
    boundary_paths,
    condition_c,
    construct_boundary,
    extend,
    is_aperiodic_path,
    is_boundary,
    omega,
    position,
    position_inverse,
    restrict,
    separation_degree,
)

import oracles
from oracles import is_boundary_full_check


@pytest.fixture(scope="module")
def sat_a(omega11):
    fam = family(omega11, [omega11.edge_path("c1:0,0")])
    return satiate(FamilyCollection(omega11, [fam]))


# -- grid graphs ------------------------------------------------------------------


def test_omega_line():
    line = omega(1, Degree(2))
    assert len(line.vertices) == 3
    assert len(line.edges) == 2
    assert line.is_acyclic


def test_omega_square_counts(omega11):
    assert len(omega11.vertices) == 4
    assert len(omega11.edges) == 4
    assert len(omega11.spec.squares) == 1


def test_omega_2_21_counts(omega21):
    assert len(omega21.vertices) == 6
    assert len(omega21.edges) == 7
    assert len(omega21.spec.squares) == 2


# -- diagonal listing -------------------------------------------------------------


def test_position_values():
    assert position(1, 1) == 1
    assert position(1, 2) == 2
    assert position(2, 1) == 3


def test_position_inverse_by_scanning():
    # scan anti-diagonals directly and compare
    listing = []
    for total in range(2, 30):
        for m in range(1, total):
            listing.append((m, total - m))
    for l, pair in enumerate(listing, start=1):
        assert position(*pair) == l
        assert position_inverse(l) == pair


def test_position_domain():
    with pytest.raises(DomainError):
        position(0, 1)
    with pytest.raises(DomainError):
        position_inverse(0)


# -- boundary membership -------------------------------------------------------------


def test_is_boundary_square(sat_a, omega11):
    c = omega11.paths("0,0", Degree(1, 1))[0]
    b = omega11.edge_path("c2:0,0")
    assert is_boundary(c, sat_a)
    assert not is_boundary(b, sat_a)


def test_empty_collection_everything_boundary(omega11):
    S = FamilyCollection(omega11)
    assert all(is_boundary(x, S) for x in omega11.all_paths())


def test_minimal_member_check_shadows_full(omega11, omega21, sat_a):
    for g in (omega11, omega21):
        for S in (FamilyCollection(g), full_fe_collection(g)):
            for x in g.all_paths():
                assert is_boundary(x, S) == is_boundary_full_check(x, S)
    for x in omega11.all_paths():
        assert is_boundary(x, sat_a) == is_boundary_full_check(x, sat_a)


def test_boundary_paths_square(sat_a, omega11):
    at_origin = [bp.path.token() for bp in boundary_paths("0,0", sat_a)]
    assert at_origin == ["c1:0,0", "c1:0,0.c2:1,0"]
    at_sink = [bp.path for bp in boundary_paths("1,1", sat_a)]
    assert at_sink == [omega11.vertex_path("1,1")]


def test_boundary_paths_full_fe(omega11):
    full = full_fe_collection(omega11)
    at_origin = [bp.path.token() for bp in boundary_paths("0,0", full)]
    assert at_origin == ["c1:0,0.c2:1,0"]


def test_boundary_nonempty_everywhere(omega11, omega21, omega13):
    for g in (omega11, omega21, omega13):
        for S in (FamilyCollection(g), full_fe_collection(g)):
            for v in g.vertices:
                assert boundary_paths(v, S)


def test_source_vertex_supports_no_family(omega21):
    full = full_fe_collection(omega21)
    for v in omega21.vertices:
        for bp in boundary_paths(v, full):
            assert full.at(bp.path.source) == ()


def test_boundary_rejects_cyclic(g1):
    S = FamilyCollection(g1, (), depth=Degree(1, 1))
    with pytest.raises(CyclicGraphUnsupported):
        boundary_paths("v", S)


def test_windowed_membership_three_valued():
    from kgraphck.errors import InexactUniverse
    from kgraphck.kgraph import Edge, SkeletonSpec, validate
    from kgraphck.boundary import is_boundary_windowed

    # a directed 2-cycle: source-free, so exhaustiveness is provable and the
    # windowed universe is populated; only u carries a member family
    g = validate(
        SkeletonSpec(
            1,
            ("u", "w"),
            (Edge("e", 1, "u", "w"), Edge("f", 1, "w", "u")),
            (),
        )
    )
    base = FamilyCollection(g, (), depth=Degree(2))
    S = base.with_members([family(g, [g.edge_path("e")])])
    with pytest.raises(InexactUniverse):
        is_boundary(g.edge_path("e"), S)
    # the vertex path misses the family outright: definitive no
    assert is_boundary_windowed(g.vertex_path("u"), S) is Membership.NO
    # the edge path passes every windowed family; the verdict stays open
    assert is_boundary_windowed(g.edge_path("e"), S) is Membership.UNKNOWN


def test_windowed_satiation_budget_guard(g1):
    # single-vertex windowed satiation explodes in the grafting map; the
    # budget converts the blowup into a typed error
    from kgraphck.errors import UniverseTooLarge

    base = FamilyCollection(g1, (), depth=Degree(2, 2), budget=50_000)
    C = base.with_members([family(g1, [g1.edge_path("b")])])
    with pytest.raises(UniverseTooLarge):
        satiate(C)


# -- extend / restrict ------------------------------------------------------------------


def test_extend_restrict_identities(sat_a, omega11):
    c = omega11.paths("0,0", Degree(1, 1))[0]
    x = boundary_path(c, sat_a)
    v = omega11.vertex_path("0,0")
    assert extend(v, x).path == c
    assert restrict(x, Degree(0, 0)).path == c


def test_restrict_square_tail(sat_a, omega11):
    c = omega11.paths("0,0", Degree(1, 1))[0]
    x = boundary_path(c, sat_a)
    tail = restrict(x, Degree(1, 0))
    assert tail.path == omega11.edge_path("c2:1,0")
    assert is_boundary(tail.path, sat_a)


def test_extend_restrict_roundtrip(omega21):
    # the two constructions invert each other on both sides
    full = full_fe_collection(omega21)
    for v in omega21.vertices:
        for bp in boundary_paths(v, full):
            for lam in omega21.paths_into(v):
                ext_bp = extend(lam, bp)
                assert restrict(ext_bp, lam.degree).path == bp.path
            for n in bp.path.degree.below():
                tail = restrict(bp, n)
                head = segment(bp.path, Degree(0, 0), n)
                assert compose(head, tail.path) == bp.path


def test_extend_restrict_preserve_membership(omega21):
    # both lemma clauses, over every boundary path and every valid input
    for S in (FamilyCollection(omega21), full_fe_collection(omega21)):
        for v in omega21.vertices:
            for bp in boundary_paths(v, S):
                for lam in omega21.paths_into(v):
                    assert is_boundary(compose(lam, bp.path), S)
                for n in bp.path.degree.below():
                    assert is_boundary(segment(bp.path, n, bp.path.degree), S)


# -- constructive builder ----------------------------------------------------------------


def test_construct_at_sink(sat_a):
    bp = construct_boundary("1,1", sat_a)
    assert bp.path.is_vertex()


def test_construct_with_avoid(sat_a, omega11):
    c = omega11.paths("0,0", Degree(1, 1))[0]
    avoid = family(omega11, [c])
    assert member(avoid, sat_a) is Membership.NO
    bp = construct_boundary("0,0", sat_a, avoid=avoid)
    assert bp.path == omega11.edge_path("c1:0,0")
    assert not has_prefix_in(bp.path, avoid.members)


def test_construct_empty_collection_canonical(omega11):
    S = FamilyCollection(omega11)
    bp = construct_boundary("0,0", S)
    assert bp.path == omega11.vertex_path("0,0")


def test_construct_rejects_member_avoid(sat_a, omega11):
    fam = family(omega11, [omega11.edge_path("c1:0,0")])
    with pytest.raises(PreconditionFailed):
        construct_boundary("0,0", sat_a, avoid=fam)


def test_construct_all_vertices_all_collections(omega21):
    for S in (FamilyCollection(omega21), full_fe_collection(omega21)):
        enumerated = {
            v: {bp.path for bp in boundary_paths(v, S)} for v in omega21.vertices
        }
        for v in omega21.vertices:
            bp = construct_boundary(v, S)
            assert bp.path in enumerated[v]
            for F in S.universe(v):
                if F in S.members:
                    continue
                got = construct_boundary(v, S, avoid=F)
                assert got.path in enumerated[v]
                assert not has_prefix_in(got.path, F.members)


# -- aperiodicity ------------------------------------------------------------------------


def test_aperiodic_line(omega13):
    S = FamilyCollection(omega13)
    for bp in boundary_paths("0", S):
        assert is_aperiodic_path(bp)


def test_aperiodic_square_corner(omega11, sat_a):
    c = omega11.paths("0,0", Degree(1, 1))[0]
    assert is_aperiodic_path(boundary_path(c, sat_a))


def test_cyclic_aperiodicity_unsupported(g1):
    with pytest.raises(CyclicGraphUnsupported):
        is_aperiodic_path(g1.edge_path("b"))


def test_g1_counterexample_by_window(g1):
    # truncated semantics: b and b.r admit a common extension over any x
    x = g1.vertex_path("v")
    pair = aperiodicity_counterexample(x, Degree(2, 2))
    assert pair is not None
    lam, mu = pair
    assert mce(compose(lam, x), compose(mu, x))


def test_parallel_square_vertex_periodic(parallel_square):
    g = parallel_square
    assert not is_aperiodic_path(g.vertex_path("v"))
    assert is_aperiodic_path(g.edge_path("g"))


# -- separation degree ---------------------------------------------------------------------


def test_separation_zero_when_never_aligned(omega11, sat_a):
    # paths with distinct ranges never align, so n = 0 already separates
    a = omega11.edge_path("c1:0,0")
    v10 = omega11.vertex_path("1,0")
    x = boundary_path(v10, sat_a)
    assert separation_degree(x, a, v10) == Degree(0, 0)


def test_separation_scans_to_first_divergence(omega21):
    g = omega21
    full = full_fe_collection(g)
    for v in g.vertices:
        for bp in boundary_paths(v, full):
            into = g.paths_into(v)
            for i, lam in enumerate(into):
                for mu in into[i + 1 :]:
                    n = separation_degree(bp, lam, mu)
                    head = segment(bp.path, Degree(0, 0), n)
                    assert not mce(compose(lam, head), compose(mu, head))


def test_no_separation_for_periodic_pair(parallel_square):
    g = parallel_square
    S = FamilyCollection(g)
    x = boundary_path(g.vertex_path("v"), S)
    e, f = g.edge_path("e"), g.edge_path("f")
    with pytest.raises(NoSeparation):
        separation_degree(x, e, f)


def test_no_separation_on_commuting_loops(g1):
    # lattice paths always admit joins, so nothing below d(x) separates
    b = g1.edge_path("b")
    br = compose(b, g1.edge_path("r"))
    x = compose(g1.edge_path("r"), g1.edge_path("r"))
    with pytest.raises(NoSeparation):
        separation_degree(x, b, br)


# -- condition (C) ----------------------------------------------------------------------


def test_condition_c_clean_on_grids(omega11, omega21, omega13):
    for g in (omega11, omega21, omega13):
        for S in (FamilyCollection(g), full_fe_collection(g)):
            report = condition_c(S)
            assert report.ok
            assert set(report.vertex_witnesses) == set(g.vertices)


@pytest.mark.parametrize("name", ["omega22", "omega32", "b7.0", "b7.2", "b7.3"])
def test_condition_c_matches_per_family_oracle(name):
    # same ok flag, witnesses (the first escaping path) and failures
    if name.startswith("omega"):
        g = omega(2, Degree(int(name[5]), int(name[6])))
    else:
        g = oracles.random_graphs(7, 6)[int(name[3])]
    base = FamilyCollection(g)
    if name == "omega32":
        # families at 0,0 satiate past the truncation budget
        draw = family(g, [g.edge_path("c1:1,1")])
    else:
        draw = random.Random(name).choice(base.universe_all())
    for S in (satiate(base), satiate(base.with_members([draw]))):
        assert condition_c(S) == oracles.per_family_condition_c(S)


def test_condition_c_single_edge_line():
    g = omega(1, Degree(1))
    report = condition_c(FamilyCollection(g))
    assert report.ok
    assert set(report.vertex_witnesses) == {"0", "1"}


def test_condition_c_failure_parallel_square(parallel_square):
    g = parallel_square
    S = FamilyCollection(g)  # empty satiated collection
    report = condition_c(S)
    assert not report.ok
    fams = [
        (v, tuple(sorted(p.token() for p in F)))
        for v, F in report.failures
        if F is not None
    ]
    assert ("v", ("g", "h")) in fams


def test_shift_not_in_collection(omega11, sat_a):
    # tails of an avoiding boundary path keep the avoided family outside
    S = sat_a
    for F in S.universe_all():
        if F in S.members:
            continue
        for bp in boundary_paths(F.vertex, S):
            if has_prefix_in(bp.path, F.members):
                continue
            for n in bp.path.degree.below():
                head = segment(bp.path, Degree(0, 0), n)
                transported = ext_family(head, F)
                assert member(transported, S) is Membership.NO


# -- internal invariants ---------------------------------------------------------------
# These fire as typed errors, not asserts, so they hold under python -O too; each
# test breaks one collaborator of the checked code to reach its branch.


def test_empty_boundary_raises_invariant(monkeypatch, sat_a):
    monkeypatch.setattr(boundary, "is_boundary", lambda x, S: False)
    with pytest.raises(InvariantViolated, match="empty boundary at 0,0"):
        boundary_paths("0,0", sat_a)


def test_unknown_vertex_raises_from_graph(sat_a):
    # an unknown vertex has no paths, which must not read as an empty boundary
    with pytest.raises(InvalidSpec, match="unknown vertex 'nosuch'"):
        boundary_paths("nosuch", sat_a)
    for avoid in (None, family(sat_a.graph, [sat_a.graph.edge_path("c1:0,0")])):
        with pytest.raises(InvalidSpec, match="unknown vertex 'nosuch'"):
            construct_boundary("nosuch", sat_a, avoid=avoid)


def test_construct_rejects_vertex_path_in_avoid(sat_a, omega11):
    # every path has the vertex path as an initial segment, so no boundary
    # path avoids such a family
    v = omega11.vertex_path("0,0")
    for avoid in ([v], [v, omega11.edge_path("c2:0,0")]):
        with pytest.raises(PreconditionFailed, match="contains a vertex path"):
            construct_boundary("0,0", sat_a, avoid=family(omega11, avoid))
    with pytest.raises(PreconditionFailed, match="contains a vertex path"):
        construct_boundary("0,0", FamilyCollection(omega11), avoid=family(omega11, [v]))


def test_construction_step_guard(monkeypatch, sat_a, omega11):
    assert construct_boundary("0,0", sat_a).path == omega11.edge_path("c1:0,0")
    monkeypatch.setattr(boundary, "_CONSTRUCT_STEPS", 1)
    with pytest.raises(InvariantViolated, match="failed to terminate"):
        construct_boundary("0,0", sat_a)


def test_construction_without_admissible_extension(monkeypatch, sat_a, omega11):
    avoid = family(omega11, [omega11.paths("0,0", Degree(1, 1))[0]])
    real_member = boundary.member
    calls = []

    def member_after_precondition(F, S):
        # the precondition sees the true answer; every candidate then looks
        # like it forces the avoided family into the collection
        calls.append(F)
        return real_member(F, S) if len(calls) == 1 else Membership.YES

    monkeypatch.setattr(boundary, "member", member_after_precondition)
    with pytest.raises(InvariantViolated, match="no admissible extension"):
        construct_boundary("0,0", sat_a, avoid=avoid)


def test_construction_avoid_post_check(monkeypatch, omega11):
    S = FamilyCollection(omega11)
    avoid = family(omega11, [omega11.edge_path("c1:0,0")])
    assert construct_boundary("0,0", S, avoid=avoid).path.is_vertex()
    monkeypatch.setattr(boundary, "has_prefix_in", lambda x, members: True)
    with pytest.raises(InvariantViolated, match="initial segment in avoid"):
        construct_boundary("0,0", S, avoid=avoid)
