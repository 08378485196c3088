import random

import pytest

from kgraphck.degree import Degree
from kgraphck.errors import (
    DegreeOutOfRange,
    HexagonViolation,
    IncompatibleEndpoints,
    InvalidSpec,
    MissingSquare,
    NonBijectiveSquare,
    NotComposable,
    CyclicGraphUnsupported,
)
from kgraphck.kgraph import (
    Edge,
    SkeletonSpec,
    compose,
    compose_all,
    segment,
    validate,
    vertex_at,
)

import oracles


def g1_spec(squares=(("b", "r", "r", "b"),)):
    return SkeletonSpec(
        2, ("v",), (Edge("b", 1, "v", "v"), Edge("r", 2, "v", "v")), squares
    )


# -- validation ---------------------------------------------------------------


def test_validate_g1():
    g = validate(g1_spec())
    assert not g.is_acyclic
    assert g.rank == 2


def test_missing_square():
    with pytest.raises(MissingSquare):
        validate(g1_spec(squares=()))


def test_omega_is_valid(omega11):
    assert omega11.is_acyclic
    assert len(omega11.vertices) == 4
    assert len(omega11.edges) == 4
    assert len(omega11.spec.squares) == 1


def test_nonbijective_square_detected():
    # two color-1 loops, one color-2 loop; both (bi, r) pairs sent to (r, b0)
    spec = SkeletonSpec(
        2,
        ("v",),
        (Edge("b0", 1, "v", "v"), Edge("b1", 1, "v", "v"), Edge("r", 2, "v", "v")),
        (("b0", "r", "r", "b0"), ("b1", "r", "r", "b0")),
    )
    with pytest.raises(NonBijectiveSquare):
        validate(spec)


def test_incompatible_endpoints(omega11):
    # claim a.b = b.a' with mismatched interchange: break one endpoint by
    # relating edges that do not compose
    spec = SkeletonSpec(
        2,
        ("x", "y"),
        (Edge("e", 1, "x", "y"), Edge("f", 2, "x", "y")),
        (("e", "f", "f", "e"),),
    )
    with pytest.raises(IncompatibleEndpoints):
        validate(spec)


def test_duplicate_and_unknown_ids():
    with pytest.raises(InvalidSpec):
        validate(SkeletonSpec(1, ("v", "v"), (), ()))
    with pytest.raises(InvalidSpec):
        validate(SkeletonSpec(1, ("v",), (Edge("e", 1, "v", "w"),), ()))
    with pytest.raises(InvalidSpec):
        validate(SkeletonSpec(1, ("v",), (Edge("e", 2, "v", "v"),), ()))


def test_hexagon_violation():
    # the (1,2) squares couple the a/p indices while the (2,3) squares twist
    # p across z; sorting (p0, a0, z0) the two ways gives (z0, a0, p1) vs
    # (z0, a1, p0), checked by hand
    edges = (
        Edge("a0", 1, "v", "v"),
        Edge("a1", 1, "v", "v"),
        Edge("p0", 2, "v", "v"),
        Edge("p1", 2, "v", "v"),
        Edge("z0", 3, "v", "v"),
    )
    squares = (
        ("a0", "p0", "p0", "a0"),
        ("a0", "p1", "p0", "a1"),
        ("a1", "p0", "p1", "a0"),
        ("a1", "p1", "p1", "a1"),
        ("a0", "z0", "z0", "a0"),
        ("a1", "z0", "z0", "a1"),
        ("p0", "z0", "z0", "p1"),
        ("p1", "z0", "z0", "p0"),
    )
    with pytest.raises(HexagonViolation):
        validate(SkeletonSpec(3, ("v",), edges, squares))


def test_hexagon_accepts_consistent_rank3():
    rng = random.Random(3)
    for _ in range(5):
        spec = oracles.random_single_vertex_spec(rng, 3)
        validate(spec)  # never raises


# -- composition and normal form ----------------------------------------------


def test_compose_identity(g1):
    v = g1.vertex_path("v")
    q = g1.edge_path("b")
    assert compose(v, q) == q
    assert compose(q, v) == q


def test_compose_normalizes(g1):
    rb = compose(g1.edge_path("r"), g1.edge_path("b"))
    assert rb.word == ("b", "r")
    assert rb.degree == Degree(1, 1)


def test_compose_requires_composability(omega11):
    a = omega11.edge_path("c1:0,0")
    with pytest.raises(NotComposable):
        compose(a, a)


def test_compose_associative_rank3():
    rng = random.Random(11)
    for _ in range(3):
        g = validate(oracles.random_single_vertex_spec(rng, 3))
        paths = g.paths_up_to("v", Degree(1, 1, 1))
        sample = [p for p in paths if not p.is_vertex()][:6]
        for p in sample:
            for q in sample:
                for r in sample:
                    assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_normal_form_soundness_by_rewriting(g1, omega21):
    # every square application re-normalizes to the same path
    rng = random.Random(5)
    for g in (g1, omega21):
        for v in g.vertices:
            for p in g.paths_up_to(v, Degree(2, 1)):
                if len(p.word) < 2:
                    continue
                forms = oracles.normal_forms_by_search(g, p.word)
                assert forms == [p.word]
                for w in oracles.rewrite_closure(g, p.word):
                    assert g.path(v, w) == p


# -- segment -------------------------------------------------------------------


def test_segment_degenerate_cases(g1):
    p = compose_all([g1.edge_path("b"), g1.edge_path("b"), g1.edge_path("r")])
    zero = Degree(0, 0)
    assert segment(p, zero, p.degree) == p
    mid = segment(p, Degree(1, 0), Degree(1, 0))
    assert mid.is_vertex() and mid.range == "v"


def test_segment_g1_example(g1):
    p = compose_all([g1.edge_path("b"), g1.edge_path("b"), g1.edge_path("r")])
    assert segment(p, Degree(1, 0), Degree(2, 1)).word == ("b", "r")


def test_segment_out_of_range(g1):
    p = g1.edge_path("b")
    with pytest.raises(DegreeOutOfRange):
        segment(p, Degree(0, 1), Degree(1, 0))
    with pytest.raises(DegreeOutOfRange):
        segment(p, Degree(0, 0), Degree(2, 0))


def test_three_way_split_recomposes(omega21):
    for v in omega21.vertices:
        for p in omega21.paths_at(v):
            for m in p.degree.below():
                for n in p.degree.below():
                    if not (m <= n):
                        continue
                    parts = [
                        segment(p, Degree(0, 0), m),
                        segment(p, m, n),
                        segment(p, n, p.degree),
                    ]
                    assert compose_all(parts) == p


def test_factorization_uniqueness_brute(g1):
    for p in g1.paths_up_to("v", Degree(2, 2)):
        for m in p.degree.below():
            pairs = oracles.brute_factorizations(p, m)
            assert len(pairs) == 1
            assert pairs[0][0] == segment(p, Degree(0, 0), m)


def test_degree_functorial(omega21):
    rng = random.Random(2)
    paths = omega21.all_paths()
    for _ in range(100):
        p = rng.choice(paths)
        qs = [q for q in paths if q.range == p.source]
        q = rng.choice(qs)
        assert compose(p, q).degree == p.degree + q.degree


# -- enumeration ---------------------------------------------------------------


def test_paths_degree_zero(omega11):
    assert omega11.paths("0,0", Degree(0, 0)) == (omega11.vertex_path("0,0"),)


def test_paths_unknown_vertex(omega11):
    # a cache miss on an unknown vertex is a typed error, not a KeyError
    for degree in (Degree(0, 0), Degree(1, 1)):
        with pytest.raises(InvalidSpec, match="unknown vertex 'nosuch'"):
            omega11.paths("nosuch", degree)


def test_paths_counts(g1, omega11):
    assert len(g1.paths("v", Degree(2, 1))) == 1
    sq = omega11.paths("0,0", Degree(1, 1))
    assert len(sq) == 1 and sq[0].word == ("c1:0,0", "c2:1,0")


def test_paths_up_to_counts(g1, omega11):
    assert len(omega11.paths_up_to("0,0", Degree(1, 1))) == 4
    assert len(g1.paths_up_to("v", Degree(1, 1))) == 4
    assert g1.paths_up_to("v", Degree(0, 0)) == (g1.vertex_path("v"),)


def test_all_paths_cyclic_rejected(g1):
    with pytest.raises(CyclicGraphUnsupported):
        g1.all_paths()


def test_all_paths_counts(omega11, omega21, omega13):
    # grid graphs have one morphism per vertex pair n1 <= n2
    assert len(omega11.all_paths()) == 9
    assert len(omega21.all_paths()) == 18
    assert len(omega13.all_paths()) == 10


def test_vertex_at(omega11):
    c = omega11.paths("0,0", Degree(1, 1))[0]
    assert vertex_at(c, Degree(1, 0)) == "1,0"
    assert vertex_at(c, Degree(1, 1)) == "1,1"


# -- hypothesis properties -------------------------------------------------------

from hypothesis import given, settings, strategies as st

_G1 = validate(g1_spec())
_g1_paths = list(_G1.paths_up_to("v", Degree(3, 3)))


@given(st.sampled_from(_g1_paths), st.sampled_from(_g1_paths))
@settings(max_examples=60, deadline=None)
def test_compose_degree_functorial_property(p, q):
    pq = compose(p, q)
    assert pq.degree == p.degree + q.degree
    assert pq.range == p.range and pq.source == q.source


@given(st.sampled_from(_g1_paths), st.data())
@settings(max_examples=60, deadline=None)
def test_segment_recomposes_property(p, data):
    m = Degree(*[data.draw(st.integers(0, c)) for c in p.degree])
    n = Degree(*[data.draw(st.integers(lo, c)) for lo, c in zip(m, p.degree)])
    parts = [
        segment(p, Degree(0, 0), m),
        segment(p, m, n),
        segment(p, n, p.degree),
    ]
    assert compose_all(parts) == p
