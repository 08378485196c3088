import itertools
import random

import pytest

from kgraphck.degree import Degree
from kgraphck.errors import BudgetExceeded
from kgraphck.kgraph import Edge, SkeletonSpec, compose, validate
from kgraphck.alignment import ext, family
from kgraphck.boundary import omega
from kgraphck.exhaustive import (
    Status,
    _subset_count,
    fe_enumerate,
    is_exhaustive,
    minimal_exhaustive,
)

import oracles


@pytest.fixture(scope="module")
def wedge():
    """The unit square with the far color-1 edge removed: no squares needed."""
    return validate(
        SkeletonSpec(
            2,
            ("00", "10", "01"),
            (Edge("a", 1, "00", "10"), Edge("b", 2, "00", "01")),
            (),
        )
    )


# -- is_exhaustive -----------------------------------------------------------------


def test_empty_family_never_exhaustive(omega11):
    verdict = is_exhaustive(family(omega11, [], vertex="0,0"))
    assert verdict.status is Status.NOT_EXHAUSTIVE
    assert verdict.witness == omega11.vertex_path("0,0")


def test_g1_singleton_source_free_regime(g1):
    verdict = is_exhaustive(family(g1, [g1.edge_path("b")]))
    assert verdict.status is Status.EXHAUSTIVE
    # oracle: brute extension search over the (3,3) window
    assert oracles.brute_is_exhaustive(
        family(g1, [g1.edge_path("b")]), g1.paths_up_to("v", Degree(3, 3))
    )


def test_square_singleton_exhaustive(omega11):
    a = omega11.edge_path("c1:0,0")
    assert is_exhaustive(family(omega11, [a])).status is Status.EXHAUSTIVE


def test_wedge_witness(wedge):
    # removing the completion square leaves b with no common extension
    a, b = wedge.edge_path("a"), wedge.edge_path("b")
    verdict = is_exhaustive(family(wedge, [a]))
    assert verdict.status is Status.NOT_EXHAUSTIVE
    assert verdict.witness == b
    assert ext(b, [a]) == ()


def test_witnesses_closed_under_extension(omega21):
    rng = random.Random(31)
    for v in omega21.vertices:
        pool = [p for p in omega21.paths_at(v) if not p.is_vertex()]
        for _ in range(4):
            if not pool:
                continue
            E = family(omega21, rng.sample(pool, rng.randint(1, len(pool))), vertex=v)
            verdict = is_exhaustive(E)
            if verdict.status is not Status.NOT_EXHAUSTIVE:
                continue
            w = verdict.witness
            assert ext(w, E) == ()
            for color in range(1, 3):
                for e in omega21.edges_from(w.source, color):
                    extended = compose(w, omega21.edge_path(e.id))
                    assert ext(extended, E) == ()


def test_exhaustive_monotone(omega21):
    rng = random.Random(37)
    for v in omega21.vertices:
        pool = [p for p in omega21.paths_at(v) if not p.is_vertex()]
        if not pool:
            continue
        for _ in range(6):
            E = rng.sample(pool, rng.randint(1, len(pool)))
            if is_exhaustive(family(omega21, E, vertex=v)).status is Status.EXHAUSTIVE:
                extra = rng.sample(pool, rng.randint(0, len(pool)))
                sup = family(omega21, set(E) | set(extra), vertex=v)
                assert is_exhaustive(sup).status is Status.EXHAUSTIVE


def test_matches_brute_force(omega11, omega21):
    for g in (omega11, omega21):
        for v in g.vertices:
            pool = [p for p in g.paths_at(v) if not p.is_vertex()]
            window = g.paths_at(v)
            for size in range(1, min(len(pool), 3) + 1):
                for combo in itertools.combinations(pool, size):
                    E = family(g, combo, vertex=v)
                    got = is_exhaustive(E).status is Status.EXHAUSTIVE
                    assert got == oracles.brute_is_exhaustive(E, window)


# -- fe_enumerate ---------------------------------------------------------------------


def test_fe_empty_at_sink(omega11):
    assert fe_enumerate(omega11, "1,1", Degree(1, 1), 3) == ()


def test_fe_square_all_seven(omega11):
    fams = fe_enumerate(omega11, "0,0", Degree(1, 1), 3)
    assert len(fams) == 7
    tokens = {tuple(sorted(p.token() for p in f)) for f in fams}
    assert ("c1:0,0",) in tokens
    assert ("c2:0,0",) in tokens
    assert ("c1:0,0.c2:1,0",) in tokens


def test_fe_one_step_vertex(omega11):
    fams = fe_enumerate(omega11, "1,0", Degree(1, 1), 3)
    assert len(fams) == 1
    assert [p.token() for p in fams[0]] == ["c2:1,0"]


def test_fe_budget(omega21):
    with pytest.raises(BudgetExceeded):
        fe_enumerate(omega21, "0,0", Degree(2, 1), 5, budget=3)


def test_fe_matches_brute(omega21):
    window = Degree(2, 1)
    for v in omega21.vertices:
        pool = [p for p in omega21.paths_up_to(v, window) if not p.is_vertex()]
        expected = set()
        for size in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                E = family(omega21, combo, vertex=v)
                if oracles.brute_is_exhaustive(E, omega21.paths_at(v)):
                    expected.add(frozenset(combo))
        got = fe_enumerate(omega21, v, window, len(pool) or 1)
        assert {frozenset(f.members) for f in got} == expected


# -- minimal_exhaustive ------------------------------------------------------------------


def test_minimal_square(omega11):
    fams = minimal_exhaustive(omega11, "0,0", Degree(1, 1), 3)
    tokens = {tuple(sorted(p.token() for p in f)) for f in fams}
    assert tokens == {("c1:0,0",), ("c2:0,0",), ("c1:0,0.c2:1,0",)}


def test_minimal_empty_when_fe_empty(omega11):
    assert minimal_exhaustive(omega11, "1,1", Degree(1, 1), 3) == ()


def test_minimal_g1_window(g1):
    fams = minimal_exhaustive(g1, "v", Degree(1, 1), 3)
    tokens = {tuple(sorted(p.token() for p in f)) for f in fams}
    assert ("b",) in tokens and ("r",) in tokens


def test_upward_closure_regenerates(omega11):
    # every enumerated family contains a minimal one
    fams = fe_enumerate(omega11, "0,0", Degree(1, 1), 3)
    minimal = minimal_exhaustive(omega11, "0,0", Degree(1, 1), 3)
    for f in fams:
        assert any(m.members <= f.members for m in minimal)


# -- differential: one hitting test against the per-branch scans and subset loop -----


def _single_loop():
    """Rank 2, one vertex, one color-1 loop: cyclic but not source-free."""
    return validate(SkeletonSpec(2, ("v",), (Edge("a", 1, "v", "v"),), ()))


# graphs built here; "omega11", "omega21" and "g1" are conftest fixtures
DIFFERENTIAL = {
    "omega22": lambda: omega(2, Degree(2, 2)),
    "omega111": lambda: omega(3, Degree(1, 1, 1)),
    **{f"b7.{i}": lambda i=i: oracles.random_graphs(7, 6)[i] for i in range(6)},
    **{
        f"sv3-s{s}": lambda s=s: validate(
            oracles.random_single_vertex_spec(random.Random(s), 3)
        )
        for s in (0, 1, 3)
    },
    "single-loop": _single_loop,
}
DIFFERENTIAL_NAMES = ["omega11", "omega21", "g1", *DIFFERENTIAL]


def _differential_graph(request, name):
    """The graph, its windows and --max-size: acyclic graphs take their
    maximum degree and up to five members, cyclic ones two windows and 3."""
    g = DIFFERENTIAL[name]() if name in DIFFERENTIAL else request.getfixturevalue(name)
    if g.is_acyclic:
        return g, [g.max_degree], 5
    ones = Degree(*([1] * g.rank))
    return g, [ones, ones + Degree.unit(g.rank, 1)], 3


@pytest.mark.parametrize("name", DIFFERENTIAL_NAMES)
def test_is_exhaustive_matches_branch_oracle(request, name):
    g, windows, _ = _differential_graph(request, name)
    rng = random.Random(name)
    for v in g.vertices:
        for w in windows:
            pool = [p for p in g.paths_up_to(v, w) if not p.is_vertex()]
            combos = [c for k in range(3) for c in itertools.combinations(pool, k)]
            if len(combos) > 200:
                combos = rng.sample(combos, 200)
            combos += [tuple(rng.sample(pool, rng.randint(1, len(pool)))) for _ in pool[:10]]
            for combo in combos:
                E = family(g, combo, vertex=v)
                for depth in (None, w):
                    got = is_exhaustive(E, depth)
                    assert (got.status, got.witness) == oracles.branch_is_exhaustive(E, depth)


@pytest.mark.parametrize("name", DIFFERENTIAL_NAMES)
def test_fe_enumerate_matches_subset_oracle(request, name):
    g, windows, max_size = _differential_graph(request, name)
    for v in g.vertices:
        for w in windows:
            expected = oracles.subset_fe_enumerate(g, v, w, max_size)
            minimal = [
                f for f in expected if not any(h.members < f.members for h in expected)
            ]
            got = fe_enumerate(g, v, w, max_size)
            assert [f.sort_key() for f in got] == [f.sort_key() for f in expected]
            got = minimal_exhaustive(g, v, w, max_size)
            assert [f.sort_key() for f in got] == [f.sort_key() for f in minimal]


# -- differential: minimal transversals against the pairwise filter ----------------

# rank-3 graphs of the exhaustive benchmark, with the omegas and batch 7
MINIMAL = {
    "omega11": lambda: omega(2, Degree(1, 1)),
    "omega21": lambda: omega(2, Degree(2, 1)),
    "omega211": lambda: omega(3, Degree(2, 1, 1)),
    **{f"b7.{i}": lambda i=i: oracles.random_graphs(7, 6)[i] for i in range(6)},
    **{
        f"prod3-s{s}": lambda s=s: validate(oracles.random_product_spec(random.Random(s), 3))
        for s in (0, 3)
    },
    **{
        f"sv3-s{s}": lambda s=s: validate(
            oracles.random_single_vertex_spec(random.Random(s), 3)
        )
        for s in (0, 1, 3, 4, 6, 7)
    },
}


def _minimal_cases(g):
    """(vertex, window, candidate count) at each vertex: acyclic graphs take
    their maximum degree, cyclic ones two windows."""
    if g.is_acyclic:
        windows = [g.max_degree]
    else:
        ones = Degree(*([1] * g.rank))
        windows = [ones, ones + Degree.unit(g.rank, 1)]
    for v in g.vertices:
        for w in windows:
            yield v, w, sum(1 for p in g.paths_up_to(v, w) if not p.is_vertex())


@pytest.mark.parametrize("name", MINIMAL)
def test_minimal_exhaustive_matches_pairwise_oracle(name):
    g = MINIMAL[name]()
    capped = widest = 0
    for v, w, n in _minimal_cases(g):
        # the largest cap the subset loop of the oracle handles quickly
        top = max((k for k in range(1, n + 1) if _subset_count(n, k) <= 20_000), default=1)
        full = minimal_exhaustive(g, v, w, top)
        assert _keys(full) == _keys(oracles.pairwise_minimal_exhaustive(g, v, w, top))
        largest = max((len(f.members) for f in full), default=0)
        for cap in range(1, largest):
            got = minimal_exhaustive(g, v, w, cap)
            assert _keys(got) == _keys(oracles.pairwise_minimal_exhaustive(g, v, w, cap))
            assert _keys(got) == [k for f, k in zip(full, _keys(full)) if len(f.members) <= cap]
            capped += len(got) < len(full)
        widest = max(widest, largest)
    # on the grids every minimal family is one path; elsewhere some cap
    # below the largest minimal family drops families
    assert capped or widest == 1


def _keys(families):
    return [f.sort_key() for f in families]


def test_minimal_exhaustive_refute_only_window_is_empty():
    g = _single_loop()
    for w in (Degree(1, 1), Degree(2, 1), Degree(3, 2)):
        assert minimal_exhaustive(g, "v", w, 3) == ()
        assert oracles.pairwise_minimal_exhaustive(g, "v", w, 3) == ()


def test_minimal_exhaustive_budget_message_matches_oracle():
    g = MINIMAL["b7.5"]()
    v, w = "L0_0|L1_0|L2_0", g.max_degree
    with pytest.raises(BudgetExceeded) as got:
        minimal_exhaustive(g, v, w, 14, budget=100)
    with pytest.raises(BudgetExceeded) as expected:
        oracles.pairwise_minimal_exhaustive(g, v, w, 14, budget=100)
    assert str(got.value) == str(expected.value)
    assert "candidate paths exceed the subset budget 100" in str(got.value)


def test_cyclic_not_source_free_stays_unknown():
    g = _single_loop()
    assert fe_enumerate(g, "v", Degree(2, 1), 3) == ()
    verdict = is_exhaustive(family(g, [g.edge_path("a")]))
    assert verdict.status is Status.UNKNOWN and verdict.witness is None
