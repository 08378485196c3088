import random

import pytest

from kgraphck.degree import Degree
from kgraphck.errors import ClosureBudgetExceeded, RangeMismatch
from kgraphck.kgraph import compose, segment, validate
from kgraphck.alignment import (
    PathFamily,
    PathIndex,
    ext,
    ext_family,
    family,
    has_prefix_in,
    lambda_min,
    mce,
    pairs_ds,
    pi_closure,
)
from kgraphck.exhaustive import Status, is_exhaustive

import oracles


@pytest.fixture
def square_paths(omega11):
    g = omega11
    return {
        "v": g.vertex_path("0,0"),
        "a": g.edge_path("c1:0,0"),
        "a'": g.edge_path("c1:0,1"),
        "b": g.edge_path("c2:0,0"),
        "b'": g.edge_path("c2:1,0"),
        "c": g.paths("0,0", Degree(1, 1))[0],
    }


# -- mce ------------------------------------------------------------------------


def test_mce_vertex(omega11):
    v = omega11.vertex_path("0,0")
    assert mce(v, v) == (v,)


def test_mce_g1(g1):
    b, r = g1.edge_path("b"), g1.edge_path("r")
    out = mce(b, r)
    assert len(out) == 1 and out[0].degree == Degree(1, 1)


def test_mce_square(square_paths):
    assert mce(square_paths["a"], square_paths["b"]) == (square_paths["c"],)


def test_mce_symmetric(omega21):
    rng = random.Random(1)
    paths = omega21.all_paths()
    for _ in range(60):
        mu, nu = rng.choice(paths), rng.choice(paths)
        assert set(mce(mu, nu)) == set(mce(nu, mu))


def test_mce_prefix_equations(omega21):
    zero = Degree(0, 0)
    for v in omega21.vertices:
        at_v = [p for p in omega21.paths_at(v)]
        for mu in at_v:
            for nu in at_v:
                for lam in mce(mu, nu):
                    assert lam.degree == mu.degree | nu.degree
                    assert segment(lam, zero, mu.degree) == mu
                    assert segment(lam, zero, nu.degree) == nu


def test_mce_matches_oracle(omega21, g1):
    rng = random.Random(9)
    pool = list(omega21.all_paths()) + list(g1.paths_up_to("v", Degree(2, 2)))
    for _ in range(40):
        mu, nu = rng.choice(pool), rng.choice(pool)
        if mu.graph is not nu.graph:
            continue
        assert set(mce(mu, nu)) == oracles.brute_mce(mu, nu)


# -- lambda_min -------------------------------------------------------------------


def test_lambda_min_vertex(omega11):
    v = omega11.vertex_path("0,0")
    pairs = lambda_min(v, v)
    assert len(pairs) == 1 and pairs[0].alpha == v and pairs[0].beta == v


def test_lambda_min_g1(g1):
    b, r = g1.edge_path("b"), g1.edge_path("r")
    pairs = lambda_min(b, r)
    assert len(pairs) == 1
    assert pairs[0].alpha == r and pairs[0].beta == b


def test_lambda_min_disjoint_ranges(omega11):
    a = omega11.edge_path("c1:0,0")
    a2 = omega11.edge_path("c1:0,1")
    assert lambda_min(a, a2) == ()


def test_lambda_min_defining_equation(omega21):
    rng = random.Random(4)
    paths = omega21.all_paths()
    for _ in range(80):
        mu, nu = rng.choice(paths), rng.choice(paths)
        pairs = lambda_min(mu, nu)
        assert len(pairs) == len(mce(mu, nu))
        for pair in pairs:
            assert compose(mu, pair.alpha) == compose(nu, pair.beta)
            assert compose(mu, pair.alpha) in mce(mu, nu)


# -- ext ----------------------------------------------------------------------------


def test_ext_at_vertex_returns_members(square_paths, omega11):
    E = family(omega11, [square_paths["a"], square_paths["b"]])
    assert set(ext(square_paths["v"], E)) == {square_paths["a"], square_paths["b"]}


def test_ext_self_is_source(square_paths, omega11):
    mu = square_paths["a"]
    assert ext(mu, [mu]) == (omega11.vertex_path("1,0"),)


def test_ext_square_example(square_paths):
    assert ext(square_paths["b"], [square_paths["a"]]) == (square_paths["a'"],)


def test_ext_range_mismatch(omega11, square_paths):
    with pytest.raises(RangeMismatch):
        ext(square_paths["a'"], [square_paths["a"]])
    with pytest.raises(RangeMismatch):
        PathFamily(omega11, "0,0", [square_paths["a'"]])


def test_ext_distributes_over_union(omega21):
    rng = random.Random(6)
    for v in omega21.vertices:
        pool = [p for p in omega21.paths_at(v) if not p.is_vertex()]
        if len(pool) < 2:
            continue
        for mu in omega21.paths_at(v):
            E = rng.sample(pool, min(2, len(pool)))
            F = rng.sample(pool, min(2, len(pool)))
            assert set(ext(mu, set(E) | set(F))) == set(ext(mu, E)) | set(ext(mu, F))


def test_ext_matches_oracle(omega21):
    rng = random.Random(13)
    for _ in range(30):
        v = rng.choice(omega21.vertices)
        pool = omega21.paths_at(v)
        mu = rng.choice(pool)
        E = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
        assert set(ext(mu, E)) == oracles.brute_ext(mu, E)


def test_ext_composition_law(omega21, g1):
    # Ext(lam2; Ext(lam1; E)) = Ext(lam1.lam2; E) on random instances
    rng = random.Random(21)
    for g in (omega21, g1):
        window = Degree(2, 2)
        for _ in range(40):
            v = rng.choice(g.vertices)
            pool = g.paths_up_to(v, window)
            lam1 = rng.choice(pool)
            pool2 = g.paths_up_to(lam1.source, window)
            lam2 = rng.choice(pool2)
            E = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            lhs = set(ext(lam2, ext_family(lam1, family(g, E, vertex=v))))
            rhs = set(ext(compose(lam1, lam2), family(g, E, vertex=v)))
            assert lhs == rhs


def test_lemma_ext_preserves_exhaustive(omega21):
    # finite exhaustive E and mu at r(E) give exhaustive Ext(mu; E), and
    # mu extends E exactly when s(mu) lands in the extension set
    rng = random.Random(8)
    for v in omega21.vertices:
        pool = [p for p in omega21.paths_at(v) if not p.is_vertex()]
        if not pool:
            continue
        for _ in range(6):
            E = family(omega21, rng.sample(pool, rng.randint(1, len(pool))), vertex=v)
            if is_exhaustive(E).status is not Status.EXHAUSTIVE:
                continue
            for mu in omega21.paths_at(v):
                target = ext_family(mu, E)
                assert is_exhaustive(target).status is Status.EXHAUSTIVE
                assert has_prefix_in(mu, E.members) == (
                    source_vertex_path(mu) in target.members
                )


def source_vertex_path(mu):
    return mu.graph.vertex_path(mu.source)


# -- pi closure -----------------------------------------------------------------------


def test_pi_closure_vertex(omega11):
    v = omega11.vertex_path("0,0")
    assert pi_closure([v]) == (v,)


def test_pi_closure_square_contains_corner(square_paths):
    out = pi_closure([square_paths["a"], square_paths["b"]])
    assert square_paths["c"] in out
    assert set(out) == {square_paths["a"], square_paths["b"], square_paths["c"]}


def test_pi_closure_contains_input(omega21):
    rng = random.Random(3)
    paths = omega21.all_paths()
    for _ in range(15):
        E = rng.sample(paths, rng.randint(1, 3))
        assert set(E) <= set(pi_closure(E))


def test_pi_closure_matches_oracle(omega21, g1):
    rng = random.Random(17)
    for g in (omega21, g1):
        pool = (
            list(g.all_paths())
            if g.is_acyclic
            else list(g.paths_up_to("v", Degree(2, 2)))
        )
        for _ in range(10):
            E = rng.sample(pool, rng.randint(1, 3))
            assert set(pi_closure(E)) == oracles.brute_pi_closure(E)


def test_pi_closure_posts(omega21):
    # transport: matched pairs continue together; alignment tails stay inside
    rng = random.Random(23)
    paths = omega21.all_paths()
    for _ in range(10):
        E = rng.sample(paths, rng.randint(1, 3))
        G = pi_closure(E)
        Gset = set(G)
        for lam, mu in pairs_ds(G):
            for rho in G:
                if rho.range == lam.range and lam.degree <= rho.degree:
                    if segment(rho, Degree(0, 0), lam.degree) == lam:
                        nu = segment(rho, lam.degree, rho.degree)
                        assert compose(mu, nu) in Gset
        for lam in G:
            for mu in G:
                for pair in lambda_min(lam, mu):
                    assert compose(lam, pair.alpha) in Gset


def _closure_windows():
    """(graph name, window) pairs on grids and acyclic batch-7 graphs: a
    family outside the empty collection plus its range vertex (the windows
    of the faithfulness check), and random path sets with several ranges; on
    single-vertex rank-3 graphs (cyclic), random path sets from a window."""
    from kgraphck.boundary import omega
    from kgraphck.satiation import FamilyCollection

    rng = random.Random(29)
    batch = oracles.random_graphs(7, 6)
    out = []
    for name, g in (
        ("omega21", omega(2, Degree(2, 1))),
        ("omega22", omega(2, Degree(2, 2))),
        ("b7.0", batch[0]),
        ("b7.1", batch[1]),
        ("b7.2", batch[2]),
        ("b7.3", batch[3]),
    ):
        universe = FamilyCollection(g).universe_all()
        for F in rng.sample(universe, min(8, len(universe))):
            out.append((name, (g.vertex_path(F.vertex),) + F.sorted_members()))
        for _ in range(8):
            out.append((name, tuple(rng.sample(g.all_paths(), rng.randint(2, 4)))))
    for seed in (0, 1, 3):
        g = validate(oracles.random_single_vertex_spec(random.Random(seed), 3))
        pool = list(g.paths_up_to("v", Degree(1, 1, 1)))
        for _ in range(8):
            out.append((f"sv3-s{seed}", tuple(rng.sample(pool, rng.randint(1, 4)))))
    # cyclic graphs of the second batch, where larger windows need the
    # triples whose last-added path is sigma
    for i, g in enumerate(oracles.random_graphs(31, 12)):
        if g.is_acyclic:
            continue
        ones = Degree(*([1] * g.rank))
        pool = [p for v in g.vertices for p in g.paths_up_to(v, ones)]
        for _ in range(20):
            out.append((f"b31.{i}", tuple(rng.sample(pool, min(len(pool), rng.randint(3, 5))))))
    return out


CLOSURE_WINDOWS = _closure_windows()


def test_pi_closure_matches_naive_and_brute():
    for i, (name, window) in enumerate(CLOSURE_WINDOWS):
        got = pi_closure(window)
        assert got == oracles.naive_pi_closure(window), (name, window)
        if i % 4 == 0:  # the brute-force closure is slow
            assert set(got) == oracles.brute_pi_closure(window), (name, window)


def test_prefix_closures_match_per_window_closure():
    # extending the closure of a window's prefix by its next path gives the
    # closure of the longer prefix, also when every closure over one graph
    # shares one path index and so its Ext and product memos; a path already
    # in the grid gives back the grid itself
    indexes: dict[int, PathIndex] = {}
    for name, window in CLOSURE_WINDOWS:
        index = indexes.setdefault(id(window[0].graph), PathIndex())
        grid = 0
        for k, p in enumerate(window):
            before = grid
            grid = index.close(grid, (p,))
            assert index.decode(grid) == pi_closure(window[: k + 1]), (name, window[: k + 1])
            assert (grid == before) == (p in index.decode(before))


def test_index_closure_matches_path_set_closure():
    # the bitmask closure against the frozenset one, prefix by prefix, each
    # with one index or one pair of memos per graph, including the cyclic
    # windows; both give up at the same step budget
    indexes: dict[int, PathIndex] = {}
    memos: dict[int, tuple[dict, dict]] = {}
    for name, window in CLOSURE_WINDOWS:
        index = indexes.setdefault(id(window[0].graph), PathIndex())
        exts, products = memos.setdefault(id(window[0].graph), ({}, {}))
        grid, want = 0, frozenset()
        for k, p in enumerate(window):
            grid = index.close(grid, (p,))
            want = oracles.path_set_close(want, (p,), 100_000, exts, products)
            assert set(index.decode(grid)) == want, (name, window[: k + 1])
    for name, window in CLOSURE_WINDOWS[1::4]:
        steps = sum(
            len(ext(mu, [sigma]))
            for lam, mu in pairs_ds(pi_closure(window))
            for sigma in pi_closure(window)
            if sigma.range == mu.range
        )
        assert oracles.path_set_close(frozenset(), window, steps) == frozenset(pi_closure(window))
        for budget in (steps - 1, steps // 2):
            with pytest.raises(ClosureBudgetExceeded):
                PathIndex().close(0, window, budget)
            with pytest.raises(ClosureBudgetExceeded):
                oracles.path_set_close(frozenset(), window, budget)


def test_pi_closure_budget_counts_each_step_once():
    # the budget counts the (lam, mu, sigma, alpha) steps over the closed set,
    # each once; the round-based closure counts at least as many
    for name, window in CLOSURE_WINDOWS[::4]:
        grid = pi_closure(window)
        steps = sum(
            len(ext(mu, [sigma]))
            for lam, mu in pairs_ds(grid)
            for sigma in grid
            if sigma.range == mu.range
        )
        assert pi_closure(window, budget=steps) == grid
        with pytest.raises(ClosureBudgetExceeded):
            pi_closure(window, budget=steps - 1)
        with pytest.raises(ClosureBudgetExceeded):
            oracles.naive_pi_closure(window, budget=steps - 1)


# -- pairs_ds -----------------------------------------------------------------------


def test_pairs_ds_vertex(omega11):
    v = omega11.vertex_path("0,0")
    assert pairs_ds([v]) == ((v, v),)


def test_pairs_ds_distinct_degrees_diagonal(square_paths):
    items = [square_paths["a"], square_paths["b"], square_paths["c"]]
    assert pairs_ds(items) == tuple((p, p) for p in sorted(items, key=lambda p: p.sort_key()))


def test_pairs_ds_closure_of_square(square_paths):
    G = pi_closure([square_paths["a"], square_paths["b"], square_paths["c"]])
    pairs = pairs_ds(G)
    assert all(lam == mu for lam, mu in pairs)
