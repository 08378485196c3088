"""The grid queries of ``PathIndex`` against the scan references in oracles.

Every grid computation of ``kgraphck.repn`` and ``pairs_ds`` runs on the
grid queries of ``alignment.PathIndex`` (a grid's pairs, a row index's
tails).  Each is compared here with the scan over the path set that
``oracles`` keeps: tails, ``pairs_ds``, the nonzero pattern, theta and the
``matrix_unit_check`` report.  The windows are the closure windows of
``test_alignment`` and random windows of one to three paths, as
``verify --windows`` draws them, on the graphs of perfbench's verify-grid
workload.
"""

import random
from fractions import Fraction

from kgraphck.alignment import PathIndex, pairs_ds, pi_closure
from kgraphck.boundary import omega
from kgraphck.degree import Degree
from kgraphck.kgraph import path_sort_key
from kgraphck.repn import (
    CKFamily,
    boundary_rep,
    grid_tails,
    matrix_unit_check,
    nonzero_theta_pattern,
    theta,
)
from kgraphck.satiation import FamilyCollection, full_fe_collection, satiate

import oracles
from test_alignment import CLOSURE_WINDOWS


def _verify_grid_windows():
    """(graph name, window) pairs: eight random windows of one to three
    paths on each graph of perfbench's verify-grid workload."""
    rng = random.Random(41)
    out = []
    for name, g in (
        ("omega21", omega(2, Degree(2, 1))),
        ("omega22", omega(2, Degree(2, 2))),
        ("omega32", omega(2, Degree(3, 2))),
        ("omega111", omega(3, Degree(1, 1, 1))),
        ("b7.0", oracles.random_graphs(7, 6)[0]),
    ):
        paths = g.all_paths()
        for _ in range(8):
            out.append((name, tuple(rng.sample(paths, rng.randint(1, 3)))))
    return out


WINDOWS = CLOSURE_WINDOWS + _verify_grid_windows()


def _cases(g):
    """Collections and families on an acyclic graph.  The collections are
    the empty and the full satiated ones and the one holding the first
    smallest universe family, unsatiated (the pattern reads membership
    only).  The families are the boundary representations of the empty and
    the full collection, and the latter with an edge operator doubled: no
    longer a partial isometry, so its matrix-unit deviations are not zero."""
    empty = satiate(FamilyCollection(g))
    full = full_fe_collection(g)
    one = FamilyCollection(g, [min(empty.universe_all(), key=len)])
    T = boundary_rep(g, full)
    ops = dict(T.ops)
    a = g.edge_path(g.edges[0].id)
    ops[a] = ops[a] * Fraction(2)
    broken = CKFamily(g, T.dim, ops, basis=T.basis)
    return (empty, one, full), (boundary_rep(g, empty), T, broken)


def test_tails_and_pairs_match_scan():
    # on each grid and on each unclosed window, for every row index
    for name, window in WINDOWS:
        for PiE in (pi_closure(window), window):
            assert pairs_ds(PiE) == oracles.scan_pairs_ds(PiE), (name, PiE)
            for lam in PiE:
                assert grid_tails(PiE, lam) == oracles.scan_grid_tails(PiE, lam), (name, lam)


def test_queries_on_a_shared_index_match_scan():
    # one index per graph, numbering new paths between queries: a row's
    # extensions are extended by the paths numbered since its last query
    indexes: dict[int, PathIndex] = {}
    for name, window in WINDOWS:
        index = indexes.setdefault(id(window[0].graph), PathIndex())
        grid = index.close(0, window)
        PiE = index.decode(grid)
        pairs = tuple((index.paths[i], index.paths[j]) for i, mus in index.pairs(grid) for j in mus)
        assert pairs == oracles.scan_pairs_ds(PiE), (name, window)
        for lam in PiE:
            i = index.bit(lam)
            # tail_paths answers in index order; the set and its size are the scan's
            tails = index.tail_paths(i, index.tails(i, grid))
            assert tuple(sorted(tails, key=path_sort_key)) == oracles.scan_grid_tails(PiE, lam), (name, lam)


def test_pattern_theta_and_matrix_units_match_scan():
    cases = {}
    for i, (name, window) in enumerate(WINDOWS):
        g = window[0].graph
        if not g.is_acyclic:
            continue
        if id(g) not in cases:
            cases[id(g)] = _cases(g)
        collections, families = cases[id(g)]
        PiE = pi_closure(window)
        for S in collections:
            want = oracles.scan_nonzero_theta_pattern(S, PiE)
            assert nonzero_theta_pattern(S, PiE) == want, (name, window)
        for j, T in enumerate(families):
            for lam, mu in pairs_ds(PiE):
                assert theta(T, PiE, lam, mu) == oracles.scan_theta(T, PiE, lam, mu)
            # the product identities are quadratic in the pairs: a sample
            if (i + j) % 3 == 0:
                got = matrix_unit_check(T, PiE)
                assert got == oracles.scan_matrix_unit_check(T, PiE), (name, window)
                F = T.to_complex()
                assert matrix_unit_check(F, PiE) == oracles.scan_matrix_unit_check(F, PiE)
