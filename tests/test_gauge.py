"""gauge_unitary_check against the loop that takes every 2-norm.

The check skips the SVD of a difference whose Schur bound cannot raise the
maximum; its result must still be the same float, bit for bit, as
``oracles.every_svd_gauge_unitary_check``.  The families are the boundary
representations of the graphs ``verify`` is benchmarked on, a float copy,
and tampered bundles, two of which are not partial injections.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from kgraphck.boundary import omega
from kgraphck.cli import _bundle_load, _bundle_of
from kgraphck.degree import Degree
from kgraphck.graphio import parse_path
from kgraphck.matrices import PartialInjection, SparseMatrix
from kgraphck.repn import CKFamily, boundary_rep, gauge_grid, gauge_unitary_check
from kgraphck.satiation import FamilyCollection, satiate

import oracles
from test_injections import tamper

# (graph, with one drawn generator)
GRAPHS = {
    "omega21": (lambda: omega(2, Degree(2, 1)), False),
    "omega22": (lambda: omega(2, Degree(2, 2)), False),
    "omega32": (lambda: omega(2, Degree(3, 2)), False),
    "omega111": (lambda: omega(3, Degree(1, 1, 1)), False),
    "omega111+gen": (lambda: omega(3, Degree(1, 1, 1)), True),
    "b7.0+gen": (lambda: oracles.random_graphs(7, 6)[0], True),
}


def _representation(name):
    make, with_gen = GRAPHS[name]
    g = make()
    gens = []
    if with_gen:
        gens = [random.Random(name).choice(FamilyCollection(g).universe_all())]
    return g, boundary_rep(g, satiate(FamilyCollection(g, gens)), verify=False)


def _svd_count(monkeypatch, T, zs):
    calls = []
    norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    got = gauge_unitary_check(T, zs)
    monkeypatch.undo()
    return got, len(calls)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_gauge_check_matches_every_svd(monkeypatch, name):
    g, T = _representation(name)
    zs = gauge_grid(g)
    for family in (T, T.to_complex()) if name == "omega21" else (T,):
        got, svds = _svd_count(monkeypatch, family, zs)
        assert got == oracles.every_svd_gauge_unitary_check(family, zs)
        assert svds < len(zs) * len(g.all_paths())
    if name == "omega32":
        # the rounding differences of a partial injection are alike, so few
        # of the 720 differences can raise the maximum
        assert svds < len(zs) * len(g.all_paths()) // 4


def _edit(doc, graph, kind):
    """A copy of a bundle with one defect: a kind of ``tamper``, an edge
    entry 1/2 ("half"; no longer a partial injection), or a vertex entry
    joining basis paths of different degrees ("skew"; no longer gauge
    invariant, nor a partial injection), or that one scaled by 1e-315
    ("tiny")."""
    if kind == "tiny":
        # the skewed bundle scaled into the subnormal range, where the
        # column and row sums of a difference round in absolute terms
        doc = _edit(doc, graph, "skew")
        for rows in doc["operators"].values():
            for row in rows:
                row[2] = str(Fraction(row[2]) / 10**315)
    elif kind == "half":
        doc = tamper(doc, graph, "scaled")
        row = next(r for rows in doc["operators"].values() for r in rows if r[2] == "2")
        row[2] = "1/2"
    elif kind == "skew":
        doc = json.loads(json.dumps(doc))
        basis = [parse_path(graph, t) for t in doc["basis"]]
        skew = [j for j, x in enumerate(basis) if x.degree != basis[0].degree][:2]
        # row 0 of t_v, v = r(x_0), already holds its diagonal entry; with
        # two more, a difference can have a norm above its largest entry
        doc["operators"][graph.vertex_path(basis[0].range).token()] += [[0, j, "1"] for j in skew]
    else:
        doc = tamper(doc, graph, kind)
    return doc


@pytest.mark.parametrize("name", ["omega21", "omega22", "b7.0+gen"])
@pytest.mark.parametrize(
    "kind", ["half", "two-to-one", "skew", "tiny", "off-diagonal", "zero-vertex", "dropped"]
)
def test_gauge_check_matches_every_svd_on_tampered_bundles(name, kind):
    g, T = _representation(name)
    bad = _bundle_load(g, _edit(_bundle_of(T), g, kind))
    partial = all(isinstance(mat, PartialInjection) for mat in bad.ops.values())
    assert partial == (kind not in ("half", "two-to-one", "skew", "tiny"))
    zs = gauge_grid(g)
    for family in (bad, bad.to_complex()):
        got = gauge_unitary_check(family, zs)
        assert got == oracles.every_svd_gauge_unitary_check(family, zs)
    if kind == "skew":
        assert got > 0.1
    if kind == "tiny":
        assert 0 < got < 1e-300


def test_gauge_check_on_zero_differences(omega11):
    # at the identity every difference is exactly zero, and so is every
    # difference on a zero-dimensional space
    T = boundary_rep(omega11, satiate(FamilyCollection(omega11)))
    assert gauge_unitary_check(T, [(1.0, 1.0)]) == 0.0
    ops = {lam: SparseMatrix.zero(0) for lam in omega11.all_paths()}
    empty = CKFamily(omega11, 0, ops, basis=())
    zs = gauge_grid(omega11)
    assert gauge_unitary_check(empty, zs) == oracles.every_svd_gauge_unitary_check(empty, zs) == 0.0
