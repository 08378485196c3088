"""The gauge checks against the loops they replace.

gauge_unitary_check skips the SVD of a difference whose Schur bound cannot
raise the maximum, and reads the bound of a partial injection's difference
off one product per grid point; its result must still be the same float,
bit for bit, as ``oracles.every_svd_gauge_unitary_check``, and the same
float after the same SVDs as ``oracles.dense_gauge_unitary_check``, which
forms every difference.  sampled_gauge_average scales rows where eval(a) is
real, and must give the entries of ``oracles.loop_sampled_gauge_average``.
The families are the boundary representations of the graphs ``verify`` is
benchmarked on and two larger ones, their float copies, a gauge-twisted
copy with complex entries, and tampered bundles, four of which are not
partial injections.
"""

import cmath
import random

import numpy as np
import pytest

from kgraphck.boundary import omega
from kgraphck.cli import _bundle_load, _bundle_of, _random_element
from kgraphck.degree import Degree
from kgraphck.matrices import PartialInjection, SparseMatrix
from kgraphck.repn import (
    CKFamily,
    _z_power,
    boundary_rep,
    evaluate,
    gauge_grid,
    gauge_unitary_check,
    sampled_gauge_average,
)
from kgraphck.satiation import FamilyCollection, satiate

import oracles
from test_injections import DEFECTS, defect

# (graph, with one drawn generator)
GRAPHS = {
    "omega21": (lambda: omega(2, Degree(2, 1)), False),
    "omega22": (lambda: omega(2, Degree(2, 2)), False),
    "omega32": (lambda: omega(2, Degree(3, 2)), False),
    "omega111": (lambda: omega(3, Degree(1, 1, 1)), False),
    "omega111+gen": (lambda: omega(3, Degree(1, 1, 1)), True),
    "b7.0+gen": (lambda: oracles.random_graphs(7, 6)[0], True),
}
LARGER = {
    "omega33": (lambda: omega(2, Degree(3, 3)), False),
    "omega211": (lambda: omega(3, Degree(2, 1, 1)), False),
}


def _representation(name):
    make, with_gen = {**GRAPHS, **LARGER}[name]
    g = make()
    gens = []
    if with_gen:
        gens = [random.Random(name).choice(FamilyCollection(g).universe_all())]
    return g, boundary_rep(g, satiate(FamilyCollection(g, gens)), verify=False)


def _svd_count(monkeypatch, T, zs, check=gauge_unitary_check):
    calls = []
    norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    got = check(T, zs)
    monkeypatch.undo()
    return got, len(calls)


def _same_as_dense(monkeypatch, T, zs):
    """Asserts that the check and the dense loop give the same float after
    the same number of SVDs, and returns that float."""
    got = _svd_count(monkeypatch, T, zs)
    assert got == _svd_count(monkeypatch, T, zs, oracles.dense_gauge_unitary_check)
    return got[0]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_gauge_check_matches_every_svd(monkeypatch, name):
    g, T = _representation(name)
    zs = gauge_grid(g)
    for family in (T, oracles.complex_family(T)) if name == "omega21" else (T,):
        got, svds = _svd_count(monkeypatch, family, zs)
        assert got == oracles.every_svd_gauge_unitary_check(family, zs)
        assert svds < len(zs) * len(g.all_paths())
    if name == "omega32":
        # the rounding differences of a partial injection are alike, so few
        # of the 720 differences can raise the maximum
        assert svds < len(zs) * len(g.all_paths()) // 4


@pytest.mark.parametrize("name", [*GRAPHS, *LARGER])
def test_gauge_check_matches_dense_check(monkeypatch, name):
    g, T = _representation(name)
    zs = gauge_grid(g)
    assert all(isinstance(mat, PartialInjection) for mat in T.ops.values())
    for family in (T, oracles.complex_family(T)):
        _same_as_dense(monkeypatch, family, zs)


@pytest.mark.parametrize("name", ["omega21", "omega22", "b7.0+gen"])
@pytest.mark.parametrize("kind", DEFECTS)
def test_gauge_check_matches_every_svd_on_tampered_bundles(monkeypatch, name, kind):
    g, T = _representation(name)
    bad = _bundle_load(g, defect(_bundle_of(T), g, kind))
    partial = all(isinstance(mat, PartialInjection) for mat in bad.ops.values())
    assert partial == (kind not in ("half", "two-to-one", "skew", "tiny"))
    zs = gauge_grid(g)
    for family in (bad, oracles.complex_family(bad)):
        got = _same_as_dense(monkeypatch, family, zs)
        assert got == oracles.every_svd_gauge_unitary_check(family, zs)
    if kind == "skew":
        assert got > 0.1
    if kind == "tiny":
        assert 0 < got < 1e-300


def test_gauge_check_on_zero_differences(monkeypatch, omega11):
    # at the identity every difference is exactly zero, and so is every
    # difference on a zero-dimensional space
    T = boundary_rep(omega11, satiate(FamilyCollection(omega11)))
    assert gauge_unitary_check(T, [(1.0, 1.0)]) == 0.0
    ops = {lam: SparseMatrix.zero(0) for lam in omega11.all_paths()}
    empty = CKFamily(omega11, 0, ops, basis=())
    zs = gauge_grid(omega11)
    assert _same_as_dense(monkeypatch, empty, zs) == 0.0
    assert oracles.every_svd_gauge_unitary_check(empty, zs) == 0.0


def _twisted(T: CKFamily, z) -> CKFamily:
    """The family z^{d(lam)} t_lam: a Cuntz-Krieger family again, with
    complex entries."""
    ops = {
        lam: SparseMatrix(
            mat.rows,
            mat.cols,
            {k: _z_power(z, lam.degree) * complex(v) for k, v in mat.data.items()},
        )
        for lam, mat in T.ops.items()
    }
    return CKFamily(T.graph, T.dim, ops, basis=T.basis)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_sampled_average_matches_product_loop(name):
    # rows scaled where eval(a) is real, the product otherwise; equal
    # entries (np.array_equal: bit for bit up to the sign of a zero)
    g, T = _representation(name)
    zs = gauge_grid(g)
    twisted = _twisted(T, [cmath.exp(1j * (c + 1)) for c in range(g.rank)])
    rng = random.Random(name)
    for family, real in ((T, True), (oracles.complex_family(T), True), (twisted, False)):
        drawn = [_random_element(rng, g.all_paths(), 4, 2) for _ in range(4)]
        for a in drawn:
            got = sampled_gauge_average(family, a, zs)
            assert np.array_equal(got, oracles.loop_sampled_gauge_average(family, a, zs))
        assert any(evaluate(a, family).to_dense().imag.any() for a in drawn) != real


def _rebuilt_unitary(T: CKFamily, z) -> np.ndarray:
    """U_z rebuilt from z at every call, with nothing kept on the family."""
    powers = {n: _z_power(z, n) for n in {x.degree.coords for x in T.basis}}
    return np.diag([powers[x.degree.coords] for x in T.basis])


@pytest.mark.parametrize("name", ["omega21", "omega111+gen", "b7.0+gen"])
def test_gauge_unitaries_built_once_per_grid_point(monkeypatch, name):
    # a verify's check and five averages read one kept diagonal per grid
    # point, and give the float and the entries of a U_z rebuilt at every
    # call, on exact, float and complex-entry families
    import kgraphck.repn as repn

    g, T = _representation(name)
    zs = gauge_grid(g)
    twisted = _twisted(T, [cmath.exp(1j * (c + 1)) for c in range(g.rank)])
    rng = random.Random(name)
    drawn = [_random_element(rng, g.all_paths(), 4, 2) for _ in range(5)]
    z_powers = repn._z_powers
    for family in (T, oracles.complex_family(T), twisted):
        with monkeypatch.context() as m:
            m.setattr(repn, "gauge_unitary", _rebuilt_unitary)
            want_check = gauge_unitary_check(family, zs)
            want = [sampled_gauge_average(family, a, zs) for a in drawn]
        built = []

        def counting(z, paths, family=family):
            if paths is family.basis:
                built.append(tuple(z))
            return z_powers(z, paths)

        with monkeypatch.context() as m:
            m.setattr(repn, "_z_powers", counting)
            assert gauge_unitary_check(family, zs) == want_check
            for a, avg in zip(drawn, want):
                assert np.array_equal(sampled_gauge_average(family, a, zs), avg)
        assert len(built) == len(zs) and set(built) == {tuple(z) for z in zs}
        for z in zs:
            U = repn.gauge_unitary(family, z)
            assert U.dtype == complex and np.array_equal(U, _rebuilt_unitary(family, z))
