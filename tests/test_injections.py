"""The map path of partial-injection families against the SparseMatrix path.

Every check that ``repn`` decides with index maps is run again on
``oracles.matrix_only`` of the same family, which computes it with
``SparseMatrix`` products, and the two results must be equal: relation
checks, generator gap products, each universe family's gap product,
the faithfulness verdict, matrix units and shift gaps.  The families are
boundary representations and tampered bundles, some of which stay partial
injections, so the map path both passes and finds differences.
"""

import json
import random
from fractions import Fraction

import pytest

from kgraphck.boundary import omega
from kgraphck.cli import _bundle_load, _bundle_of, main
from kgraphck.degree import Degree
from kgraphck.alignment import has_prefix_in, pi_closure
from kgraphck.matrices import SparseMatrix
from kgraphck.repn import (
    PartialInjections,
    _gap_set,
    boundary_rep,
    faithful_on_core_check,
    gap_product,
    gap_vanishing,
    matrix_unit_check,
    shift_gaps_check,
    verify_family,
)
from kgraphck.satiation import FamilyCollection, full_fe_collection, satiate

import oracles
from test_graphio import emit_graph

GRAPHS = {
    "omega11": lambda: omega(2, Degree(1, 1)),
    "omega21": lambda: omega(2, Degree(2, 1)),
    "omega22": lambda: omega(2, Degree(2, 2)),
    "omega111": lambda: omega(3, Degree(1, 1, 1)),
    **{f"b7.{i}": lambda i=i: oracles.random_graphs(7, 6)[i] for i in (0, 2, 3)},
}

# bundle edits; "zero-vertex", "off-diagonal" and "dropped" leave a partial
# injection, "scaled" and "two-to-one" do not
TAMPERS = ("scaled", "zero-vertex", "two-to-one", "off-diagonal", "dropped")
# graphs whose universes make a tampered family slow on the matrix path
# (every universe family's gap product is a matrix product there)
LARGE = {"omega22": ("dropped",), "b7.2": ("dropped",)}


def tamper(doc: dict, graph, kind: str) -> dict:
    """A copy of a bundle with one defect of the given kind."""
    doc = json.loads(json.dumps(doc))
    ops = doc["operators"]
    vertex_tokens = {graph.vertex_path(v).token() for v in graph.vertices}
    vertices = sorted((t for t in ops if t in vertex_tokens and ops[t]), key=lambda t: len(ops[t]))
    edges = [t for t in sorted(ops) if t not in vertex_tokens and ops[t]]
    if kind == "scaled":
        ops[edges[0]][0][2] = "2"
    elif kind == "zero-vertex":
        ops[vertices[-1]] = []
    elif kind == "two-to-one":
        rows = ops[edges[-1]]
        used = {j for _, j, _ in rows}
        rows.append([rows[0][0], min(set(range(doc["dimension"])) - used), "1"])
    elif kind == "off-diagonal":
        rows = ops[vertices[0]]
        free = sorted(set(range(doc["dimension"])) - {i for i, _, _ in rows})
        rows.append([free[0], free[1], "1"])
    elif kind == "dropped":
        ops[edges[-1]].pop()
    else:
        raise ValueError(kind)
    return doc


def _diagonal(dim: int, indices) -> SparseMatrix:
    return SparseMatrix(dim, dim, {(i, i): Fraction(1) for i in indices})


def assert_same_as_matrices(T, S, rng: random.Random) -> None:
    """Every map-path decision on T equals the SparseMatrix result."""
    R = oracles.matrix_only(T)
    g = T.graph
    assert T.relation_checks() == R.relation_checks()
    assert verify_family(T, S).results == verify_family(R, S).results
    universe = S.universe_all()
    for F in rng.sample(universe, min(len(universe), 100)):
        gap = _gap_set(T, F.members, F.vertex)
        if gap is not None:
            assert gap_product(T, F.members, F.vertex) == _diagonal(T.dim, gap)
    assert gap_vanishing(T, S) == gap_vanishing(R, S)
    assert faithful_on_core_check(T, S) == faithful_on_core_check(R, S)
    paths = g.all_paths()
    # each path with its prefixes, whose span identities use the path's
    # operator, and a few random windows
    windows = [[q for q in paths if has_prefix_in(p, [q])] for p in paths] + [
        rng.sample(paths, min(len(paths), rng.randint(2, 3))) for _ in range(4)
    ]
    for window in windows:
        PiE = pi_closure(window)
        assert matrix_unit_check(T, PiE) == matrix_unit_check(R, PiE)
    for _ in range(20):
        mu = rng.choice(paths)
        pool = [p for p in paths if p.range == mu.range and not p.is_vertex()]
        E = rng.sample(pool, min(len(pool), rng.randint(0, 3)))
        assert shift_gaps_check(T, E, mu) == shift_gaps_check(R, E, mu)


def _chain(g, name):
    universe = FamilyCollection(g).universe_all()
    return [
        satiate(FamilyCollection(g)),
        satiate(FamilyCollection(g, [random.Random(name).choice(universe)])),
        full_fe_collection(g),
    ]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_map_path_matches_matrices(name):
    g = GRAPHS[name]()
    chain = _chain(g, name)
    rng = random.Random(f"{name}:maps")
    small, big = chain[0], chain[-1]
    T = boundary_rep(g, small)
    assert T.injections is not None and T.injections.vertex_sets is not None
    # the representation of the smaller collection against the larger one:
    # the map path finds nonzero generator gaps and vanishing matrix units
    # are impossible, so CK fails while the relations hold
    assert not verify_family(T, big).ok
    for S in chain:
        assert_same_as_matrices(boundary_rep(g, S), S, rng)
    assert_same_as_matrices(T, big, rng)
    assert_same_as_matrices(boundary_rep(g, big), small, rng)
    doc = _bundle_of(T)
    for kind in LARGE.get(name, TAMPERS):
        U = _bundle_load(g, tamper(doc, g, kind))
        assert (U.injections is None) == (kind in ("scaled", "two-to-one"))
        assert not all(r.ok for r in U.relation_checks())
        assert_same_as_matrices(U, small, rng)
    if name not in LARGE:
        assert_same_as_matrices(T.to_complex(), small, rng)


def test_detection(omega21):
    S = satiate(FamilyCollection(omega21))
    T = boundary_rep(omega21, S)
    J = T.injections
    for lam, mat in T.ops.items():
        assert mat.data == {(i, j): Fraction(1) for j, i in J.maps[lam].items()}
    assert J.tck1() and J.tck2(omega21.all_paths()) and J.tck3(omega21.all_paths())
    assert T.to_complex().injections is None
    doc = _bundle_of(T)
    assert _bundle_load(omega21, tamper(doc, omega21, "scaled")).injections is None
    assert _bundle_load(omega21, tamper(doc, omega21, "two-to-one")).injections is None
    zero_vertex = _bundle_load(omega21, tamper(doc, omega21, "zero-vertex")).injections
    assert zero_vertex.projections is not None and zero_vertex.vertex_sets is None
    off = _bundle_load(omega21, tamper(doc, omega21, "off-diagonal")).injections
    assert off.projections is None and off.vertex_sets is None
    dropped = _bundle_load(omega21, tamper(doc, omega21, "dropped")).injections
    assert dropped.vertex_sets is not None and not dropped.tck2(omega21.all_paths())
    # an incomplete family stays on the matrix path, which names the gap
    lam = omega21.all_paths()[-1]
    partial = {p: m for p, m in T.ops.items() if p != lam}
    assert PartialInjections.detect(omega21, T.dim, partial) is None


@pytest.mark.parametrize(
    "kind, backend",
    [(None, "exact"), ("scaled", "float")] + [(kind, "exact") for kind in TAMPERS],
)
def test_verify_report_matches_matrix_path(tmp_path, capsys, monkeypatch, kind, backend):
    # the whole report, with the map path and with every family on the
    # matrix path; the untampered bundle is checked against a larger
    # collection, so its generator gaps fail
    g = omega(2, Degree(2, 1))
    graph = tmp_path / "g.json"
    graph.write_text(emit_graph(g.spec))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"families": [["c1:0,0"]]}))
    bundle = tmp_path / "bundle.json"
    assert main(["represent", str(graph), "--out", str(bundle)]) == 0
    if kind is not None:
        bundle.write_text(json.dumps(tamper(json.loads(bundle.read_text()), g, kind)))
    argv = ["verify", str(graph), "--generators", str(gens), "--bundle", str(bundle)]
    argv += ["--json", "--seed", "3", "--backend", backend]
    reports = []
    for _ in range(2):
        code = main(argv)
        reports.append((code, capsys.readouterr()))
        monkeypatch.setattr(PartialInjections, "detect", classmethod(lambda cls, *a: None))
    assert reports[0] == reports[1]
    assert reports[0][0] == 1
