"""``PartialInjection`` operators against ``SparseMatrix`` ones.

The operator algebra is checked operation by operation against the
``SparseMatrix`` result on drawn operands.  Every check of ``repn`` is run
on families of partial injections and again on ``oracles.matrix_only`` of
the same family, whose operators are all ``SparseMatrix``, and the two
results must be equal: relation checks, generator gap products, universe
families' gap products, the faithfulness verdict, matrix units and shift
gaps.  The families are boundary representations and tampered bundles,
some of which stay partial injections, so the checks both pass and find
differences on them.
"""

import gc
import json
import operator
import random
from fractions import Fraction

import pytest

from kgraphck import repn
from kgraphck.boundary import omega
from kgraphck.cli import _bundle_load, _bundle_of, main
from kgraphck.degree import Degree
from kgraphck.graphio import parse_path
from kgraphck.alignment import has_prefix_in, pi_closure
from kgraphck.matrices import PartialInjection, SparseMatrix, narrow
from kgraphck.repn import (
    CKFamily,
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


# the defects of ``defect``: "half", "two-to-one", "skew" and "tiny" are no
# longer partial injections, the other three are
DEFECTS = ("half", "two-to-one", "skew", "tiny", "off-diagonal", "zero-vertex", "dropped")


def defect(doc, graph, kind):
    """A copy of a bundle with one defect: a kind of ``tamper``, an edge
    entry 1/2 ("half"; no longer a partial injection), or a vertex entry
    joining basis paths of different degrees ("skew"; no longer gauge
    invariant, nor a partial injection), or that one scaled by 1e-315
    ("tiny")."""
    if kind == "tiny":
        # the skewed bundle scaled into the subnormal range, where the
        # column and row sums of a difference round in absolute terms
        doc = defect(doc, graph, "skew")
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


def _partial(T) -> bool:
    return all(isinstance(mat, PartialInjection) for mat in T.ops.values())


def assert_same_as_matrices(T, S, rng: random.Random) -> None:
    """Every check on T equals the result on all-SparseMatrix operators."""
    R = oracles.matrix_only(T)
    g = T.graph
    assert T.relation_checks() == R.relation_checks()
    # TCK3 over every pair, not only those with a common range
    assert oracles.every_pair_tck3(R) == T.relation_checks()[2]
    assert verify_family(T, S).results == verify_family(R, S).results
    universe = S.universe_all()
    for F in rng.sample(universe, min(len(universe), 100)):
        want = oracles.unkept_gap_product(R, F.members, F.vertex)
        for gap in (gap_product(T, F.members, F.vertex), gap_product(R, F.members, F.vertex)):
            assert gap == want and want == gap
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
    assert _partial(T)
    # the representation of the smaller collection against the larger one:
    # its generator gaps are nonzero, so CK fails while the relations hold
    assert not verify_family(T, big).ok
    for S in chain:
        assert_same_as_matrices(boundary_rep(g, S), S, rng)
    assert_same_as_matrices(T, big, rng)
    assert_same_as_matrices(boundary_rep(g, big), small, rng)
    doc = _bundle_of(T)
    for kind in LARGE.get(name, TAMPERS):
        U = _bundle_load(g, tamper(doc, g, kind))
        assert _partial(U) == (kind not in ("scaled", "two-to-one"))
        assert not all(r.ok for r in U.relation_checks())
        assert_same_as_matrices(U, small, rng)
    if name not in LARGE:
        assert_same_as_matrices(oracles.complex_family(T), small, rng)


@pytest.mark.parametrize("name", ["omega21", "b7.0"])
@pytest.mark.parametrize("kind", DEFECTS)
def test_tck3_matches_every_pair(name, kind):
    # exact families take each unordered pair once; the deviation and the
    # first pair reaching it must be those of every ordered pair
    g = GRAPHS[name]()
    T = boundary_rep(g, satiate(FamilyCollection(g)))
    bad = _bundle_load(g, defect(_bundle_of(T), g, kind))
    assert bad.is_rational() and not all(r.ok for r in bad.relation_checks())
    for family in (T, oracles.complex_family(T), bad, oracles.complex_family(bad)):
        assert family.relation_checks()[2] == oracles.every_pair_tck3(family)


def test_detection(omega21):
    # CKFamily narrows each 0/1 partial injection, whatever the rest of the
    # family holds, and matrix_only undoes it
    S = satiate(FamilyCollection(omega21))
    T = boundary_rep(omega21, S)
    assert _partial(T) and all(r.ok for r in T.relation_checks())
    R = oracles.matrix_only(T)
    assert all(type(mat) is SparseMatrix for mat in R.ops.values())
    for lam, mat in T.ops.items():
        assert mat.data == R.ops[lam].data
        assert all(type(x) is Fraction for x in mat.data.values())
        again = CKFamily(omega21, T.dim, {lam: R.ops[lam]}).op(lam)
        assert isinstance(again, PartialInjection) and again == mat
    assert all(isinstance(mat, PartialInjection) for mat in T.to_complex().ops.values())
    doc = _bundle_of(T)
    for kind in TAMPERS:
        U = _bundle_load(omega21, tamper(doc, omega21, kind))
        narrowed = [lam for lam, mat in U.ops.items() if isinstance(mat, PartialInjection)]
        assert len(narrowed) == len(U.ops) - (kind in ("scaled", "two-to-one"))
        assert U.relation_checks() == oracles.matrix_only(U).relation_checks()
    dropped = _bundle_load(omega21, tamper(doc, omega21, "dropped"))
    assert not dropped.relation_checks()[1].ok  # TCK2


def _draw_partial(rng: random.Random, rows: int, cols: int) -> PartialInjection:
    domain = rng.sample(range(cols), rng.randint(0, min(rows, cols)))
    return PartialInjection(rows, cols, dict(zip(domain, rng.sample(range(rows), len(domain)))))


def _draw_rational(rng: random.Random, rows: int, cols: int) -> SparseMatrix:
    data = {}
    for _ in range(rng.randint(0, rows * cols)):
        data[(rng.randrange(rows), rng.randrange(cols))] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return SparseMatrix(rows, cols, data)


def _sparse(mat) -> SparseMatrix:
    return SparseMatrix(mat.rows, mat.cols, mat.data)


def _entries(mat) -> dict:
    return {k: (type(v), v) for k, v in mat.data.items()}


def _assert_same(got, want, stays: bool) -> None:
    assert type(want) is SparseMatrix
    assert _entries(got) == _entries(want)
    assert got == want and want == got and not got != want and not want != got
    assert got.is_zero() == want.is_zero() and got.nnz() == want.nnz()
    assert got.max_abs() == want.max_abs()
    assert (got.to_dense() == want.to_dense()).all()
    assert isinstance(got, PartialInjection) == stays


def test_operator_algebra_matches_sparse_matrices():
    # every operation on partial injections, alone or with rational
    # SparseMatrix operands, has exactly the entries of the all-SparseMatrix
    # result, and stays a PartialInjection exactly when both operands are
    # partial injections and the result is one: a product, a sum of
    # disjoint supports, a difference of a sub-injection
    rng = random.Random("operator-algebra")
    stayed = {"+": 0, "-": 0}
    promoted = {"+": 0, "-": 0}
    for _ in range(300):
        n, m, p = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = _draw_partial(rng, n, m)
        sub = PartialInjection(n, m, {j: i for j, i in a.map.items() if rng.random() < 0.5})
        overlap = PartialInjection(n, m, dict(sub.map))
        free_rows = [i for i in range(n) if i not in a.adjoint().map]
        if sub.map and free_rows:
            overlap.map[next(iter(sub.map))] = free_rows[0]  # a column of a, another row
        for b in (_draw_partial(rng, n, m), sub, overlap, a, _draw_rational(rng, n, m)):
            for x, y in ((a, b), (b, a)):
                assert (x == y) == (_sparse(x) == _sparse(y)) == (y == x)
                both = isinstance(x, PartialInjection) and isinstance(y, PartialInjection)
                for name, fn in (("+", operator.add), ("-", operator.sub)):
                    want = fn(_sparse(x), _sparse(y))
                    stays = both and isinstance(narrow(want), PartialInjection)
                    _assert_same(fn(x, y), want, stays)
                    if both:
                        (stayed if stays else promoted)[name] += 1
        inverted = _draw_partial(rng, m, p)
        inverted.inverse()  # a product may then walk a's map instead
        for y in (_draw_partial(rng, m, p), inverted, _draw_rational(rng, m, p)):
            _assert_same(a @ y, _sparse(a) @ _sparse(y), isinstance(y, PartialInjection))
        for x in (_draw_partial(rng, p, n), _draw_rational(rng, p, n)):
            _assert_same(x @ a, _sparse(x) @ _sparse(a), isinstance(x, PartialInjection))
        for scalar in (1, Fraction(1), Fraction(-3, 2), 0, 2, 1.0, 1j):
            want = _sparse(a) * scalar
            for got in (a * scalar, scalar * a):
                _assert_same(got, want, type(scalar) is not float and scalar == 1)
        adj = a.adjoint()
        assert isinstance(adj, PartialInjection) and adj.adjoint() == a
        assert _entries(adj) == _entries(_sparse(a).adjoint())
        # the adjoint keeps a's map, not a, so neither waits for the cycle
        # collector
        assert all(r is not a for r in gc.get_referents(adj))
        assert isinstance(narrow(_sparse(a)), PartialInjection) and narrow(_sparse(a)) == a
        wrong = PartialInjection(m + 1, m + 1, {})
        for bad in (lambda: a + wrong, lambda: a - _sparse(wrong), lambda: a @ wrong):
            with pytest.raises(ValueError, match="shape mismatch"):
                bad()
        assert a != wrong and wrong != _sparse(a) and a != "a"
    # the draws reach both sides of each rule
    assert all(stayed.values()) and all(promoted.values())
    # narrow keeps what is not a 0/1 partial injection
    for data in ({(0, 0): 1.0}, {(0, 0): Fraction(2)}, {(0, 0): Fraction(1), (1, 0): Fraction(1)}):
        mat = SparseMatrix(2, 2, data)
        assert narrow(mat) is mat


@pytest.mark.parametrize(
    "kind, backend",
    [(None, "exact"), ("scaled", "float")] + [(kind, "exact") for kind in TAMPERS],
)
def test_verify_report_matches_matrix_path(tmp_path, capsys, monkeypatch, kind, backend):
    # the whole report, with partial injections and with every operator a
    # SparseMatrix; the untampered bundle is checked against a larger
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
        monkeypatch.setattr(repn, "narrow", lambda mat: mat)
    assert reports[0] == reports[1]
    assert reports[0][0] == 1
