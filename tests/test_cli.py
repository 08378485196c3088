import json
import os
import subprocess
import sys

import pytest

import kgraphck
from kgraphck import cli, exhaustive, repn, satiation
from kgraphck.cli import main
from kgraphck.degree import Degree
from kgraphck.boundary import omega

from test_graphio import emit_graph


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    paths = {}
    for name, k, m in (
        ("omega11", 2, Degree(1, 1)),
        ("omega21", 2, Degree(2, 1)),
        ("omega13", 1, Degree(3)),
    ):
        p = root / f"{name}.json"
        p.write_text(emit_graph(omega(k, m).spec))
        paths[name] = str(p)
    g1 = root / "g1.json"
    g1.write_text(
        json.dumps(
            {
                "rank": 2,
                "vertices": ["v"],
                "edges": [["b", 1, "v", "v"], ["r", 2, "v", "v"]],
                "squares": [["b", "r", "r", "b"]],
            }
        )
    )
    paths["g1"] = str(g1)
    broken = root / "broken.json"
    broken.write_text(
        json.dumps(
            {
                "rank": 2,
                "vertices": ["v"],
                "edges": [["b", 1, "v", "v"], ["r", 2, "v", "v"]],
                "squares": [],
            }
        )
    )
    paths["broken"] = str(broken)
    gens = root / "gens.json"
    gens.write_text(json.dumps({"families": [["c1:0,0"]]}))
    paths["gens"] = str(gens)
    return paths


def test_validate_ok(files, capsys):
    assert main(["validate", files["omega11"]]) == 0
    assert "[pass] validate" in capsys.readouterr().out


def test_validate_broken_exits_2(files, capsys):
    assert main(["validate", files["broken"]]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", str(bad)]) == 2


def test_paths_subcommand(files, capsys):
    assert main(["paths", files["omega11"], "0,0", "--depth", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "c1:0,0.c2:1,0" in out
    assert main(["paths", files["omega11"], "0,0", "--degree", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "c1:0,0.c2:1,0"
    assert main(["paths", files["omega11"], "0,0"]) == 2  # need one mode


def test_mce_ext_pi_closure(files, capsys):
    assert main(["mce", files["omega11"], "c1:0,0", "c2:0,0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["paths"] == ["c1:0,0.c2:1,0"]

    assert main(["ext", files["omega11"], "c2:0,0", "c1:0,0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["paths"] == ["c1:0,1"]

    assert main(["pi-closure", files["omega11"], "c1:0,0", "c2:0,0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "c1:0,0.c2:1,0" in doc["results"][0]["paths"]

    assert main(["pi-closure", files["omega11"], "c1:0,0", "c2:0,0", "--budget", "1"]) == 3
    assert "pi_closure exceeded 1 steps" in capsys.readouterr().err


def test_exhaustive_check_and_enumerate(files, capsys):
    assert main(["exhaustive", "check", files["omega11"], "c1:0,0"]) == 0
    capsys.readouterr()
    # not exhaustive on the wedge-like empty family: use vertex flag
    assert (
        main(["exhaustive", "check", files["omega11"], "--vertex", "0,0"]) == 1
    )
    capsys.readouterr()
    assert (
        main(
            [
                "exhaustive",
                "enumerate",
                files["omega11"],
                "0,0",
                "--depth",
                "1,1",
                "--max-size",
                "3",
                "--json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["count"] == 7


def test_budget_exit_code(files, capsys):
    assert (
        main(
            [
                "exhaustive",
                "enumerate",
                files["omega21"],
                "0,0",
                "--depth",
                "2,1",
                "--max-size",
                "5",
                "--budget",
                "3",
            ]
        )
        == 3
    )


def _hash_seed_runs(argv, seeds=("0", "1", "2")):
    """The CLI run once per PYTHONHASHSEED value, each in a new interpreter."""
    src = os.path.dirname(os.path.dirname(kgraphck.__file__))
    return [
        subprocess.run(
            [sys.executable, "-m", "kgraphck.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        )
        for seed in seeds
    ]


def test_truncation_budget_message_independent_of_hash_seed(tmp_path):
    # several families at 0,0 of omega(2,(2,2)) exceed 300 truncation vectors
    # in sigma3's first round; the one named is the first in family order
    g = omega(2, Degree(2, 2))
    graph = tmp_path / "omega22.json"
    graph.write_text(emit_graph(g.spec))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"families": [[g.paths("0,0", Degree(2, 2))[0].token()]]}))
    argv = ["satiate", str(graph), "--generators", str(gens), "--budget", "300"]
    runs = _hash_seed_runs(argv, seeds=("1", "2"))
    assert [r.returncode for r in runs] == [3, 3]
    assert runs[0].stderr.startswith("budget exceeded: ")
    assert runs[0].stderr == runs[1].stderr


def test_grafting_budget_message_independent_of_hash_seed(tmp_path):
    # sigma4 exceeds its budget on several members of the second round's
    # collection; the one named is the first in family order
    g = omega(2, Degree(2, 2))
    graph = tmp_path / "omega22.json"
    graph.write_text(emit_graph(g.spec))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"families": [["c1:0,0.c1:1,0"]]}))
    runs = _hash_seed_runs(["satiate", str(graph), "--generators", str(gens), "--budget", "3000"])
    assert [r.returncode for r in runs] == [3, 3, 3]
    assert runs[0].stderr.startswith("budget exceeded: grafting enumeration for ")
    assert runs[0].stderr == runs[1].stderr == runs[2].stderr


def test_generator_validation_follows_file_order(tmp_path):
    # no family of three edges into u is exhaustive but the one of all three;
    # the error names the first family of the file under every hash seed
    graph = tmp_path / "three.json"
    edges = [[e, 1, "u", w] for e, w in (("a", "x"), ("b", "y"), ("c", "z"))]
    graph.write_text(json.dumps({"rank": 1, "vertices": ["u", "x", "y", "z"], "edges": edges, "squares": []}))
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"families": [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"]]}))
    runs = _hash_seed_runs(["satiate", str(graph), "--generators", str(gens)])
    want = f"error: generators {str(gens)!r}: PathFamily(u: {{a}}) is not in the family universe\n"
    assert [(r.returncode, r.stderr) for r in runs] == [(2, want)] * 3


def test_tampered_bundle_report_independent_of_hash_seed(files, tmp_path):
    # with the identity at 0,0 the relations fail, so CK checks every member,
    # and several reach the largest deviation: it names the first in family
    # order, as the all-members oracle does
    import oracles
    from kgraphck.cli import _bundle_load
    from kgraphck.graphio import parse_families, read_json
    from kgraphck.satiation import FamilyCollection, satiate

    bundle = tmp_path / "bundle.json"
    gen_args = ["--generators", files["gens"]]
    assert main(["represent", files["omega21"], *gen_args, "--out", str(bundle)]) == 0
    doc = json.loads(bundle.read_text())
    doc["operators"]["0,0"] = [[i, i, "1"] for i in range(doc["dimension"])]
    bundle.write_text(json.dumps(doc))
    argv = ["verify", files["omega21"], *gen_args, "--bundle", str(bundle), "--windows", "0", "--json"]
    runs = _hash_seed_runs(argv)
    assert [r.returncode for r in runs] == [1, 1, 1]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    ck = next(r for r in json.loads(runs[0].stdout)["results"] if r["name"] == "CK")
    g = omega(2, Degree(2, 1))
    S = satiate(FamilyCollection(g, parse_families(g, read_json(files["gens"]))))
    assert ck["detail"] == oracles.all_members_ck(_bundle_load(g, doc), S).detail


def test_verify_lists_each_boundary_once(files, monkeypatch, capsys):
    # the representation and condition (C) read one listing per vertex
    from collections import Counter
    from kgraphck import boundary

    checked = Counter()
    is_boundary = boundary.is_boundary

    def counting(x, S):
        checked[x.token()] += 1
        return is_boundary(x, S)

    monkeypatch.setattr(boundary, "is_boundary", counting)
    argv = ["verify", files["omega21"], "--generators", files["gens"], "--windows", "0", "--json"]
    assert main(argv) == 0
    paths = omega(2, Degree(2, 1)).all_paths()
    assert checked == Counter(p.token() for p in paths)


def test_satiate_subcommand(files, capsys):
    assert main(["satiate", files["omega11"], "--generators", files["gens"], "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    fams = [r["members"] for r in doc["results"] if r["name"].startswith("family@")]
    assert ["c1:0,1"] in fams
    assert len(fams) == 5


def test_boundary_subcommands(files, capsys):
    assert main(["boundary", "list", files["omega11"], "--generators", files["gens"], "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {r["name"]: r for r in doc["results"]}
    assert by_name["boundary@0,0"]["paths"] == ["c1:0,0", "c1:0,0.c2:1,0"]

    assert (
        main(
            [
                "boundary",
                "construct",
                files["omega11"],
                "0,0",
                "--generators",
                files["gens"],
                "--avoid",
                "c1:0,0.c2:1,0",
                "--json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["path"] == "c1:0,0"

    assert main(["boundary", "aperiodic", files["omega13"], "0.1"]) == 2  # bad token
    capsys.readouterr()
    assert main(["boundary", "aperiodic", files["omega13"], "c1:0"]) == 0
    capsys.readouterr()
    assert main(["boundary", "condition-c", files["omega11"]]) == 0


def test_represent_and_verify_roundtrip(files, tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    assert (
        main(
            [
                "represent",
                files["omega11"],
                "--generators",
                files["gens"],
                "--out",
                str(bundle),
            ]
        )
        == 0
    )
    doc = json.loads(bundle.read_text())
    assert doc["dimension"] == 6

    assert (
        main(
            [
                "verify",
                files["omega11"],
                "--generators",
                files["gens"],
                "--bundle",
                str(bundle),
            ]
        )
        == 0
    )
    capsys.readouterr()

    # fault injection: zero out one operator in the bundle
    doc["operators"]["c1:0,0.c2:1,0"] = []
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert (
        main(
            [
                "verify",
                files["omega11"],
                "--generators",
                files["gens"],
                "--bundle",
                str(tampered),
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "[fail] TCK2" in out


def test_verify_all_fixtures_exit_zero(files, capsys):
    for name in ("omega11", "omega21", "omega13"):
        assert main(["verify", files[name], "--windows", "2"]) == 0
        capsys.readouterr()


def test_verify_float_backend(files, capsys):
    assert main(["verify", files["omega11"], "--backend", "float"]) == 0
    capsys.readouterr()


def test_verify_float_backend_lists_no_universe(tmp_path, capsys):
    # listing the universe at 0,0 of omega(2,(4,3)) exceeds the subset budget
    # (exit 3); the float backend keeps the boundary representation's partial
    # injections, so it reads the antichain edges as the exact backend does
    graph = tmp_path / "omega43.json"
    graph.write_text(emit_graph(omega(2, Degree(4, 3)).spec))
    assert main(["verify", str(graph), "--backend", "float", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results and all(r["status"] == "pass" for r in results)


NUMPY_CHILD = """
import contextlib, io, json, sys
from kgraphck.cli import main
seen = ["numpy" in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    seen.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "numpy": seen}))
"""


def test_numpy_imported_only_by_verify(files):
    """satiate and exhaustive never load numpy; verify's float checks do."""
    runs = [
        ["satiate", files["omega11"], "--generators", files["gens"], "--json"],
        ["exhaustive", "enumerate", files["omega21"], "0,0", "--depth", "2,1",
         "--max-size", "3", "--minimal", "--json"],
        ["verify", files["omega11"], "--backend", "float", "--json"],
    ]
    src = os.path.dirname(os.path.dirname(kgraphck.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0], "numpy": [False, False, False, True]}


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--all"]], ids=["jobs", "all"])
def test_verify_rejects_removed_flags(files, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", files["omega11"]] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_report_config(files, capsys):
    assert main(["verify", files["omega11"], "--json", "--windows", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == {
        "backend": "exact",
        "generators": None,
        "graph": files["omega11"],
        "windows": 1,
    }


def test_verify_negative_windows_exits_2(files, capsys):
    # a negative count would skip the matrix-unit stage and still pass
    assert main(["verify", files["omega11"], "--json", "--windows", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --windows must be at least 0, got -1\n"
    assert main(["verify", files["omega11"], "--json", "--windows", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not any(r["name"].startswith("matrix-units") for r in doc["results"])


def test_verify_cyclic_graph_exits_2(files, capsys):
    assert main(["verify", files["g1"]]) == 2


def test_negative_degree_exits_2(files, capsys):
    # Degree's ValueError is a parse error at the command line
    assert main(["paths", files["omega21"], "0,0", "--depth=-1,0"]) == 2
    assert capsys.readouterr().err == (
        "error: degree '-1,0': degree coordinates must be naturals, got (-1, 0)\n"
    )


def test_vertex_path_generator_exits_2(files, tmp_path, capsys):
    gens = tmp_path / "vertex.json"
    gens.write_text(json.dumps({"families": [["0,0"]]}))
    assert main(["satiate", files["omega21"], "--generators", str(gens)]) == 2
    assert capsys.readouterr().err.endswith("PathFamily(0,0: {0,0}) contains a vertex path\n")


def test_generator_outside_universe_exits_2(files, capsys):
    # c1:0,0 has degree (1,0), outside the window of depth (0,0)
    argv = ["satiate", files["omega21"], "--generators", files["gens"], "--depth", "0,0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith("is not in the family universe\n")


def test_json_reports_deterministic(files, capsys):
    args = ["verify", files["omega21"], "--json", "--seed", "42", "--windows", "4"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 42


def test_duplicate_vertex_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({"rank": 1, "vertices": ["v", "v"], "edges": [], "squares": []}))
    assert main(["validate", str(bad)]) == 2
    assert "duplicate vertex id 'v'" in capsys.readouterr().err


def test_represent_failed_self_check_exits_2(files, monkeypatch, capsys):
    from kgraphck import repn

    failed = repn.FamilyReport([repn.CheckResult("TCK1", False, 1.0)])
    monkeypatch.setattr(repn, "verify_family", lambda T, S: failed)
    assert main(["represent", files["omega11"], "--generators", files["gens"]]) == 2
    captured = capsys.readouterr()
    assert "boundary representation failed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("paths", "{omega11}", "0,0", "--depth", "a,b"),
        ("exhaustive", "check", "{omega11}", "c1:0,0", "--depth", "1,x"),
        ("paths", "{omega11}", "nosuch", "--depth", "1,1"),
        ("exhaustive", "enumerate", "{omega11}", "nosuch", "--depth", "1,1"),
    ],
    ids=["paths-degree", "check-degree", "paths-vertex", "enumerate-vertex"],
)
def test_malformed_values_exit_2(files, capsys, argv):
    # a non-integer degree or an unknown vertex is a usage error, not a failed check
    assert main([a.format(**files) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_non_string_generator_token_exits_2(files, tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"families": [[5]]}))
    assert main(["satiate", files["omega11"], "--generators", str(gens)]) == 2
    assert "path tokens" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bundle", "graph", "generators"])
def test_repeated_json_key_exits_2(files, tmp_path, capsys, kind):
    # json keeps the last of two equal keys: a bundle's first operator for a
    # token, a graph's first rank or a generator file's first families would
    # be dropped silently
    path = tmp_path / f"{kind}.json"
    if kind == "bundle":
        assert main(["represent", files["omega11"], "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        key = next(iter(doc["operators"]))
        text = json.dumps(doc).replace('"operators": {', f'"operators": {{"{key}": [[0, 0, "7"]], ')
        argv = ["verify", files["omega11"], "--bundle", str(path), "--json"]
    elif kind == "graph":
        key = "rank"
        with open(files["omega11"]) as fh:
            text = fh.read().replace("{", '{"rank": 3, ', 1)
        argv = ["validate", str(path)]
    else:
        key = "families"
        text = '{"families": [["c1:0,0"]], "families": [["c2:0,0"]]}'
        argv = ["satiate", files["omega11"], "--generators", str(path)]
    path.write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} repeats the key {key!r} in one object\n"


def test_verify_reports_unfaithful_bundle(files, tmp_path, capsys):
    # the representation of a larger collection, checked against the empty one
    bundle = tmp_path / "bundle.json"
    argv = ["represent", files["omega11"], "--generators", files["gens"], "--out", str(bundle)]
    assert main(argv) == 0
    assert main(["verify", files["omega11"], "--bundle", str(bundle), "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["name"] for r in results] == [
        "TCK1",
        "TCK2",
        "TCK3",
        "CK",
        *(f"matrix-units[{i}]" for i in range(5)),
        "gap-products-iff-membership",
        "faithful-on-core",
        "shift-gaps",
        "gauge-unitaries",
        "gauge-expectation-vs-average",
        "expectation-contraction",
        "boundary-existence",
    ]
    by_name = {r["name"]: r for r in results}
    assert by_name["gap-products-iff-membership"]["status"] == "fail"
    assert by_name["faithful-on-core"] == {
        "name": "faithful-on-core",
        "status": "fail",
        "route_a": False,
        "route_b": False,
    }
    assert by_name["expectation-contraction"] == {
        "name": "expectation-contraction",
        "status": "info",
        "detail": "hypotheses not met",
    }


def test_bundle_path_given_twice_exits_2(files, tmp_path, capsys):
    # c2:0,0.c1:0,1 and c1:0,0.c2:1,0 are one path; the later operator would
    # silently replace the earlier one
    bundle = tmp_path / "bundle.json"
    assert main(["represent", files["omega11"], "--out", str(bundle)]) == 0
    doc = json.loads(bundle.read_text())
    doc["operators"] = {"c2:0,0.c1:0,1": [[0, 0, "7"]], **doc["operators"]}
    bundle.write_text(json.dumps(doc))
    assert main(["verify", files["omega11"], "--bundle", str(bundle), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: operators 'c2:0,0.c1:0,1' and 'c1:0,0.c2:1,0' give the same path\n"
    )


def _set_entry(doc, index, value):
    doc["operators"]["0,0"][0][index] = value


def _repeat_entry(doc, value):
    """Give the first entry of the operator of 0,0 a second value; without
    the parse error the later value would silently win."""
    rows = doc["operators"]["0,0"]
    rows.append([rows[0][0], rows[0][1], value])


@pytest.mark.parametrize(
    "argv, edit",
    [
        (("satiate", "{omega11}", "--generators", "{missing}"), None),
        (("verify", "{omega11}", "--bundle", "{missing}"), None),
        (("verify", "{omega11}", "--bundle", "{bundle}"), "not json"),
        (("verify", "{omega11}", "--bundle", "{bundle}"), lambda doc: doc.pop("operators")),
        (("verify", "{omega11}", "--bundle", "{bundle}"), lambda doc: _set_entry(doc, 2, "x")),
        (("verify", "{omega11}", "--bundle", "{bundle}"), lambda doc: _set_entry(doc, 1, doc["dimension"])),
        (("verify", "{omega11}", "--bundle", "{bundle}"), lambda doc: doc["basis"].pop()),
        (("verify", "{omega11}", "--bundle", "{bundle}"), lambda doc: _repeat_entry(doc, 0)),
        (("verify", "{omega11}", "--bundle", "{bundle}"), lambda doc: _set_entry(doc, 2, True)),
        (("verify", "{omega11}", "--bundle", "{bundle}"), lambda doc: _set_entry(doc, 2, False)),
    ],
    ids=[
        "generators-missing",
        "bundle-missing",
        "bundle-not-json",
        "bundle-no-operators",
        "bundle-entry-not-rational",
        "bundle-index-out-of-range",
        "bundle-basis-length",
        "bundle-entry-repeated",
        "bundle-entry-true",
        "bundle-entry-false",
    ],
)
def test_unreadable_or_malformed_input_file_exits_2(files, tmp_path, capsys, argv, edit):
    # a bad input file is a usage error, not a failed check; each bad bundle
    # is a valid one with one defect
    bundle = tmp_path / "bundle.json"
    assert main(["represent", files["omega11"], "--out", str(bundle)]) == 0
    if isinstance(edit, str):
        bundle.write_text(edit)
    elif edit is not None:
        doc = json.loads(bundle.read_text())
        edit(doc)
        bundle.write_text(json.dumps(doc))
    names = dict(files, missing=str(tmp_path / "nosuch.json"), bundle=str(bundle))
    assert main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# every command that reads no budget, and every command that needs the exact
# universe, rejects the options it used to accept and ignore
REMOVED_OPTIONS = [
    *[(cmd, "--budget", "5") for cmd in (
        ("validate", "{omega11}"),
        ("paths", "{omega11}", "0,0", "--depth", "1,1"),
        ("mce", "{omega11}", "c1:0,0", "c2:0,0"),
        ("ext", "{omega11}", "c2:0,0", "c1:0,0"),
        ("exhaustive", "check", "{omega11}", "c1:0,0"),
        ("boundary", "aperiodic", "{omega13}", "c1:0"),
    )],
    *[(cmd, flag, value) for cmd in (
        ("represent", "{omega11}"),
        ("verify", "{omega11}"),
        ("boundary", "list", "{omega11}"),
        ("boundary", "construct", "{omega11}", "0,0"),
        ("boundary", "condition-c", "{omega11}"),
    ) for flag, value in (("--depth", "1,1"), ("--max-size", "2"))],
]


@pytest.mark.parametrize(
    "argv, flag, value",
    REMOVED_OPTIONS,
    ids=[" ".join(a for a in argv if "{" not in a) + " " + flag for argv, flag, _ in REMOVED_OPTIONS],
)
def test_removed_options_exit_2(files, capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([a.format(**files) for a in argv] + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("satiate", "{omega11}", "--max-size", "-1"), "--max-size must be at least 0, got -1"),
        (("exhaustive", "enumerate", "{omega11}", "0,0", "--depth", "1,1", "--max-size", "-1"),
         "--max-size must be at least 0, got -1"),
        (("pi-closure", "{omega11}", "c1:0,0", "--budget", "-1"), "--budget must be at least 0, got -1"),
    ],
    ids=["satiate-max-size", "enumerate-max-size", "pi-closure-budget"],
)
def test_negative_count_exits_2(files, capsys, argv, message):
    # a negative size cap would give empty results, a negative budget a
    # budget exit; both are usage errors, as --windows -1 is
    assert main([a.format(**files) for a in argv] + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_generators_not_a_list_exits_2(files, tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"families": 5}))
    assert main(["satiate", files["omega11"], "--generators", str(gens)]) == 2
    assert capsys.readouterr().err == "error: expected {'families': [...]}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(rank=True), "rank must be an integer >= 1"),
        (lambda doc: doc["edges"][0].__setitem__(1, True), "edge 'b' has non-integer color True"),
    ],
    ids=["rank-true", "color-true"],
)
def test_boolean_rank_or_color_exits_2(tmp_path, capsys, edit, message):
    # JSON true is a Python int: without the exact type test a color of true
    # is read as color 1 and the graph validates
    doc = {
        "rank": 2,
        "vertices": ["v"],
        "edges": [["b", 1, "v", "v"], ["r", 2, "v", "v"]],
        "squares": [["b", "r", "r", "b"]],
    }
    edit(doc)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(doc))
    assert main(["validate", str(graph)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["satiate", "verify"])
def test_universe_listing_budget_exits_3(files, capsys, command):
    # omega(2,(2,1)) has 5 candidate paths at 0,0, so listing its family
    # universe exceeds a subset budget of 3
    argv = [command, files["omega21"], "--generators", files["gens"], "--budget", "3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 5 candidate paths exceed the subset budget 3\n"


def test_verify_without_members_lists_no_universe(tmp_path, capsys, monkeypatch):
    # with no generators every check passes without the family universe: a
    # listing that fails, or a budget any listing exceeds, changes no byte
    path = tmp_path / "omega22.json"
    path.write_text(emit_graph(omega(2, Degree(2, 2)).spec))
    argv = ["verify", str(path), "--json", "--seed", "0"]
    assert main(argv) == 0
    want = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a family universe was listed")

    monkeypatch.setattr(exhaustive, "fe_enumerate", refuse)
    monkeypatch.setattr(satiation, "fe_enumerate", refuse)
    for extra in ([], ["--budget", "3"]):
        assert main(argv + extra) == 0
        assert capsys.readouterr() == want


def test_verify_reads_route_a_off_the_matrix_unit_lemma(tmp_path, capsys, monkeypatch):
    # the boundary representation satisfies TCK1-TCK3 exactly and no gap
    # product outside S vanishes, so route (a) passes without a grid
    path = tmp_path / "omega43.json"
    path.write_text(emit_graph(omega(2, Degree(4, 3)).spec))

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was enumerated")

    monkeypatch.setattr(repn, "_walk_grids", refuse)
    assert main(["verify", str(path), "--json", "--seed", "0"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    faithful = next(r for r in results if r["name"] == "faithful-on-core")
    assert faithful == {"name": "faithful-on-core", "route_a": True, "route_b": True, "status": "pass"}


def test_verify_fails_route_a_on_a_zero_vertex_operator(tmp_path, capsys):
    # t_z = 0 at an isolated vertex z, where no family lies outside S: the
    # grid {z} holds the unit theta(z,z) = t_z, so route (a) fails with
    # route (b)
    with open(os.path.join(os.path.dirname(__file__), "..", "graphs", "omega_2_11.json")) as fh:
        doc = json.load(fh)
    doc["vertices"].append("z")
    graph, bundle = tmp_path / "graph.json", tmp_path / "bundle.json"
    graph.write_text(json.dumps(doc))
    assert main(["represent", str(graph), "--out", str(bundle)]) == 0
    rep = json.loads(bundle.read_text())
    rep["operators"]["z"] = []
    bundle.write_text(json.dumps(rep))
    capsys.readouterr()
    assert main(["verify", str(graph), "--bundle", str(bundle), "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    faithful = next(r for r in results if r["name"] == "faithful-on-core")
    assert faithful == {"name": "faithful-on-core", "route_a": False, "route_b": False, "status": "fail"}


def test_condition_c_from_the_maximal_families(tmp_path, capsys, monkeypatch):
    # omega(2,(4,3)) is decided by its maximal families alone (its universe
    # exceeds the subset budget); where (C) fails the report lists every
    # failing family, the same bytes as the search over every family
    path = tmp_path / "omega43.json"
    path.write_text(emit_graph(omega(2, Degree(4, 3)).spec))
    assert main(["boundary", "condition-c", str(path), "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results[0] == {"name": "condition-c", "status": "pass"}
    assert len(results) == 1 + 5 * 4 and all(r["name"].startswith("witness@") for r in results[1:])

    graphs = os.path.join(os.path.dirname(__file__), "..", "graphs")
    square = os.path.join(graphs, "parallel_square.json")
    argv = ["boundary", "condition-c", square, "--json"]
    assert main(argv) == 1
    got = capsys.readouterr()
    assert any(r["name"] == "failure" for r in json.loads(got.out)["results"])
    every_family = cli.condition_c
    monkeypatch.setattr(cli, "condition_c", lambda S, maximal=False: every_family(S))
    assert main(argv) == 1
    assert capsys.readouterr() == got


def test_boundary_unknown_vertex_is_input_error(files, capsys):
    # the graph names the vertex it does not know, instead of an empty
    # boundary reported as a broken invariant
    assert main(["boundary", "list", files["omega21"], "--vertex", "nosuch"]) == 2
    assert capsys.readouterr().err == "error: unknown vertex 'nosuch'\n"
    assert main(["boundary", "construct", files["omega21"], "nosuch", "--avoid", "c1:0,0"]) == 2
    assert capsys.readouterr().err == "error: unknown vertex 'nosuch'\n"


def test_boundary_construct_rejects_vertex_path_avoid(files, capsys):
    for extra in ([], ["--generators", files["gens"]]):
        argv = ["boundary", "construct", files["omega21"], "0,0", "--avoid", "0,0"]
        assert main(argv + extra) == 2
        assert capsys.readouterr().err == "error: avoid family contains a vertex path\n"


def test_verify_without_numpy_is_precondition_error(files, capsys, monkeypatch):
    import importlib.util

    real = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec", lambda name, *a: None if name == "numpy" else real(name, *a)
    )
    assert main(["verify", files["omega11"], "--json"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: verify needs numpy\n"
