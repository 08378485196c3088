"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Covers input determinism, answer checking, budget exits, the tracer's
install/uninstall and self-time arithmetic, and a cross-check of the small
golden answers against the brute-force oracles in tests/oracles.py.
"""

from __future__ import annotations

import filecmp
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics  # noqa: E402

run.import_program()

with open(run.GOLDENS) as _fh:
    GOLDENS = json.load(_fh)
DRAWS = GOLDENS["draws"]


@pytest.fixture
def env(tmp_path):
    """A set-up exhaustive-rank3 environment whose ops are cut to the cheap checks."""
    e = run.setup("exhaustive-rank3", 3, str(tmp_path))
    e.groups = [g for g in e.groups if g[0].id.startswith("check/")]
    return e


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        pa = workloads.write_inputs(workload, 5, DRAWS, str(a))
        pb = workloads.write_inputs(workload, 5, DRAWS, str(b))
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for key in pa:
            assert filecmp.cmp(pa[key], pb[key], shallow=False), key


def test_every_op_has_a_golden_answer():
    for workload in workloads.WORKLOADS:
        for variant in range(workloads.POOL):
            for op in workloads.all_ops(workload, variant, DRAWS):
                assert op.id in GOLDENS["answers"], op.id


def test_seed_ops_match_goldens_and_tampering_fails(env):
    passes = [run.run_pass(env, random.Random(0))]
    attempted, failed, _, failures, _ = run.tally(env, passes)
    assert attempted == workloads.CHECKS_PER_VARIANT and failed == 0, failures

    outcome = passes[0].outcomes[0]
    tampered = dict(env.goldens[outcome.op.id], digest="0" * 64)
    env.goldens = dict(env.goldens, **{outcome.op.id: tampered})
    assert run.judge(env, outcome) is not None
    _, failed, _, failures, _ = run.tally(env, passes)
    assert failed == 1 and outcome.op.id in failures


def test_budget_exit_is_counted_and_run_continues(env):
    budget_op = env.groups[0][0]

    def fake_cli(argv):
        if argv == workloads.resolve(budget_op, env.paths, env.workdir):
            return 3
        return real_cli(argv)

    real_cli = env.cli_main
    env.cli_main = fake_cli
    env.goldens = dict(env.goldens, **{budget_op.id: dict(env.goldens[budget_op.id], exit=3)})
    p = run.run_pass(env, random.Random(1))
    attempted, failed, undecided, failures, budget_ops = run.tally(env, [p])
    assert attempted == workloads.CHECKS_PER_VARIANT
    assert (failed, undecided, budget_ops) == (0, 1, [budget_op.id]), failures

    # the same exit where the seed decided is a failed op
    env.goldens = dict(env.goldens, **{budget_op.id: dict(env.goldens[budget_op.id], exit=0)})
    _, failed, undecided, _, _ = run.tally(env, [p])
    assert (failed, undecided) == (1, 1)


def _kgraphck_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "kgraphck" or name.startswith("kgraphck.")):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_tracer_restores_every_wrapped_function():
    before = _kgraphck_bindings()
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == []
    import kgraphck.kgraph as kg
    import kgraphck.satiation as sat

    assert sat.segment is kg.segment and hasattr(kg.segment, "__wrapped__")
    tracer.uninstall()
    after = _kgraphck_bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_missing_target_is_reported_not_raised(monkeypatch):
    import tracer as tracer_mod

    monkeypatch.setattr(
        tracer_mod, "TARGETS", TARGETS + (("kgraph.gone", "kgraphck.kgraph", "no_such_function"),)
    )
    t = Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["kgraph.gone"]


def test_per_op_self_times_sum_within_traced_wall(env):
    tracer = Tracer()
    tracer.install()
    try:
        p = run.run_pass(env, random.Random(2), tracer)
    finally:
        tracer.uninstall()
    assert set(tracer.op_self) == {o.op.id for o in p.outcomes}
    for op_id, own in tracer.op_self.items():
        assert 0 <= own <= tracer.op_wall[op_id] + 1e-9
    assert sum(tracer.op_self.values()) <= p.wall
    metrics = layer_metrics(tracer)
    assert metrics["exhaustive.is_exhaustive.calls"][0] >= workloads.CHECKS_PER_VARIANT


# -- independent cross-check of the goldens ----------------------------------------------------


def _run_against_golden(op, tmp_path):
    paths = workloads.write_inputs_for_ops([op], DRAWS, str(tmp_path))
    cli_main = sys.modules["kgraphck.cli"].main
    e = run.Env(0, str(tmp_path), cli_main, GOLDENS["answers"], [[op]], paths)
    e.input_sha[op.id] = run.sha256_files(workloads.input_files(op, paths))
    outcome = run.run_op(e, op)
    assert run.judge(e, outcome) is None, op.id
    return outcome


# satiate ops on graphs whose universe the oracle closes in well under a second
SMALL_SATIATE = [
    (graph, f"p{variant}") for graph in workloads.SATIATE_SEEDED for variant in (0, 7, 13)
] + [(graph, slot) for graph, slots in workloads.SATIATE_FIXED[:2] for slot in slots]


@pytest.mark.parametrize("graph,slot", SMALL_SATIATE)
def test_satiate_goldens_agree_with_axiom_closure(graph, slot, tmp_path):
    import oracles
    from kgraphck.graphio import parse_families, parse_graph
    from kgraphck.kgraph import validate
    from kgraphck.satiation import FamilyCollection

    op = workloads.satiate_op(graph, slot)
    golden = GOLDENS["answers"][op.id]
    outcome = _run_against_golden(op, tmp_path)

    g = validate(parse_graph(str(tmp_path / f"{graph}.graph.json")))
    base = FamilyCollection(g, ())
    closure = oracles.AxiomClosure(base)
    gens = parse_families(g, {"families": DRAWS[op.gen]})
    expected = closure.members_of(closure.close(closure.mask_of(gens)))
    want = sorted(sorted(p.token() for p in f.members) for f in expected)
    results = json.loads(outcome.stdout)["results"]
    got = sorted(sorted(r["members"]) for r in results if r["name"].startswith("family@"))
    assert golden["exit"] == 0 and got == want


def _check_ops():
    ops = []
    for variant in range(workloads.POOL):
        ops.extend(
            workloads.check_op(variant, j, DRAWS) for j in range(workloads.CHECKS_PER_VARIANT)
        )
    return ops


@pytest.mark.parametrize("op", _check_ops()[::3], ids=lambda op: op.id)
def test_check_goldens_agree_with_brute_force(op, tmp_path):
    import oracles
    from kgraphck.alignment import PathFamily
    from kgraphck.degree import join_all
    from kgraphck.graphio import parse_graph, parse_path
    from kgraphck.kgraph import validate

    golden = GOLDENS["answers"][op.id]
    _run_against_golden(op, tmp_path)
    g = validate(parse_graph(str(tmp_path / f"{op.graph}.graph.json")))
    members = [parse_path(g, t) for t in DRAWS[op.id]["family"]]
    v = members[0].range
    E = PathFamily(g, v, members)
    if g.is_acyclic:
        window = g.paths_at(v)
    else:
        # source-free single vertex: the degree-N window decides (N = join of degrees)
        window = g.paths_up_to(v, join_all((p.degree for p in members), g.rank))
    expected = 0 if oracles.brute_is_exhaustive(E, window) else 1
    assert golden["exit"] == expected
