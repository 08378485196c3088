"""Seeded closed-loop benchmark of the kgraphck CLI.

    python3 perfbench/run.py --workload satiate-branching --seed 1 --seconds 40 --trace 0

One client runs the workload's ops serially in this process: each op is a
call to `kgraphck.cli.main(argv)` on graph and generator files generated
under `perfbench/.work/`.  A pass runs the whole op list once; passes repeat
until the next one would overrun `--seconds`.  Every answer is checked
against `goldens.json`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
pass, then traced passes with every public layer function wrapped (see
tracer.py), and prints the per-layer metrics per traced pass.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_REPEATS = 9
# latency percentile reported beside the median: the highest one that keeps
# at least ten samples above it in every workload's run (see README.md)
TAIL_PERCENTILE = 80
HASH_SEED = "0"

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


# -- set-up ------------------------------------------------------------------------------


def import_program():
    """Import kgraphck and the oracles afresh from this checkout's src/ and tests/."""
    for name in list(sys.modules):
        if name == "kgraphck" or name.startswith("kgraphck.") or name == "oracles":
            del sys.modules[name]
    for sub in ("tests", "src"):
        path = os.path.join(ROOT, sub)
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import importlib

    cli = importlib.import_module("kgraphck.cli")
    oracles = importlib.import_module("oracles")
    for module, sub in ((cli, "src"), (oracles, "tests")):
        if not os.path.abspath(module.__file__).startswith(os.path.join(ROOT, sub) + os.sep):
            raise ImportError(f"{module.__name__} was imported from outside {sub}/")
    return cli.main


def sha256_files(files) -> str:
    h = hashlib.sha256()
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass
class Env:
    variant: int
    workdir: str
    cli_main: object
    goldens: dict
    groups: list
    paths: dict
    input_sha: dict = field(default_factory=dict)


def setup(workload: str, seed: int, workdir: str) -> Env:
    """Imports, the generated input files and the golden answers."""
    cli_main = import_program()
    with open(GOLDENS) as fh:
        goldens = json.load(fh)
    variant = seed % workloads.POOL
    draws = goldens["draws"]
    paths = workloads.write_inputs(workload, variant, draws, workdir)
    groups = workloads.groups(workload, variant, draws)
    env = Env(variant, workdir, cli_main, goldens["answers"], groups, paths)
    for group in groups:
        for op in group:
            env.input_sha[op.id] = sha256_files(workloads.input_files(op, paths))
    return env


# -- ops ---------------------------------------------------------------------------------


@dataclass
class Outcome:
    op: object
    exit: int | None
    seconds: float
    stdout: str
    bundle: str | None = None
    error: str | None = None


def call_cli(cli_main, argv: list[str]):
    """Run one CLI call in process; returns (exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the op failed; the run carries on
            error = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


def run_op(env: Env, op, tracer: Tracer | None = None) -> Outcome:
    argv = workloads.resolve(op, env.paths, env.workdir)
    t0 = time.perf_counter()
    if tracer is None:
        code, stdout, error = call_cli(env.cli_main, argv)
    else:
        code, stdout, error = tracer.run_op(op.id, call_cli, env.cli_main, argv)
    dt = time.perf_counter() - t0
    bundle = None
    if op.writes_bundle and code == 0:
        with open(os.path.join(env.workdir, op.bundle)) as fh:
            bundle = fh.read()
    return Outcome(op, code, dt, stdout, bundle, error)


def answer_digest(outcome: Outcome) -> str | None:
    """sha256 of the results array (or the whole bundle), never the config echo."""
    try:
        if outcome.op.writes_bundle:
            doc = json.loads(outcome.bundle) if outcome.bundle is not None else None
        else:
            doc = json.loads(outcome.stdout)["results"] if outcome.stdout else None
    except (ValueError, KeyError, TypeError):
        return None
    if doc is None:
        return None
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def judge(env: Env, outcome: Outcome) -> str | None:
    """None when the answer is right, else why it is wrong."""
    op = outcome.op
    golden = env.goldens.get(op.id)
    if golden is None:
        return "no golden answer recorded"
    if env.input_sha[op.id] != golden["inputs"]:
        return "input files differ from the ones the golden was recorded on"
    if outcome.error is not None:
        return f"raised {outcome.error}"
    if outcome.exit == golden["exit"] and (
        outcome.exit == 3 or answer_digest(outcome) == golden["digest"]
    ):
        return None
    if golden["exit"] == 3 and outcome.exit in (0, 1):
        # undecided at the seed; a decision counts only if the report's own
        # checks (satiate's is_satiated) pass
        try:
            results = json.loads(outcome.stdout)["results"] if not op.writes_bundle else []
        except (ValueError, KeyError, TypeError):
            return "decided, but the report is not valid JSON"
        if outcome.exit == 0 and all(r.get("status") != "fail" for r in results):
            return None
        return "decided where the seed hit the budget, but the report's own check fails"
    return f"exit {outcome.exit} (golden {golden['exit']}), answer digest differs or missing"


# -- passes ------------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float
    outcomes: list


def run_pass(env: Env, rng: random.Random, tracer: Tracer | None = None) -> Pass:
    order = list(env.groups)
    rng.shuffle(order)
    gc.collect()
    outcomes = []
    t0 = time.perf_counter()
    for group in order:
        for op in group:
            outcomes.append(run_op(env, op, tracer))
    return Pass(time.perf_counter() - t0, outcomes)


def run_passes(env: Env, rng, seconds: float, tracer: Tracer | None = None, start=None) -> list[Pass]:
    """Passes until the next one would end after `seconds`; at least one."""
    start = time.perf_counter() if start is None else start
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(env, rng, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > seconds:
            return passes


# -- reporting ---------------------------------------------------------------------------


def tally(env: Env, passes: list[Pass]):
    attempted = failed = undecided = 0
    failures: dict[str, str] = {}
    budget_ops: set[str] = set()
    for p in passes:
        for o in p.outcomes:
            attempted += 1
            if o.exit == 3:
                undecided += 1
                budget_ops.add(o.op.id)
            why = judge(env, o)
            if why is not None:
                failed += 1
                failures.setdefault(o.op.id, why)
    return attempted, failed, undecided, failures, sorted(budget_ops)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_outcomes(budget_ops: list, failures: dict) -> None:
    for op_id in budget_ops:
        print(f"    budget exit: {op_id}")
    for op_id, why in sorted(failures.items()):
        print(f"    FAILED {op_id}: {why}")


def print_result(attempted: int, failed: int, metrics: dict) -> None:
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc, sort_keys=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            env = setup(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        rng = random.Random(args.seed)
        ops_per_pass = sum(len(g) for g in env.groups)
        print(f"workload {args.workload} seed {args.seed} variant {env.variant}: "
              f"{ops_per_pass} ops per pass, one client, closed loop")
        if args.trace:
            return traced_run(env, rng, args.seconds)
        passes = run_passes(env, rng, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, undecided, failures, budget_ops = tally(env, passes)
    latencies = [o.seconds for p in passes for o in p.outcomes]
    walls = [p.wall for p in passes]
    tail = TAIL_PERCENTILE / 100
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        f"latency_p{TAIL_PERCENTILE}_s": (
            statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
            "s",
        ),
        "decided_ratio": ((attempted - undecided) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    n = len(latencies)
    print(f"passes {len(passes)}, pass walls {[round(w, 3) for w in walls]}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name.startswith("latency_"):
            q = 0.5 if name == "latency_p50_s" else tail
            note = f"  (n={n}, {n - int(q * n)} samples above)"
        elif name == "wall_s":
            note = f"  (median of {len(walls)} passes)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} set-ups)"
        print(f"  {name:<16} {value:.6g} {unit}{note}")
    print(f"  failed_ratio     {failed}/{attempted} wrong or raised; "
          f"{undecided}/{attempted} exited 3 on a budget")
    print_outcomes(budget_ops, failures)
    print_result(attempted, failed, metrics)
    return 0


def traced_run(env: Env, rng, seconds: float) -> int:
    start = time.perf_counter()
    baseline = run_pass(env, rng)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(env, rng, seconds, tracer, start=start)
    finally:
        tracer.uninstall()
    passes = [baseline] + traced
    attempted, failed, _, failures, budget_ops = tally(env, passes)
    k = len(traced)
    metrics = {name: (value / k if unit != "ratio" else value, unit)
               for name, (value, unit) in layer_metrics(tracer).items()}
    traced_wall = statistics.median(p.wall for p in traced)
    overhead = traced_wall / baseline.wall
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.missing_targets"] = (len(tracer.missing), "count")

    print(f"untraced pass {baseline.wall:.3f} s; {k} traced passes "
          f"{[round(p.wall, 3) for p in traced]}; overhead x{overhead:.2f}")
    if tracer.missing:
        print(f"  missing wrap targets: {', '.join(tracer.missing)}")
    print("  self time per traced pass, by span:")
    for name, own, calls in tracer.self_time_ranking():
        print(f"    {name:<36} {own / k:9.4f} s  {calls / k:12.0f} calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print_outcomes(budget_ops, failures)
    print_result(attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set and frozenset iteration order follows the string hash seed, and
        # so does how soon satiation reaches a family that exhausts a budget
        # (0.2 s to 40 s for one op); one fixed seed keeps op costs repeatable
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.exit(main())
