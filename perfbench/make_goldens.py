"""Draw the benchmark's inputs and record the golden answer of every op.

    python3 perfbench/make_goldens.py

Writes perfbench/goldens.json: the drawn generator families and check
queries ("draws"), and per op the exit code, the sha256 of its answer (the
`results` array of the --json report, or the whole represent bundle) and the
sha256 of its input files ("answers").  The answers are the reference the
benchmark checks every later commit against, so regenerate them only when
the inputs change, from a commit whose answers are trusted.

Draw rules: satiate generators are 1-2 families sampled from the graph's
universe with `random.Random(<draw key>)`.  A draw that hits a budget is
redrawn, except for the "budget" slot, which is redrawn until it does hit
one, so the ladder keeps a case a later change may decide.  A draw whose
satiate call took longer than MAX_DRAW_SECONDS is redrawn too.  Check queries
alternate between a drawn minimal exhaustive family from the matching
`exhaustive enumerate` op (answer: exhaustive) and 1-3 random window paths.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

MAX_REDRAWS = 50
# keeps one pass of satiate-branching near 10 s on a 2-core machine
MAX_DRAW_SECONDS = 3.0


def tokens(fam) -> list[str]:
    return [p.token() for p in fam.sorted_members()]


def universe(name: str, cache: dict):
    from kgraphck.satiation import FamilyCollection

    key = ("universe", name)
    if key not in cache:
        graph = workloads.make_graph(name, cache)
        cache[key] = FamilyCollection(graph, ()).universe_all()
    return cache[key]


def run_one(cli_main, op: Op, draws: dict, workdir: str):
    """Run one op on freshly written inputs; returns (answer record, outcome)."""
    paths = workloads.write_inputs_for_ops([op], draws, workdir)
    env = run.Env(0, workdir, cli_main, {}, [], paths)
    outcome = run.run_op(env, op)
    if outcome.error is not None:
        raise RuntimeError(f"{op.id} raised {outcome.error}")
    rec = {
        "exit": outcome.exit,
        "digest": run.answer_digest(outcome),
        "inputs": run.sha256_files(workloads.input_files(op, paths)),
    }
    return rec, outcome


def draw_generators(cli_main, key: str, graph: str, cache: dict, workdir: str, want_budget: bool):
    rng = random.Random(key)
    U = universe(graph, cache)
    for _ in range(MAX_REDRAWS):
        fams = rng.sample(U, rng.randint(1, 2))
        draw = {key: [tokens(f) for f in fams]}
        if not key.startswith("satiate/"):
            return draw[key]
        rec, outcome = run_one(cli_main, workloads.satiate_op(graph, key.rsplit("/", 1)[1]), draw, workdir)
        if (rec["exit"] == 3) == want_budget and outcome.seconds <= MAX_DRAW_SECONDS:
            return draw[key]
    raise RuntimeError(f"no acceptable draw for {key}")


def draw_check(key: str, enumerated: dict, cache: dict) -> dict:
    rng = random.Random(key)
    graph, vertex, depth, _ = rng.choice(
        [row for row in workloads.ENUMERATE if row[0] in workloads.CHECK_GRAPHS]
    )
    from kgraphck.degree import Degree

    g = workloads.make_graph(graph, cache)
    window = [p.token() for p in g.paths_up_to(vertex, Degree(*map(int, depth.split(","))))
              if not p.is_vertex()]
    if int(key.rsplit("/", 1)[1]) % 2 == 0:
        family = list(rng.choice(enumerated[graph]))
    else:
        family = sorted(rng.sample(window, rng.randint(1, 3)))
    return {"graph": graph, "family": family}


def main() -> int:
    cli_main = run.import_program()
    workdir = os.path.join(HERE, ".work", "goldens")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cache: dict = {}
    draws: dict = {}
    answers: dict = {}

    def record(op: Op):
        if op.id not in answers:
            answers[op.id], outcome = run_one(cli_main, op, draws, workdir)
            print(f"{op.id}: exit {outcome.exit} in {outcome.seconds:.3f} s", flush=True)
            return outcome
        return None

    # satiate and verify generators
    for variant in range(workloads.POOL):
        for wl in ("satiate-branching", "verify-grid"):
            for key in workloads.draw_keys(wl, variant):
                if key not in draws:
                    graph = key.split("/")[1]
                    draws[key] = draw_generators(
                        cli_main, key, graph, cache, workdir, key.endswith("/budget")
                    )

    # enumerate answers first: the check queries draw from their families
    enumerated = {}
    for row in workloads.ENUMERATE:
        outcome = record(workloads.enumerate_op(*row))
        enumerated[row[0]] = json.loads(outcome.stdout)["results"][0]["families"]
    for variant in range(workloads.POOL):
        for key in workloads.draw_keys("exhaustive-rank3", variant):
            draws[key] = draw_check(key, enumerated, cache)

    for variant in range(workloads.POOL):
        for wl in workloads.WORKLOADS:
            for group in workloads.groups(wl, variant, draws):
                for op in group:
                    if op.writes_bundle or op.bundle is None:
                        record(op)
                    else:
                        # verify --bundle needs this group's represent output
                        rep = group[0]
                        run_one(cli_main, rep, draws, workdir)
                        record(op)

    with open(run.GOLDENS, "w") as fh:
        json.dump({"pool": workloads.POOL, "draws": draws, "answers": answers}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
