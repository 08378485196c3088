"""The benchmark's graph ladder and the op list of each workload.

Graphs are generated in code from fixed seeds (`tests/oracles.py` and
`kgraphck.boundary.omega`) and written with `graphio.spec_to_dict`.  The
generator families and point queries the ops use were drawn once, from the
library's own universes, by `make_goldens.py`; they live in `goldens.json`
next to each op's golden answer, so the inputs do not depend on the code
under test.

A run's `--seed` selects one of `POOL` seeded variants (`seed % POOL`).  The
variant fixes the `verify --seed` value on omega(2,(3,2)), the `exhaustive
check` queries and a few cheap satiate draws.  The expensive ops use fixed draws, so that a
run's wall time does not depend on which expensive draw a seed picks.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

POOL = 16
WORKLOADS = ("satiate-branching", "verify-grid", "exhaustive-rank3")

# -- graph ladder -----------------------------------------------------------------------

# batch 7 of oracles.random_graphs: #0, #1, #3 small rank-2 products, #2 the
# 1072-family rank-2 product, #5 a rank-3 product
_BATCH7 = {"b7.0": 0, "b7.1": 1, "b7.2": 2, "b7.3": 3, "b7.5": 5}
_OMEGA = {
    "omega2-21": (2, (2, 1)),
    "omega2-22": (2, (2, 2)),
    "omega2-32": (2, (3, 2)),
    "omega3-111": (3, (1, 1, 1)),
    "omega3-211": (3, (2, 1, 1)),
}


def make_graph(name: str, cache: dict):
    """The KGraph named `name`; `cache` shares one oracle batch per call site."""
    import oracles
    from kgraphck.boundary import omega
    from kgraphck.degree import Degree
    from kgraphck.kgraph import validate

    if name in _BATCH7:
        if "batch7" not in cache:
            cache["batch7"] = oracles.random_graphs(7, 6)
        return cache["batch7"][_BATCH7[name]]
    if name in _OMEGA:
        k, m = _OMEGA[name]
        return omega(k, Degree(*m))
    kind, _, seed = name.partition("-s")
    if kind == "prod3":
        return validate(oracles.random_product_spec(random.Random(int(seed)), 3))
    if kind == "sv3":
        return validate(oracles.random_single_vertex_spec(random.Random(int(seed)), 3))
    raise KeyError(name)


def graph_text(graph) -> str:
    from kgraphck.graphio import spec_to_dict

    return json.dumps(spec_to_dict(graph.spec), indent=1, sort_keys=True) + "\n"


# -- ops -----------------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI call.  argv may hold {graph}, {gen} and {bundle} placeholders."""

    id: str
    graph: str
    argv: tuple[str, ...]
    gen: str | None = None  # draw key of the generator file
    bundle: str | None = None  # bundle file written by represent / read by verify
    writes_bundle: bool = False


# satiate-branching: (graph, fixed draw slots); omega2-32's "budget" slot is a
# draw that exits 3 on the sigma3 truncation budget at the seed commit
SATIATE_FIXED = (
    ("b7.0", ("f0", "f1", "f2")),
    ("omega3-111", ("f0", "f1", "f2")),
    ("omega2-22", ("f0", "f1")),
    ("b7.2", ("f0",)),
    ("omega2-32", ("decided", "budget")),
)
SATIATE_SEEDED = ("b7.1", "b7.3", "omega2-21")

# verify-grid: (graph, with generators, verify --seed from the variant).  On
# the small graphs the seeded stages are a large share of an op's time, so
# they keep --seed 0 and the median op does not depend on the run's seed.
VERIFY_INPUTS = (
    ("omega2-21", False, False),
    ("omega2-22", False, False),
    ("omega2-32", False, True),
    ("omega3-111", False, False),
    ("omega3-111", True, False),
    ("b7.0", True, False),
)

# exhaustive-rank3: (graph, vertex, --depth, --max-size); acyclic graphs use
# their top vertex and maximum degree with every candidate path allowed,
# single-vertex cyclic graphs a window and --max-size 3
ENUMERATE = (
    ("b7.5", "L0_0|L1_0|L2_0", "1,1,0", 14),
    ("prod3-s3", "L0_0|L1_0|L2_0", "1,2,0", 14),
    ("prod3-s0", "L0_0|L1_0|L2_0", "1,2,0", 11),
    ("omega3-211", "0,0,0", "2,1,1", 11),
    ("sv3-s0", "v", "2,1,1", 3),
    ("sv3-s1", "v", "1,2,1", 3),
    ("sv3-s3", "v", "2,1,1", 3),
    ("sv3-s4", "v", "2,2,1", 3),
    ("sv3-s6", "v", "2,1,1", 3),
    ("sv3-s7", "v", "2,2,1", 3),
)
CHECK_GRAPHS = ("b7.5", "prod3-s3", "prod3-s0", "omega3-211", "sv3-s0", "sv3-s4", "sv3-s7")
CHECKS_PER_VARIANT = 6


def satiate_op(graph: str, slot: str) -> Op:
    key = f"satiate/{graph}/{slot}"
    return Op(key, graph, ("satiate", "{graph}", "--generators", "{gen}", "--json"), gen=key)


def verify_group(graph: str, with_gen: bool, seed: int) -> list[Op]:
    name = f"{graph}+gen" if with_gen else graph
    gen = f"verify/{graph}/gen" if with_gen else None
    gen_args = ("--generators", "{gen}") if with_gen else ()
    bundle = f"{name}.bundle.json"
    seed_args = ("--seed", str(seed))
    return [
        Op(f"represent/{name}", graph, ("represent", "{graph}", *gen_args, "--out", "{bundle}"),
           gen=gen, bundle=bundle, writes_bundle=True),
        Op(f"verify-bundle/{name}/s{seed}", graph,
           ("verify", "{graph}", *gen_args, "--bundle", "{bundle}", "--json", *seed_args),
           gen=gen, bundle=bundle),
        Op(f"verify/{name}/s{seed}", graph,
           ("verify", "{graph}", *gen_args, "--json", *seed_args), gen=gen),
    ]


def enumerate_op(graph: str, vertex: str, depth: str, max_size: int) -> Op:
    return Op(
        f"enumerate/{graph}",
        graph,
        ("exhaustive", "enumerate", "{graph}", vertex, "--depth", depth,
         "--max-size", str(max_size), "--minimal", "--json"),
    )


def check_key(variant: int, j: int) -> str:
    return f"check/p{variant}/{j}"


def check_op(variant: int, j: int, draws: dict) -> Op:
    """`exhaustive check` of a drawn family; the draw names the graph."""
    key = check_key(variant, j)
    draw = draws[key]
    return Op(key, draw["graph"], ("exhaustive", "check", "{graph}", *draw["family"], "--json"))


def groups(workload: str, variant: int, draws: dict) -> list[list[Op]]:
    """The op list of one pass, as groups that must run in order internally."""
    if workload == "satiate-branching":
        out = [[satiate_op(g, slot)] for g, slots in SATIATE_FIXED for slot in slots]
        out += [[satiate_op(g, f"p{variant}")] for g in SATIATE_SEEDED]
        return out
    if workload == "verify-grid":
        return [
            verify_group(g, with_gen, variant if seeded else 0)
            for g, with_gen, seeded in VERIFY_INPUTS
        ]
    if workload == "exhaustive-rank3":
        out = [[enumerate_op(*row)] for row in ENUMERATE]
        out += [[check_op(variant, j, draws)] for j in range(CHECKS_PER_VARIANT)]
        return out
    raise KeyError(workload)


def all_ops(workload: str, variant: int, draws: dict) -> list[Op]:
    return [op for group in groups(workload, variant, draws) for op in group]


def draw_keys(workload: str, variant: int) -> list[str]:
    """Every draw a workload variant needs (checks name their own graph)."""
    if workload == "exhaustive-rank3":
        return [check_key(variant, j) for j in range(CHECKS_PER_VARIANT)]
    return sorted({op.gen for op in all_ops(workload, variant, {}) if op.gen})


# -- input files -----------------------------------------------------------------------------


def write_inputs(workload: str, variant: int, draws: dict, workdir: str) -> dict[str, str]:
    """Write every graph and generator file of the variant; returns name -> path."""
    return write_inputs_for_ops(all_ops(workload, variant, draws), draws, workdir)


def write_inputs_for_ops(ops, draws: dict, workdir: str) -> dict[str, str]:
    os.makedirs(workdir, exist_ok=True)
    cache: dict = {}
    paths: dict[str, str] = {}
    for name in sorted({op.graph for op in ops}):
        path = os.path.join(workdir, f"{name}.graph.json")
        with open(path, "w") as fh:
            fh.write(graph_text(make_graph(name, cache)))
        paths[name] = path
    for key in sorted({op.gen for op in ops if op.gen}):
        path = os.path.join(workdir, key.replace("/", "_") + ".gen.json")
        with open(path, "w") as fh:
            fh.write(json.dumps({"families": draws[key]}, indent=1, sort_keys=True) + "\n")
        paths[key] = path
    return paths


def resolve(op: Op, paths: dict[str, str], workdir: str) -> list[str]:
    values = {
        "{graph}": paths[op.graph],
        "{gen}": paths.get(op.gen or "", ""),
        "{bundle}": os.path.join(workdir, op.bundle or ""),
    }
    return [values.get(a, a) for a in op.argv]


def input_files(op: Op, paths: dict[str, str]) -> list[str]:
    """The files whose bytes an op's golden answer was recorded against."""
    files = [paths[op.graph]]
    if op.gen:
        files.append(paths[op.gen])
    return files
