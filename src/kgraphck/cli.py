"""Command-line frontend: batch runs over graph files with JSON reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 parse or
precondition error or a broken internal invariant, 3 budget exhausted.
Reports are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .degree import Degree
from .errors import BUDGET_ERRORS, KGraphError, ParseError, PreconditionFailed
from .kgraph import KGraph, Path, validate
from .alignment import PathFamily, ext, family, mce, pi_closure
from .exhaustive import Status, fe_enumerate, is_exhaustive, minimal_exhaustive
from .satiation import FamilyCollection, is_satiated, satiate
from .boundary import (
    boundary_paths,
    condition_c,
    construct_boundary,
    is_aperiodic_path,
)
from .formal import FormalElement, gauge_expectation
from .graphio import _require, parse_families, parse_graph, parse_path, read_json
from .matrices import SparseMatrix
from .repn import (
    CKFamily,
    boundary_rep,
    check_uniqueness_hypotheses,
    evaluate,
    expectation_contraction_check,
    faithful_on_core_check,
    gauge_grid,
    gauge_unitary_check,
    matrix_unit_check,
    sampled_gauge_average,
    shift_gaps_check,
    verify_family,
)


def _parse_degree(text: str, rank: int) -> Degree:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError(f"degree {text!r} is not a list of integers") from None
    if len(parts) != rank:
        raise ParseError(f"degree {text!r} has {len(parts)} coordinates, rank is {rank}")
    try:
        return Degree(*parts)
    except ValueError as exc:
        raise ParseError(f"degree {text!r}: {exc}") from None


def _load_graph(path: str) -> KGraph:
    return validate(parse_graph(path))


def _load_collection(graph: KGraph, args, depth=None, max_size=None) -> FamilyCollection:
    depth = _parse_degree(depth, graph.rank) if depth else None
    members = []
    if args.generators:
        members = parse_families(graph, read_json(args.generators))
    base = FamilyCollection(graph, (), depth=depth, max_family_size=max_size, budget=args.budget)
    try:
        return base.with_members(members)
    except ValueError as exc:
        raise ParseError(f"generators {args.generators!r}: {exc}") from None


class Report:
    def __init__(self, command: str, config: dict, seed: int | None = None):
        self.command = command
        self.config = config
        self.seed = seed
        self.results: list[dict] = []

    def add(self, name: str, ok: bool | None, **extra) -> None:
        status = "info" if ok is None else ("pass" if ok else "fail")
        entry = {"name": name, "status": status}
        entry.update({k: v for k, v in extra.items() if v is not None})
        self.results.append(entry)

    @property
    def failed(self) -> bool:
        return any(r["status"] == "fail" for r in self.results)

    def emit(self, as_json: bool) -> None:
        if as_json:
            doc = {
                "command": self.command,
                "config": self.config,
                "results": self.results,
                "seed": self.seed,
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for r in self.results:
                extras = " ".join(
                    f"{k}={v}" for k, v in sorted(r.items()) if k not in ("name", "status")
                )
                print(f"[{r['status']}] {r['name']}" + (f" {extras}" if extras else ""))


def _family_tokens(fam: PathFamily) -> list[str]:
    return [p.token() for p in fam]


def _random_element(
    rng: random.Random, paths: Sequence[Path], terms: int, bound: int
) -> FormalElement:
    """A sum of `terms` drawn t_lam t_mu* with s(lam) = s(mu), each with an
    integer coefficient in [-bound, bound]."""
    out = {}
    for _ in range(terms):
        lam = rng.choice(paths)
        mu = rng.choice([p for p in paths if p.source == lam.source])
        out[(lam, mu)] = out.get((lam, mu), 0) + Fraction(rng.randint(-bound, bound))
    return FormalElement(out)


# -- subcommand handlers ------------------------------------------------------------


def cmd_validate(args) -> int:
    graph = _load_graph(args.graph)
    report = Report("validate", {"graph": args.graph}, seed=args.seed)
    report.add(
        "validate",
        True,
        vertices=len(graph.vertices),
        edges=len(graph.edges),
        acyclic=graph.is_acyclic,
    )
    report.emit(args.json)
    return 0


def cmd_paths(args) -> int:
    graph = _load_graph(args.graph)
    if (args.degree is None) == (args.depth is None):
        raise PreconditionFailed("give exactly one of --degree or --depth")
    if args.degree:
        out = graph.paths(args.vertex, _parse_degree(args.degree, graph.rank))
    else:
        out = graph.paths_up_to(args.vertex, _parse_degree(args.depth, graph.rank))
    report = Report("paths", {"graph": args.graph, "vertex": args.vertex}, seed=args.seed)
    report.add("paths", None, count=len(out), paths=[p.token() for p in out])
    if args.json:
        report.emit(True)
    else:
        for p in out:
            print(p.token())
    return 0


def cmd_mce(args) -> int:
    graph = _load_graph(args.graph)
    mu = parse_path(graph, args.mu)
    nu = parse_path(graph, args.nu)
    out = mce(mu, nu)
    report = Report("mce", {"graph": args.graph, "mu": args.mu, "nu": args.nu}, seed=args.seed)
    report.add("mce", None, count=len(out), paths=[p.token() for p in out])
    report.emit(args.json)
    return 0


def cmd_ext(args) -> int:
    graph = _load_graph(args.graph)
    mu = parse_path(graph, args.mu)
    members = [parse_path(graph, tok) for tok in args.family]
    out = ext(mu, family(graph, members, vertex=mu.range))
    report = Report("ext", {"graph": args.graph, "mu": args.mu, "family": args.family}, seed=args.seed)
    report.add("ext", None, count=len(out), paths=[p.token() for p in out])
    report.emit(args.json)
    return 0


def cmd_pi_closure(args) -> int:
    graph = _load_graph(args.graph)
    members = [parse_path(graph, tok) for tok in args.family]
    out = pi_closure(members, budget=args.budget)
    report = Report("pi-closure", {"graph": args.graph, "family": args.family}, seed=args.seed)
    report.add("pi-closure", None, count=len(out), paths=[p.token() for p in out])
    report.emit(args.json)
    return 0


def cmd_exhaustive_check(args) -> int:
    graph = _load_graph(args.graph)
    members = [parse_path(graph, tok) for tok in args.family]
    vertex = args.vertex or (members[0].range if members else None)
    if vertex is None:
        raise PreconditionFailed("empty family needs --vertex")
    fam = PathFamily(graph, vertex, members)
    depth = _parse_degree(args.depth, graph.rank) if args.depth else None
    verdict = is_exhaustive(fam, depth)
    report = Report("exhaustive-check", {"graph": args.graph, "family": args.family}, seed=args.seed)
    report.add(
        "exhaustive",
        verdict.status is not Status.NOT_EXHAUSTIVE,
        verdict=verdict.status.value,
        witness=verdict.witness.token() if verdict.witness else None,
    )
    report.emit(args.json)
    return 0 if verdict.status is Status.EXHAUSTIVE else 1


def cmd_exhaustive_enumerate(args) -> int:
    graph = _load_graph(args.graph)
    depth = _parse_degree(args.depth, graph.rank)
    fn = minimal_exhaustive if args.minimal else fe_enumerate
    fams = fn(graph, args.vertex, depth, args.max_size, budget=args.budget)
    report = Report(
        "exhaustive-enumerate",
        {"graph": args.graph, "vertex": args.vertex, "max_size": args.max_size},
        seed=args.seed,
    )
    report.add(
        "enumerate", None, count=len(fams), families=[_family_tokens(f) for f in fams]
    )
    report.emit(args.json)
    return 0


def cmd_satiate(args) -> int:
    graph = _load_graph(args.graph)
    # satiate alone takes a window or a size cap; other commands need the exact universe
    S = satiate(_load_collection(graph, args, args.depth, args.max_size))
    ok, violations = is_satiated(S)
    report = Report("satiate", {"graph": args.graph, "generators": args.generators}, seed=args.seed)
    report.add("satiate", ok, count=len(S), exact=S.exact)
    for fam in S:
        report.add(f"family@{fam.vertex}", None, members=_family_tokens(fam))
    report.emit(args.json)
    return 0 if ok else 1


def cmd_boundary_list(args) -> int:
    graph = _load_graph(args.graph)
    S = satiate(_load_collection(graph, args))
    vertices = [args.vertex] if args.vertex else list(graph.vertices)
    report = Report("boundary-list", {"graph": args.graph, "vertex": args.vertex}, seed=args.seed)
    for v in vertices:
        bps = boundary_paths(v, S)
        report.add(f"boundary@{v}", None, paths=[bp.path.token() for bp in bps])
    report.emit(args.json)
    return 0


def cmd_boundary_construct(args) -> int:
    graph = _load_graph(args.graph)
    S = satiate(_load_collection(graph, args))
    avoid = None
    if args.avoid:
        members = [parse_path(graph, tok) for tok in args.avoid]
        avoid = PathFamily(graph, members[0].range, members)
    bp = construct_boundary(args.vertex, S, avoid=avoid)
    report = Report("boundary-construct", {"graph": args.graph, "vertex": args.vertex}, seed=args.seed)
    report.add("construct", True, path=bp.path.token())
    report.emit(args.json)
    return 0


def cmd_boundary_aperiodic(args) -> int:
    graph = _load_graph(args.graph)
    x = parse_path(graph, args.path)
    ok = is_aperiodic_path(x)
    report = Report("boundary-aperiodic", {"graph": args.graph, "path": args.path}, seed=args.seed)
    report.add("aperiodic", ok)
    report.emit(args.json)
    return 0 if ok else 1


def cmd_boundary_condition_c(args) -> int:
    graph = _load_graph(args.graph)
    S = satiate(_load_collection(graph, args))
    rep = condition_c(S)
    report = Report("boundary-condition-c", {"graph": args.graph}, seed=args.seed)
    report.add("condition-c", rep.ok)
    for v, x in sorted(rep.vertex_witnesses.items()):
        report.add(f"witness@{v}", None, path=x.token())
    for v, fam in rep.failures:
        report.add(
            "failure",
            False,
            vertex=v,
            family=_family_tokens(fam) if fam is not None else None,
        )
    report.emit(args.json)
    return 0 if rep.ok else 1


def _bundle_of(T: CKFamily) -> dict:
    ops = {}
    for lam, mat in T.ops.items():
        ops[lam.token()] = sorted(
            [int(i), int(j), str(Fraction(v))] for (i, j), v in mat.data.items()
        )
    return {
        "dimension": T.dim,
        "basis": [x.token() for x in T.basis] if T.basis else None,
        "operators": {k: ops[k] for k in sorted(ops)},
    }


def _bundle_load(graph: KGraph, doc) -> CKFamily:
    _require(isinstance(doc, dict), "bundle must be a JSON object")
    dim = doc.get("dimension")
    _require(type(dim) is int and dim >= 0, "bundle dimension must be an integer >= 0")
    _require(isinstance(doc.get("operators"), dict), "bundle operators must map path tokens to rows")
    ops = {}
    for token, rows in doc["operators"].items():
        lam = parse_path(graph, token)
        _require(isinstance(rows, list), f"rows of {token!r} must be a list")
        data = {}
        for row in rows:
            _require(
                isinstance(row, list)
                and len(row) == 3
                and all(type(x) is int and 0 <= x < dim for x in row[:2]),
                f"row {row!r} of {token!r} must be [i, j, rational] with 0 <= i, j < {dim}",
            )
            _require(
                (row[0], row[1]) not in data,
                f"entry ({row[0]}, {row[1]}) of {token!r} is given twice",
            )
            not_rational = f"entry {row[2]!r} of {token!r} is not a rational"
            _require(not isinstance(row[2], bool), not_rational)
            try:
                data[(row[0], row[1])] = Fraction(row[2])
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ParseError(not_rational) from None
        ops[lam] = SparseMatrix(dim, dim, data)
    basis = doc.get("basis")
    _require(
        basis is None
        or (isinstance(basis, list) and len(basis) == dim and all(isinstance(t, str) for t in basis)),
        f"bundle basis must be null or a list of {dim} path tokens",
    )
    basis = tuple(parse_path(graph, t) for t in basis) if basis else None
    return CKFamily(graph, dim, ops, basis=basis)


def cmd_represent(args) -> int:
    graph = _load_graph(args.graph)
    S = satiate(_load_collection(graph, args))
    T = boundary_rep(graph, S)
    doc = _bundle_of(T)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    # the gauge stage imports numpy; without it, stop before any stage runs
    if importlib.util.find_spec("numpy") is None:
        raise PreconditionFailed("verify needs numpy")
    graph = _load_graph(args.graph)
    S = satiate(_load_collection(graph, args))

    if args.bundle:
        T = _bundle_load(graph, read_json(args.bundle))
    else:
        T = boundary_rep(graph, S, verify=False)
    if args.backend == "float":
        T = T.to_complex()
    tol = 0.0 if args.backend == "exact" else 1e-12

    report = Report(
        "verify",
        {
            "graph": args.graph,
            "generators": args.generators,
            "backend": args.backend,
            "windows": args.windows,
        },
        seed=args.seed,
    )

    all_paths = graph.all_paths()

    for r in verify_family(T, S).results:
        report.add(r.name, r.deviation <= tol, deviation=r.deviation, detail=r.detail or None)

    # one generator per seeded step, so a step's draws do not depend on the
    # steps before it
    rng = random.Random(f"{args.seed}:matrix-units")
    for i in range(args.windows):
        size = rng.randint(1, 3)
        window = tuple(rng.sample(all_paths, min(size, len(all_paths))))
        mu_rep = matrix_unit_check(T, pi_closure(window))
        report.add(
            f"matrix-units[{i}]",
            mu_rep.max_deviation() <= tol,
            grid=mu_rep.pairs,
            deviation=mu_rep.max_deviation(),
        )

    report.add("gap-products-iff-membership", T.gap_vanishing(S).iff_membership)

    verdict = faithful_on_core_check(T, S)
    report.add(
        "faithful-on-core",
        verdict.faithful and verdict.routes_agree,
        route_a=verdict.route_a_ok,
        route_b=verdict.route_b_ok,
    )

    worst = 0.0
    rng = random.Random(f"{args.seed}:shift-gaps")
    for _ in range(50):
        mu = rng.choice(all_paths)
        pool = [p for p in all_paths if p.range == mu.range and not p.is_vertex()]
        E = rng.sample(pool, min(len(pool), rng.randint(0, 3)))
        worst = max(worst, shift_gaps_check(T, E, mu))
    report.add("shift-gaps", worst <= tol, deviation=worst)

    if T.basis is None:
        report.add("gauge", None, detail="bundle has no basis labels")
    else:
        import numpy as np

        zs = gauge_grid(graph)
        dev = gauge_unitary_check(T, zs)
        worst = 0.0
        rng = random.Random(f"{args.seed}:gauge")
        for _ in range(5):
            a = _random_element(rng, all_paths, 4, 2)
            avg = sampled_gauge_average(T, a, zs)
            exact = evaluate(gauge_expectation(a), T).to_dense()
            worst = max(worst, float(np.abs(avg - exact).max()))
        report.add("gauge-unitaries", dev <= 1e-12, deviation=dev)
        report.add("gauge-expectation-vs-average", worst <= 1e-9, deviation=worst)

    hyp = check_uniqueness_hypotheses(T, S)
    if not hyp.all_ok:
        report.add("expectation-contraction", None, detail="hypotheses not met")
    else:
        ok = True
        rng = random.Random(f"{args.seed}:contraction")
        for _ in range(10):
            lhs, rhs = expectation_contraction_check(T, _random_element(rng, all_paths, 5, 3), hyp)
            ok = ok and lhs <= rhs + 1e-9
        report.add("expectation-contraction", ok)

    # condition (C) listed every vertex's boundary; boundary_paths raises on an empty one
    report.add("boundary-existence", True)

    report.emit(args.json)
    return 1 if report.failed else 0


# -- parser ------------------------------------------------------------------------


def _require_naturals(args) -> None:
    """A negative budget, size cap or window count is a usage error."""
    for name in ("budget", "max_size", "windows"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise PreconditionFailed(f"--{name.replace('_', '-')} must be at least 0, got {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgraphck",
        description="Path combinatorics and Cuntz-Krieger family checks on k-graph files",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("graph", help="graph JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if budget:
            p.add_argument("--budget", type=int, default=200_000)
        p.add_argument("--seed", type=int, default=0)
        return p

    def collection(p):
        p.add_argument("--generators")
        return p

    common(sub.add_parser("validate"), budget=False).set_defaults(fn=cmd_validate)

    p = common(sub.add_parser("paths"), budget=False)
    p.add_argument("vertex")
    p.add_argument("--degree")
    p.add_argument("--depth")
    p.set_defaults(fn=cmd_paths)

    p = common(sub.add_parser("mce"), budget=False)
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(fn=cmd_mce)

    p = common(sub.add_parser("ext"), budget=False)
    p.add_argument("mu")
    p.add_argument("family", nargs="+")
    p.set_defaults(fn=cmd_ext)

    p = common(sub.add_parser("pi-closure"))
    p.add_argument("family", nargs="+")
    p.set_defaults(fn=cmd_pi_closure)

    p = sub.add_parser("exhaustive")
    esub = p.add_subparsers(dest="subcommand", required=True)
    pc = common(esub.add_parser("check"), budget=False)
    pc.add_argument("family", nargs="*")
    pc.add_argument("--vertex")
    pc.add_argument("--depth")
    pc.set_defaults(fn=cmd_exhaustive_check)
    pe = common(esub.add_parser("enumerate"))
    pe.add_argument("vertex")
    pe.add_argument("--depth", required=True)
    pe.add_argument("--max-size", type=int, default=4)
    pe.add_argument("--minimal", action="store_true")
    pe.set_defaults(fn=cmd_exhaustive_enumerate)

    p = collection(common(sub.add_parser("satiate")))
    p.add_argument("--depth")
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(fn=cmd_satiate)

    p = sub.add_parser("boundary")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    pl = collection(common(bsub.add_parser("list")))
    pl.add_argument("--vertex")
    pl.set_defaults(fn=cmd_boundary_list)
    pb = collection(common(bsub.add_parser("construct")))
    pb.add_argument("vertex")
    pb.add_argument("--avoid", nargs="+")
    pb.set_defaults(fn=cmd_boundary_construct)
    pa = common(bsub.add_parser("aperiodic"), budget=False)
    pa.add_argument("path")
    pa.set_defaults(fn=cmd_boundary_aperiodic)
    pcc = collection(common(bsub.add_parser("condition-c")))
    pcc.set_defaults(fn=cmd_boundary_condition_c)

    p = collection(common(sub.add_parser("represent")))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_represent)

    p = collection(common(sub.add_parser("verify")))
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.add_argument("--windows", type=int, default=5)
    p.add_argument("--bundle")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_naturals(args)
        return args.fn(args)
    except BUDGET_ERRORS as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except KGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
