"""Span tracer that wraps public kgraphck functions from outside the package.

`Tracer.install()` replaces each target listed in TARGETS with a timing
wrapper, in every loaded `kgraphck` module that holds a reference to it (the
package imports names with `from .x import y`, so one function can sit in
several namespaces).  `Tracer.uninstall()` puts every original back.

Each call is a span with a name, a start, an end, a parent (the enclosing
wrapped call) and an op id (the benchmark op it runs under).  The self time
of a span is its duration minus the time its child spans cover.  Spans are
not kept one by one: satiate-branching makes about 2 million `segment`
calls per pass, so each span is folded into per-name and per-op totals when
it ends, with its children's covered time carried on a stack of open spans.
The arithmetic is the same as subtracting child spans after the run.

A target that no longer exists is listed in `missing` rather than raising,
so the traced run survives the library renaming or deleting a function.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (span name, module, attribute; "Class.method" for methods)
TARGETS = (
    ("graphio.parse_graph", "kgraphck.graphio", "parse_graph"),
    ("kgraph.validate", "kgraphck.kgraph", "validate"),
    ("kgraph.segment", "kgraphck.kgraph", "segment"),
    ("kgraph.compose", "kgraphck.kgraph", "compose"),
    ("kgraph.paths", "kgraphck.kgraph", "KGraph.paths"),
    ("alignment.mce", "kgraphck.alignment", "mce"),
    ("alignment.ext", "kgraphck.alignment", "ext"),
    ("alignment.pi_closure", "kgraphck.alignment", "pi_closure"),
    ("alignment.PathFamily", "kgraphck.alignment", "PathFamily.__init__"),
    ("exhaustive.is_exhaustive", "kgraphck.exhaustive", "is_exhaustive"),
    ("exhaustive.fe_enumerate", "kgraphck.exhaustive", "fe_enumerate"),
    ("satiation.universe", "kgraphck.satiation", "FamilyCollection.universe"),
    ("satiation.sigma1", "kgraphck.satiation", "sigma1"),
    ("satiation.sigma2", "kgraphck.satiation", "sigma2"),
    ("satiation.sigma3", "kgraphck.satiation", "sigma3"),
    ("satiation.sigma4", "kgraphck.satiation", "sigma4"),
    ("satiation.satiate", "kgraphck.satiation", "satiate"),
    ("satiation.is_satiated", "kgraphck.satiation", "is_satiated"),
    ("boundary.boundary_paths", "kgraphck.boundary", "boundary_paths"),
    ("boundary.condition_c", "kgraphck.boundary", "condition_c"),
    ("repn.boundary_rep", "kgraphck.repn", "boundary_rep"),
    ("repn.verify_family", "kgraphck.repn", "verify_family"),
    ("repn.matrix_unit_check", "kgraphck.repn", "matrix_unit_check"),
    ("repn.gap_product", "kgraphck.repn", "gap_product"),
    ("repn.faithful_on_core_check", "kgraphck.repn", "faithful_on_core_check"),
    ("repn.theta", "kgraphck.repn", "theta"),
    ("repn.shift_gaps_check", "kgraphck.repn", "shift_gaps_check"),
    ("repn.gauge_unitary_check", "kgraphck.repn", "gauge_unitary_check"),
    ("repn.sampled_gauge_average", "kgraphck.repn", "sampled_gauge_average"),
    ("formal.gauge_expectation", "kgraphck.formal", "gauge_expectation"),
    ("repn.check_uniqueness_hypotheses", "kgraphck.repn", "check_uniqueness_hypotheses"),
    ("repn.expectation_contraction_check", "kgraphck.repn", "expectation_contraction_check"),
    ("matrices.matmul", "kgraphck.matrices", "SparseMatrix.__matmul__"),
)

# The root span of every op: the benchmark's call into kgraphck.cli.main.
OP_SPAN = "cli.main"

_SIGMA_BUILDS = ("satiation.sigma3", "satiation.sigma4")


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + [t[0] for t in TARGETS]
        self.index = {n: i for i, n in enumerate(self.names)}
        size = len(self.names)
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.total_s = [0.0] * size
        self.active = [0] * size
        self.counters: dict[str, float] = {}
        self.op_self: dict[str, float] = {}
        self.op_wall: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [name index, time covered by children]
        self._op = None
        self._patches: list[tuple] = []

    # -- installing ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, module_name, attr in TARGETS:
            cls_name, _, meth = attr.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, cls_name) if cls_name else module
                original = owner.__dict__[meth]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if cls_name:
                setattr(owner, meth, wrapper)
                self._patches.append((owner, meth, original))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "kgraphck" or mod_name.startswith("kgraphck.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- spans -----------------------------------------------------------------------

    def _enter(self, idx: int) -> list:
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.active[idx] += 1
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        idx = frame[0]
        self.active[idx] -= 1
        dur = t1 - t0
        own = dur - frame[1]
        if stack:
            stack[-1][1] += dur
        self.calls[idx] += 1
        self.self_s[idx] += own
        self.total_s[idx] += dur
        if self._op is not None:
            self.op_self[self._op] = self.op_self.get(self._op, 0.0) + own

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        idx = self.index[name]
        post = _POST.get(name)
        enter, exit_, tracer = self._enter, self._exit, self

        def wrapper(*args, **kwargs):
            frame = enter(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(frame, t0, perf_counter())
                tracer._on_error(name, exc)
                raise
            exit_(frame, t0, perf_counter())
            if post is not None:
                post(tracer, result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _on_error(self, name: str, exc: BaseException) -> None:
        # A budget error leaving the outermost satiation span of an op.
        if not name.startswith("satiation."):
            return
        if any(self.names[f[0]].startswith("satiation.") for f in self._stack):
            return
        from kgraphck.errors import BUDGET_ERRORS

        if isinstance(exc, BUDGET_ERRORS):
            self._count("satiation.budget_errors")

    def run_op(self, op_id: str, fn, *args):
        """Call fn(*args) as the root span of op `op_id`."""
        self._op = op_id
        frame = self._enter(self.index[OP_SPAN])
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._exit(frame, t0, t1)
            self.op_wall[op_id] = self.op_wall.get(op_id, 0.0) + (t1 - t0)
            self._op = None

    # -- results ---------------------------------------------------------------------

    def stat(self, name: str, kind: str) -> float:
        idx = self.index[name]
        return {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s}[kind][idx]

    def self_time_ranking(self) -> list[tuple[str, float, int]]:
        rows = [
            (n, self.self_s[i], self.calls[i]) for i, n in enumerate(self.names) if self.calls[i]
        ]
        return sorted(rows, key=lambda r: -r[1])


# -- per-target counters ---------------------------------------------------------------


def _post_pi_closure(t: Tracer, result, args) -> None:
    t._count("alignment.pi_closure.grid_paths", len(result))


def _post_path_family(t: Tracer, result, args) -> None:
    for sigma in _SIGMA_BUILDS:
        if t.active[t.index[sigma]]:
            t._count(f"{sigma}.built")


def _post_is_exhaustive(t: Tracer, result, args) -> None:
    if t.active[t.index["exhaustive.fe_enumerate"]]:
        t._count("exhaustive.is_exhaustive.under_fe_enumerate")
    if getattr(getattr(result, "status", None), "value", None) == "unknown":
        t._count("exhaustive.unknown")


def _post_fe_enumerate(t: Tracer, result, args) -> None:
    t._count("exhaustive.fe_enumerate.families", len(result))
    if t.active[t.index["satiation.universe"]]:
        t._count("satiation.universe.families", len(result))


def _post_sigma(name: str):
    def post(t: Tracer, result, args) -> None:
        t._count(f"{name}.added", len(result) - len(args[0]))

    return post


def _post_sigma1(t: Tracer, result, args) -> None:
    # satiate applies sigma4.sigma3.sigma2.sigma1 once per round
    t._count("satiation.rounds")


def _post_boundary_paths(t: Tracer, result, args) -> None:
    t._count("boundary.paths_returned", len(result))


def _post_boundary_rep(t: Tracer, result, args) -> None:
    t._count("repn.dim", result.dim)


def _post_matmul(t: Tracer, result, args) -> None:
    t._count("matrices.matmul.nnz_out", len(result.data))


_POST = {
    "alignment.pi_closure": _post_pi_closure,
    "alignment.PathFamily": _post_path_family,
    "exhaustive.is_exhaustive": _post_is_exhaustive,
    "exhaustive.fe_enumerate": _post_fe_enumerate,
    "satiation.sigma1": _post_sigma1,
    "satiation.sigma3": _post_sigma("satiation.sigma3"),
    "satiation.sigma4": _post_sigma("satiation.sigma4"),
    "boundary.boundary_paths": _post_boundary_paths,
    "repn.boundary_rep": _post_boundary_rep,
    "matrices.matmul": _post_matmul,
}


# -- per-layer metrics -------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The span and counter metrics of BENCHMARK.json, as name -> (value, unit).

    Values are totals over every traced call; the trace.* metrics are added
    by the benchmark run.
    """
    c = t.counters.get
    s = t.stat
    out = {
        "graphio.load_s": (s("graphio.parse_graph", "total_s") + s("kgraph.validate", "total_s"), "s"),
        "kgraph.segment.calls": (s("kgraph.segment", "calls"), "count"),
        "kgraph.segment.self_s": (s("kgraph.segment", "self_s"), "s"),
        "kgraph.compose.calls": (s("kgraph.compose", "calls"), "count"),
        "kgraph.paths.calls": (s("kgraph.paths", "calls"), "count"),
        "kgraph.paths.self_s": (s("kgraph.paths", "self_s"), "s"),
        "alignment.mce.calls": (s("alignment.mce", "calls"), "count"),
        "alignment.mce.self_s": (s("alignment.mce", "self_s"), "s"),
        "alignment.ext.calls": (s("alignment.ext", "calls"), "count"),
        "alignment.ext.self_s": (s("alignment.ext", "self_s"), "s"),
        "alignment.pi_closure.calls": (s("alignment.pi_closure", "calls"), "count"),
        "alignment.pi_closure.self_s": (s("alignment.pi_closure", "self_s"), "s"),
        "alignment.pi_closure.grid_paths": (c("alignment.pi_closure.grid_paths", 0), "count"),
        "exhaustive.is_exhaustive.calls": (s("exhaustive.is_exhaustive", "calls"), "count"),
        "exhaustive.is_exhaustive.self_s": (s("exhaustive.is_exhaustive", "self_s"), "s"),
        "exhaustive.fe_enumerate.self_s": (s("exhaustive.fe_enumerate", "self_s"), "s"),
        "exhaustive.fe_enumerate.families": (c("exhaustive.fe_enumerate.families", 0), "count"),
        "exhaustive.hit_ratio": (
            _ratio(
                c("exhaustive.fe_enumerate.families", 0),
                c("exhaustive.is_exhaustive.under_fe_enumerate", 0),
            ),
            "ratio",
        ),
        "exhaustive.unknown": (c("exhaustive.unknown", 0), "count"),
        "satiation.universe.families": (c("satiation.universe.families", 0), "count"),
        "satiation.universe.self_s": (s("satiation.universe", "self_s"), "s"),
    }
    for i in range(1, 5):
        out[f"satiation.sigma{i}.self_s"] = (s(f"satiation.sigma{i}", "self_s"), "s")
    for sigma in _SIGMA_BUILDS:
        added = c(f"{sigma}.added", 0)
        out[f"{sigma}.added"] = (added, "count")
        out[f"{sigma}.useful_ratio"] = (_ratio(added, c(f"{sigma}.built", 0)), "ratio")
    out.update(
        {
            "satiation.rounds": (c("satiation.rounds", 0), "count"),
            "satiation.is_satiated.self_s": (s("satiation.is_satiated", "self_s"), "s"),
            "satiation.budget_errors": (c("satiation.budget_errors", 0), "count"),
            "boundary.boundary_paths.self_s": (s("boundary.boundary_paths", "self_s"), "s"),
            "boundary.paths_returned": (c("boundary.paths_returned", 0), "count"),
            "boundary.condition_c.self_s": (s("boundary.condition_c", "self_s"), "s"),
            "repn.boundary_rep.self_s": (s("repn.boundary_rep", "self_s"), "s"),
            "repn.dim": (c("repn.dim", 0), "count"),
            "repn.verify_family.self_s": (s("repn.verify_family", "self_s"), "s"),
            "repn.matrix_unit_check.self_s": (s("repn.matrix_unit_check", "self_s"), "s"),
            "repn.gap_product.calls": (s("repn.gap_product", "calls"), "count"),
            "repn.gap_product.self_s": (s("repn.gap_product", "self_s"), "s"),
            "repn.faithful_on_core_check.self_s": (s("repn.faithful_on_core_check", "self_s"), "s"),
            "repn.theta.calls": (s("repn.theta", "calls"), "count"),
            "repn.shift_gaps_check.self_s": (s("repn.shift_gaps_check", "self_s"), "s"),
            "repn.gauge.self_s": (
                s("repn.gauge_unitary_check", "self_s")
                + s("repn.sampled_gauge_average", "self_s")
                + s("formal.gauge_expectation", "self_s"),
                "s",
            ),
            "repn.contraction.self_s": (
                s("repn.check_uniqueness_hypotheses", "self_s")
                + s("repn.expectation_contraction_check", "self_s"),
                "s",
            ),
            "matrices.matmul.calls": (s("matrices.matmul", "calls"), "count"),
            "matrices.matmul.self_s": (s("matrices.matmul", "self_s"), "s"),
            "matrices.matmul.nnz_out": (c("matrices.matmul.nnz_out", 0), "count"),
            "cli.self_s": (s(OP_SPAN, "self_s"), "s"),
        }
    )
    return out
