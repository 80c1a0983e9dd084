"""Span tracing of edmp's layers, installed from outside the package.

Each traced function of a layer (a module of `edmp`) is replaced by a
wrapper that records a span: its id, the id of the enclosing span, the
function's name, start and end.  The wrapper is installed under every name
that refers to the function in any `edmp` module, so calls through
`edmp.model.sym_eig` or `edmp.oracle.sym_eig` are traced as well as those
through `edmp.linalg.sym_eig`.  Spans stay in memory until `Recorder.write`;
self time is derived from them afterwards, as a span's duration minus the
durations of its direct children.  No file under `src/` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
import types
from array import array
from pathlib import Path

# Traced functions per layer: those that other layers call and those the
# metrics name.  A helper called only inside its own layer is left out, so
# its time counts as self time of its caller.  A name its module no longer
# has is skipped, and the metrics that name it read 0.
LAYERS = {
    "linalg": ("sym_eig", "pinv", "rank_of", "nullspace_basis", "min_eigenvalue"),
    "model": ("centroid_gram", "is_edm_array", "is_edm", "profile", "bdag_identity",
              "bprime_dag_identity", "cm_dag_block"),
    "yielding": ("parallel_relation", "theta_bounds", "theta_c", "yielding_report"),
    "perturbation": ("classify", "t_leq", "t_eq", "radius_coefficients",
                     "radius_squared"),
    "cayley": ("cm_build", "cm_radius_sq", "cm_embedding_dim", "cm_gale", "cm_w_inner"),
    "oracle": ("gen_unit_spherical", "in_t_leq_oracle", "membership_scan",
               "radius_sq_direct", "sdp_min_radius_sq", "locate_t_leq_boundary"),
    "verify": ("run_verification", "check_instance"),
    "matio": ("load_matrix", "report_json"),
    "cli": ("main",),
}


def _order_cubed(a, *args, **kwargs) -> int:
    return len(a) ** 3


# Computed work per call, for functions whose cost is set by input size.
WORK = {"linalg.sym_eig": _order_cubed}

CALL_COUNTS = (
    "linalg.sym_eig", "linalg.pinv", "model.profile", "model.is_edm_array",
    "yielding.yielding_report", "perturbation.classify", "perturbation.radius_squared",
    "cayley.cm_build", "cayley.cm_w_inner", "oracle.in_t_leq_oracle",
    "oracle.sdp_min_radius_sq", "oracle.radius_sq_direct",
)
SELF_TIMES = (
    "linalg.sym_eig", "linalg.pinv", "linalg.nullspace_basis", "model.profile",
    "yielding.yielding_report", "perturbation.radius_squared",
    "oracle.membership_scan", "oracle.sdp_min_radius_sq",
    "oracle.locate_t_leq_boundary", "oracle.gen_unit_spherical",
    "verify.check_instance", "matio.load_matrix", "matio.report_json",
)
# Today each of these runs one full classification of its entry.
ENTRY_CALLS = tuple(f"perturbation.{name}" for name in LAYERS["perturbation"])


# (name, unit) of every per-layer metric, in reporting order.
PER_LAYER_METRICS = (
    [(f"{name}.calls", "count") for name in CALL_COUNTS]
    + [("linalg.sym_eig.n3_sum", "count"), ("perturbation.entry_calls", "count")]
    + [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio")]
)


class Recorder:
    """In-memory span store; one array slot per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.pass_starts: list[int] = []
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        """Spans recorded from now on belong to a new pass."""
        self.pass_starts.append(len(self.kind))

    def wrap(self, name: str, fn, work=None):
        index = len(self.names)
        self.names.append(name)
        kind, parent, start, end, units = self.kind, self.parent, self.start, self.end, self.work
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(kind)
            kind.append(index)
            parent.append(stack[-1] if stack else -1)
            units.append(work(*args, **kwargs) if work is not None else 0)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def _pass_bounds(self):
        bounds = self.pass_starts + [len(self.kind)]
        return list(zip(bounds, bounds[1:]))

    def pass_totals(self) -> list[dict[str, list[int]]]:
        """Per pass, function name -> [calls, self time in ns, work]."""
        covered = [0] * len(self.kind)
        for sid, up in enumerate(self.parent):
            if up >= 0:
                covered[up] += self.end[sid] - self.start[sid]
        passes = []
        for lo, hi in self._pass_bounds():
            totals: dict[str, list[int]] = {}
            for sid in range(lo, hi):
                row = totals.setdefault(self.names[self.kind[sid]], [0, 0, 0])
                row[0] += 1
                row[1] += self.end[sid] - self.start[sid] - covered[sid]
                row[2] += self.work[sid]
            passes.append(totals)
        return passes

    def write(self, path: Path) -> None:
        """Write every span as CSV; times are perf_counter nanoseconds."""
        with open(path, "w") as fh:
            fh.write("pass,id,parent,name,start_ns,end_ns,work\n")
            for number, (lo, hi) in enumerate(self._pass_bounds()):
                for sid in range(lo, hi):
                    fh.write(f"{number},{sid},{self.parent[sid]},{self.names[self.kind[sid]]},"
                             f"{self.start[sid]},{self.end[sid]},{self.work[sid]}\n")


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Trace every function in LAYERS under all its names; restore them on exit."""
    wrappers = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"edmp.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if isinstance(fn, types.FunctionType):
                key = f"{layer}.{name}"
                wrappers[fn] = recorder.wrap(key, fn, WORK.get(key))
    patched = []
    try:
        for modname, module in list(sys.modules.items()):
            if modname != "edmp" and not modname.startswith("edmp."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    patched.append((module, attr, value))
        yield recorder
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def layer_metrics(passes: list[dict[str, list[int]]], overhead_frac: float) -> dict:
    """Median over traced passes of each per-layer metric, by name."""

    def median_of(select):
        value = statistics.median(select(totals) for totals in passes)
        return int(value) if value == int(value) else value

    def field(name: str, slot: int):
        return lambda totals: totals.get(name, (0, 0, 0))[slot]

    def module_self_ns(layer: str):
        prefix = layer + "."
        return lambda totals: sum(row[1] for key, row in totals.items()
                                  if key.startswith(prefix))

    values = {}
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = median_of(field(name, 0))
    values["linalg.sym_eig.n3_sum"] = median_of(field("linalg.sym_eig", 2))
    values["perturbation.entry_calls"] = median_of(
        lambda totals: sum(totals.get(name, (0,))[0] for name in ENTRY_CALLS))
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = median_of(field(name, 1)) / 1e9
    for layer in LAYERS:
        values[f"{layer}.self_s"] = median_of(module_self_ns(layer)) / 1e9
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_METRICS}
