"""Tracing from outside the program.

kdgf is not edited: the traced run replaces the module attributes that its
callers look up at run time with wrappers that record a span (name, start,
end, parent, op id) or, for the hot per-step kernels, only a call count and
the total time per call site.  Everything stays in memory and is written
out once, when the op ends.
"""
from __future__ import annotations

import itertools
import statistics
import threading
import time
from pathlib import Path

# (module, attribute) -> span name.  The span is named after the layer that
# owns the function, not the module whose attribute is replaced.
SPANS = {
    ("cli", "execute_run"): "cli.execute_run",
    ("cli", "execute_sweep"): "cli.execute_sweep",
    ("cli", "load_config"): "cli.load_config",
    ("cli", "build_initial"): "cli.build_initial",
    ("cli", "build_frequencies"): "cli.build_frequencies",
    ("cli", "write_trajectory_csv"): "cli.write_trajectory_csv",
    ("cli", "write_trajectory_json"): "cli.write_trajectory_json",
    ("cli", "simulate"): "integrate.simulate",
    ("cli", "rk4_reference"): "integrate.rk4_reference",
    ("cli", "euler_error_bound"): "integrate.euler_error_bound",
    ("descent", "run_descent"): "descent.run_descent",
    ("descent", "certify_descent"): "descent.certify_descent",
    ("inits", "near_sync"): "inits.near_sync",
    ("inits", "near_bipolar"): "inits.near_bipolar",
    ("inits", "random_arc"): "inits.random_arc",
    ("inits", "uniform_frequencies"): "inits.uniform_frequencies",
}
# the certificates and scans the workloads call
CERTIFICATES = (
    "check_order_preservation", "certify_two_sided_decay",
    "check_bipolar_containment", "certify_bipolar_bounds",
    "certify_uniform_bound", "fit_decay_rate", "match_equilibrium",
    "classify_initial",
)
SPANS.update({("analysis", name): f"analysis.{name}" for name in CERTIFICATES})

# Kernel call sites: the names of velocity/gradient/potential imported into
# each caller's module.  simulate inlines its kernel and is not counted here.
KERNEL_SITES = (
    ("integrate", "velocity_arrays"),
    ("analysis", "velocity_arrays"),
    ("descent", "gradient_arrays"),
    ("descent", "potential_arrays"),
)


def _result_attrs(name, args, result) -> dict:
    """Counts read off a traced call's arguments and result."""
    if name == "integrate.simulate":
        return {"steps": result.n_steps, "nbytes": result.phases.nbytes}
    if name == "integrate.rk4_reference":
        return {"knots": result.knots.shape[0] - 1}
    if name == "descent.run_descent":
        return {"steps": result.f_values.size - 1, "converged": result.converged}
    if name.startswith("cli.write_trajectory_"):
        return {"bytes": Path(args[1]).stat().st_size}
    return {}


class Tracer:
    """Spans and per-site kernel counts of one op, kept in memory."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []  # [id, name, start, end, parent, op_id, ok, attrs]
        self.kernels = {}  # site -> [calls, seconds]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = []  # span stack of the thread that runs the op

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a pool thread's spans hang off the span that started the pool
            stack = self._local.stack = self._main[-1:]
        return stack

    def call(self, name, fn, args, kwargs):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        ok, attrs = False, {}
        try:
            result = fn(*args, **kwargs)
            ok = True
            attrs = _result_attrs(name, args, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([sid, name, start, end, parent, self.op_id, ok, attrs])

    def root(self, name, fn, *args):
        """Run fn as the op's root span; threads it starts attach to it."""
        sid = next(self._ids)
        self._main = self._local.stack = [sid]
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([sid, name, start, time.perf_counter(), None,
                               self.op_id, True, {}])
            self._main.clear()

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _count_wrapper(self, site, fn):
        counts = self.kernels.setdefault(site, [0, 0.0])
        lock = self._lock

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with lock:
                    counts[0] += 1
                    counts[1] += elapsed
        return counted

    def install(self, modules: dict):
        """Replace the traced attributes of ``modules`` (name -> module) for
        the rest of the process; an op's process ends with the op."""
        for (mod, attr), name in SPANS.items():
            setattr(modules[mod], attr, self._span_wrapper(name, getattr(modules[mod], attr)))
        for mod, attr in KERNEL_SITES:
            setattr(modules[mod], attr,
                    self._count_wrapper(f"{mod}.{attr}", getattr(modules[mod], attr)))

    def dump(self) -> dict:
        return {"spans": self.spans,
                "kernels": {k: v for k, v in self.kernels.items() if v[0]}}


# ---------------------------------------------------------------------------
# reduction of one op's trace to per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def span_table(trace: dict) -> dict:
    """name -> {calls, total_s, self_s} over one op's spans."""
    selfs = self_times(trace["spans"])
    table = {}
    for s in trace["spans"]:
        row = table.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[3] - s[2]
        row["self_s"] += selfs[s[0]]
    return table


def layer_metrics(trace: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one traced op (0 where the op never reaches a layer)."""
    spans = trace["spans"]
    table = span_table(trace)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def attr_sum(name, key):
        return sum(s[7].get(key, 0) for s in spans if s[1] == name)

    def ratio(num, den):
        return num / den if den else 0.0

    kernels = trace["kernels"].values()
    sim_steps = attr_sum("integrate.simulate", "steps")
    desc_steps = attr_sum("descent.run_descent", "steps")
    desc_runs = [s for s in spans if s[1] == "descent.run_descent"]
    classify = [s for s in spans if s[1] == "analysis.classify_initial"]
    write_s = total("cli.write_trajectory_csv") + total("cli.write_trajectory_json")
    traj_bytes = (attr_sum("cli.write_trajectory_csv", "bytes")
                  + attr_sum("cli.write_trajectory_json", "bytes"))

    m = {
        "core.kernel_calls": sum(c for c, _ in kernels),
        "core.kernel_s": sum(t for _, t in kernels),
        "integrate.simulate.s": total("integrate.simulate"),
        "integrate.simulate.steps": sim_steps,
        "integrate.simulate.us_per_step": ratio(total("integrate.simulate") * 1e6, sim_steps),
        "integrate.trajectory_mb": attr_sum("integrate.simulate", "nbytes") / 1e6,
        "integrate.rk4_reference.s": total("integrate.rk4_reference"),
        "integrate.rk4_reference.knots": attr_sum("integrate.rk4_reference", "knots"),
        "integrate.euler_error_bound.s": total("integrate.euler_error_bound"),
        "descent.run_descent.s": total("descent.run_descent"),
        "descent.run_descent.steps": desc_steps,
        "descent.us_per_step": ratio(total("descent.run_descent") * 1e6, desc_steps),
        "descent.certify_descent.s": total("descent.certify_descent"),
        "descent.converged_ratio": ratio(
            sum(1 for s in desc_runs if s[7].get("converged")), len(desc_runs)),
        "analysis.classify_initial.s": total("analysis.classify_initial"),
        "analysis.classify.resolved_ratio": ratio(
            sum(1 for s in classify if s[6]), len(classify)),
        "cli.load_config.s": total("cli.load_config"),
        "cli.build_inputs.s": total("cli.build_initial") + total("cli.build_frequencies"),
        "cli.write_trajectory.s": write_s,
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": ratio(traj_bytes / 1e6, write_s),
        "cli.execute_run.self_s": table.get("cli.execute_run", {}).get("self_s", 0.0),
        "inits.s": sum(row["total_s"] for name, row in table.items()
                       if name.startswith("inits.")),
    }
    for name in CERTIFICATES:
        if name != "classify_initial":
            m[f"analysis.{name}.s"] = total(f"analysis.{name}")
    m.update(_sweep_metrics(spans))
    return m


def _sweep_metrics(spans) -> dict:
    sweeps = [s for s in spans if s[1] == "cli.execute_sweep"]
    if not sweeps:
        return {"cli.sweep.point_s.p50": 0.0, "cli.sweep.point_s.max": 0.0,
                "cli.sweep.queue_wait_s": 0.0, "cli.sweep.overlap": 0.0,
                "cli.sweep.points_failed": 0}
    sweep = sweeps[0]
    points = [s for s in spans if s[1] == "cli.execute_run" and s[4] == sweep[0]]
    point_s = [s[3] - s[2] for s in points] or [0.0]
    waits = [s[2] - sweep[2] for s in points] or [0.0]
    return {
        "cli.sweep.point_s.p50": statistics.median(point_s),
        "cli.sweep.point_s.max": max(point_s),
        "cli.sweep.queue_wait_s": statistics.median(waits),
        "cli.sweep.overlap": sum(point_s) / (sweep[3] - sweep[2]),
        "cli.sweep.points_failed": sum(1 for s in points if not s[6]),
    }
