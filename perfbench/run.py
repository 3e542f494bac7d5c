"""kdgf benchmark: one closed-loop client runs one workload's op again and
again, each op in a fresh interpreter, for a fixed number of seconds.

    python3 perfbench/run.py --workload run_small --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` ops alternate untraced and traced and the last line holds the
per-layer metrics.  Every op's outputs are checked against an independent
reference (see oracle.py); an op that exits non-zero, prints a traceback or
fails the check counts as failed.  The line before the last one carries the
detail: quartiles and sample counts, span self times and the environment.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
# A run must end within 180 s even if ops hang: no op starts, and none runs
# on, past this many seconds after the run began.
HARD_LIMIT_S = 150

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
             "peak_rss_mb": "MB", "pass_frac": "ratio"}


def layer_units() -> dict:
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in cfg["per_layer"]}


def quartiles(values) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "min": min(values), "max": max(values)}


def run_op(workload, work: Path, op_id: int, trace: bool,
           timeout: float) -> tuple[dict, list[str]]:
    """Spawn one op and check its outputs; returns (result, failures)."""
    op_dir = work / f"op{op_id}"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir()
    spec = workload.op_spec(op_dir / "out", trace, op_id)
    (op_dir / "spec.json").write_text(json.dumps(spec))
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "op.py"), str(op_dir / "spec.json"), str(spawn_ns)],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {}, [f"op timed out after {timeout:.0f} s"]
    result_path = op_dir / "result.json"
    if proc.returncode != 0 or "Traceback" in proc.stderr or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return {}, [f"op exited {proc.returncode}: {tail[0]}"]
    result = json.loads(result_path.read_text())
    if result["rc"] != 0:
        return result, [f"kdgf exited {result['rc']}"]
    try:
        failures = workload.check(op_dir / "out", result)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        failures = [f"output check raised {exc!r}"]
    if not failures:
        shutil.rmtree(op_dir, ignore_errors=True)
    return result, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kdgf" / "__init__.py").is_file():
        print(f"error: kdgf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo
    import probes
    import tracing
    from workloads import Workload

    work = HERE / "out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            workload = Workload(args.workload, args.seed, work)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return measure(args, workload, work, probes, tracing, envinfo)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, work, probes, tracing, envinfo) -> int:
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    attempted = failed = 0
    samples = {"plain": [], "traced": []}
    layers = []
    last_trace = None

    def one(op_id, traced):
        nonlocal attempted, failed, last_trace
        attempted += 1
        result, failures = run_op(workload, work, op_id, traced,
                                  max(1.0, hard_deadline - time.monotonic()))
        if failures:
            failed += 1
            for f in failures[:5]:
                print(f"op {op_id} failed: {f}", file=sys.stderr)
            return None
        if traced:
            last_trace = result["trace"]
            layers.append(tracing.layer_metrics(result["trace"], result["bytes_written"]))
        return result

    one(0, False)  # warm-up: fills the file cache and writes bytecode; not timed
    op_id = 1
    deadline = time.monotonic() + args.seconds
    while (time.monotonic() < deadline or not samples["plain"]
           or (args.trace and not samples["traced"])):
        traced = bool(args.trace) and op_id % 2 == 0
        result = one(op_id, traced)
        if result is not None:
            samples["traced" if traced else "plain"].append(result)
        op_id += 1
        if (failed == attempted and op_id > 3) or time.monotonic() > hard_deadline:
            break  # nothing succeeds, or ops hang: stop within the time limit

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": envinfo.environment(ROOT, args.seed)}
    if args.trace:
        metrics, detail["layers"] = layer_report(workload, samples, layers, probes, envinfo)
        if last_trace:
            detail["spans"] = tracing.span_table(last_trace)
        units = layer_units()
    else:
        metrics, detail["end_to_end"] = e2e_report(samples["plain"], attempted, failed)
        units = E2E_UNITS
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in units},
    }))
    return 0


def e2e_report(plain, attempted, failed):
    series = {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "steps_per_s": [r["steps"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    detail = {k: quartiles(v) for k, v in series.items()}
    metrics = {k: d["median"] for k, d in detail.items()}
    metrics["pass_frac"] = (attempted - failed) / attempted
    detail["pass_frac"] = {"attempted": attempted, "failed": failed}
    return metrics, detail


def layer_report(workload, samples, layers, probes, envinfo):
    detail = {}
    metrics = {}
    for name in (layers[0] if layers else {}):
        q = quartiles([m[name] for m in layers])
        metrics[name] = q["median"]
        detail[name] = q
    plain = [r["wall_s"] for r in samples["plain"]]
    traced = [r["wall_s"] for r in samples["traced"]]
    if plain and traced:
        metrics["bench.trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    theta, omega, coupling = workload.probe_input()
    probe = probes.probe_all(theta, omega, coupling, envinfo.last_level_cache_bytes())
    metrics.update(probe["metrics"])
    detail["probes"] = probe["detail"]
    # simulate inlines its kernel: split its time by probe cost x step count
    steps = metrics.get("integrate.simulate.steps", 0)
    metrics["integrate.simulate.step_loop_s_est"] = metrics["core.coupling_sums.us"] * 1e-6 * steps
    metrics["integrate.simulate.potential_series_s_est"] = (
        metrics["core.potential_arrays.us"] * 1e-6 * steps)
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
