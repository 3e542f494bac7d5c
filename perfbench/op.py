"""One benchmark op, run in a fresh interpreter so that its set-up time and
peak RSS are its own.

    python3 perfbench/op.py <spec.json> <spawn time, monotonic ns>

Set-up runs from process start to inputs ready: interpreter start,
``import kdgf``, ``cli.load_config`` and building the initial state and
frequencies (and, for ``certify``, the classification batch and the descent
problem).  The op itself is then timed.  The result goes to ``result.json``
next to the spec.
"""
from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import kdgf  # noqa: E402
from kdgf import analysis, cli, descent, inits, integrate  # noqa: E402

import tracing  # noqa: E402
from workloads import descent_inputs  # noqa: E402


def _setup(spec: dict) -> dict:
    cfg = cli.load_config(spec["config"])
    inputs = {"init": cli.build_initial(cfg), "freqs": cli.build_frequencies(cfg)}
    c = spec.get("certify")
    if c:
        rng = np.random.default_rng(c["seed"])
        inputs["batch"] = [inits.random_arc(4, c["classify_width"], rng)
                           for _ in range(c["classify_batch"])]
        x0, omega = descent_inputs(c)
        inputs["x0"] = x0
        inputs["problem"] = descent.kuramoto_problem(
            kdgf.NaturalFrequencies(omega), c["descent_coupling"])
    return inputs


def _euler_steps(out: Path) -> int:
    summary = out / "summary.csv"
    if summary.exists():
        return sum(int(line.split(",")[2]) for line in summary.read_text().splitlines()[1:])
    return json.loads((out / "report.json").read_text())["trajectory"]["steps"]


def _op(spec: dict, inputs: dict) -> dict:
    rc = cli.main(spec["argv"])
    result = {"rc": rc}
    if rc != 0:
        return result
    steps = _euler_steps(Path(spec["out"]))
    c = spec.get("certify")
    if c:
        # error_bound integrates RK4 to t_end = steps * h at dt = h / 10
        steps += max(1, math.ceil(max(steps, 1) * 10 - 1e-12))
        kinds = []
        for init in inputs["batch"]:
            cls = analysis.classify_initial(init, c["classify_coupling"])
            kinds.append(cls.kind)
            # classify_initial takes RK4 steps of its default dt = 0.1 / K
            steps += round(cls.witness.t_end * c["classify_coupling"] / 0.1)
        h = c["descent_step"]
        res = descent.run_descent(inputs["problem"], inputs["x0"], h,
                                  max_steps=c["descent_max_steps"], tol=c["descent_tol"])
        cert = descent.certify_descent(inputs["problem"], res, h)
        summ = descent.gradient_square_sum(res, h, inputs["problem"].hessian_bound)
        steps += res.f_values.size - 1
        result["classify_kinds"] = kinds
        result["descent"] = {"stop_reason": res.stop_reason,
                             "steps": int(res.f_values.size - 1),
                             "certified": bool(cert.passed), "summable": bool(summ.holds),
                             "final": [float(v) for v in res.final_point],
                             "f_values": [float(v) for v in res.f_values]}
    result["steps"] = steps
    return result


def main(argv) -> int:
    spec_path, spawn_ns = Path(argv[1]), int(argv[2])
    spec = json.loads(spec_path.read_text())
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["op_id"])
        tracer.install({"cli": cli, "analysis": analysis, "descent": descent,
                        "inits": inits, "integrate": integrate})
        inputs = tracer.root("bench.setup", _setup, spec)
    else:
        inputs = _setup(spec)
    ready_ns = time.monotonic_ns()

    start = time.perf_counter()
    if tracer:
        result = tracer.root("bench.op", _op, spec, inputs)
    else:
        result = _op(spec, inputs)
    result["wall_s"] = time.perf_counter() - start
    result["setup_s"] = (ready_ns - spawn_ns) / 1e9
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["bytes_written"] = sum(p.stat().st_size
                                  for p in Path(spec["out"]).rglob("*") if p.is_file())
    if tracer:
        result["trace"] = tracer.dump()
    (spec_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
