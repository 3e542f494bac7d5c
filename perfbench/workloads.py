"""The four workloads: inputs generated from the workload seed, the op each
one runs, and the check of each op's outputs against the reference.

kdgf receives only the generated config files (and, for ``certify``, seeded
inputs built through its own public builders).  Expected values come from
``oracle`` and are computed once per benchmark run, since every op of a run
repeats the same inputs.
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

import kdgf
from kdgf import cli, inits

import oracle

# Sizes.  Each op takes about half a second to one second on a 2-core Xeon,
# so a run of 25 seconds holds 20 or more ops and its median rides out the
# slow spells of a shared machine.
SMALL_STEPS = 15_000      # run_small step cap; stop_reason is always max_steps
LARGE_N = 2048
LARGE_STEPS = 5           # run_large step cap
SWEEP_N = 64
SWEEP_K = [float(k) for k in np.geomspace(0.5, 4.0, 16)]
CERT_STEPS = 1_000        # certify run: error_bound rebuilds RK4 at h/10
CERT_COUPLING = 1.0       # K of the certify workload's classification and descent
CLASSIFY_BATCH = 60
CLASSIFY_WIDTH = 0.9 * math.pi  # inside a half circle: the flow synchronises
DESCENT_N = 256
DESCENT_STEP = 0.1
DESCENT_TOL = 1e-10
DESCENT_MAX_STEPS = 100_000

WORKLOADS = ("run_small", "run_large", "sweep_k", "certify")
REPLAY_SAMPLES = 8        # trajectory rows replayed through euler_step per run
SUM_SAMPLES = 64          # rows checked for phase-sum conservation


def _ini(run: dict, certifiers: dict) -> str:
    lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    if certifiers:
        lines += ["[certifiers]"] + [f"{k} = {v}" for k, v in certifiers.items()]
    return "\n".join(lines) + "\n"


class Workload:
    """Inputs, op spec and expected outputs of one workload at one seed."""

    def __init__(self, name: str, seed: int, work: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r} (choose from {WORKLOADS})")
        self.name = name
        self.seed = seed % 2**31  # numpy seeds and kdgf config seeds are non-negative
        self.work = work
        self.config = work / "config.ini"
        getattr(self, f"_make_{name}")()
        self.config.write_text(_ini(self.run, self.certifiers))
        self.cfg = cli.load_config(self.config)
        self.expected = getattr(self, f"_expect_{name}")()

    # -- inputs -----------------------------------------------------------

    def _make_run_small(self):
        # A07 regime: the opposed-oscillator saddle, held for the whole cap.
        delta = float(np.random.default_rng(self.seed).uniform(0.03, 0.07))
        self.run = dict(model="identical", n=4, seed=self.seed,
                        init=f"near-bipolar({delta!r})", omega="zero",
                        coupling=0.02, step=0.005, max_steps=SMALL_STEPS)
        self.certifiers = {
            "order_preservation": "", "two_sided_decay": "tol=0.2",
            "bipolar_containment": "tol=0.2", "bipolar_bounds": "tol=0.2",
            "uniform_bound": "l=1.0", "fit_decay": "",
        }
        self.argv = ["run"]

    def _make_run_large(self):
        self.run = dict(model="nonidentical", n=LARGE_N, seed=self.seed,
                        init="random-arc(3.0)", omega="uniform(0.2)",
                        coupling=1.0, step=0.05, max_steps=LARGE_STEPS)
        self.certifiers = {"uniform_bound": "l=1.0", "order_preservation": ""}
        self.argv = ["run", "--format", "json"]

    def _make_sweep_k(self):
        self.run = dict(model="nonidentical", n=SWEEP_N, seed=self.seed,
                        init="random-arc(2.0)", omega="uniform(0.2)",
                        coupling=1.0, step=0.04, max_steps=100_000)
        self.certifiers = {}
        self.argv = ["sweep", "--axis", "K", "--values",
                     ",".join(repr(k) for k in SWEEP_K)]

    def _make_certify(self):
        self.run = dict(model="identical", n=4, seed=self.seed,
                        init="random-arc(3.0)", omega="zero",
                        coupling=1.0, step=0.01, max_steps=CERT_STEPS)
        self.certifiers = {"error_bound": ""}
        self.argv = ["run"]

    def op_spec(self, out: Path, trace: bool, op_id: int) -> dict:
        spec = {"workload": self.name, "config": str(self.config), "out": str(out),
                "argv": [self.argv[0], str(self.config), "--out", str(out), "--quiet",
                         *self.argv[1:]],
                "trace": trace, "op_id": op_id}
        if self.name == "certify":
            spec["certify"] = self.certify_inputs()
        return spec

    def certify_inputs(self) -> dict:
        return {"seed": self.seed, "classify_batch": CLASSIFY_BATCH,
                "classify_width": CLASSIFY_WIDTH, "classify_coupling": CERT_COUPLING,
                "descent_n": DESCENT_N, "descent_coupling": CERT_COUPLING,
                "descent_step": DESCENT_STEP, "descent_tol": DESCENT_TOL,
                "descent_max_steps": DESCENT_MAX_STEPS}

    def probe_input(self):
        """(theta, omega, K) of the workload's own first run, for core probes."""
        return (cli.build_initial(self.cfg).phases, cli.build_frequencies(self.cfg).omega,
                self.cfg.coupling)

    # -- expected values --------------------------------------------------

    def _reference(self, cfg, keep_rows=False) -> dict:
        theta0 = cli.build_initial(cfg).phases
        omega = cli.build_frequencies(cfg).omega
        final, steps, reason, rows = oracle.euler_run(
            theta0, omega, cfg.coupling, cfg.step, cfg.max_steps, cfg.conv_tol,
            keep_rows=keep_rows)
        return {"theta0": theta0, "omega": omega, "coupling": cfg.coupling,
                "step": cfg.step, "conv_tol": cfg.conv_tol, "final": final, "steps": steps,
                "stop_reason": reason, "rows": rows}

    def _expect_run_small(self):
        ref = self._reference(self.cfg)
        ref["verdicts"] = {name: True for name in self.certifiers}
        return ref

    def _expect_run_large(self):
        ref = self._reference(self.cfg, keep_rows=True)
        bad = oracle.first_order_violation(ref.pop("rows"))
        ref["verdicts"] = {"uniform_bound": True, "order_preservation": bad is None}
        ref["order_violation"] = bad
        return ref

    def _expect_sweep_k(self):
        points = []
        for i, k in enumerate(SWEEP_K):
            cfg = copy.deepcopy(self.cfg)
            cfg.coupling = k
            cfg.seed = self.cfg.seed ^ i  # the documented per-point seed rule
            points.append(self._reference(cfg))
        return points

    def _expect_certify(self):
        ref = self._reference(self.cfg)
        ref["verdicts"] = {"error_bound": True}
        x0, omega = descent_inputs(self.certify_inputs())
        final, steps, reason, f_values = oracle.descent_run(
            x0, omega, CERT_COUPLING, DESCENT_STEP, DESCENT_MAX_STEPS, DESCENT_TOL)
        ref["descent"] = {"final": final, "steps": steps, "stop_reason": reason,
                          "f_values": f_values}
        return ref

    # -- output check -----------------------------------------------------

    def check(self, out: Path, result: dict) -> list[str]:
        """Failures of one op; an empty list means every output checked out."""
        if self.name == "sweep_k":
            return self._check_sweep(out)
        if self.name == "run_large":
            # each replay is one O(N^2) step; two rows suffice at N=2048
            return check_run(out, self.expected, "json", replay_samples=2) + self._check_order(out)
        errors = check_run(out, self.expected, "csv")
        if self.name == "certify":
            errors += self._check_certify_extras(result)
        return errors

    def _check_order(self, out: Path) -> list[str]:
        got = [v.get("first_violation") for v in _report(out).get("verdicts", [])
               if v["name"] == "order_preservation"]
        want = self.expected["order_violation"]
        return [] if got == [want] else [f"order_preservation first_violation {got} != {want}"]

    def _check_sweep(self, out: Path) -> list[str]:
        rows = _read_text(out / "summary.csv").splitlines()[1:]
        if len(rows) != len(SWEEP_K):
            return [f"summary.csv has {len(rows)} rows, expected {len(SWEEP_K)}"]
        errors = []
        for i, (row, ref) in enumerate(zip(rows, self.expected)):
            point = out / f"point_{i:03d}"
            point_errors = check_run(point, ref, "csv", replay_samples=1)
            tr = _report(point).get("trajectory", {})
            if row.split(",")[2:4] != [str(tr.get("steps")), tr.get("stop_reason")]:
                point_errors.append("summary.csv row disagrees with report.json")
            errors += [f"point {i}: {e}" for e in point_errors]
        return errors

    def _check_certify_extras(self, result: dict) -> list[str]:
        errors = []
        kinds = result.get("classify_kinds", [])
        if len(kinds) != CLASSIFY_BATCH or any(k != "sync" for k in kinds):
            errors.append(f"classify_initial: expected {CLASSIFY_BATCH} x sync, got {kinds}")
        got = result.get("descent", {})
        want = self.expected["descent"]
        if got.get("stop_reason") != want["stop_reason"]:
            errors.append(f"descent stop_reason {got.get('stop_reason')} != {want['stop_reason']}")
        elif abs(got.get("steps", -10**9) - want["steps"]) > oracle.CONVERGED_STEP_TOL:
            errors.append(f"descent steps {got.get('steps')} vs reference {want['steps']}")
        if not (got.get("certified") and got.get("summable")):
            errors.append("descent certificate or gradient-square sum failed")
        tol = oracle.FINAL_PHASE_TOL + oracle.CONVERGED_STEP_TOL * DESCENT_STEP * DESCENT_TOL
        err = oracle.sup_error(got.get("final", []), want["final"])
        if not err <= tol:
            errors.append(f"descent final point off by {err:.3g}")
        f_got = got.get("f_values", [])
        for i in _sample(min(len(f_got), len(want["f_values"])), SUM_SAMPLES):
            f_ref = want["f_values"][i]
            if not abs(f_got[i] - f_ref) <= oracle.POTENTIAL_TOL * (1.0 + abs(f_ref)):
                errors.append(f"descent potential at step {i}: {f_got[i]!r} vs {f_ref!r}")
                break
        return errors


def descent_inputs(spec: dict):
    """Initial point and frequencies of the certify workload's descent part."""
    x0 = inits.random_arc(spec["descent_n"], 2.0, np.random.default_rng(spec["seed"] + 2))
    freqs = inits.uniform_frequencies(spec["descent_n"], 0.1,
                                      np.random.default_rng(spec["seed"] + 3))
    return x0.phases, freqs.omega


def _read_text(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def _report(out: Path) -> dict:
    return json.loads(_read_text(out / "report.json") or "{}")


def _trajectory_rows(out: Path, fmt: str, n: int):
    """(row count, row getter) of a written trajectory file."""
    if fmt == "json":
        theta = json.loads(_read_text(out / "trajectory.json") or '{"theta": []}')["theta"]
        return len(theta), lambda i: np.asarray(theta[i], dtype=float)
    lines = _read_text(out / "trajectory.csv").splitlines()[1:]
    return len(lines), lambda i: np.array(lines[i].split(",")[2:2 + n], dtype=float)


def check_run(out: Path, ref: dict, fmt: str, replay_samples: int = REPLAY_SAMPLES) -> list[str]:
    """Check one run directory (report + trajectory) against its reference."""
    rep = _report(out)
    if "trajectory" not in rep:
        return [f"{out.name}: no report.json"]
    tr = rep["trajectory"]
    errors = []
    if tr["stop_reason"] != ref["stop_reason"]:
        errors.append(f"stop_reason {tr['stop_reason']} != {ref['stop_reason']}")
    slack = 0 if ref["stop_reason"] == "max_steps" else oracle.CONVERGED_STEP_TOL
    if abs(tr["steps"] - ref["steps"]) > slack:
        errors.append(f"steps {tr['steps']} vs reference {ref['steps']} (slack {slack})")
    tol = oracle.FINAL_PHASE_TOL + slack * ref["step"] * ref["conv_tol"]
    for name, want in ref.get("verdicts", {}).items():
        got = [v["passed"] for v in rep["verdicts"] if v["name"] == name]
        if got != [want]:
            errors.append(f"certifier {name}: passed={got} expected {want}")
    err = oracle.sup_error(tr["final_phases"], ref["final"])
    if not err <= tol:
        errors.append(f"final phases off by {err:.3g}")

    n = ref["theta0"].size
    count, row = _trajectory_rows(out, fmt, n)
    if count != tr["steps"] + 1:
        return errors + [f"trajectory has {count} rows for {tr['steps']} steps"]
    if oracle.sup_error(row(0), ref["theta0"]) > oracle.REPLAY_TOL:
        errors.append("trajectory row 0 is not the initial state")
    if oracle.sup_error(row(count - 1), tr["final_phases"]) > oracle.REPLAY_TOL:
        errors.append("last trajectory row is not the reported final state")

    freqs = kdgf.NaturalFrequencies(ref["omega"])
    params = kdgf.SimParams(ref["coupling"], ref["step"])
    for i in _sample(count - 1, replay_samples):
        nxt = kdgf.euler_step(kdgf.PhaseConfig(row(i)), freqs, params)
        if oracle.sup_error(nxt.phases, row(i + 1)) > oracle.REPLAY_TOL:
            errors.append(f"row {i + 1} does not replay from row {i} through euler_step")
            break
    if freqs.is_identical:
        s0 = float(row(0).sum())
        for i in _sample(count, SUM_SAMPLES):
            r = row(i)
            if abs(float(r.sum()) - s0) > oracle.PHASE_SUM_TOL * n * (1.0 + np.abs(r).max()):
                errors.append(f"phase sum drifted at row {i}")
                break
    return errors


def _sample(count: int, k: int) -> list[int]:
    """Up to k row indices spread evenly over [0, count), always with the last."""
    if count <= 0:
        return []
    return sorted(set(np.linspace(0, count - 1, min(k, count)).astype(int).tolist()))
