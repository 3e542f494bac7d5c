"""Experiment harness: config-driven runs, parameter sweeps, classification
and threshold queries, with deterministic machine-readable outputs.

Config files are INI-style (sections of key = value pairs, parsed with the
standard library) or the same structure as JSON; see the README for the
grammar.  Exit codes: 0 = ran (certifier verdicts live in the report,
failures are data), 2 = bad input, 3 = numerical divergence.
"""
from __future__ import annotations

import argparse
import configparser
import copy
import inspect
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, descent, inits
from .core import NaturalFrequencies, PhaseConfig, SimParams
from .integrate import (
    DivergenceError,
    Trajectory,
    euler_error_bound,
    rk4_reference,
    simulate,
)

class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

_SPEC_RE = re.compile(r"^\s*([a-zA-Z_-]+)\s*(?:\((.*)\))?\s*$")


def _parse_spec(text: str):
    """Parse ``name(arg, key=val, ...)`` into (name, positional, keyword);
    ``_`` in the name reads as ``-``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse spec {text!r}")
    name = m.group(1).lower().replace("_", "-")
    pos, kw = [], {}
    body = m.group(2)
    if body:
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                k, v = part.split("=", 1)
                kw[k.strip()] = float(v)
            else:
                pos.append(float(part))
    return name, pos, kw


@dataclass
class RunConfig:
    model: str
    n: int
    seed: int = 0
    init: str = "near-sync(0.1)"
    omega: str = "zero"
    coupling: float | None = None
    step: float | None = None
    max_steps: int = 1_000_000
    conv_tol: float = 1e-10
    certifiers: dict = field(default_factory=dict)
    # generic descent extras
    problem: str = "double_well"
    x0: str = "explicit(0.1)"

    def validate(self):
        if self.model not in ("identical", "nonidentical", "generic_dgf"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.step is None or not 0 < self.step < math.inf:
            raise ConfigError("step must be given, positive and finite")
        if self.model != "generic_dgf":
            if self.coupling is None or not 0 < self.coupling < math.inf:
                raise ConfigError("coupling must be given, positive and finite")
            if self.n < 2:
                raise ConfigError("n must be at least 2")
        if not 0 <= self.conv_tol < math.inf:
            raise ConfigError("conv_tol must be nonnegative and finite")
        for name, kw in self.certifiers.items():
            if name not in CERTIFIERS:
                raise ConfigError(f"unknown certifier {name!r}")
            try:  # the certifier's signature declares its options
                inspect.signature(CERTIFIERS[name]).bind(None, **kw)
            except TypeError as exc:
                raise ConfigError(f"{name}: {exc}") from None
            if "eps" in kw and not 0 < kw["eps"] < math.inf:
                raise ConfigError(f"{name} option eps must be positive and finite")


def _number(key: str, value) -> float:
    """``value`` as a float; a config value that is not a number is a
    ConfigError, whichever file format it came from."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _ini_options(text) -> dict:
    """``key=value, ...`` of an INI certifier entry, values still text."""
    parts = [part.strip() for part in (text or "").split(",") if part.strip()]
    for part in parts:
        if "=" not in part:
            raise ConfigError(f"certifier option {part!r} must be key=value")
    return {k.strip(): v for k, v in (part.split("=", 1) for part in parts)}


def _integer(key: str, value) -> int:
    """``value`` as an int: an integer, a whole float or the text of either;
    a fraction, an infinity, NaN or a non-number is a ConfigError."""
    if isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if path.suffix == ".json":
        data = _object("the config", json.loads(path.read_text()))
        run = _object("run", data.get("run", {}))
        certs = {name: _object(f"certifier {name}", {} if opts is None else opts)
                 for name, opts in _object("certifiers", data.get("certifiers", {})).items()}
    else:
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            cp.read(path)
            run = dict(cp["run"]) if "run" in cp else None
            certs = dict(cp["certifiers"]) if "certifiers" in cp else {}
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from None
        if run is None:
            raise ConfigError("config needs a [run] section")
        certs = {name: _ini_options(val) for name, val in certs.items()}

    run = {k: v for k, v in run.items() if v is not None}
    cfg = RunConfig(model=str(run.get("model", "identical")).lower(),
                    n=_integer("n", run.get("n", 0)))
    for key in ("seed", "max_steps"):
        if key in run:
            setattr(cfg, key, _integer(key, run[key]))
    for key in ("coupling", "step", "conv_tol"):
        if key in run:
            setattr(cfg, key, _number(key, run[key]))
    for key in ("init", "omega", "problem", "x0"):
        if key in run:
            setattr(cfg, key, str(run[key]))
    cfg.certifiers = {
        str(name).lower(): {k: (_integer if k in _INTEGER_OPTIONS else _number)(
            f"{name} option {k}", v) for k, v in kw.items()}
        for name, kw in certs.items()}
    cfg.validate()
    return cfg


def build_initial(cfg: RunConfig) -> PhaseConfig:
    name, pos, kw = _parse_spec(cfg.init)
    rng = np.random.default_rng(cfg.seed)
    if name == "explicit":
        if len(pos) != cfg.n:
            raise ConfigError("explicit init length does not match n")
        theta = np.asarray(pos)
        return PhaseConfig(theta - theta.mean())
    if name == "near-sync":
        return inits.near_sync(cfg.n, kw.get("delta", pos[0] if pos else 0.1))
    if name == "near-bipolar":
        return inits.near_bipolar(cfg.n, kw.get("delta", pos[0] if pos else 0.05))
    if name == "random-arc":
        return inits.random_arc(cfg.n, kw.get("width", pos[0] if pos else math.pi), rng)
    raise ConfigError(f"unknown init spec {cfg.init!r}")


def build_frequencies(cfg: RunConfig) -> NaturalFrequencies:
    name, pos, kw = _parse_spec(cfg.omega)
    if name == "zero":
        return NaturalFrequencies.zero(cfg.n)
    if name == "explicit":
        if len(pos) != cfg.n:
            raise ConfigError("explicit omega length does not match n")
        return NaturalFrequencies(np.asarray(pos))
    if name == "uniform":
        rng = np.random.default_rng(cfg.seed + 1)
        return inits.uniform_frequencies(
            cfg.n, kw.get("spread", pos[0] if pos else 0.1), rng)
    raise ConfigError(f"unknown omega spec {cfg.omega!r}")


# ---------------------------------------------------------------------------
# certifiers
# ---------------------------------------------------------------------------

def _need_bipolar_state(traj: Trajectory, tol: float):
    eq = analysis.match_equilibrium(traj.final_config(), tol=tol)
    if eq is None or eq.kind != "bipolar":
        raise ValueError("no bipolar state matched")
    return eq


def _default_alpha(n, k, eps):
    """Theory decay rate K((N-1) sin(eps)/eps - 1)/(2N) of a locked group that
    starts with diameter below eps, one oscillator opposed."""
    return k * ((n - 1) * math.sin(eps) / eps - 1.0) / (2.0 * n)


# Each certifier's keyword parameters are its config options: one without a
# default is required, and a None default is derived from the run.  A
# ValueError raised on the trajectory becomes a failed verdict (see _verdict).

def _cert_order_preservation(traj):
    check = analysis.check_order_preservation(traj, range(traj.n))
    return {"passed": check.passed, "first_violation": check.first_violation}


def _cert_diameter_decay(traj, eps=0.3, rate=None, floor=0.0):
    if rate is None:
        rate = traj.params.coupling * math.sin(eps) / (2.0 * eps)
    cert = analysis.certify_diameter_decay(traj, range(traj.n), eps, rate, floor=floor)
    return {"passed": cert.passed, "rate": rate,
            "first_violation": cert.first_violation}


def _cert_two_sided_decay(traj, eps=0.3, alpha=None, floor=1e-13, tol=0.05):
    eq = _need_bipolar_state(traj, tol)
    k = traj.params.coupling
    if alpha is None:
        alpha = _default_alpha(traj.n, k, eps)
    subset = [i for i in range(traj.n) if i != eq.bipolar_index]
    cert = analysis.certify_two_sided_decay(traj, subset, k, alpha, floor=floor)
    return {"passed": cert.passed, "alpha": alpha, "side": cert.failed_side,
            "first_violation": cert.first_violation}


def _cert_bipolar_containment(traj, tol=0.05):
    rep = analysis.check_bipolar_containment(traj, _need_bipolar_state(traj, tol))
    return {"passed": rep.all_contained, "first_exit": rep.first_exit,
            "exit_side": rep.exit_side}


def _cert_bipolar_bounds(traj, eps=0.3, alpha=None, tol=0.05):
    eq = _need_bipolar_state(traj, tol)
    if alpha is None:
        alpha = _default_alpha(traj.n, traj.params.coupling, eps)
    cert = analysis.certify_bipolar_bounds(traj, eq, alpha, eps)
    return {"passed": cert.passed, "alpha": alpha, "which": cert.which,
            "first_violation": cert.first_violation}


def _cert_cluster_invariance(traj, n0, l):
    spec = analysis.cluster_spec(traj.n, n0, l, traj.freqs.d_omega, traj.params.coupling)
    cert = analysis.certify_cluster_invariance(traj, spec)
    return {"passed": cert.passed, "first_violation": cert.first_violation,
            "k_min": spec.k_min, "step_max": spec.step_max,
            "max_cluster_diameter": float(cert.curve.max())}


def _cert_uniform_bound(traj, l):
    cert = analysis.certify_uniform_bound(traj, l)
    return {"passed": cert.passed, "first_violation": cert.first_violation,
            "max_diameter": float(cert.curve.max())}


def _cert_fit_decay(traj, start=0, stop=None):
    window = (start, traj.n_steps + 1 if stop is None else stop)
    fit = analysis.fit_decay_rate(traj.diameters, traj.params.step_size, window)
    return {"passed": True, "alpha_fit": fit.alpha_fit,
            "r_squared": fit.r_squared, "degenerate": fit.degenerate}


def _cert_error_bound(traj, lipschitz=None, max_steps=20_000):
    # rebuilds the continuous reference at dt = h/10; cost grows with the run
    if traj.n_steps > max_steps:
        raise ValueError("run too long for the reference integration")
    h = traj.params.step_size
    if lipschitz is None:
        lipschitz = 2.0 * traj.params.coupling
    if not lipschitz > 0:  # known before the reference is built
        raise ValueError("lipschitz must be positive")
    oracle = rk4_reference(traj.config(0), traj.freqs, traj.params.coupling,
                           t_end=max(traj.n_steps, 1) * h, dt=h / 10.0)
    rep = euler_error_bound(traj, oracle, lipschitz)
    return {"passed": rep.within_bound,
            "truncation_max": rep.truncation_max,
            "max_observed_error": float(rep.observed_error.max())}


# options read as integers; the rest are floats
_INTEGER_OPTIONS = {"n0", "start", "stop", "max_steps"}

CERTIFIERS = {
    "order_preservation": _cert_order_preservation,
    "diameter_decay": _cert_diameter_decay,
    "two_sided_decay": _cert_two_sided_decay,
    "bipolar_containment": _cert_bipolar_containment,
    "bipolar_bounds": _cert_bipolar_bounds,
    "cluster_invariance": _cert_cluster_invariance,
    "uniform_bound": _cert_uniform_bound,
    "fit_decay": _cert_fit_decay,
    "error_bound": _cert_error_bound,
}


def _verdict(name: str, traj: Trajectory, options: dict) -> dict:
    """Run one certifier.  A ValueError is a hypothesis the trajectory does
    not meet: a failed verdict with its reason, not a failed run."""
    try:
        return {"name": name, **CERTIFIERS[name](traj, **options)}
    except ValueError as exc:
        return {"name": name, "passed": False, "reason": str(exc)}


# ---------------------------------------------------------------------------
# run execution and output
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def _trajectory_table(traj: Trajectory) -> dict:
    """The columns of a trajectory file: time, the phases (one row per
    step), then the per-step diagnostics."""
    return {"t": traj.times, "theta": traj.phases, "diameter": traj.diameters,
            "potential": traj.potentials, "grad_norm": traj.grad_norms,
            "order_r": traj.order_r, "order_phi": traj.order_phi}


def write_trajectory_csv(traj: Trajectory, path: Path):
    table = _trajectory_table(traj)
    cols = ["n"]
    for name, col in table.items():
        cols += [f"{name}_{i}" for i in range(col.shape[1])] if col.ndim == 2 else [name]
    lines = [",".join(cols)]
    lines += [f"{i}," + ",".join(map(repr, row.tolist()))
              for i, row in enumerate(np.column_stack(list(table.values())))]
    _atomic_write(path, "\n".join(lines) + "\n")


def write_trajectory_json(traj: Trajectory, path: Path):
    data = {name: col.tolist() for name, col in _trajectory_table(traj).items()}
    _atomic_write(path, json.dumps(data, sort_keys=True))


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _equilibrium_dict(eq) -> dict | None:
    if eq is None:
        return None
    return {
        "kind": eq.kind,
        "windings": [int(k) for k in eq.windings],
        "bipolar_index": eq.bipolar_index,
        "phi_star": eq.phi_star,
    }


def execute_run(cfg: RunConfig, out_dir: Path, fmt: str = "csv",
                quiet: bool = False) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.model == "generic_dgf":
        report = _execute_descent(cfg)
    else:
        report = _execute_oscillators(cfg, out_dir, fmt)
    report["config"] = {
        "model": cfg.model, "n": cfg.n, "seed": cfg.seed, "init": cfg.init,
        "omega": cfg.omega, "coupling": cfg.coupling, "step": cfg.step,
        "max_steps": cfg.max_steps, "conv_tol": cfg.conv_tol,
        "certifiers": cfg.certifiers, "problem": cfg.problem, "x0": cfg.x0,
    }
    report["timestamp"] = time.time()
    _atomic_write(out_dir / "report.json",
                  json.dumps(report, sort_keys=True, indent=2))
    if not quiet:
        for v in report.get("verdicts", []):
            print(f"{v['name']}: {'pass' if v['passed'] else 'FAIL'}")
        print(f"report written to {out_dir / 'report.json'}")
    return report


def _execute_oscillators(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    init = build_initial(cfg)
    freqs = build_frequencies(cfg)
    if cfg.model == "identical" and not freqs.is_identical:
        raise ConfigError("identical model requires omega = zero")
    params = SimParams(coupling=cfg.coupling, step_size=cfg.step,
                       max_steps=cfg.max_steps, conv_tol=cfg.conv_tol)
    traj = simulate(init, freqs, params)

    verdicts = [_verdict(name, traj, options) for name, options in cfg.certifiers.items()]

    eq = None
    if traj.stop_reason == "grad_norm" and freqs.is_identical:
        eq = analysis.match_equilibrium(traj.final_config())

    if fmt == "json":
        write_trajectory_json(traj, out_dir / "trajectory.json")
    else:
        write_trajectory_csv(traj, out_dir / "trajectory.csv")

    return {
        "trajectory": {
            "steps": traj.n_steps,
            "stop_reason": traj.stop_reason,
            "final_grad_norm": float(traj.grad_norms[-1]),
            "final_diameter": float(traj.diameters[-1]),
            "final_phases": [float(v) for v in traj.phases[-1]],
        },
        "equilibrium": _equilibrium_dict(eq),
        "verdicts": verdicts,
    }


def _double_well_problem():
    return descent.DescentProblem(
        dim=1,
        potential=lambda x: float(0.25 * x[0] ** 4 - 0.5 * x[0] ** 2),
        gradient=lambda x: np.array([x[0] ** 3 - x[0]]),
        hessian_bound=11.0,  # sup |3x^2 - 1| on |x| <= 2
        domain_check=lambda x: bool(abs(x[0]) <= 2.0),
    )


def _quadratic_problem(dim):
    return descent.DescentProblem(
        dim=dim,
        potential=lambda x: float(0.5 * (x @ x)),
        gradient=lambda x: np.asarray(x, dtype=float),
        hessian_bound=1.0,
    )


def _execute_descent(cfg: RunConfig) -> dict:
    _, pos, _ = _parse_spec(cfg.x0)
    x0 = np.asarray(pos)
    if cfg.problem == "double_well":
        problem = _double_well_problem()
    elif cfg.problem == "quadratic":
        problem = _quadratic_problem(max(1, x0.size))
    else:
        raise ConfigError(f"unknown descent problem {cfg.problem!r}")
    if x0.size != problem.dim:
        raise ConfigError("x0 dimension does not match problem")
    result = descent.run_descent(problem, x0, cfg.step,
                                 max_steps=cfg.max_steps, tol=cfg.conv_tol)
    cert = descent.certify_descent(problem, result, cfg.step)
    return {
        "trajectory": {
            "steps": int(result.f_values.size - 1),
            "stop_reason": result.stop_reason,
            "final_grad_norm": float(result.grad_norms[-1]),
            "final_point": [float(v) for v in result.final_point],
        },
        "equilibrium": None,
        "verdicts": [{
            "name": "descent",
            "passed": cert.passed,
            "min_slack": cert.min_slack,
            "h_admissible": result.h_admissible,
            "converged": result.converged,
        }],
    }


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_AXES = ("K", "h", "delta", "domega", "N")


def _apply_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """``cfg`` with one axis value applied, checked as a loaded config is."""
    c = copy.deepcopy(cfg)
    if axis == "K":
        c.coupling = float(value)
    elif axis == "h":
        c.step = float(value)
    elif axis == "N":
        c.n = _integer("N", value)
        name, _, _ = _parse_spec(c.init)
        if name == "explicit":
            raise ConfigError("axis N needs a parametric init spec")
    elif axis == "delta":
        name, _, _ = _parse_spec(c.init)
        if name not in ("near-sync", "near-bipolar"):
            raise ConfigError("axis delta needs a near-sync or near-bipolar init")
        c.init = f"{name}(delta={float(value)})"
    elif axis == "domega":
        name, _, _ = _parse_spec(c.omega)
        if name != "uniform":
            raise ConfigError("axis domega needs omega = uniform(...)")
        c.omega = f"uniform(spread={float(value)})"
        if c.model == "identical":
            raise ConfigError("axis domega needs the nonidentical model")
    else:
        raise ConfigError(f"unknown sweep axis {axis!r} (choose from {_AXES})")
    c.validate()
    return c


def execute_sweep(cfg: RunConfig, axis: str, values, out_dir: Path,
                  fmt: str = "csv", quiet: bool = False) -> list[dict]:
    if not values:
        raise ConfigError("sweep needs a nonempty list of values")
    points = []
    for i, v in enumerate(values):
        c = _apply_axis(cfg, axis, v)
        c.seed = cfg.seed ^ i  # documented per-point seed derivation
        points.append((i, v, c))

    results, diverged = [], None
    for i, v, c in points:
        try:
            report = execute_run(c, out_dir / f"point_{i:03d}", fmt=fmt, quiet=True)
        except DivergenceError as exc:
            # a divergent point is a summary row; the sweep goes on
            diverged = diverged or exc
            report = {"trajectory": {"steps": exc.step, "stop_reason": "diverged",
                                     "final_grad_norm": math.nan}, "verdicts": []}
        results.append((i, v, report))

    cert_names = list(cfg.certifiers) or (
        ["descent"] if cfg.model == "generic_dgf" else [])
    lines = [",".join(["index", axis, "steps", "stop_reason", "final_grad_norm"]
                      + [f"cert_{n}" for n in cert_names])]
    for i, v, report in results:
        tr = report["trajectory"]
        verdicts = {x["name"]: x["passed"] for x in report["verdicts"]}
        row = [str(i), _fmt(v) if axis != "N" else str(int(v)), str(tr["steps"]),
               tr["stop_reason"], _fmt(tr["final_grad_norm"])]
        row += ["pass" if verdicts.get(n) else "fail" for n in cert_names]
        lines.append(",".join(row))
    _atomic_write(out_dir / "summary.csv", "\n".join(lines) + "\n")
    if not quiet:
        print(f"sweep summary written to {out_dir / 'summary.csv'}")
    if diverged is not None:
        raise diverged
    return [r for _, _, r in results]


# ---------------------------------------------------------------------------
# classify / thresholds
# ---------------------------------------------------------------------------

def execute_classify(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> dict:
    if cfg.model != "identical":
        raise ConfigError("classification applies to the identical model")
    init = build_initial(cfg)
    try:
        cls = analysis.classify_initial(init, cfg.coupling)
        report = {
            "kind": cls.kind,
            "bipolar_index": cls.bipolar_index,
            "equilibrium": _equilibrium_dict(cls.equilibrium),
            "witness": None if cls.equilibrium is None else {
                "t_end": cls.witness.t_end,
                "grad_norm": cls.witness.grad_norm,
                "residual": cls.witness.residual,
                "r0": cls.witness.r0,
            },
        }
    except ValueError as exc:
        report = {"kind": "unresolved", "error": str(exc)}
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "classification.json",
                  json.dumps(report, sort_keys=True, indent=2))
    if not quiet:
        print(json.dumps(report, sort_keys=True))
    return report


def execute_thresholds(n, n0, l, domega, coupling=None, dtheta0=None) -> dict:
    k_ref = coupling
    if k_ref is None:
        # evaluate step_max at twice the minimum coupling by default
        probe = analysis.cluster_spec(n, n0, l, domega, coupling=1.0)
        k_ref = 2.0 * probe.k_min if probe.k_min > 0 else 1.0
    spec = analysis.cluster_spec(n, n0, l, domega, coupling=k_ref)
    out = {
        "n": n, "n0": n0, "l": l, "domega": domega, "coupling": k_ref,
        "k_min": spec.k_min, "step_max": spec.step_max,
        "coupling_ok": spec.coupling_ok,
    }
    if dtheta0 is not None:
        out["sync_threshold"] = analysis.coupling_threshold(domega, dtheta0)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kdgf",
                                description="oscillator / gradient-descent experiment harness")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="INI or JSON run configuration")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--quiet", action="store_true")

    common(sub.add_parser("run", help="execute one configured run"))

    sp = sub.add_parser("sweep", help="run a config across an axis of values")
    common(sp)
    sp.add_argument("--axis", required=True, choices=_AXES)
    sp.add_argument("--values", required=True,
                    help="comma-separated list of axis values")

    common(sub.add_parser("classify", help="classify the configured initial data"))

    sp = sub.add_parser("thresholds", help="cluster-invariance thresholds")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--n0", type=int, required=True)
    sp.add_argument("--l", type=float, required=True)
    sp.add_argument("--domega", type=float, required=True)
    sp.add_argument("--coupling", type=float, default=None)
    sp.add_argument("--dtheta0", type=float, default=None)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "thresholds":
            print(json.dumps(execute_thresholds(
                args.n, args.n0, args.l, args.domega,
                coupling=args.coupling, dtheta0=args.dtheta0), sort_keys=True))
            return 0

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.out)
        if args.command == "run":
            execute_run(cfg, out_dir, fmt=args.format, quiet=args.quiet)
        elif args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            execute_sweep(cfg, args.axis, values, out_dir, fmt=args.format,
                          quiet=args.quiet)
        elif args.command == "classify":
            execute_classify(cfg, out_dir, quiet=args.quiet)
        return 0
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
