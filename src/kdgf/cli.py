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
import dataclasses
import inspect
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import _floatfmt, analysis, descent, inits
from .core import NaturalFrequencies, PhaseConfig, SimParams, row_chunks, span
from .integrate import (
    DivergenceError,
    Trajectory,
    euler_error_bound,
    rk4_reference,
    rk4_substeps,
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
    pos, kw, key = [], {}, f"an argument of {text!r}"
    body = m.group(2)
    if body:
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                k, v = part.split("=", 1)
                kw[k.strip()] = _number(key, v)
            else:
                pos.append(_number(key, part))
    return name, pos, kw


def _spec_arg(text: str, pos, kw, key: str, default: float) -> float:
    """The one argument of a parametric spec, by position or as ``key=``;
    ``default`` when it has none."""
    if len(pos) + len(kw) > 1 or set(kw) - {key}:
        raise ConfigError(f"{text!r} takes at most one argument, {key}")
    return kw.get(key, pos[0] if pos else default)


@dataclasses.dataclass
class RunConfig:
    model: str = "identical"
    n: int = 0
    seed: int = 0
    init: str = "near-sync(0.1)"
    omega: str = "zero"
    coupling: float | None = None
    step: float | None = None
    max_steps: int = 1_000_000
    conv_tol: float = 1e-10
    certifiers: dict = dataclasses.field(default_factory=dict)
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
        if self.max_steps < 0:
            raise ConfigError("max_steps must be nonnegative")
        for name, kw in self.certifiers.items():
            if name not in CERTIFIERS:
                raise ConfigError(f"unknown certifier {name!r}")
            if self.model == "generic_dgf" and name not in ("descent", "gradient_square_sum"):
                raise ConfigError(f"model generic_dgf has no phases for certifier {name!r}")
            try:  # the certifier's signature declares its options
                inspect.signature(CERTIFIERS[name]).bind(None, **kw)
            except TypeError as exc:
                raise ConfigError(f"{name}: {exc}") from None
            for key, value in kw.items():  # an integer option is always finite
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{name} option {key} must be finite")
            if "eps" in kw and not kw["eps"] > 0:
                raise ConfigError(f"{name} option eps must be positive and finite")

    @property
    def applied_certifiers(self) -> dict:
        """The run's [certifiers]; without any, descent for generic_dgf."""
        return self.certifiers or ({"descent": {}} if self.model == "generic_dgf" else {})


def _number(key: str, value) -> float:
    """``value`` as a float; a config value that is not a number is a
    ConfigError, whichever file format it came from; so is a boolean."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
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
    if isinstance(value, (int, str)) and not isinstance(value, bool):
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


def _declared(what: str, keys, allowed):
    """A key nothing would read is a ConfigError, not silently dropped."""
    for key in keys:
        if key not in allowed:
            raise ConfigError(f"unknown {what} {key!r}")


_SECTIONS = ("run", "certifiers")
# RunConfig declares the [run] table: each key's conversion, by its field's type
_CONVERTERS = {"int": _integer, "float": _number, "float | None": _number,
               "str": lambda key, value: str(value)}
_RUN_KEYS = {f.name: _CONVERTERS[f.type] for f in dataclasses.fields(RunConfig)
             if f.name != "certifiers"}


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
        data = json.loads(text) if path.suffix == ".json" else None
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if path.suffix == ".json":
        data = _object("the config", data)
        _declared("top-level key", data, _SECTIONS)
        run = _object("run", data.get("run", {}))
        certs = {name: _object(f"certifier {name}", {} if opts is None else opts)
                 for name, opts in _object("certifiers", data.get("certifiers", {})).items()}
    else:
        # no default section: a [DEFAULT] is a section like any other, so is refused
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="")
        try:
            cp.read_string(text, source=str(path))
            _declared("section", cp.sections(), _SECTIONS)
            run = dict(cp["run"]) if "run" in cp else None
            certs = dict(cp["certifiers"]) if "certifiers" in cp else {}
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from None
        if run is None:
            raise ConfigError("config needs a [run] section")
        certs = {name: _ini_options(val) for name, val in certs.items()}

    _declared("[run] key", run, _RUN_KEYS)
    cfg = RunConfig(**{k: _RUN_KEYS[k](k, v) for k, v in run.items() if v is not None})
    cfg.model = cfg.model.lower()
    cfg.certifiers = {
        str(name).lower(): {k: (_integer if k in _INTEGER_OPTIONS else _number)(
            f"{name} option {k}", v) for k, v in kw.items()}
        for name, kw in certs.items()}
    cfg.validate()
    return cfg


def _explicit(text: str, key: str, size: int | None):
    """The values of an ``explicit(...)`` spec, ``size`` of them unless
    None; any other spec is a ConfigError."""
    name, pos, kw = _parse_spec(text)
    if name != "explicit" or kw:
        raise ConfigError(f"{key} must be explicit(a, b, ...), got {text!r}")
    if size is not None and len(pos) != size:
        raise ConfigError(f"explicit {key} length does not match n")
    return np.asarray(pos)


def build_initial(cfg: RunConfig) -> PhaseConfig:
    name, pos, kw = _parse_spec(cfg.init)
    if name == "explicit":
        theta = _explicit(cfg.init, "init", cfg.n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            centred = theta - theta.mean()
        if np.isfinite(theta).all() and not np.isfinite(centred).all():
            raise ConfigError("init: centring the explicit phases on their mean overflows")
        return PhaseConfig(centred)
    if name == "near-sync":
        return inits.near_sync(cfg.n, _spec_arg(cfg.init, pos, kw, "delta", 0.1))
    if name == "near-bipolar":
        return inits.near_bipolar(cfg.n, _spec_arg(cfg.init, pos, kw, "delta", 0.05))
    if name == "random-arc":
        width = _spec_arg(cfg.init, pos, kw, "width", math.pi)
        return inits.random_arc(cfg.n, width, np.random.default_rng(cfg.seed))
    raise ConfigError(f"unknown init spec {cfg.init!r}")


def build_frequencies(cfg: RunConfig) -> NaturalFrequencies:
    name, pos, kw = _parse_spec(cfg.omega)
    if name == "zero":
        if pos or kw:
            raise ConfigError(f"omega {cfg.omega!r}: zero takes no argument")
        return NaturalFrequencies.zero(cfg.n)
    if name == "explicit":
        return NaturalFrequencies(_explicit(cfg.omega, "omega", cfg.n))
    if name == "uniform":
        spread = _spec_arg(cfg.omega, pos, kw, "spread", 0.1)
        return inits.uniform_frequencies(cfg.n, spread, np.random.default_rng(cfg.seed + 1))
    raise ConfigError(f"unknown omega spec {cfg.omega!r}")


_PROBLEMS = {
    "double_well": lambda _: descent.DescentProblem(
        dim=1,
        potential=lambda x: float(0.25 * x[0] ** 4 - 0.5 * x[0] ** 2),
        gradient=lambda x: np.array([x[0] ** 3 - x[0]]),
        hessian_bound=11.0,  # sup |3x^2 - 1| on |x| <= 2
        domain_check=lambda x: bool(abs(x[0]) <= 2.0),
    ),
    "quadratic": lambda dim: descent.DescentProblem(
        dim=dim,
        potential=lambda x: float(0.5 * (x @ x)),
        gradient=lambda x: np.asarray(x, dtype=float),
        hessian_bound=1.0,
    ),
}


def build_inputs(cfg: RunConfig) -> tuple:
    """Everything a run needs, built and checked before anything is
    written: ``(init, freqs, SimParams)`` for the oscillator models and
    ``(problem, x0)`` for generic_dgf.  An input that cannot be built is a
    ConfigError."""
    if cfg.model == "generic_dgf":
        if cfg.problem not in _PROBLEMS:
            raise ConfigError(f"unknown descent problem {cfg.problem!r}")
        x0 = _explicit(cfg.x0, "x0", None)
        problem = _PROBLEMS[cfg.problem](max(1, x0.size))
        if x0.size != problem.dim:
            raise ConfigError("x0 dimension does not match problem")
        if not (np.all(np.isfinite(x0)) and problem.in_domain(x0)):
            raise ConfigError("x0 lies outside the problem's domain")
        return problem, x0
    try:
        init, freqs = build_initial(cfg), build_frequencies(cfg)
    except MemoryError as exc:  # n too large to allocate
        raise ConfigError(f"n = {cfg.n} is too large: {exc}") from None
    if cfg.model == "identical" and not freqs.is_identical:
        raise ConfigError("identical model requires omega = zero")
    return init, freqs, SimParams(coupling=cfg.coupling, step_size=cfg.step,
                                  max_steps=cfg.max_steps, conv_tol=cfg.conv_tol)


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
    return {"passed": cert.passed, "alpha": alpha, "side": cert.where,
            "first_violation": cert.first_violation}


def _cert_bipolar_containment(traj, tol=0.05):
    cert = analysis.check_bipolar_containment(traj, _need_bipolar_state(traj, tol))
    return {"passed": cert.passed, "first_exit": cert.first_violation,
            "exit_side": cert.where}


def _cert_bipolar_bounds(traj, eps=0.3, alpha=None, tol=0.05):
    eq = _need_bipolar_state(traj, tol)
    if alpha is None:
        alpha = _default_alpha(traj.n, traj.params.coupling, eps)
    cert = analysis.certify_bipolar_bounds(traj, eq, alpha, eps)
    return {"passed": cert.passed, "alpha": alpha, "which": cert.where,
            "first_violation": cert.first_violation}


def _cert_cluster_invariance(traj, n0, l):
    spec = analysis.cluster_spec(traj.n, n0, l, traj.freqs.d_omega, traj.params.coupling)
    cert = analysis.certify_cluster_invariance(traj, spec)
    return {"passed": cert.passed, "first_violation": cert.first_violation,
            "k_min": spec.k_min, "step_max": spec.step_max,
            "max_cluster_diameter": float(span(traj.phases[:, :n0]).max())}


def _cert_uniform_bound(traj, l):
    cert = analysis.certify_uniform_bound(traj, l)
    return {"passed": cert.passed, "first_violation": cert.first_violation,
            "max_diameter": float(traj.diameters.max())}


def _cert_fit_decay(traj, start=0, stop=None):
    window = (start, traj.n_steps + 1 if stop is None else stop)
    fit = analysis.fit_decay_rate(traj.diameters, traj.params.step_size, window)
    return {"passed": True, "alpha_fit": fit.alpha_fit,
            "r_squared": fit.r_squared, "degenerate": fit.degenerate}


def _cert_error_bound(traj, lipschitz=None, max_steps=20_000):
    # the reference takes `substeps` RK4 steps per Euler step; its cost is
    # capped at the RK4 work of 10 substeps for each of max_steps steps
    if traj.n_steps > max_steps:
        raise ValueError("run too long for the reference integration")
    if lipschitz is None:
        lipschitz = 2.0 * traj.params.coupling
    if not lipschitz > 0:  # known before the reference is built
        raise ValueError("lipschitz must be positive")
    h = traj.params.step_size
    substeps = rk4_substeps(h, traj.params.coupling, traj.freqs)
    if traj.n_steps * substeps > 10 * max_steps:
        raise ValueError(f"run too long for the reference integration: {traj.n_steps} "
                         f"steps of {substeps} RK4 substeps exceed 10 * max_steps")
    oracle = rk4_reference(traj.config(0), traj.freqs, traj.params.coupling, h, traj.n_steps)
    rep = euler_error_bound(traj, oracle, lipschitz)
    return {"passed": rep.within_bound,
            "truncation_max": rep.truncation_max,
            "max_observed_error": float(rep.observed_error.max()),
            "substeps": oracle.substeps}


def _cert_descent(traj):
    f_values, grad_norms, h, c = descent.descent_series(traj)
    cert = descent.descent_certificate(f_values, grad_norms, h, c)
    # a gradient norm below tol stops a descent run as "converged", a Trajectory as "grad_norm"
    return {"passed": cert.passed, "min_slack": cert.min_slack, "h_admissible": bool(h < 2.0 / c),
            "converged": traj.stop_reason in ("converged", "grad_norm")}


def _cert_gradient_square_sum(traj):
    rep = descent.gradient_square_sum(traj, *descent.descent_series(traj)[2:])
    return {"passed": rep.holds, "weighted_sum": rep.weighted_sum, "f_drop": rep.f_drop}


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
    "descent": _cert_descent,
    "gradient_square_sum": _cert_gradient_square_sum,
}


def _verdict(name: str, run, options: dict) -> dict:
    """Run one certifier on a Trajectory or a generic_dgf DescentResult.  A ValueError or
    an overflow is a hypothesis the run does not meet: a failed verdict, not a failed run."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return {"name": name, **CERTIFIERS[name](run, **options)}
    except (ValueError, FloatingPointError) as exc:
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


# Values per chunk a trajectory writer renders and writes.  The bulk
# formatter's numpy temporaries take about 200 bytes per value, so a chunk
# adds about 1.6 MB to a run's peak memory; larger chunks were no faster
# (their arrays leave the cache).  A call costs about 0.14 ms whatever its
# size (a 6-value render), paid once per CSV chunk and once per chunk of
# each JSON column.
CHUNK_VALUES = 2**13


def write_trajectory_csv(traj: Trajectory, path: Path):
    """The trajectory as CSV, one row per step: the step number, then each
    value exactly as ``repr`` renders it; rendered in bulk (``_floatfmt``)
    and written a chunk of rows at a time."""
    table = _trajectory_table(traj)
    cols = ["n"]
    for name, col in table.items():
        cols += [f"{name}_{i}" for i in range(col.shape[1])] if col.ndim == 2 else [name]

    def text():
        yield (",".join(cols) + "\n").encode()
        for rows in row_chunks(traj.n_steps + 1, len(cols), CHUNK_VALUES):
            block = np.column_stack([col[rows] for col in table.values()])
            yield _floatfmt.numbered_rows(block, rows.start)
    _atomic_write(path, text())


_JSON_SEP = _floatfmt.sep_word(b", ")
_JSON_ROW_END = _floatfmt.sep_word(b"], [")


def write_trajectory_json(traj: Trajectory, path: Path):
    """The trajectory as ``json.dumps(table, sort_keys=True)`` of its
    columns as lists, each value exactly as ``json.dumps`` renders it;
    written a column at a time, one bulk ``_floatfmt.render`` call per
    chunk of the column's rows."""
    def text():
        for i, (name, col) in enumerate(sorted(_trajectory_table(traj).items())):
            yield f'{", " if i else "{"}{json.dumps(name)}: {"[" * col.ndim}'.encode()
            width = col.shape[1] if col.ndim == 2 else 1
            for rows in row_chunks(len(col), width, CHUNK_VALUES):
                block = col[rows].reshape(-1, width)
                seps = np.full(block.shape, _JSON_SEP, dtype=np.uint64)
                if col.ndim == 2:
                    seps[:, -1] = _JSON_ROW_END
                if rows.stop >= len(col):
                    seps[-1, -1] = _floatfmt.sep_word(b"]" * col.ndim)
                yield _floatfmt.render(block, seps, json.dumps)
        yield b"}"
    _atomic_write(path, text())


def _atomic_write(path: Path, data):
    """Write ``data`` (bytes, or an iterable of bytes written in turn) to a
    temporary file, then move it into place.  A write that fails leaves
    neither file behind."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines([data] if isinstance(data, bytes) else data)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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


def _make_out_dir(out_dir: Path):
    """Create the output directory; one that cannot be made is a ConfigError."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None


def execute_run(cfg: RunConfig, out_dir: Path, fmt: str = "csv",
                quiet: bool = False) -> dict:
    """Run, certify and write one config."""
    inputs = build_inputs(cfg)
    _make_out_dir(out_dir)
    if cfg.model == "generic_dgf":
        run, report = _execute_descent(*inputs, cfg)
    else:
        run, report = _execute_oscillators(*inputs, out_dir, fmt)
    report["verdicts"] = [_verdict(n, run, opts) for n, opts in cfg.applied_certifiers.items()]
    report["config"] = dataclasses.asdict(cfg)
    report["timestamp"] = time.time()
    _atomic_write(out_dir / "report.json",
                  json.dumps(report, sort_keys=True, indent=2).encode())
    if not quiet:
        for v in report["verdicts"]:
            print(f"{v['name']}: {'pass' if v['passed'] else 'FAIL'}")
        print(f"report written to {out_dir / 'report.json'}")
    return report


def _execute_oscillators(init, freqs, params, out_dir: Path, fmt: str) -> tuple:
    traj = simulate(init, freqs, params)
    eq = None
    if traj.stop_reason == "grad_norm" and freqs.is_identical:
        eq = analysis.match_equilibrium(traj.final_config())

    if fmt == "json":
        write_trajectory_json(traj, out_dir / "trajectory.json")
    else:
        write_trajectory_csv(traj, out_dir / "trajectory.csv")

    return traj, {
        "trajectory": {
            "steps": traj.n_steps,
            "stop_reason": traj.stop_reason,
            "final_grad_norm": float(traj.grad_norms[-1]),
            "final_diameter": float(traj.diameters[-1]),
            "final_phases": [float(v) for v in traj.phases[-1]],
        },
        "equilibrium": _equilibrium_dict(eq),
    }


def _execute_descent(problem, x0, cfg: RunConfig) -> tuple:
    result = descent.run_descent(problem, x0, cfg.step,
                                 max_steps=cfg.max_steps, tol=cfg.conv_tol)
    return result, {
        "trajectory": {
            "steps": int(result.f_values.size - 1),
            "stop_reason": result.stop_reason,
            "final_grad_norm": float(result.grad_norms[-1]),
            "final_point": [float(v) for v in result.final_point],
        },
        "equilibrium": None,
    }


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_AXES = {"K": "coupling", "h": "step", "delta": "init", "domega": "omega", "N": "n"}


def _apply_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """``cfg`` with one axis value applied, read and checked as a loaded config is."""
    if cfg.model == "generic_dgf" and axis != "h":
        raise ConfigError(f"model generic_dgf sweeps only over axis h, not {axis!r}")
    if axis not in _AXES:
        raise ConfigError(f"unknown sweep axis {axis!r} (choose from {tuple(_AXES)})")
    if axis == "delta":
        name = _parse_spec(cfg.init)[0]
        if name not in ("near-sync", "near-bipolar"):
            raise ConfigError("axis delta needs a near-sync or near-bipolar init")
        value = f"{name}(delta={float(value)})"
    elif axis == "domega":
        if _parse_spec(cfg.omega)[0] != "uniform":
            raise ConfigError("axis domega needs omega = uniform(...)")
        value = f"uniform(spread={float(value)})"
    key = _AXES[axis]
    c = dataclasses.replace(cfg, **{key: _RUN_KEYS[key](axis, value)})
    c.validate()
    return c


def _sweep_point(cfg: RunConfig, out_dir: Path, fmt: str):
    """One sweep point in a worker process, exactly as ``kdgf run`` does it:
    its report, or the DivergenceError its run raised.  ``execute_run`` is
    looked up when the point runs, so a wrapped ``cli.execute_run`` is the
    one called."""
    try:
        return execute_run(cfg, out_dir, fmt=fmt, quiet=True)
    except DivergenceError as exc:
        return exc


def _run_points(points, out_dir: Path, fmt: str) -> list:
    """Step, certify and write every point in worker processes, one per CPU
    up to one per point.  Returns each point's report or DivergenceError,
    by index."""
    # imported here: the pool's modules would add to every kdgf run's start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(points), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_sweep_point, points,
                             [out_dir / f"point_{i:03d}" for i in range(len(points))],
                             [fmt] * len(points)))


def execute_sweep(cfg: RunConfig, axis: str, values, out_dir: Path,
                  fmt: str = "csv", quiet: bool = False) -> list[dict]:
    if not values:
        raise ConfigError("sweep needs a nonempty list of values")
    points = []
    for i, v in enumerate(values):
        c = _apply_axis(cfg, axis, v)
        c.seed = cfg.seed ^ i  # documented per-point seed derivation
        build_inputs(c)  # a bad point fails before any point runs
        points.append(c)
    _make_out_dir(out_dir)

    reports, diverged = [], {}
    for i, result in enumerate(_run_points(points, out_dir, fmt)):
        if isinstance(result, DivergenceError):
            # a divergent point is a summary row; the sweep goes on
            diverged[i] = result
            result = {"trajectory": {"steps": result.step, "stop_reason": "diverged",
                                     "final_grad_norm": math.nan}, "verdicts": []}
        reports.append(result)

    cert_names = list(cfg.applied_certifiers)
    lines = [",".join(["index", axis, "steps", "stop_reason", "final_grad_norm"]
                      + [f"cert_{n}" for n in cert_names])]
    for i, v in enumerate(values):
        tr = reports[i]["trajectory"]
        verdicts = {x["name"]: x["passed"] for x in reports[i]["verdicts"]}
        row = [str(i), _fmt(v) if axis != "N" else str(int(v)), str(tr["steps"]),
               tr["stop_reason"], _fmt(tr["final_grad_norm"])]
        row += ["pass" if verdicts.get(n) else "fail" for n in cert_names]
        lines.append(",".join(row))
    _atomic_write(out_dir / "summary.csv", ("\n".join(lines) + "\n").encode())
    if not quiet:
        print(f"sweep summary written to {out_dir / 'summary.csv'}")
    if diverged:
        raise diverged[min(diverged)]
    return reports


# ---------------------------------------------------------------------------
# classify / thresholds
# ---------------------------------------------------------------------------

def execute_classify(cfg: RunConfig, out_dir: Path, quiet: bool = False) -> dict:
    if cfg.model != "identical":
        raise ConfigError("classification applies to the identical model")
    init, _, _ = build_inputs(cfg)
    try:
        cls = analysis.classify_initial(init, cfg.coupling)
        report = {
            "kind": cls.kind,
            "bipolar_index": cls.bipolar_index,
            "equilibrium": _equilibrium_dict(cls.equilibrium),
            "witness": None if cls.equilibrium is None else dataclasses.asdict(cls.witness),
        }
    except analysis.WitnessRangeError:
        raise  # bad input, not an unresolved flow: exit 2 with no --out
    except ValueError as exc:
        report = {"kind": "unresolved", "error": str(exc)}
    _make_out_dir(out_dir)
    _atomic_write(out_dir / "classification.json",
                  json.dumps(report, sort_keys=True, indent=2).encode())
    if not quiet:
        print(json.dumps(report, sort_keys=True))
    return report


def execute_thresholds(n, n0, l, domega, coupling=None, dtheta0=None) -> dict:
    k_ref = coupling
    if k_ref is None:
        # evaluate step_max at twice the minimum coupling by default
        probe = analysis.cluster_spec(n, n0, l, domega, coupling=1.0)
        k_ref = 2.0 * probe.k_min if probe.k_min > 0 else 1.0
        if not math.isfinite(k_ref):
            raise ValueError(f"the default coupling 2 * k_min overflows (k_min = {probe.k_min!r})")
    out = dataclasses.asdict(analysis.cluster_spec(n, n0, l, domega, coupling=k_ref))
    out["domega"] = out.pop("d_omega")
    if dtheta0 is not None:
        out["sync_threshold"] = analysis.coupling_threshold(domega, dtheta0)
    # finite inputs, so a value that is not finite overflowed; JSON has no infinity
    overflowed = [key for key, value in sorted(out.items()) if not math.isfinite(value)]
    if overflowed:
        raise ValueError(f"{', '.join(overflowed)} overflow to infinity at these inputs")
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
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--quiet", action="store_true")
        return sp

    run = common(sub.add_parser("run", help="execute one configured run"))
    sp = common(sub.add_parser("sweep", help="run a config across an axis of values"))
    for writer in (run, sp):  # classify writes no trajectory
        writer.add_argument("--format", choices=("csv", "json"), default="csv")
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
