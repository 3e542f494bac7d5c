"""Fixed-step time integration: the explicit Euler scheme that defines the
discrete dynamics, a Runge-Kutta reference for the continuous flow, and the
classical global-error bound relating the two."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    mean_field,
    potential_from_mean_field,
    velocity_arrays,
)

DIVERGENCE_LIMIT = 1.0e6


class DivergenceError(RuntimeError):
    """Raised when a phase magnitude exceeds the divergence guard.

    Out-of-theory behaviour (step size too large); carries the step index.
    """

    def __init__(self, step: int):
        super().__init__(f"divergence: |theta| exceeded {DIVERGENCE_LIMIT:g} at step {step}")
        self.step = step


@dataclass(frozen=True)
class StoppingRule:
    """Which conditions end a run besides the max_steps cap.

    grad_tol: stop once the gradient norm drops below this (None uses
        params.conv_tol, 0 disables).
    diameter_tol: stop once the full phase diameter drops below this.
    """

    grad_tol: float | None = None
    diameter_tol: float | None = None


@dataclass
class Trajectory:
    """A complete run: configuration per step plus per-step diagnostics.

    ``phases`` has shape (n_steps + 1, N); row n is step n, and row n+1 is
    always one Euler step of row n (replay-checkable).
    """

    phases: np.ndarray
    params: SimParams
    freqs: NaturalFrequencies
    diameters: np.ndarray
    potentials: np.ndarray
    grad_norms: np.ndarray
    order_r: np.ndarray
    order_phi: np.ndarray
    stop_reason: str = "max_steps"

    @property
    def n_steps(self) -> int:
        return self.phases.shape[0] - 1

    @property
    def n(self) -> int:
        return self.phases.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.phases.shape[0]) * self.params.step_size

    def config(self, n: int) -> PhaseConfig:
        return PhaseConfig(self.phases[n], n_step=n)

    def final_config(self) -> PhaseConfig:
        return self.config(self.n_steps)


def euler_step(config: PhaseConfig, freqs: NaturalFrequencies,
               params: SimParams) -> PhaseConfig:
    """One explicit step theta_i + h*(omega_i + (K/N) sum_j sin(theta_j - theta_i)).

    Shares its update arithmetic with :func:`kdgf.core.kuramoto_gradient`, so
    euler_step(c) == c - h * gradient(c) holds bitwise.
    """
    if config.n != freqs.omega.size:
        raise ValueError("length mismatch between phases and frequencies")
    v = velocity_arrays(config.phases, freqs.omega, params.coupling)
    v *= params.step_size
    v += config.phases
    return PhaseConfig(v, n_step=config.n_step + 1)


def _diagnostic_series(phases, omega, coupling):
    """Potential, order_r and order_phi of every row, all from one mean field
    Z per row.  Rows go in chunks of about 2**18 phases so the complex
    workspace stays bounded on long runs."""
    m, n = phases.shape
    potentials = np.empty(m)
    order_r = np.empty(m)
    order_phi = np.empty(m)
    chunk = max(1, 262144 // n)
    for lo in range(0, m, chunk):
        rows = slice(lo, lo + chunk)
        z = mean_field(phases[rows])
        potentials[rows] = potential_from_mean_field(z, phases[rows], omega, coupling)
        np.abs(z, out=order_r[rows])
        order_phi[rows] = np.angle(z)
    order_r /= n
    np.minimum(order_r, 1.0, out=order_r)
    return potentials, order_r, order_phi


def simulate(init: PhaseConfig, freqs: NaturalFrequencies, params: SimParams,
             stop: StoppingRule | None = None) -> Trajectory:
    """Iterate the Euler scheme until a stopping rule fires.

    Stops at the first of: gradient norm below tolerance ("grad_norm"),
    full diameter below tolerance ("diameter"), or the step cap
    ("max_steps").  Raises DivergenceError if any phase magnitude passes
    the 1e6 guard.
    """
    if init.n != freqs.omega.size:
        raise ValueError("length mismatch between phases and frequencies")
    if stop is None:
        stop = StoppingRule()
    grad_tol = params.conv_tol if stop.grad_tol is None else stop.grad_tol
    diam_tol = stop.diameter_tol

    n = init.n
    omega = freqs.omega
    kk = params.coupling
    h = params.step_size
    max_steps = params.max_steps

    cap = min(max_steps + 1, 4096)
    buf = np.empty((cap, n))
    buf[0] = init.phases
    diam = np.empty(cap)
    gnorm = np.empty(cap)

    vel = np.empty(n)
    step_vec = np.empty(n)

    reason = "max_steps"
    m = 0  # index of the last filled row
    while True:
        theta = buf[m]
        hi = float(theta.max())
        lo = float(theta.min())
        if m > 0 and (hi > DIVERGENCE_LIMIT or lo < -DIVERGENCE_LIMIT):
            raise DivergenceError(m)
        velocity_arrays(theta, omega, kk, out=vel)
        gn = math.sqrt(float(vel @ vel))
        gnorm[m] = gn
        diam[m] = hi - lo

        if grad_tol > 0.0 and gn < grad_tol:
            reason = "grad_norm"
            break
        if diam_tol is not None and diam[m] < diam_tol:
            reason = "diameter"
            break
        if m >= max_steps:
            reason = "max_steps"
            break

        if m + 1 >= cap:
            cap = min(max_steps + 1, cap * 4)
            buf = np.concatenate([buf, np.empty((cap - buf.shape[0], n))])
            diam = np.concatenate([diam, np.empty(cap - diam.shape[0])])
            gnorm = np.concatenate([gnorm, np.empty(cap - gnorm.shape[0])])
        np.multiply(vel, h, out=step_vec)
        np.add(theta, step_vec, out=buf[m + 1])
        m += 1

    phases = buf[: m + 1].copy()
    phases.setflags(write=False)
    potentials, order_r, order_phi = _diagnostic_series(phases, omega, kk)
    return Trajectory(
        phases=phases,
        params=params,
        freqs=freqs,
        diameters=diam[: m + 1].copy(),
        potentials=potentials,
        grad_norms=gnorm[: m + 1].copy(),
        order_r=order_r,
        order_phi=order_phi,
        stop_reason=reason,
    )


# ---------------------------------------------------------------------------
# continuous-time reference
# ---------------------------------------------------------------------------

def rk4_step(theta: np.ndarray, omega: np.ndarray, coupling: float,
             dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of the continuous flow."""
    k1 = velocity_arrays(theta, omega, coupling)
    k2 = velocity_arrays(theta + (0.5 * dt) * k1, omega, coupling)
    k3 = velocity_arrays(theta + (0.5 * dt) * k2, omega, coupling)
    k4 = velocity_arrays(theta + dt * k3, omega, coupling)
    return theta + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class Rk4Path:
    """Dense-output continuous-flow reference: linear interpolation between
    fixed-step RK4 knots."""

    knots: np.ndarray
    dt: float
    t_end: float
    freqs: NaturalFrequencies
    coupling: float

    def __call__(self, t: float) -> np.ndarray:
        if t < -1e-12 or t > self.t_end * (1 + 1e-12) + 1e-12:
            raise ValueError(f"time {t} outside reference horizon [0, {self.t_end}]")
        x = min(max(t, 0.0), self.t_end) / self.dt
        i = min(int(x), self.knots.shape[0] - 2)
        w = x - i
        return (1.0 - w) * self.knots[i] + w * self.knots[i + 1]

    def config(self, t: float) -> PhaseConfig:
        return PhaseConfig(self(t))


def rk4_reference(init: PhaseConfig, freqs: NaturalFrequencies, coupling: float,
                  t_end: float, dt: float) -> Rk4Path:
    """Integrate the continuous flow to ``t_end`` with fixed-step RK4.

    The requested ``dt`` is shrunk (never grown) so the horizon is an exact
    number of steps.  Against a forward-Euler run with step h the reference
    is only meaningful for dt <= h/10; euler_error_bound enforces that.
    """
    if init.n != freqs.omega.size:
        raise ValueError("length mismatch between phases and frequencies")
    if not (t_end > 0 and dt > 0):
        raise ValueError("t_end and dt must be positive")
    m = max(1, int(math.ceil(t_end / dt - 1e-12)))
    dt_eff = t_end / m
    knots = np.empty((m + 1, init.n))
    knots[0] = init.phases
    y = init.phases.copy()
    for i in range(m):
        y = rk4_step(y, freqs.omega, coupling, dt_eff)
        if not np.all(np.isfinite(y)):
            raise ValueError(f"non-finite reference state at knot {i + 1}")
        knots[i + 1] = y
    knots.setflags(write=False)
    return Rk4Path(knots=knots, dt=dt_eff, t_end=t_end, freqs=freqs,
                   coupling=coupling)


# ---------------------------------------------------------------------------
# global error certification
# ---------------------------------------------------------------------------

@dataclass
class ErrorBoundReport:
    """Per-step comparison of a fixed-step run against the continuous
    reference, with the one-step-defect global error envelope."""

    truncation_max: float
    lipschitz: float
    bound_curve: np.ndarray
    observed_error: np.ndarray
    within_bound: bool


def euler_error_bound(traj: Trajectory, oracle: Rk4Path,
                      lipschitz: float) -> ErrorBoundReport:
    """Check sup-norm error against (T_max / L) * (exp(L n h) - 1).

    T_max is the largest one-step defect of the reference solution pushed
    through the Euler update; L is the sup-norm Lipschitz constant of the
    vector field (2K for the oscillator system).
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be positive")
    h = traj.params.step_size
    m = traj.n_steps
    if m * h > oracle.t_end * (1 + 1e-9) + 1e-12:
        raise ValueError("horizon mismatch: reference does not cover the run")
    if oracle.dt > h / 10.0 * (1 + 1e-9):
        raise ValueError("reference resolution too coarse: need dt <= h/10")

    ref = np.empty_like(traj.phases)
    for i in range(m + 1):
        ref[i] = oracle(i * h)

    # one-step defect of the true solution under the Euler update
    trunc = np.zeros(m + 1)
    for i in range(m):
        f_ref = velocity_arrays(ref[i], traj.freqs.omega, traj.params.coupling)
        trunc[i] = float(np.abs((ref[i + 1] - ref[i]) / h - f_ref).max())
    t_max = float(trunc.max()) if m > 0 else 0.0

    steps = np.arange(m + 1)
    bound = (t_max / lipschitz) * np.expm1(lipschitz * steps * h)
    observed = np.abs(ref - traj.phases).max(axis=1)
    within = bool(np.all(observed <= bound * (1 + 1e-6) + 1e-300))
    return ErrorBoundReport(
        truncation_max=t_max,
        lipschitz=lipschitz,
        bound_curve=bound,
        observed_error=observed,
        within_bound=within,
    )
