"""Fixed-step time integration: the explicit Euler scheme that defines the
discrete dynamics, a Runge-Kutta reference for the continuous flow, and the
classical global-error bound relating the two."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    _check_lengths,
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
    _check_lengths(config, freqs)
    v = velocity_arrays(config.phases, freqs.omega, params.coupling)
    v *= params.step_size
    v += config.phases
    return PhaseConfig(v, n_step=config.n_step + 1)


def _diagnostic_series(phases, omega, coupling):
    """Diameter, potential, order_r and order_phi of every row; the last
    three from one mean field Z per row.  Rows go in chunks of about 2**18
    phases so the complex workspace stays bounded on long runs."""
    m, n = phases.shape
    diameters = phases.max(axis=1) - phases.min(axis=1)
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
    return diameters, potentials, order_r, order_phi


def simulate(init: PhaseConfig, freqs: NaturalFrequencies,
             params: SimParams) -> Trajectory:
    """Iterate the Euler scheme until the gradient norm drops below
    ``params.conv_tol`` ("grad_norm") or the step cap is reached
    ("max_steps"); conv_tol = 0 runs to the cap.  Raises DivergenceError if
    any phase magnitude passes the 1e6 guard.
    """
    _check_lengths(init, freqs)
    n = init.n
    omega = freqs.omega
    kk = params.coupling
    h = params.step_size
    max_steps = params.max_steps
    grad_tol = params.conv_tol

    cap = min(max_steps + 1, 4096)
    buf = np.empty((cap, n))
    buf[0] = init.phases
    gnorm = np.empty(cap)

    vel = np.empty(n)
    step_vec = np.empty(n)

    m = 0  # index of the last filled row
    while True:
        theta = buf[m]
        if m > 0 and (float(theta.max()) > DIVERGENCE_LIMIT
                      or float(theta.min()) < -DIVERGENCE_LIMIT):
            raise DivergenceError(m)
        velocity_arrays(theta, omega, kk, out=vel)
        gn = math.sqrt(float(vel @ vel))
        gnorm[m] = gn

        if gn < grad_tol:
            reason = "grad_norm"
            break
        if m >= max_steps:
            reason = "max_steps"
            break

        if m + 1 >= cap:
            cap = min(max_steps + 1, cap * 4)
            buf = np.concatenate([buf, np.empty((cap - buf.shape[0], n))])
            gnorm = np.concatenate([gnorm, np.empty(cap - gnorm.shape[0])])
        np.multiply(vel, h, out=step_vec)
        np.add(theta, step_vec, out=buf[m + 1])
        m += 1

    phases = buf[: m + 1].copy()
    phases.setflags(write=False)
    diameters, potentials, order_r, order_phi = _diagnostic_series(phases, omega, kk)
    return Trajectory(
        phases=phases,
        params=params,
        freqs=freqs,
        diameters=diameters,
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


@dataclass(frozen=True)
class Rk4Path:
    """Continuous-flow reference on an Euler grid: row i of ``knots`` is the
    state at t = i * step_size."""

    knots: np.ndarray
    step_size: float


def rk4_reference(init: PhaseConfig, freqs: NaturalFrequencies, coupling: float,
                  h: float, n_steps: int) -> Rk4Path:
    """Integrate the continuous flow over ``n_steps`` Euler steps of size
    ``h``, each taken as 10 RK4 substeps of h/10; only the state after each
    whole step is kept, so the reference holds (n_steps + 1) rows.
    """
    _check_lengths(init, freqs)
    if not (h > 0 and n_steps >= 0):
        raise ValueError("h must be positive and n_steps nonnegative")
    dt = h / 10.0
    knots = np.empty((n_steps + 1, init.n))
    knots[0] = init.phases
    y = init.phases
    for i in range(1, n_steps + 1):
        for _ in range(10):
            y = rk4_step(y, freqs.omega, coupling, dt)
        if not np.all(np.isfinite(y)):
            raise ValueError(f"non-finite reference state at step {i}")
        knots[i] = y
    knots.setflags(write=False)
    return Rk4Path(knots=knots, step_size=h)


# ---------------------------------------------------------------------------
# global error certification
# ---------------------------------------------------------------------------

@dataclass
class ErrorBoundReport:
    """Per-step comparison of a fixed-step run against the continuous
    reference, with the one-step-defect global error envelope."""

    truncation_max: float
    bound_curve: np.ndarray
    observed_error: np.ndarray
    within_bound: bool


def euler_error_bound(traj: Trajectory, oracle: Rk4Path,
                      lipschitz: float) -> ErrorBoundReport:
    """Check sup-norm error against (T_max / L) * (exp(L n h) - 1).

    T_max is the largest one-step defect of the reference solution pushed
    through the Euler update; L is the sup-norm Lipschitz constant of the
    vector field (2K for the oscillator system).  ``oracle`` must come from
    rk4_reference with the run's step size and step count, so its rows are
    the reference states at the run's own times.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be positive")
    h = traj.params.step_size
    m = traj.n_steps
    ref = oracle.knots
    if ref.shape != traj.phases.shape or oracle.step_size != h:
        raise ValueError("reference mismatch: the reference must have the run's "
                         "step size and step count")

    # one-step defect of the true solution under the Euler update
    trunc = np.zeros(m + 1)
    for i in range(m):
        f_ref = velocity_arrays(ref[i], traj.freqs.omega, traj.params.coupling)
        trunc[i] = float(np.abs((ref[i + 1] - ref[i]) / h - f_ref).max())
    t_max = float(trunc.max())

    steps = np.arange(m + 1)
    bound = (t_max / lipschitz) * np.expm1(lipschitz * steps * h)
    observed = np.abs(ref - traj.phases).max(axis=1)
    within = bool(np.all(observed <= bound * (1 + 1e-6) + 1e-300))
    return ErrorBoundReport(
        truncation_max=t_max,
        bound_curve=bound,
        observed_error=observed,
        within_bound=within,
    )
