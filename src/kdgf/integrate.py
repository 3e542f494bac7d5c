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
    order_from_mean_field,
    potential_from_mean_field,
    row_chunks,
    row_dot,
    span,
    velocity_arrays,
)

class DivergenceError(RuntimeError):
    """Raised at the first step where a value a run stores or writes is not
    finite: an oscillator step's gradient norm, potential, diameter or time,
    or a descent iterate, its potential or its gradient.  Carries the step
    index and names the value.
    """

    def __init__(self, step: int, what: str):
        super().__init__(f"divergence: {what} at step {step}")
        self.step = step
        self.what = what

    def __reduce__(self):
        # rebuilt from (step, what), so a pickled copy keeps both
        return type(self), (self.step, self.what)


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
        return PhaseConfig(self.phases[n])

    def final_config(self) -> PhaseConfig:
        return self.config(self.n_steps)


def euler_step(config: PhaseConfig, freqs: NaturalFrequencies,
               params: SimParams) -> PhaseConfig:
    """One explicit step theta_i + h*(omega_i + (K/N) sum_j sin(theta_j - theta_i)).

    Shares its update arithmetic with :func:`kdgf.core.kuramoto_gradient`, so
    euler_step(c) == c - h * gradient(c) holds bitwise.
    """
    _check_lengths(config, freqs)
    return PhaseConfig(config.phases + params.step_size
                       * velocity_arrays(config.phases, freqs.omega, params.coupling))


def simulate(init: PhaseConfig, freqs: NaturalFrequencies,
             params: SimParams) -> Trajectory:
    """Iterate the Euler scheme until the gradient norm drops below
    ``params.conv_tol`` ("grad_norm") or the step cap is reached
    ("max_steps"); conv_tol = 0 runs to the cap.  Raises DivergenceError at
    the first step whose gradient norm, potential, diameter or time is not
    finite.
    """
    [result] = simulate_batch([init], freqs, params)
    if isinstance(result, DivergenceError):
        raise result
    return result


BLOCK_STEPS = 64  # Euler steps between two applications of the stop rule


def simulate_batch(inits, freqs: NaturalFrequencies, params: SimParams) -> list:
    """:func:`simulate` of many starts of one system, stepped together: row b
    runs from ``inits[b]`` with ``freqs`` and ``params``.  Returns one result
    per row: its Trajectory, bitwise the one simulate gives, or the
    DivergenceError simulate would raise.

    Rows step together in blocks of BLOCK_STEPS.  Each block is a
    C-contiguous (steps + 1, rows, N) array, so each row's reductions are
    those of the row alone.  Each step keeps the sums S and C that its kernel
    call reduces, the mean field Z = C + iS of its state, for the row's
    potential and order parameter series.  The stop rule is applied at block
    ends, in the per-step order gradient norm (not finite, then below
    ``conv_tol``), step cap, so a row's result is exactly that of a
    step-by-step check; a row with a non-finite gradient norm steps on to
    the end of its block, and those steps are discarded.
    Live rows always share one step index; a row that stops leaves the live
    arrays.  Each row keeps its own copy of its stored steps; every row's
    steps are held until the call returns.
    """
    for init in inits:
        _check_lengths(init, freqs)
    n, k, h = freqs.omega.size, params.coupling, params.step_size
    max_steps, tol = params.max_steps, params.conv_tol
    # as a (1, N) row, omega meets a one-row block shape for shape, and numpy
    # adds it faster than a broadcast (N,) vector: at N = 4 about 0.5 us a step
    omega = freqs.omega[np.newaxis]
    theta = np.array([init.phases for init in inits])
    live = np.arange(len(inits))
    pieces = [[] for _ in inits]  # each row's stored (phases, gradient norms, S, C)
    results = [None] * len(inits)
    m0 = 0  # the step index of every live row
    while live.size:
        steps = min(BLOCK_STEPS, max_steps + 1 - m0)
        blk = np.empty((steps + 1, live.size, n))
        blk[0] = theta
        vel = np.empty((steps, live.size, n))
        sums = np.empty((2, steps, live.size, 1))  # S and C of each step's state
        views = list(blk)
        # a row whose gradient norm overflows may step on to inf before the block ends
        with np.errstate(over="ignore", invalid="ignore"):
            for cur, nxt, v, sc in zip(views, views[1:], vel, zip(*sums)):
                velocity_arrays(cur, omega, k, v, sc)
                np.multiply(v, h, out=nxt)
                nxt += cur
            gnorm = np.sqrt(row_dot(vel, vel))
            blown = ~np.isfinite(gnorm)
            converged = gnorm < tol
        stop = blown | converged | (m0 + np.arange(steps)[:, None] == max_steps)
        keep = ~stop.any(axis=0)

        for slot, row in enumerate(live.tolist()):
            if keep[slot]:
                pieces[row].append((np.ascontiguousarray(blk[:steps, slot]),
                                    np.ascontiguousarray(gnorm[:, slot]),
                                    *np.ascontiguousarray(sums[:, :, slot, 0])))
                continue
            j = int(stop[:, slot].argmax())  # the row's stop step is m0 + j
            if blown[j, slot]:
                results[row] = DivergenceError(m0 + j, "gradient norm is not finite")
                pieces[row] = None
                continue
            reason = "grad_norm" if converged[j, slot] else "max_steps"
            last = (blk[:j + 1, slot], gnorm[:j + 1, slot], *sums[:, :j + 1, slot, 0])
            phases, norms, s, c = map(np.concatenate, zip(*pieces[row], last))
            pieces[row] = None  # freed before the series are built from the joined sums
            results[row] = _trajectory(phases, norms, c + 1j * s, reason, freqs, params)
        theta, live = blk[steps][keep], live[keep]
        m0 += steps
    return results


def _trajectory(phases, gnorm, z, reason, freqs, params) -> Trajectory | DivergenceError:
    """The run's Trajectory, its series read from ``z``, each stored step's mean
    field; or the DivergenceError of its first step whose potential, diameter
    or time is not finite."""
    phases.setflags(write=False)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is refused below
        series = {"potential": potential_from_mean_field(z, phases, freqs.omega, params.coupling),
                  "diameter": span(phases),
                  "time": np.arange(phases.shape[0]) * params.step_size}
    finite = np.array([np.isfinite(v) for v in series.values()])  # one row per series
    if not finite.all():
        step = int(finite.all(axis=0).argmin())
        name = list(series)[int(finite[:, step].argmin())]
        return DivergenceError(step, f"{name} is not finite")
    order_r, order_phi = order_from_mean_field(z, phases.shape[1])
    return Trajectory(phases=phases, params=params, freqs=freqs, diameters=series["diameter"],
                      potentials=series["potential"], grad_norms=gnorm, order_r=order_r,
                      order_phi=order_phi, stop_reason=reason)


# ---------------------------------------------------------------------------
# continuous-time reference
# ---------------------------------------------------------------------------

RK4_STEP = 0.1  # no RK4 step takes dt * (K + d_omega) above this


def rk4_step(theta: np.ndarray, omega: np.ndarray, coupling: float,
             dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of the continuous flow,
    theta + (dt/6)(k1 + 2 k2 + 2 k3 + k4), summed left to right."""
    k1 = velocity_arrays(theta, omega, coupling)
    k2 = velocity_arrays(theta + 0.5 * dt * k1, omega, coupling)
    k3 = velocity_arrays(theta + 0.5 * dt * k2, omega, coupling)
    k4 = velocity_arrays(theta + dt * k3, omega, coupling)
    return theta + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_flow(theta: np.ndarray, omega: np.ndarray, coupling: float, dt: float,
             every: int):
    """Yields (state, time) of the RK4 flow from ``theta`` at the start and
    after every ``every`` further rk4_steps of ``dt``, time summed step by step."""
    y, t = theta, 0.0
    while True:
        yield y, t
        for _ in range(every):
            y = rk4_step(y, omega, coupling, dt)
            t += dt


def rk4_substeps(h: float, coupling: float, freqs: NaturalFrequencies) -> int:
    """RK4 substeps per step of size ``h``: the fewest, at least one, that
    keep dt * (|K| + d_omega) at or below RK4_STEP, with dt = h / substeps."""
    rate = abs(coupling) + freqs.d_omega
    work = h * rate / RK4_STEP
    if not math.isfinite(work):
        raise ValueError("the step size and the rate K + d_omega must be finite")
    s = max(1, math.ceil(work))
    while h / s * rate > RK4_STEP:  # work rounded down by a last bit
        s += 1
    return s


@dataclass(frozen=True)
class Rk4Path:
    """Continuous-flow reference on an Euler grid: row i of ``knots`` is the
    state at t = i * step_size, reached in ``substeps`` RK4 steps per row."""

    knots: np.ndarray
    step_size: float
    substeps: int


def rk4_reference(init: PhaseConfig, freqs: NaturalFrequencies, coupling: float,
                  h: float, n_steps: int) -> Rk4Path:
    """Integrate the continuous flow over ``n_steps`` Euler steps of size
    ``h``, each taken as ``rk4_substeps(h, coupling, freqs)`` RK4 steps of
    equal size; only the state after each whole step is kept, so the
    reference holds (n_steps + 1) rows.
    """
    _check_lengths(init, freqs)
    if not (h > 0 and n_steps >= 0):
        raise ValueError("h must be positive and n_steps nonnegative")
    s = rk4_substeps(h, coupling, freqs)
    knots = np.empty((n_steps + 1, init.n))
    flow = rk4_flow(init.phases, freqs.omega, coupling, h / s, s)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite knot is refused below
        for i in range(n_steps + 1):
            knots[i], _ = next(flow)
    finite = np.isfinite(knots).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite reference state at step {finite.argmin()}")
    knots.setflags(write=False)
    return Rk4Path(knots=knots, step_size=h, substeps=s)


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


def euler_error_bound(traj: Trajectory, oracle: Rk4Path) -> ErrorBoundReport:
    """Check sup-norm error against (T_max / L) * (exp(L n h) - 1).

    T_max is the largest one-step defect of the reference solution pushed
    through the Euler update; L = 2K is a sup-norm Lipschitz constant of the
    run's vector field, whose Jacobian rows sum to at most 2K(N-1)/N in
    absolute value.  ``oracle`` must come from rk4_reference with the run's
    initial phases, step size and step count, so its rows are the reference
    states at the run's own times; its row 1 must be ``oracle.substeps`` RK4
    steps of the run's own system from row 0.
    """
    h, k, omega = traj.params.step_size, traj.params.coupling, traj.freqs.omega
    m = traj.n_steps
    ref = oracle.knots
    if ref.shape != traj.phases.shape or oracle.step_size != h:
        raise ValueError("reference mismatch: the reference must have the run's "
                         "step size and step count")
    if ref[0].tobytes() != traj.phases[0].tobytes():
        raise ValueError("reference mismatch: the reference does not start from "
                         "the run's initial phases")
    if m:
        flow = rk4_flow(ref[0], omega, k, h / oracle.substeps, oracle.substeps)
        next(flow)
        with np.errstate(over="ignore", invalid="ignore"):  # as rk4_reference steps
            first, _ = next(flow)
        if first.tobytes() != ref[1].tobytes():
            raise ValueError("reference mismatch: the reference's first step is not "
                             "the flow of the run's coupling and frequencies")

    # one-step defect of the true solution under the Euler update, one
    # kernel call per chunk of steps
    trunc = np.zeros(m + 1)
    for rows in row_chunks(m, ref.shape[1]):
        y0, y1 = ref[:-1][rows], ref[1:][rows]
        f_ref = velocity_arrays(y0, omega, k)
        trunc[:-1][rows] = np.abs((y1 - y0) / h - f_ref).max(axis=1)
    t_max = float(trunc.max())

    lipschitz = 2.0 * k
    steps = np.arange(m + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.expm1(lipschitz * steps * h)
        bound = (t_max / lipschitz) * growth
    # an envelope that overflows is +inf, which every finite error meets;
    # a zero defect gives a zero envelope, never 0 * inf
    bound[growth == math.inf] = math.inf if t_max > 0 else 0.0
    observed = np.abs(ref - traj.phases).max(axis=1)
    within = bool(np.all(observed <= bound * (1 + 1e-6) + 1e-300))
    return ErrorBoundReport(
        truncation_max=t_max,
        bound_curve=bound,
        observed_error=observed,
        within_bound=within,
    )
