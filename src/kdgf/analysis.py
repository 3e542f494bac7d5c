"""Asymptotic-state analysis and certification for the identical and
non-identical oscillator systems.

Covers: classification of initial data by the continuous-flow limit they
approach (full sync vs one opposed oscillator), construction and matching of
locked equilibrium states on the unwrapped line, order-preservation and
exponential-envelope certificates for effective phases, the containment band
and residual bounds for the opposed-oscillator configuration, invariance of a
majority cluster under a coupling threshold, the uniform diameter cap, and
least-squares decay-rate fitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (PhaseConfig, has_repeats, mean_field, order_from_mean_field, span,
                   subset_indices, velocity_arrays)
from .integrate import RK4_STEP, Trajectory, rk4_flow

# ---------------------------------------------------------------------------
# equilibrium states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumState:
    """A locked state on the unwrapped line, stored as its half-turn counts
    a: theta_j = a_j pi + phi_star, with phi_star = -pi sum(a)/N pinned by
    the zero-mean constraint.  All counts even is kind "sync"; one odd count
    marks the "bipolar" state's opposed oscillator, half a turn from the
    rest.  A common even shift moves no phase, so the counts are stored with
    sum(a) in [-N, N), phi_star in (-pi, pi]: one record per state, compared
    and hashed by value."""

    counts: tuple[int, ...]
    bipolar_index: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.counts, dtype=np.int64)
        n, s = a.size, int(a.sum())
        a += ((s + n) % (2 * n) - n - s) // n
        odd = np.flatnonzero(a % 2)
        if odd.size > 1:
            raise ValueError("more than one half-turn count is odd")
        object.__setattr__(self, "counts", tuple(a.tolist()))
        object.__setattr__(self, "bipolar_index", int(odd[0]) if odd.size else None)

    @classmethod
    def sync(cls, windings) -> "EquilibriumState":
        return cls([2 * int(k) for k in windings])

    @classmethod
    def bipolar(cls, windings, index: int) -> "EquilibriumState":
        a = [2 * int(k) for k in windings]
        if not 0 <= index < len(a):
            raise ValueError("bipolar_index out of range")
        a[index] += 1
        return cls(a)

    @property
    def windings(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.int64) // 2

    @property
    def kind(self) -> str:
        return "sync" if self.bipolar_index is None else "bipolar"

    @property
    def phi_star(self) -> float:
        return -math.pi * float(sum(self.counts)) / self.n

    @property
    def n(self) -> int:
        return len(self.counts)

    def reconstruct(self) -> np.ndarray:
        """Phases of the state; the integer combination N*a_j - sum(a) makes
        the zero-mean property exact at the integer level."""
        a = np.array(self.counts, dtype=np.int64)
        m = a * self.n - int(a.sum())
        phases = (math.pi / self.n) * m.astype(float)
        phases.setflags(write=False)
        return phases


def _rebase(phases: np.ndarray, eq: EquilibriumState) -> np.ndarray:
    """phases - 2 pi (k - mean k) along the last axis, k the windings, the
    offset formed as (2 pi / N)(N k - sum k) from exact integers."""
    if phases.shape[-1] != eq.n:
        raise ValueError("equilibrium size does not match the phases")
    k = eq.windings
    return phases - (2 * math.pi / eq.n) * (k * eq.n - int(k.sum())).astype(float)


def effective_phases(config: PhaseConfig, eq: EquilibriumState) -> np.ndarray:
    """Phases re-based by the state's windings k: theta - 2 pi (k - mean k).

    At the limit state they read 0 for sync; for bipolar, -pi/N on the
    locked group and (N-1)pi/N on the opposed oscillator.  The vector sum is
    preserved: sum(theta_hat) == sum(theta) up to rounding.
    """
    out = _rebase(config.phases, eq)
    if abs(float(out.sum()) - float(config.phases.sum())) > 1e-9 * config.n * (
        1.0 + float(np.abs(config.phases).max())
    ):
        raise AssertionError("effective phases lost the phase sum")
    return out


def effective_series(traj: Trajectory, eq: EquilibriumState) -> np.ndarray:
    """Effective phases for every step of a trajectory, shape (M+1, N)."""
    return _rebase(traj.phases, eq)


# ---------------------------------------------------------------------------
# classification of initial data via the continuous flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationWitness:
    """Where the flow stood when classify_initial decided, in real units:
    time t_end, gradient norm grad_norm, worst phase distance ``residual``
    to the named state's phases, and the initial order parameter r0.

    Under the half-circle rule the state is read off the theorem, not off
    the flow's end: t_end is the first window end with the phases inside a
    half circle (0 when they start there), and grad_norm and residual are
    read there, so the residual is only known to be below pi.  Under the
    capture rule grad_norm is below 1e-4 K and residual below 0.02."""

    t_end: float
    grad_norm: float
    residual: float
    r0: float


@dataclass(frozen=True)
class InitialClassification:
    """Which locked state the continuous flow from this data approaches.

    kind is "sync" (every oscillator reaches the common phase), "bipolar"
    (exactly one locks half a turn away), or "degenerate" (duplicate initial
    phases or vanishing initial coherence; excluded from the theory).
    """

    equilibrium: EquilibriumState | None
    witness: ClassificationWitness

    @property
    def kind(self) -> str:
        return "degenerate" if self.equilibrium is None else self.equilibrium.kind

    @property
    def bipolar_index(self) -> int | None:
        return None if self.equilibrium is None else self.equilibrium.bipolar_index


class WitnessRangeError(ValueError):
    """classify_initial decided, but its witness in real units is not finite."""


def _read_half_turn_grid(y: np.ndarray):
    """Read the half-turn counts of a near-critical state: round each phase
    to the nearest half turn about the mean-field angle.

    Returns (EquilibriumState, worst phase residual), or (None, inf) when
    the mean field vanishes or more than one half-turn count is odd (a
    higher-order saddle with several opposed members)."""
    r, phi_hat = order_from_mean_field(mean_field(y), y.size)
    if r < 1e-14:
        return None, math.inf
    a = np.round((y - phi_hat) / math.pi).astype(np.int64)
    if np.count_nonzero(a % 2) > 1:
        return None, math.inf
    eq = EquilibriumState(a)
    return eq, float(np.abs(y - eq.reconstruct()).max())


def classify_initial(init: PhaseConfig, coupling: float, *,
                     t_max: float | None = None) -> InitialClassification:
    """Classify zero-mean identical-frequency initial data.

    The flow is scale-free in tau = K t, so it runs at K = 1 in scaled time:
    RK4 steps of dtau = RK4_STEP, kdgf's one RK4 step rule with no frequency
    spread.  At the start and after every 16 steps two rules are tried, in
    this order:

    - Half circle.  When the unwrapped phases span less than pi, the flow
      contracts them to one common phase (the half-circle result of H-K-K-Z,
      which the paper extends), and the conserved phase sum makes that
      phase the mean, 0: the state is sync with every half-turn count 0.
      No further step is taken.
    - Capture.  When the scaled gradient norm is below 1e-4, the state is
      matched against the single-opposed-oscillator grid and classified by
      parity of the half-turn counts, accepting a worst phase residual below
      0.02.  Starts that never enter a half circle (bipolar limits, sync
      limits with windings) are decided here.

    The locked state thus does not depend on K; only the witness is read in
    real units, t_end = tau/K and grad_norm = K |v|, at the window where the
    rule held.  Capturing at the threshold (rather than insisting on
    grad_norm < 1e-10) matters because opposed-oscillator states are saddle
    points: rounding noise grows at rate 1 in tau and ejects any
    double-precision trajectory long before a 1e-10 gradient could be
    observed there; 1e-4 wins that race with a 1.5x time margin while still
    pinning the state to ~1e-4 of the critical point.  Reaching t_max
    (default 1e3/K, tau = 1e3) with neither rule met raises an
    unresolved-classification error.  K and t_max must be positive and
    finite.  A witness that is not finite in real units (t_end at a tiny K,
    grad_norm at a huge one) raises a WitnessRangeError.
    """
    if not 0 < coupling < math.inf:
        raise ValueError("coupling must be positive and finite")
    if t_max is not None and not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    phases = init.phases
    n = phases.size
    scale = 1.0 + float(np.abs(phases).max())
    if abs(float(phases.sum())) > 1e-9 * n * scale:
        raise ValueError("classification requires zero-mean initial data")

    r0 = float(order_from_mean_field(mean_field(phases), n)[0])
    if has_repeats(phases) or r0 < 1e-12:
        return InitialClassification(
            None, ClassificationWitness(0.0, math.nan, math.nan, r0))

    tau_max = 1e3 if t_max is None else coupling * t_max
    omega = np.zeros(n)
    # the capture rule is checked every 16 RK4 steps
    for y, tau in rk4_flow(phases, omega, 1.0, RK4_STEP, 16):
        v = velocity_arrays(y, omega, 1.0)
        gn = math.sqrt(v @ v)
        if span(y) < math.pi:
            eq = EquilibriumState((0,) * n)
            residual = float(np.abs(y - eq.reconstruct()).max())
            break
        if gn < 1e-4:
            eq, residual = _read_half_turn_grid(y)
            if residual < 0.02:
                break
        if tau >= tau_max:
            raise ValueError(f"unresolved classification "
                             f"(grad_norm={coupling * gn:.3e} at t={tau / coupling:.3g})")
    witness = ClassificationWitness(tau / coupling, coupling * gn, residual, r0)
    if not (math.isfinite(witness.t_end) and math.isfinite(witness.grad_norm)):
        raise WitnessRangeError(f"the classification witness leaves float range: {witness}")
    return InitialClassification(eq, witness)


# ---------------------------------------------------------------------------
# equilibrium matching of a converged configuration
# ---------------------------------------------------------------------------

def match_equilibrium(final: PhaseConfig, tol: float = 1e-6) -> EquilibriumState | None:
    """Find the locked state closest to a converged configuration.

    Reads the single-opposed-oscillator half-turn grid (as classify_initial
    does) and accepts when the worst phase residual is below tol.  Returns
    None ("unconverged") when nothing matches, e.g. half-integer residuals
    from a multi-opposed saddle.  Meant for N >= 3 and tol < 1 rad: at N = 2
    the mean field vanishes at the opposed state.
    """
    eq, residual = _read_half_turn_grid(final.phases)
    return eq if residual < tol else None


# ---------------------------------------------------------------------------
# scan certificates over trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """The verdict of a per-step scan: whether every step passed, else the
    first step that failed and ``where`` it failed (the crossing pair, or
    the name of the broken bound; each scan lists its names)."""

    passed: bool
    first_violation: int | None = None
    where: str | tuple[int, int] | None = None


def _first_failure(**ok_masks) -> Certificate:
    """The earliest step at which a named per-step mask is False, ``where``
    naming the mask, ties going to the first name in sort order; passed
    when every mask holds."""
    fails = [(int(np.argmin(ok)), name) for name, ok in ok_masks.items() if not ok.all()]
    return Certificate(False, *min(fails)) if fails else Certificate(True)


def check_order_preservation(traj: Trajectory, subset) -> Certificate:
    """Scan for the first step where the strict phase order of ``subset``
    (sorted by its step-0 phases) breaks; ``where`` is the crossing pair."""
    idx = subset_indices(subset, traj.n)
    order = idx[np.argsort(traj.phases[0, idx], kind="stable")]
    if idx.size > 1 and np.any(np.diff(traj.phases[0, order]) <= 0):
        raise ValueError("subset phases are not strictly ordered at step 0")
    gaps = np.diff(traj.phases[:, order], axis=1)
    bad_rows = np.nonzero((gaps <= 0).any(axis=1))[0]
    if bad_rows.size == 0:
        return Certificate(True)
    row = int(bad_rows[0])
    col = int(np.nonzero(gaps[row] <= 0)[0][0])
    return Certificate(False, row, (int(order[col]), int(order[col + 1])))


def _log_excess(values: np.ndarray, base: float, rate: float, h: float) -> np.ndarray:
    """log(values[n] / (base * exp(-rate * n * h))) per step, in log space so
    it stays meaningful past exp underflow; -inf where a value is exactly 0
    (fully collapsed).  Negative means under the envelope."""
    log_base = math.log(base) if base > 0 else -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(values) - (log_base - rate * np.arange(values.size) * h)
    out[values == 0] = -math.inf
    return out


def certify_diameter_decay(traj: Trajectory, subset, eps: float,
                           rate: float, floor: float = 0.0) -> Certificate:
    """Certify subset diameter D(n) < D(0) * exp(-rate * n * h) at every step
    n >= 1 (``where`` "envelope").  Exact zeros pass (fully collapsed); steps
    with D(n) < floor are treated as converged-to-noise and skipped.

    Requires the initial subset diameter to be below eps (the envelope's
    validity region); violated preconditions raise.
    """
    d = span(traj.phases[:, subset_indices(subset, traj.n)])
    if not d[0] < eps:
        raise ValueError("initial diameter exceeds eps")
    excess = _log_excess(d, float(d[0]), rate, traj.params.step_size)
    ok = (excess < 0) | (d < floor)
    ok[0] = True  # D(0) is the envelope's base
    return _first_failure(envelope=ok)


def certify_two_sided_decay(traj: Trajectory, subset, alpha: float,
                            floor: float = 1e-13) -> Certificate:
    """Two-sided envelope for the locked-group diameter, K the run's coupling:

        D(0) exp(-2 K n h)  <  D(n)  <  D(0) exp(-alpha n h)

    strict for n >= 1, non-strict at n = 0; ``where`` is the broken side,
    "lower" or "upper".  Steps with D(n) below ``floor`` are skipped (the
    comparison is vacuous at rounding noise).  A rate alpha >= 2K would make
    the two sides contradict and is rejected.
    """
    coupling = traj.params.coupling
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if alpha >= 2.0 * coupling:
        raise ValueError("alpha >= 2K: upper envelope would cross the lower one")
    d = span(traj.phases[:, subset_indices(subset, traj.n)])
    d0 = float(d[0])
    if not d0 > 0:
        raise ValueError("initial subset diameter must be positive")
    h = traj.params.step_size
    active = d >= floor
    active[0] = False  # boundary step is an equality by construction
    return _first_failure(
        lower=~active | (_log_excess(d, d0, 2.0 * coupling, h) > 0),
        upper=~active | (_log_excess(d, d0, alpha, h) < 0))


def _opposed_and_locked(traj: Trajectory, eq: EquilibriumState):
    """Effective phases of the opposed oscillator, one per step, and of the
    locked group, one row per step."""
    if eq.kind != "bipolar":
        raise ValueError("the opposed-oscillator scans need a bipolar equilibrium")
    ef = effective_series(traj, eq)
    return ef[:, eq.bipolar_index], np.delete(ef, eq.bipolar_index, axis=1)


def _containment(opposed: np.ndarray, locked: np.ndarray) -> Certificate:
    return _first_failure(below=~(opposed < locked.min(axis=1) + math.pi - 1e-12),
                          above=~(opposed > locked.max(axis=1) + math.pi + 1e-12))


def check_bipolar_containment(traj: Trajectory, eq: EquilibriumState) -> Certificate:
    """Detect the first step (if any) where the opposed oscillator leaves the
    band [min locked + pi, max locked + pi] of effective phases, ``where``
    "below" or "above" it.  Boundary contact counts as contained (the next
    step resolves it); a 1e-12 margin absorbs the rounding of the band
    edges."""
    return _containment(*_opposed_and_locked(traj, eq))


def certify_bipolar_bounds(traj: Trajectory, eq: EquilibriumState, alpha: float,
                           eps: float) -> Certificate:
    """Residual envelopes for a contained opposed-oscillator run:

        |theta_hat_b(n) - (N-1)pi/N|  <  (N-1)/N * D(0) exp(-alpha n h)
        |theta_hat_j(n) +      pi/N|  < (2N-1)/N * D(0) exp(-alpha n h)

    with D(0) the initial locked-group diameter; ``where`` is the broken
    bound, "opposed" or "locked".  The hypotheses (strict initial order of
    the locked group, D(0) < eps, opposed oscillator within eps/4 of its
    target, containment at every step) are validated first and reported by
    name when unmet.
    """
    opposed, locked = _opposed_and_locked(traj, eq)
    n = traj.n
    d0 = float(span(locked[0]))

    failures = []
    if np.any(np.diff(np.sort(locked[0])) <= 0):
        failures.append("locked-group initial phases not strictly ordered")
    if not d0 < eps:
        failures.append("initial locked-group diameter not below eps")
    if not abs(opposed[0] - (n - 1) * math.pi / n) < eps / 4.0:
        failures.append("opposed oscillator not within eps/4 of its target")
    containment = _containment(opposed, locked)
    if not containment.passed:
        failures.append(f"containment broken at step {containment.first_violation} "
                        f"({containment.where})")
    if failures:
        raise ValueError("hypotheses unmet: " + "; ".join(failures))

    h = traj.params.step_size
    opp_excess = _log_excess(np.abs(opposed - (n - 1) * math.pi / n),
                             (n - 1) / n * d0, alpha, h)
    locked_excess = _log_excess(np.abs(locked + math.pi / n).max(axis=1),
                                (2 * n - 1) / n * d0, alpha, h)
    opp_ok = opp_excess < 0
    locked_ok = locked_excess < 0
    opp_ok[0] = opp_excess[0] <= 0
    locked_ok[0] = locked_excess[0] <= 0
    return _first_failure(opposed=opp_ok, locked=locked_ok)


# ---------------------------------------------------------------------------
# coupling thresholds and cluster invariance (non-identical system)
# ---------------------------------------------------------------------------

def coupling_threshold(d_omega: float, d_theta0: float) -> float:
    """Coupling above which a sub-pi initial diameter contracts:
    D(Omega) / sin D(Theta_0)."""
    if not 0 < d_omega < math.inf:
        raise ValueError("d_omega must be positive and finite")
    if not (0.0 < d_theta0 < math.pi - 1e-9):
        raise ValueError("d_theta0 must lie in (0, pi)")
    return d_omega / math.sin(d_theta0)


@dataclass(frozen=True)
class ClusterSpec:
    """Majority-cluster invariance parameters.

    A cluster of the first n0 > N/2 oscillators with diameter below l stays
    below l for all steps provided coupling > k_min and the step size is
    below step_max (conservative, from the invariance proof constants).
    """

    n: int
    n0: int
    l: float
    d_omega: float
    coupling: float
    k_min: float
    step_max: float
    coupling_ok: bool


def cluster_spec(n: int, n0: int, l: float, d_omega: float,
                 coupling: float) -> ClusterSpec:
    """Evaluate the cluster-invariance thresholds for given parameters."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (n / 2.0 < n0 <= n):
        raise ValueError("n0 must lie in (N/2, N]")
    if not 0 <= d_omega < math.inf:
        raise ValueError("d_omega must be nonnegative and finite")
    l_cap = 2.0 * math.acos((n - n0) / n0)
    if not (0.0 < l < l_cap):
        raise ValueError(f"l must lie in (0, {l_cap:.6g}) for n0={n0}, n={n}")
    if not 0 < coupling < math.inf:
        raise ValueError("coupling must be positive and finite")

    denom = (n0 / n) * math.sin(l) - (2.0 * (n - n0) / n) * math.sin(l / 2.0)
    if not denom > 0:
        raise ValueError("coupling threshold denominator not positive")
    k_min = d_omega / denom

    d2k = d_omega + 2.0 * coupling
    margin = n0 * math.cos(l / 2.0) - (n - n0)
    a = n0 * (math.cos(l / 2.0) * d2k * d2k / 8.0 + d2k / 2.0)
    b = math.sin(l / 2.0) * d_omega * d_omega / 8.0 + d_omega / 2.0
    c = 2.0 * coupling * b / n * margin
    e = 2.0 * coupling * a / n * math.sin(l / 2.0)
    f = 2.0 * coupling / n * math.sin(l / 2.0) * margin - d_omega

    if f > 0:
        if c + e == 0:  # both products of the coupling underflow
            raise ValueError(f"step_max constants underflow to 0 at coupling {coupling!r}")
        terms = [(math.pi - l) / d2k, margin / a, f / (c + e)]
        if d_omega > 0:
            terms.append(l / d_omega)
        if any(map(math.isnan, terms)):  # 2K overflows: inf * 0 or inf / inf
            raise ValueError(f"step_max constants overflow at coupling {coupling!r}")
        step_max = min(terms)
    else:
        step_max = 0.0  # coupling at or below threshold: no admissible step
    return ClusterSpec(
        n=n, n0=n0, l=l, d_omega=d_omega, coupling=coupling,
        k_min=k_min, step_max=step_max, coupling_ok=bool(coupling > k_min),
    )


def certify_cluster_invariance(traj: Trajectory, n0: int, l: float) -> Certificate:
    """Check the first-n0 diameter stays strictly below l at every step
    (``where`` "cluster"), under the thresholds of the run's own size,
    frequency spread and coupling."""
    spec = cluster_spec(traj.n, n0, l, traj.freqs.d_omega, traj.params.coupling)
    d = span(traj.phases[:, :n0])
    d0, l = float(d[0]), float(l)
    k, h = float(traj.params.coupling), float(traj.params.step_size)
    problems = []
    if not d0 < l:
        problems.append(f"initial cluster diameter {d0!r} not below l {l!r}")
    if not k > spec.k_min:
        problems.append(f"coupling {k!r} not above k_min {spec.k_min!r}")
    if not h < spec.step_max:
        problems.append(f"step size {h!r} not below step_max {spec.step_max!r}")
    if problems:
        raise ValueError("preconditions unmet: " + "; ".join(problems))
    return _first_failure(cluster=~(d >= l))


def certify_uniform_bound(traj: Trajectory, l: float) -> Certificate:
    """Check the full phase diameter never exceeds 4*pi + 2*l (``where``
    "cap")."""
    return _first_failure(cap=~(traj.diameters > 4.0 * math.pi + 2.0 * l))


# ---------------------------------------------------------------------------
# decay-rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential rate of a diameter series over a window."""

    alpha_fit: float
    r_squared: float
    degenerate: bool = False


def fit_decay_rate(diam_series, h: float, window: tuple[int, int]) -> DecayFit:
    """Fit log D(n) = log D(0) - alpha * n * h by least squares on
    ``window`` (half-open step range).  All diameters in the window must be
    positive; a constant series fits rate 0 with the degenerate flag set."""
    d = np.asarray(diam_series, dtype=float)
    lo, hi = window
    if not (0 <= lo < hi <= d.size):
        raise ValueError("window out of range")
    seg = d[lo:hi]
    if np.any(seg <= 0):
        raise ValueError("log undefined; shrink window")
    if hi - lo < 2:
        raise ValueError("window must contain at least two steps")
    t = np.arange(lo, hi) * h
    y = np.log(seg)
    if float(y.max() - y.min()) == 0.0:
        return DecayFit(0.0, 0.0, degenerate=True)
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(float(-slope), float(r2))
