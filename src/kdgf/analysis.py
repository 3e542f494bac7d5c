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
from dataclasses import dataclass

import numpy as np

from .core import PhaseConfig, mean_field, subset_indices, velocity_arrays
from .integrate import Trajectory, rk4_step

# ---------------------------------------------------------------------------
# equilibrium states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquilibriumState:
    """A locked state on the unwrapped line.

    kind "sync": theta_j = 2 k_j pi + phi_star for every oscillator.
    kind "bipolar": one oscillator (bipolar_index) sits at
    (2 k_b + 1) pi + phi_star, half a turn from the rest.
    phi_star is pinned by the zero-mean constraint, so the state is fully
    determined by the windings (and the opposed index).
    """

    windings: np.ndarray
    bipolar_index: int | None = None

    def __post_init__(self):
        w = np.array(self.windings, dtype=int)
        w.setflags(write=False)
        object.__setattr__(self, "windings", w)
        if self.bipolar_index is not None and not (0 <= self.bipolar_index < w.size):
            raise ValueError("bipolar_index out of range")

    @classmethod
    def sync(cls, windings) -> "EquilibriumState":
        return cls(windings)

    @classmethod
    def bipolar(cls, windings, index: int) -> "EquilibriumState":
        return cls(windings, int(index))

    @property
    def kind(self) -> str:
        return "sync" if self.bipolar_index is None else "bipolar"

    @property
    def phi_star(self) -> float:
        k = 2 * int(self.windings.sum()) + (self.bipolar_index is not None)
        return -math.pi * float(k) / self.n

    @property
    def n(self) -> int:
        return self.windings.size

    def _half_turn_counts(self) -> np.ndarray:
        a = 2 * self.windings.astype(np.int64)
        if self.bipolar_index is not None:
            a = a.copy()
            a[self.bipolar_index] += 1
        return a

    def reconstruct(self) -> np.ndarray:
        """Phases of the state; the integer combination N*a_j - sum(a) makes
        the zero-mean property exact at the integer level."""
        a = self._half_turn_counts()
        m = a * self.n - int(a.sum())
        phases = (math.pi / self.n) * m.astype(float)
        phases.setflags(write=False)
        return phases

    def target_pattern(self) -> np.ndarray:
        """Limiting effective phases: zero for sync; -pi/N on the locked
        group and (N-1)pi/N on the opposed oscillator for bipolar."""
        if self.kind == "sync":
            return np.zeros(self.n)
        pat = np.full(self.n, -math.pi / self.n)
        pat[self.bipolar_index] = (self.n - 1) * math.pi / self.n
        return pat


def effective_phases(config: PhaseConfig, eq: EquilibriumState) -> np.ndarray:
    """Phases re-based so the limit state maps to its canonical pattern.

    Sync: theta_hat = theta - 2 k pi - phi_star (zero at the limit).
    Bipolar: an extra -pi/N shift; at the limit the locked group sits at
    -pi/N and the opposed oscillator at (N-1)pi/N.  The vector sum is
    preserved: sum(theta_hat) == sum(theta) up to rounding.
    """
    if config.n != eq.n:
        raise ValueError("equilibrium size does not match configuration")
    out = config.phases - eq.reconstruct() + eq.target_pattern()
    if abs(float(out.sum()) - float(config.phases.sum())) > 1e-9 * config.n * (
        1.0 + float(np.abs(config.phases).max())
    ):
        raise AssertionError("effective phases lost the phase sum")
    return out


def effective_series(traj: Trajectory, eq: EquilibriumState) -> np.ndarray:
    """Effective phases for every step of a trajectory, shape (M+1, N)."""
    if traj.n != eq.n:
        raise ValueError("equilibrium size does not match trajectory")
    return traj.phases - eq.reconstruct() + eq.target_pattern()


# ---------------------------------------------------------------------------
# classification of initial data via the continuous flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationWitness:
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

    kind: str
    bipolar_index: int | None
    equilibrium: EquilibriumState | None
    witness: ClassificationWitness


def _read_half_turn_grid(y: np.ndarray):
    """Read (windings, opposed index) off a near-critical state: round each
    phase to the nearest half turn about the mean-field angle and classify
    by the parity of the half-turn counts.

    Returns (EquilibriumState, worst phase residual), or (None, inf) when
    the mean field vanishes or more than one half-turn count is odd (a
    higher-order saddle with several opposed members)."""
    z = mean_field(y) / y.size
    if abs(z) < 1e-14:
        return None, math.inf
    phi_hat = math.atan2(z.imag, z.real)
    a = np.round((y - phi_hat) / math.pi).astype(np.int64)
    odd = np.nonzero(a % 2 != 0)[0]
    if odd.size == 0:
        eq = EquilibriumState.sync(a // 2)
    elif odd.size == 1:
        eq = EquilibriumState.bipolar(a // 2, int(odd[0]))
    else:
        return None, math.inf
    return eq, float(np.abs(y - eq.reconstruct()).max())


def classify_initial(init: PhaseConfig, coupling: float, *,
                     t_max: float | None = None) -> InitialClassification:
    """Classify zero-mean identical-frequency initial data.

    Runs the RK4 continuous-flow reference at dt = 0.1/K; whenever the
    gradient norm dips below the capture threshold the state is matched
    against the single-opposed-oscillator grid and classified by parity of
    the half-turn counts, accepting a worst phase residual below 0.02.
    Capturing at the threshold (rather than insisting on grad_norm < 1e-10)
    matters because opposed-oscillator states are saddle points: rounding
    noise grows at rate K and ejects any double-precision trajectory long
    before a 1e-10 gradient could be observed there.
    Reaching t_max (default 1e3/K) without a match raises an
    unresolved-classification error.
    """
    if not coupling > 0:
        raise ValueError("coupling must be positive")
    phases = init.phases
    n = phases.size
    scale = 1.0 + float(np.abs(phases).max())
    if abs(float(phases.sum())) > 1e-9 * n * scale:
        raise ValueError("classification requires zero-mean initial data")

    r0 = float(abs(mean_field(phases) / n))
    if np.unique(phases).size < n or r0 < 1e-12:
        return InitialClassification(
            "degenerate", None, None,
            ClassificationWitness(0.0, math.nan, math.nan, r0))

    dt = 0.1 / coupling
    t_max = t_max if t_max is not None else 1e3 / coupling
    # The capture threshold must be loose enough that an opposed-oscillator
    # saddle is matched before rounding noise (growing at rate K) ejects the
    # reference trajectory; 1e-4 * K wins that race with a 1.5x time margin
    # while still pinning the state to ~1e-4 of the critical point.  At tiny
    # K it is floored at 1e-10, the gradient norm of a converged run.
    capture = max(1e-4 * coupling, 1e-10)

    omega = np.zeros(n)
    y = phases.astype(float).copy()
    t = 0.0
    window = 16
    while True:
        v = velocity_arrays(y, omega, coupling)
        gn = float(np.linalg.norm(v))
        if gn < capture:
            eq, residual = _read_half_turn_grid(y)
            if residual < 0.02:
                return InitialClassification(
                    kind=eq.kind,
                    bipolar_index=eq.bipolar_index,
                    equilibrium=eq,
                    witness=ClassificationWitness(t, gn, residual, r0),
                )
        if t >= t_max:
            raise ValueError(
                f"unresolved classification (grad_norm={gn:.3e} at t={t:.3g})")
        for _ in range(window):
            y = rk4_step(y, omega, coupling, dt)
            t += dt


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

def _subset_diameters(phases: np.ndarray, idx: np.ndarray) -> np.ndarray:
    sel = phases[:, idx]
    return sel.max(axis=1) - sel.min(axis=1)


@dataclass(frozen=True)
class OrderCheck:
    passed: bool
    first_violation: int | None = None
    pair: tuple[int, int] | None = None


def check_order_preservation(traj: Trajectory, subset) -> OrderCheck:
    """Scan for the first step where the strict phase order of ``subset``
    (sorted by its step-0 phases) breaks."""
    idx = subset_indices(subset, traj.n)
    order = idx[np.argsort(traj.phases[0, idx], kind="stable")]
    if idx.size > 1 and np.any(np.diff(traj.phases[0, order]) <= 0):
        raise ValueError("subset phases are not strictly ordered at step 0")
    gaps = np.diff(traj.phases[:, order], axis=1)
    bad_rows = np.nonzero((gaps <= 0).any(axis=1))[0]
    if bad_rows.size == 0:
        return OrderCheck(True)
    row = int(bad_rows[0])
    col = int(np.nonzero(gaps[row] <= 0)[0][0])
    return OrderCheck(False, row, (int(order[col]), int(order[col + 1])))


@dataclass(frozen=True)
class DecayCertificate:
    passed: bool
    first_violation: int | None


def _log_excess(values: np.ndarray, base: float, rate: float, h: float) -> np.ndarray:
    """log(values[n] / (base * exp(-rate * n * h))) per step, in log space so
    it stays meaningful past exp underflow; -inf where a value is exactly 0
    (fully collapsed).  Negative means under the envelope."""
    log_base = math.log(base) if base > 0 else -math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(values) - (log_base - rate * np.arange(values.size) * h)
    out[values == 0] = -math.inf
    return out


def _first_failure(**ok_masks):
    """Earliest (step, name) at which a named per-step mask is False, ties
    going to the first name in sort order; None when every mask holds."""
    fails = [(int(np.argmin(ok)), name) for name, ok in ok_masks.items() if not ok.all()]
    return min(fails, default=None)


def certify_diameter_decay(traj: Trajectory, subset, eps: float,
                           rate: float, floor: float = 0.0) -> DecayCertificate:
    """Certify subset diameter D(n) < D(0) * exp(-rate * n * h) at every step
    n >= 1.  Exact zeros pass (fully collapsed); steps with D(n) < floor are
    treated as converged-to-noise and skipped.

    Requires the initial subset diameter to be below eps (the envelope's
    validity region); violated preconditions raise.
    """
    idx = subset_indices(subset, traj.n)
    d = _subset_diameters(traj.phases, idx)
    if not d[0] < eps:
        raise ValueError("initial diameter exceeds eps")
    excess = _log_excess(d, float(d[0]), rate, traj.params.step_size)
    ok = (excess < 0) | (d < floor)
    ok[0] = True  # D(0) is the envelope's base
    fail = _first_failure(envelope=ok)
    return DecayCertificate(fail is None, None if fail is None else fail[0])


@dataclass(frozen=True)
class TwoSidedCertificate:
    passed: bool
    first_violation: int | None
    failed_side: str | None  # "lower" | "upper"
    checked_steps: int


def certify_two_sided_decay(traj: Trajectory, subset, coupling: float,
                            alpha: float, floor: float = 1e-13) -> TwoSidedCertificate:
    """Two-sided envelope for the locked-group diameter:

        D(0) exp(-2 K n h)  <  D(n)  <  D(0) exp(-alpha n h)

    strict for n >= 1, non-strict at n = 0.  Checking stops once D(n) drops
    below ``floor`` (the comparison is vacuous at rounding noise).  A rate
    alpha >= 2K would make the two sides contradict and is rejected.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if alpha >= 2.0 * coupling:
        raise ValueError("alpha >= 2K: upper envelope would cross the lower one")
    idx = subset_indices(subset, traj.n)
    d = _subset_diameters(traj.phases, idx)
    d0 = float(d[0])
    if not d0 > 0:
        raise ValueError("initial subset diameter must be positive")
    h = traj.params.step_size
    active = d >= floor
    active[0] = False  # boundary step is an equality by construction
    fail = _first_failure(
        lower=~active | (_log_excess(d, d0, 2.0 * coupling, h) > 0),
        upper=~active | (_log_excess(d, d0, alpha, h) < 0))
    checked = int(active.sum())
    if fail is None:
        return TwoSidedCertificate(True, None, None, checked)
    return TwoSidedCertificate(False, *fail, checked)


@dataclass(frozen=True)
class ContainmentReport:
    """Per-step containment of the opposed oscillator inside the band
    [min locked + pi, max locked + pi] (in effective phases)."""

    all_contained: bool
    first_exit: int | None
    exit_side: str | None  # "below" | "above"


def check_bipolar_containment(traj: Trajectory,
                              eq: EquilibriumState) -> ContainmentReport:
    """Detect the first step (if any) where the opposed oscillator leaves the
    half-turn band over the locked group.  Boundary contact counts as
    contained (the next step resolves it); a 1e-12 margin absorbs the
    rounding of the band edges."""
    if eq.kind != "bipolar":
        raise ValueError("containment check needs a bipolar equilibrium")
    ef = effective_series(traj, eq)
    b = eq.bipolar_index
    mask = np.ones(traj.n, dtype=bool)
    mask[b] = False
    sync = ef[:, mask]
    lo = sync.min(axis=1) + math.pi
    hi = sync.max(axis=1) + math.pi
    below = ef[:, b] < lo - 1e-12
    above = ef[:, b] > hi + 1e-12
    exits = np.nonzero(below | above)[0]
    if exits.size == 0:
        return ContainmentReport(True, None, None)
    first = int(exits[0])
    return ContainmentReport(False, first, "below" if below[first] else "above")


@dataclass(frozen=True)
class BipolarBoundsCertificate:
    passed: bool
    first_violation: int | None
    which: str | None  # "opposed" | "locked"


def certify_bipolar_bounds(traj: Trajectory, eq: EquilibriumState, alpha: float,
                           eps: float) -> BipolarBoundsCertificate:
    """Residual envelopes for a contained opposed-oscillator run:

        |theta_hat_b(n) - (N-1)pi/N|  <  (N-1)/N * D(0) exp(-alpha n h)
        |theta_hat_j(n) +      pi/N|  < (2N-1)/N * D(0) exp(-alpha n h)

    with D(0) the initial locked-group diameter.  The hypotheses (strict
    initial order of the locked group, D(0) < eps, opposed oscillator within
    eps/4 of its target, containment at every step) are validated first and
    reported by name when unmet.
    """
    if eq.kind != "bipolar":
        raise ValueError("bipolar bounds need a bipolar equilibrium")
    n = traj.n
    b = eq.bipolar_index
    ef = effective_series(traj, eq)
    mask = np.ones(n, dtype=bool)
    mask[b] = False
    sync0 = ef[0, mask]
    d0 = float(sync0.max() - sync0.min())

    failures = []
    if np.any(np.diff(np.sort(sync0)) <= 0):
        failures.append("locked-group initial phases not strictly ordered")
    if not d0 < eps:
        failures.append("initial locked-group diameter not below eps")
    if not abs(ef[0, b] - (n - 1) * math.pi / n) < eps / 4.0:
        failures.append("opposed oscillator not within eps/4 of its target")
    containment = check_bipolar_containment(traj, eq)
    if not containment.all_contained:
        failures.append(
            f"containment broken at step {containment.first_exit} ({containment.exit_side})")
    if failures:
        raise ValueError("hypotheses unmet: " + "; ".join(failures))

    h = traj.params.step_size
    opp_excess = _log_excess(np.abs(ef[:, b] - (n - 1) * math.pi / n),
                             (n - 1) / n * d0, alpha, h)
    locked_excess = _log_excess(np.abs(ef[:, mask] + math.pi / n).max(axis=1),
                                (2 * n - 1) / n * d0, alpha, h)
    opp_ok = opp_excess < 0
    locked_ok = locked_excess < 0
    opp_ok[0] = opp_excess[0] <= 0
    locked_ok[0] = locked_excess[0] <= 0
    fail = _first_failure(opposed=opp_ok, locked=locked_ok)
    if fail is None:
        return BipolarBoundsCertificate(True, None, None)
    return BipolarBoundsCertificate(False, *fail)


# ---------------------------------------------------------------------------
# coupling thresholds and cluster invariance (non-identical system)
# ---------------------------------------------------------------------------

def coupling_threshold(d_omega: float, d_theta0: float) -> float:
    """Coupling above which a sub-pi initial diameter contracts:
    D(Omega) / sin D(Theta_0)."""
    if not d_omega > 0:
        raise ValueError("d_omega must be positive")
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
    if d_omega < 0:
        raise ValueError("d_omega must be nonnegative")
    l_cap = 2.0 * math.acos((n - n0) / n0)
    if not (0.0 < l < l_cap):
        raise ValueError(f"l must lie in (0, {l_cap:.6g}) for n0={n0}, n={n}")
    if not coupling > 0:
        raise ValueError("coupling must be positive")

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
        terms = [(math.pi - l) / d2k, margin / a, f / (c + e)]
        if d_omega > 0:
            terms.append(l / d_omega)
        step_max = min(terms)
    else:
        step_max = 0.0  # coupling at or below threshold: no admissible step
    return ClusterSpec(
        n=n, n0=n0, l=l, d_omega=d_omega, coupling=coupling,
        k_min=k_min, step_max=step_max, coupling_ok=bool(coupling > k_min),
    )


@dataclass(frozen=True)
class ScanCertificate:
    passed: bool
    first_violation: int | None
    curve: np.ndarray


def certify_cluster_invariance(traj: Trajectory, spec: ClusterSpec) -> ScanCertificate:
    """Check the first-n0 diameter stays strictly below l at every step."""
    if traj.n != spec.n:
        raise ValueError("trajectory size does not match cluster spec")
    idx = np.arange(spec.n0)
    d = _subset_diameters(traj.phases, idx)
    d0, l = float(d[0]), float(spec.l)
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
    bad = np.nonzero(d >= spec.l)[0]
    return ScanCertificate(bad.size == 0, int(bad[0]) if bad.size else None, d)


def certify_uniform_bound(traj: Trajectory, l: float) -> ScanCertificate:
    """Check the full phase diameter never exceeds 4*pi + 2*l."""
    d = traj.diameters
    cap = 4.0 * math.pi + 2.0 * l
    bad = np.nonzero(d > cap)[0]
    return ScanCertificate(bad.size == 0, int(bad[0]) if bad.size else None, d)


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
