"""Generic fixed-step gradient descent engine with certification helpers.

The iteration x(n+1) = x(n) - h * grad f(x(n)) is run for a user-supplied
smooth potential; descent is certified against the curvature-controlled
per-step drop, gradient-square summability is checked by telescoping, and a
sampling probe estimates the local gradient-domination exponent near a
critical point (diagnostic only, never used to gate convergence).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NaturalFrequencies, gradient_arrays, potential_arrays


def _finite_difference_gradient(potential, x, eps=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (potential(xp) - potential(xm)) / (2 * eps)
    return g


@dataclass(frozen=True)
class DescentProblem:
    """Potential/gradient pair with a curvature bound over its working domain.

    hessian_bound is an upper bound on the Hessian curvature (largest
    absolute eigenvalue) over the domain; the step guard h < 2/hessian_bound
    derives from it.  domain_check is an optional membership predicate for
    the working domain (None means all of R^dim).  At construction the
    gradient is spot-checked against central finite differences of the
    potential on 10 random domain points.
    """

    dim: int
    potential: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian_bound: float
    domain_check: Callable[[np.ndarray], bool] | None = None
    verify_gradient: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not self.hessian_bound > 0:
            raise ValueError("hessian_bound must be positive")
        if self.verify_gradient:
            self._spot_check()

    def in_domain(self, x: np.ndarray) -> bool:
        return True if self.domain_check is None else bool(self.domain_check(x))

    def _spot_check(self):
        rng = np.random.default_rng(20)
        checked = 0
        for _ in range(200):
            x = rng.standard_normal(self.dim)
            if not self.in_domain(x):
                continue
            g = np.asarray(self.gradient(x), dtype=float)
            fd = _finite_difference_gradient(self.potential, x)
            if np.linalg.norm(fd - g) > 1e-5 * (1.0 + np.linalg.norm(g)):
                raise ValueError(
                    "gradient does not match finite differences of the potential"
                )
            checked += 1
            if checked == 10:
                return
        raise ValueError("could not sample 10 domain points for the gradient check")


@dataclass
class DescentResult:
    """Summary of one descent run.

    f_values / grad_norms cover every evaluated point (index = step).  path
    is populated only when the run was started with store_path=True and
    covers the same points; after a domain exit, final_point additionally
    holds the (unevaluated) exiting iterate.
    """

    f_values: np.ndarray
    grad_norms: np.ndarray
    final_point: np.ndarray
    converged: bool
    h_admissible: bool
    stop_reason: str
    problem: DescentProblem
    h: float
    path: np.ndarray | None = None


@dataclass(frozen=True)
class DescentCertificate:
    passed: bool
    min_slack: float
    first_violation: int | None


def run_descent(problem: DescentProblem, x0, h: float, max_steps: int = 1_000_000,
                tol: float = 1e-10, store_path: bool = False) -> DescentResult:
    """Iterate x - h*grad(x) until the gradient norm drops below tol.

    The step guard h < 2/hessian_bound is reported, not enforced; runs with
    an inadmissible h proceed and typically fail certification instead.
    Leaving the working domain stops the run with a domain-exit flag.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    x = np.array(x0, dtype=float).reshape(-1)
    if x.size != problem.dim:
        raise ValueError(f"x0 has dimension {x.size}, expected {problem.dim}")
    if not problem.in_domain(x):
        raise ValueError("x0 outside the working domain")

    f_vals = []
    g_norms = []
    path = [x.copy()] if store_path else None
    reason = "max_steps"
    converged = False
    n = 0
    while True:
        f = float(problem.potential(x))
        g = np.asarray(problem.gradient(x), dtype=float)
        if not (math.isfinite(f) and np.all(np.isfinite(g))):
            raise ValueError(f"non-finite potential or gradient at step {n}")
        f_vals.append(f)
        gn = float(np.linalg.norm(g))
        g_norms.append(gn)
        if gn < tol:
            reason = "converged"
            converged = True
            break
        if n >= max_steps:
            break
        x_next = x - h * g
        if not problem.in_domain(x_next):
            x = x_next
            reason = "domain_exit"
            break
        x = x_next
        if store_path:
            path.append(x.copy())
        n += 1

    return DescentResult(
        f_values=np.asarray(f_vals),
        grad_norms=np.asarray(g_norms),
        final_point=x,
        converged=converged,
        h_admissible=bool(h < 2.0 / problem.hessian_bound),
        stop_reason=reason,
        problem=problem,
        h=h,
        path=np.asarray(path) if store_path else None,
    )


def certify_descent(problem: DescentProblem, result: DescentResult,
                    h: float) -> DescentCertificate:
    """Check f(x(n+1)) - f(x(n)) <= -h (1 - C h / 2) |grad f(x(n))|^2 at
    every recorded step, with tolerance 1e-10 * (1 + |f|).

    The slack is allowed-minus-actual drop; a NaN slack fails.  Above the
    step guard the allowed term flips sign and would certify anything, so the
    cap at zero keeps the certificate an actual monotone-decrease statement.
    """
    if result.problem is not problem or result.h != h:
        raise ValueError("result was not produced by this problem and step size")
    f_values, c = result.f_values, problem.hessian_bound
    allowed = np.minimum(-h * (1.0 - c * h / 2.0) * result.grad_norms[:-1] ** 2,
                         0.0)
    slacks = allowed - np.diff(f_values)
    if slacks.size == 0:
        return DescentCertificate(True, 0.0, None)
    bad = np.nonzero(~(slacks >= -1e-10 * (1.0 + np.abs(f_values[:-1]))))[0]
    return DescentCertificate(
        passed=bad.size == 0,
        min_slack=float(slacks.min()),
        first_violation=int(bad[0]) if bad.size else None,
    )


@dataclass(frozen=True)
class SummabilityReport:
    weighted_sum: float
    f_drop: float
    holds: bool


def gradient_square_sum(result: DescentResult, h: float, c: float) -> SummabilityReport:
    """Telescoped bound: sum_n |grad|^2 h (1 - C h / 2) <= f(x0) - f(final)."""
    weights = h * (1.0 - c * h / 2.0)
    s = float((result.grad_norms[:-1] ** 2).sum() * weights)
    drop = float(result.f_values[0] - result.f_values[-1])
    tol = 1e-10 * (1.0 + abs(result.f_values[0]) + abs(result.f_values[-1]))
    return SummabilityReport(weighted_sum=s, f_drop=drop, holds=bool(s <= drop + tol))


# ---------------------------------------------------------------------------
# gradient-domination probe
# ---------------------------------------------------------------------------

EXPONENT_GRID = np.round(np.linspace(0.5, 0.99, 50), 2)


@dataclass(frozen=True)
class LojasiewiczProbe:
    """Fitted local inequality |grad f(x)| >= c |f(x) - f(center)|^eta on a
    ball around a critical point.  Diagnostic only."""

    center: np.ndarray
    radius: float
    exponent: float
    constant: float
    sample_count: int


def lojasiewicz_probe(problem: DescentProblem, center, radius: float,
                      samples: int = 400, subspace: np.ndarray | None = None,
                      seed: int = 7) -> LojasiewiczProbe:
    """Sample the ball B(center, radius) and fit (eta, c).

    eta is the log-log least-squares slope of |grad| against |f - f(center)|,
    snapped to a 50-point grid on [0.5, 1); c is then the largest constant
    that keeps the inequality true on every sample.  ``subspace`` (a dim x k
    basis matrix) restricts sampling directions, e.g. to the zero-mean
    subspace for oscillator potentials whose flat direction would otherwise
    mask the exponent.
    """
    x_bar = np.array(center, dtype=float).reshape(-1)
    if x_bar.size != problem.dim:
        raise ValueError("center has wrong dimension")
    g0 = np.asarray(problem.gradient(x_bar), dtype=float)
    if np.linalg.norm(g0) >= 1e-8:
        raise ValueError("probe requires a critical point")
    if not radius > 0:
        raise ValueError("radius must be positive")

    if subspace is not None:
        basis = np.linalg.qr(np.asarray(subspace, dtype=float))[0]
    else:
        basis = np.eye(problem.dim)
    k = basis.shape[1]

    rng = np.random.default_rng(seed)
    f0 = float(problem.potential(x_bar))
    log_g, log_df, ratios_at = [], [], []
    pts = []
    while len(pts) < samples:
        u = rng.standard_normal(k)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            continue
        rad = radius * rng.random() ** (1.0 / k)
        x = x_bar + basis @ (u / nu * rad)
        if not problem.in_domain(x):
            continue
        df = abs(float(problem.potential(x)) - f0)
        gn = float(np.linalg.norm(np.asarray(problem.gradient(x), dtype=float)))
        if df < 1e-300 or gn < 1e-300:
            continue
        pts.append((gn, df))
    gn = np.array([p[0] for p in pts])
    df = np.array([p[1] for p in pts])

    slope = np.polyfit(np.log(df), np.log(gn), 1)[0]
    eta = float(EXPONENT_GRID[np.argmin(np.abs(EXPONENT_GRID - slope))])
    c = float((gn / df ** eta).min()) * (1.0 - 1e-12)
    return LojasiewiczProbe(center=x_bar, radius=radius, exponent=eta,
                            constant=c, sample_count=len(pts))


# ---------------------------------------------------------------------------
# oscillator-system embedding
# ---------------------------------------------------------------------------

def kuramoto_problem(freqs: NaturalFrequencies, coupling: float) -> DescentProblem:
    """The oscillator potential as a DescentProblem with curvature bound 2K.

    run_descent on this problem reproduces the Euler trajectory of
    :func:`kdgf.integrate.simulate` bit-for-bit for the same (K, h, init).
    """
    omega = freqs.omega

    def pot(x):
        return potential_arrays(np.asarray(x, dtype=float), omega, coupling)

    def grad(x):
        return gradient_arrays(np.asarray(x, dtype=float), omega, coupling)

    return DescentProblem(
        dim=omega.size,
        potential=pot,
        gradient=grad,
        hessian_bound=2.0 * coupling,
        verify_gradient=False,  # analytic pair from the shared core kernels
    )
