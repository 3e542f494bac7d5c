"""Tests for the phase-space data model and potential/gradient pair."""
import cmath
import math

import numpy as np
import pytest

from kdgf import (
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    diameter,
    inits,
    kuramoto_gradient,
    kuramoto_potential,
    order_parameter,
)
from kdgf.core import coupling_sums, potential_arrays, velocity_arrays


def fd_gradient(theta, omega, k, eps=1e-6):
    """Central finite differences of the potential, the independent oracle."""
    base = lambda t: kuramoto_potential(PhaseConfig(t), NaturalFrequencies(omega), k)
    g = np.empty_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        g[i] = (base(tp) - base(tm)) / (2 * eps)
    return g


def pairwise_coupling_sums(theta):
    """sum_j sin(theta_j - theta_i) summed pair by pair: the O(N^2) oracle
    for the mean-field kernel."""
    return np.sin(theta[None, :] - theta[:, None]).sum(axis=1)


def pairwise_potential(theta, omega, k):
    diff = theta[None, :] - theta[:, None]
    return -(omega @ theta) + k / (2 * theta.size) * (1.0 - np.cos(diff)).sum()


# ---------------------------------------------------------------------------
# construction and invariants of the types
# ---------------------------------------------------------------------------

def test_phase_config_validation():
    with pytest.raises(ValueError):
        PhaseConfig([0.1])  # needs N >= 2
    with pytest.raises(ValueError):
        PhaseConfig([0.1, np.nan])
    with pytest.raises(ValueError):
        PhaseConfig([0.1, 0.2], n_step=-1)
    c = PhaseConfig([0.1, 0.2])
    with pytest.raises(ValueError):
        c.phases[0] = 5.0  # immutable


def test_natural_frequencies_zero_mean_enforced():
    with pytest.raises(ValueError):
        NaturalFrequencies([1.0, 1.0])
    f = NaturalFrequencies([-0.3, 0.1, 0.2])
    assert f.d_omega == pytest.approx(0.5)
    assert not f.is_identical
    assert NaturalFrequencies.zero(4).is_identical


def test_sim_params_validation():
    with pytest.raises(ValueError):
        SimParams(coupling=0.0, step_size=0.1)
    with pytest.raises(ValueError):
        SimParams(coupling=1.0, step_size=-0.1)
    with pytest.raises(ValueError):
        SimParams(coupling=1.0, step_size=0.1, conv_tol=-1e-12)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            SimParams(coupling=bad, step_size=0.1)
        with pytest.raises(ValueError, match="finite"):
            SimParams(coupling=1.0, step_size=bad)
        with pytest.raises(ValueError, match="finite"):
            SimParams(coupling=1.0, step_size=0.1, conv_tol=bad)


@pytest.mark.parametrize("build", [
    lambda w: inits.near_sync(4, w),
    lambda w: inits.near_bipolar(4, w),
    lambda w: inits.uniform_frequencies(4, w, np.random.default_rng(0)),
], ids=["near_sync", "near_bipolar", "uniform_frequencies"])
@pytest.mark.parametrize("width", [math.inf, math.nan])
def test_init_builders_reject_non_finite_widths(build, width):
    with pytest.raises(ValueError, match="finite"):
        build(width)


# ---------------------------------------------------------------------------
# order parameter
# ---------------------------------------------------------------------------

def test_order_parameter_identical_phases():
    op = order_parameter(PhaseConfig([0.3, 0.3, 0.3]))
    assert op.r == pytest.approx(1.0, abs=1e-15)
    assert op.phi == pytest.approx(0.3, abs=1e-15)
    assert not op.degenerate


def test_order_parameter_symmetric_cancellation():
    op = order_parameter(PhaseConfig([0.0, 2 * math.pi / 3, -2 * math.pi / 3]))
    assert op.r < 1e-14
    assert op.phi == 0.0
    assert op.degenerate


def test_order_parameter_two_oscillators():
    # independent complex-sum evaluation
    z = (cmath.exp(0j) + cmath.exp(1j * math.pi / 2)) / 2
    op = order_parameter(PhaseConfig([0.0, math.pi / 2]))
    assert op.r == pytest.approx(abs(z), abs=1e-14)
    assert op.r == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
    assert op.phi == pytest.approx(math.pi / 4, abs=1e-12)


def test_order_parameter_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.uniform(-math.pi, math.pi, rng.integers(2, 9))
        shift = rng.uniform(-2, 2)
        a = order_parameter(PhaseConfig(theta))
        b = order_parameter(PhaseConfig(theta + shift))
        assert 0.0 <= a.r <= 1.0
        assert b.r == pytest.approx(a.r, abs=1e-12)
        dphi = (b.phi - a.phi - shift) % (2 * math.pi)
        assert min(dphi, 2 * math.pi - dphi) < 1e-9


# ---------------------------------------------------------------------------
# diameter
# ---------------------------------------------------------------------------

def test_diameter_basic():
    assert diameter(PhaseConfig([0.1, 0.1, 0.1])) == 0.0
    a = 0.7
    assert diameter(PhaseConfig([-a, a])) == pytest.approx(2 * a)


def test_diameter_subset():
    c = PhaseConfig([0.0, 0.4, 1.1, 0.7])
    assert diameter(c, {0, 1, 3}) == pytest.approx(0.7)
    assert diameter(c) >= diameter(c, {0, 1, 3})
    with pytest.raises(ValueError, match="empty index set"):
        diameter(c, set())
    with pytest.raises(ValueError):
        diameter(c, {0, 9})


def test_diameter_shift_invariance():
    rng = np.random.default_rng(3)
    theta = rng.uniform(-3, 3, 6)
    d = diameter(PhaseConfig(theta))
    assert d >= 0
    assert diameter(PhaseConfig(theta + 1.234)) == pytest.approx(d, abs=1e-12)


# ---------------------------------------------------------------------------
# potential and gradient
# ---------------------------------------------------------------------------

def test_potential_identical_all_equal_is_zero():
    f = NaturalFrequencies.zero(3)
    assert kuramoto_potential(PhaseConfig([0.4, 0.4, 0.4]), f, 2.0) == 0.0


def test_potential_two_oscillator_antipodal():
    f = NaturalFrequencies.zero(2)
    k = 1.7
    v = kuramoto_potential(PhaseConfig([0.0, math.pi]), f, k)
    assert v == pytest.approx(k, abs=1e-12)


def test_potential_linear_term_only():
    f = NaturalFrequencies([1.0, -1.0])
    a, b = 0.37, -0.81
    v = kuramoto_potential(PhaseConfig([a, b]), f, 0.0)
    assert v == pytest.approx(-a + b, abs=1e-15)


def test_potential_nonnegative_for_identical():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        theta = rng.uniform(-math.pi, math.pi, n)
        v = kuramoto_potential(PhaseConfig(theta), NaturalFrequencies.zero(n), 1.3)
        assert v >= -1e-12


def test_gradient_zero_at_sync():
    f = NaturalFrequencies.zero(4)
    g = kuramoto_gradient(PhaseConfig([1.1, 1.1, 1.1, 1.1]), f, 3.0)
    assert np.all(g == 0.0)


def test_gradient_two_oscillator_formula():
    f = NaturalFrequencies.zero(2)
    a, k = 0.4, 1.9
    g = kuramoto_gradient(PhaseConfig([-a, a]), f, k)
    assert g[0] == pytest.approx(-(k / 2) * math.sin(2 * a), abs=1e-15)
    assert g[1] == pytest.approx((k / 2) * math.sin(2 * a), abs=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        theta = rng.uniform(-math.pi, math.pi, n)
        omega = rng.uniform(-1, 1, n)
        omega -= omega.mean()
        k = float(rng.choice([0.5, 1.0, 5.0]))
        g = kuramoto_gradient(PhaseConfig(theta), NaturalFrequencies(omega), k)
        fd = fd_gradient(theta, omega, k)
        assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))


def test_gradient_sum_conservation():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        theta = rng.uniform(-math.pi, math.pi, n)
        omega = rng.uniform(-1, 1, n)
        omega -= omega.mean()
        g = kuramoto_gradient(PhaseConfig(theta), NaturalFrequencies(omega), 2.0)
        assert abs(g.sum() + omega.sum()) < 1e-13 * n


def test_length_mismatch_errors():
    c = PhaseConfig([0.1, 0.2, 0.3])
    f = NaturalFrequencies.zero(2)
    with pytest.raises(ValueError, match="length mismatch"):
        kuramoto_potential(c, f, 1.0)
    with pytest.raises(ValueError, match="length mismatch"):
        kuramoto_gradient(c, f, 1.0)


def test_coupling_sum_conservation_large_n():
    # phase-sum conservation stays within N*n*eps*max|theta| over a run
    rng = np.random.default_rng(2)
    n, steps, h, k = 2048, 10, 0.01, 1.0
    theta = rng.uniform(-math.pi, math.pi, n)
    theta -= theta.mean()
    omega = np.zeros(n)
    s0 = theta.sum()
    for _ in range(steps):
        v = velocity_arrays(theta, omega, k)
        theta = theta + h * v
    tol = n * steps * np.finfo(float).eps * max(1.0, np.abs(theta).max())
    assert abs(theta.sum() - s0) <= tol


@pytest.mark.parametrize("n", [2, 4, 64, 2048])
@pytest.mark.parametrize("kind", ["random_arc", "near_sync"])
def test_mean_field_kernel_matches_pairwise_oracle(n, kind):
    # The O(N) identity rounds differently from the pairwise sum.  Its error
    # is of order N * eps * K (measured worst case 1.0 * N * eps * K over 20
    # seeds); the tolerance leaves a factor of 4.
    rng = np.random.default_rng(n)
    if kind == "random_arc":
        theta = inits.random_arc(n, 3.0, rng).phases
    else:
        theta = inits.near_sync(n, 0.05).phases + rng.uniform(-1.0, 1.0)
    omega = inits.uniform_frequencies(n, 0.2, rng).omega
    k = 1.5
    tol = 4 * n * np.finfo(float).eps
    assert np.abs(coupling_sums(theta) - pairwise_coupling_sums(theta)).max() <= tol
    pot = potential_arrays(theta, omega, k)
    assert abs(pot - pairwise_potential(theta, omega, k)) <= k * tol
