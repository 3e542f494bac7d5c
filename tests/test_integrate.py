"""Tests for the Euler stepper, the RK4 reference, and the error bound."""
import math

import numpy as np
import pytest

from kdgf import (
    DivergenceError,
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    euler_error_bound,
    euler_step,
    inits,
    kuramoto_gradient,
    kuramoto_potential,
    order_parameter,
    rk4_reference,
    simulate,
)


def naive_euler(theta, omega, k, h):
    """Independent scalar re-implementation with naive summation."""
    n = len(theta)
    out = []
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += math.sin(theta[j] - theta[i])
        out.append(theta[i] + h * omega[i] + h * k / n * s)
    return np.array(out)


# ---------------------------------------------------------------------------
# euler_step
# ---------------------------------------------------------------------------

def test_euler_fixed_point():
    c = PhaseConfig([0.7, 0.7, 0.7])
    out = euler_step(c, NaturalFrequencies.zero(3), SimParams(1.0, 0.1))
    assert np.array_equal(out.phases, c.phases)
    assert out.n_step == 1


def test_euler_two_oscillator_formula():
    a, k, h = 0.3, 2.0, 0.05
    c = PhaseConfig([-a, a])
    out = euler_step(c, NaturalFrequencies.zero(2), SimParams(k, h))
    assert out.phases[0] == pytest.approx(-a + (h * k / 2) * math.sin(2 * a), abs=1e-15)
    assert out.phases[1] == pytest.approx(a - (h * k / 2) * math.sin(2 * a), abs=1e-15)


def test_euler_against_naive_oracle():
    theta = [0.0, 0.2, 0.5]
    out = euler_step(PhaseConfig(theta), NaturalFrequencies.zero(3),
                     SimParams(coupling=1.0, step_size=0.1))
    expected = naive_euler(theta, [0.0] * 3, 1.0, 0.1)
    np.testing.assert_allclose(out.phases, expected, rtol=1e-14, atol=1e-15)


def test_euler_gradient_identity_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        theta = rng.uniform(-math.pi, math.pi, n)
        omega = rng.uniform(-1, 1, n)
        omega -= omega.mean()
        k = float(rng.choice([0.5, 1.0, 5.0]))
        h = float(rng.uniform(0.001, 0.2))
        c = PhaseConfig(theta)
        f = NaturalFrequencies(omega)
        step = euler_step(c, f, SimParams(k, h))
        g = kuramoto_gradient(c, f, k)
        assert np.array_equal(step.phases, c.phases - h * g)


def test_euler_length_mismatch():
    with pytest.raises(ValueError):
        euler_step(PhaseConfig([0.1, 0.2]), NaturalFrequencies.zero(3),
                   SimParams(1.0, 0.1))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_fixed_point_stops_immediately():
    traj = simulate(PhaseConfig([0.2, 0.2, 0.2]), NaturalFrequencies.zero(3),
                    SimParams(1.0, 0.01, max_steps=100))
    assert traj.stop_reason == "grad_norm"
    assert traj.n_steps == 0


def test_simulate_replay_invariant():
    init = PhaseConfig([-0.4, 0.1, 0.3])
    f = NaturalFrequencies.zero(3)
    p = SimParams(1.0, 0.02, max_steps=50, conv_tol=0.0)
    traj = simulate(init, f, p)
    assert traj.n_steps == 50
    for n in range(traj.n_steps):
        replay = euler_step(traj.config(n), f, p)
        assert np.array_equal(replay.phases, traj.phases[n + 1])


def test_simulate_decreasing_diameter_small_config():
    init = PhaseConfig(np.linspace(-0.1, 0.1, 3))
    traj = simulate(init, NaturalFrequencies.zero(3),
                    SimParams(1.0, 0.01, max_steps=2000))
    d = traj.diameters
    assert np.all(np.diff(d[d > 1e-12]) < 0)


def test_simulate_divergence_guard():
    # pure drift with large frequencies walks past the guard
    f = NaturalFrequencies([-200.0, 200.0])
    p = SimParams(coupling=1e-6, step_size=1.0, max_steps=100_000, conv_tol=0.0)
    with pytest.raises(DivergenceError) as exc:
        simulate(PhaseConfig([-1.0, 1.0]), f, p)
    # |theta| = 1 + 200 m first exceeds 1e6 at step m = 5000
    assert exc.value.step == 5000


def test_simulate_deterministic_bytes():
    init = PhaseConfig([-0.4, 0.1, 0.3])
    f = NaturalFrequencies.zero(3)
    p = SimParams(1.0, 0.02, max_steps=200)
    a = simulate(init, f, p)
    b = simulate(init, f, p)
    assert a.phases.tobytes() == b.phases.tobytes()
    assert a.grad_norms.tobytes() == b.grad_norms.tobytes()


def test_trajectory_diagnostics_lengths():
    traj = simulate(PhaseConfig([-0.4, 0.1, 0.3]), NaturalFrequencies.zero(3),
                    SimParams(1.0, 0.02, max_steps=25, conv_tol=0.0))
    m = traj.n_steps + 1
    for arr in (traj.diameters, traj.potentials, traj.grad_norms,
                traj.order_r, traj.order_phi):
        assert arr.shape == (m,)
    assert traj.times[-1] == pytest.approx(25 * 0.02)


def test_trajectory_diagnostics_match_per_config_functions():
    n, k = 64, 1.0
    init = inits.random_arc(n, 3.0, np.random.default_rng(5))
    f = inits.uniform_frequencies(n, 0.3, np.random.default_rng(6))
    traj = simulate(init, f, SimParams(k, 0.05, max_steps=300, conv_tol=0.0))
    eps = np.finfo(float).eps
    for i in range(0, traj.n_steps + 1, 13):
        c = traj.config(i)
        pot = kuramoto_potential(c, f, k)
        assert abs(traj.potentials[i] - pot) <= 4 * n * eps * max(1.0, abs(pot))
        op = order_parameter(c)
        assert traj.order_r[i] == pytest.approx(op.r, abs=4 * eps)
        assert traj.order_phi[i] == pytest.approx(op.phi, abs=4 * eps * math.pi)


def test_simulate_large_n_near_sync_reaches_grad_tol():
    # The mean-field kernel's rounding floor on the gradient norm must stay
    # below conv_tol at large N, or near-sync runs would never stop.
    n, k, h = 10_000, 1.0, 0.1
    traj = simulate(inits.near_sync(n, 0.05), NaturalFrequencies.zero(n),
                    SimParams(k, h, max_steps=500, conv_tol=1e-10))
    assert traj.stop_reason == "grad_norm"
    # the last steps still contract at the linear rate 1 - hK, not at noise
    ratio = traj.grad_norms[-1] / traj.grad_norms[-2]
    assert ratio == pytest.approx(1.0 - h * k, abs=1e-3)


# ---------------------------------------------------------------------------
# RK4 reference
# ---------------------------------------------------------------------------

def test_rk4_constant_at_equilibrium():
    init = PhaseConfig([0.5, 0.5, 0.5])
    path = rk4_reference(init, NaturalFrequencies.zero(3), 1.0, t_end=2.0, dt=0.01)
    np.testing.assert_allclose(path(1.7), init.phases, atol=1e-14)


def test_rk4_two_oscillator_closed_form():
    # the gap d = theta_2 - theta_1 solves tan(d/2) = tan(d0/2) exp(-K t)
    d0, k = 1.0, 1.0
    init = PhaseConfig([-d0 / 2, d0 / 2])
    path = rk4_reference(init, NaturalFrequencies.zero(2), k, t_end=1.0, dt=1e-3)
    got = path(1.0)
    d = got[1] - got[0]
    expected = 2 * math.atan(math.tan(d0 / 2) * math.exp(-k * 1.0))
    assert d == pytest.approx(expected, abs=1e-8)


def test_rk4_order_of_convergence():
    d0, k, t = 1.0, 1.0, 1.0
    init = PhaseConfig([-d0 / 2, d0 / 2])
    ref = rk4_reference(init, NaturalFrequencies.zero(2), k, t, dt=1e-4)(t)
    errs = []
    for dt in (0.02, 0.01):
        got = rk4_reference(init, NaturalFrequencies.zero(2), k, t, dt=dt)(t)
        errs.append(np.abs(got - ref).max())
    ratio = errs[0] / errs[1]
    assert 10 < ratio < 25  # 4th order: ~16x per halving


def test_rk4_horizon_validation():
    path = rk4_reference(PhaseConfig([0.1, 0.4]), NaturalFrequencies.zero(2),
                         1.0, t_end=1.0, dt=0.01)
    with pytest.raises(ValueError):
        path(1.5)


# ---------------------------------------------------------------------------
# global error bound
# ---------------------------------------------------------------------------

def _bound_setup(h, t_end=2.0, k=1.0):
    init = PhaseConfig([-0.8, 0.15, 0.65])
    f = NaturalFrequencies.zero(3)
    steps = int(round(t_end / h))
    traj = simulate(init, f, SimParams(k, h, max_steps=steps, conv_tol=0.0))
    oracle = rk4_reference(init, f, k, t_end, dt=h / 10)
    return traj, oracle


def test_error_bound_zero_at_start_and_constant_run():
    traj, oracle = _bound_setup(0.01)
    rep = euler_error_bound(traj, oracle, lipschitz=2.0)
    assert rep.observed_error[0] == 0.0
    assert rep.bound_curve[0] == 0.0

    const = simulate(PhaseConfig([0.3, 0.3, 0.3]), NaturalFrequencies.zero(3),
                     SimParams(1.0, 0.01, max_steps=50, conv_tol=0.0))
    oracle_c = rk4_reference(PhaseConfig([0.3, 0.3, 0.3]),
                             NaturalFrequencies.zero(3), 1.0, 0.5, dt=0.001)
    rep_c = euler_error_bound(const, oracle_c, lipschitz=2.0)
    assert rep_c.within_bound
    assert np.all(rep_c.observed_error < 1e-13)


def test_error_bound_holds_generic_run():
    traj, oracle = _bound_setup(0.01)
    rep = euler_error_bound(traj, oracle, lipschitz=2.0)
    assert rep.within_bound
    assert rep.truncation_max > 0


def test_truncation_scales_linearly_in_h():
    maxima = []
    for h in (0.04, 0.02, 0.01):
        traj, oracle = _bound_setup(h, t_end=1.0)
        rep = euler_error_bound(traj, oracle, lipschitz=2.0)
        maxima.append(rep.truncation_max)
    for a, b in zip(maxima, maxima[1:]):
        assert 1.6 <= a / b <= 2.4


def test_error_bound_validations():
    traj, oracle = _bound_setup(0.01, t_end=1.0)
    with pytest.raises(ValueError, match="lipschitz"):
        euler_error_bound(traj, oracle, lipschitz=0.0)
    short = rk4_reference(PhaseConfig([-0.8, 0.15, 0.65]),
                          NaturalFrequencies.zero(3), 1.0, 0.2, dt=0.001)
    with pytest.raises(ValueError, match="horizon"):
        euler_error_bound(traj, short, lipschitz=2.0)
    coarse = rk4_reference(PhaseConfig([-0.8, 0.15, 0.65]),
                           NaturalFrequencies.zero(3), 1.0, 1.0, dt=0.005)
    with pytest.raises(ValueError, match="resolution"):
        euler_error_bound(traj, coarse, lipschitz=2.0)
