"""Tests for the fixed-step gradient descent engine and its certificates."""
import math

import numpy as np
import pytest

from kdgf import (
    DescentProblem,
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    certify_descent,
    gradient_square_sum,
    kuramoto_problem,
    lojasiewicz_probe,
    run_descent,
    simulate,
)


def quadratic(dim=2):
    return DescentProblem(
        dim=dim,
        potential=lambda x: float(0.5 * (x @ x)),
        gradient=lambda x: np.asarray(x, dtype=float),
        hessian_bound=1.0,
    )


def double_well():
    return DescentProblem(
        dim=1,
        potential=lambda x: float(0.25 * x[0] ** 4 - 0.5 * x[0] ** 2),
        gradient=lambda x: np.array([x[0] ** 3 - x[0]]),
        hessian_bound=11.0,
        domain_check=lambda x: bool(abs(x[0]) <= 2.0),
    )


def quartic_1d():
    return DescentProblem(
        dim=1,
        potential=lambda x: float(0.25 * x[0] ** 4),
        gradient=lambda x: np.array([x[0] ** 3]),
        hessian_bound=3.0,
        domain_check=lambda x: bool(abs(x[0]) <= 1.0),
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_gradient_spot_check_rejects_wrong_gradient():
    with pytest.raises(ValueError, match="finite differences"):
        DescentProblem(
            dim=2,
            potential=lambda x: float(x @ x),
            gradient=lambda x: np.asarray(x, dtype=float),  # off by factor 2
            hessian_bound=2.0,
        )


def test_hessian_bound_must_be_positive():
    with pytest.raises(ValueError):
        DescentProblem(dim=1, potential=lambda x: 0.0,
                       gradient=lambda x: np.zeros(1), hessian_bound=0.0)


# ---------------------------------------------------------------------------
# run_descent
# ---------------------------------------------------------------------------

def test_quadratic_halving_iterates():
    # with h = 0.5 the map is exact halving; iterates are representable
    prob = quadratic()
    res = run_descent(prob, [1.0, 1.0], h=0.5, tol=1e-10, store_path=True)
    assert res.converged
    assert res.h_admissible
    np.testing.assert_array_equal(res.path[1], [0.5, 0.5])
    np.testing.assert_array_equal(res.path[2], [0.25, 0.25])
    assert np.all(np.diff(res.f_values) < 0)
    assert np.abs(res.final_point).max() < 1e-9


def test_double_well_converges_to_nearest_minimum():
    res = run_descent(double_well(), [0.1], h=0.01, tol=1e-10)
    assert res.converged
    assert res.final_point[0] == pytest.approx(1.0, abs=1e-6)
    assert res.grad_norms[-1] < 1e-10


def test_critical_start_converges_immediately():
    res = run_descent(double_well(), [0.0], h=0.01, tol=1e-10)
    assert res.converged
    assert res.f_values.size == 1
    assert res.final_point[0] == 0.0


def test_start_outside_domain_errors():
    with pytest.raises(ValueError, match="domain"):
        run_descent(double_well(), [3.0], h=0.01)


def test_domain_exit_flag():
    # concave potential pushes iterates outward until they leave the domain
    prob = DescentProblem(
        dim=1,
        potential=lambda x: float(-0.5 * x[0] ** 2),
        gradient=lambda x: np.array([-x[0]]),
        hessian_bound=1.0,
        domain_check=lambda x: bool(abs(x[0]) <= 10.0),
    )
    res = run_descent(prob, [1.0], h=0.5, max_steps=1000)
    assert res.stop_reason == "domain_exit"
    assert not res.converged
    assert abs(res.final_point[0]) > 10.0


def test_fixed_point_iff_critical():
    prob = double_well()
    for x0 in ([1.0], [-1.0], [0.0]):
        res = run_descent(prob, x0, h=0.05)
        assert res.converged and res.f_values.size == 1
    res = run_descent(prob, [0.3], h=0.05)
    assert res.f_values.size > 1  # non-critical points move


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_descent_quadratic_equality():
    # with curvature bound = largest eigenvalue the inequality is an equality
    prob = quadratic()
    res = run_descent(prob, [1.0, -2.0], h=0.8, tol=1e-12)
    cert = certify_descent(prob, res, 0.8)
    assert cert.passed
    assert abs(cert.min_slack) < 1e-12


def test_certify_descent_double_well():
    prob = double_well()
    res = run_descent(prob, [0.1], h=0.01)
    cert = certify_descent(prob, res, 0.01)
    assert cert.passed


def test_certify_descent_fails_above_guard():
    # h = 4/C on the quadratic: iterates diverge, certification reports failure
    prob = quadratic()
    res = run_descent(prob, [1.0, 1.0], h=4.0, max_steps=20, tol=1e-12)
    assert not res.h_admissible
    cert = certify_descent(prob, res, 4.0)
    assert not cert.passed
    assert cert.first_violation == 0


def test_certify_descent_provenance():
    prob = quadratic()
    res = run_descent(prob, [1.0, 1.0], h=0.5)
    with pytest.raises(ValueError, match="produced"):
        certify_descent(prob, res, 0.25)
    with pytest.raises(ValueError, match="produced"):
        certify_descent(quadratic(), res, 0.5)


def test_gradient_square_sum_quadratic_telescopes():
    prob = quadratic()
    res = run_descent(prob, [1.0, -1.0], h=0.5, tol=1e-12)
    rep = gradient_square_sum(res, 0.5, prob.hessian_bound)
    assert rep.holds
    assert rep.weighted_sum == pytest.approx(rep.f_drop, rel=1e-12)


def test_gradient_square_sum_zero_step_run():
    prob = double_well()
    res = run_descent(prob, [1.0], h=0.01)
    rep = gradient_square_sum(res, 0.01, prob.hessian_bound)
    assert rep.weighted_sum == 0.0
    assert rep.holds


def test_gradient_square_sum_double_well_slack():
    prob = double_well()
    res = run_descent(prob, [0.1], h=0.01)
    rep = gradient_square_sum(res, 0.01, prob.hessian_bound)
    assert rep.holds
    assert rep.weighted_sum < rep.f_drop


# ---------------------------------------------------------------------------
# exponent probe
# ---------------------------------------------------------------------------

def test_probe_quadratic_exponent_half():
    probe = lojasiewicz_probe(quadratic(1), [0.0], radius=0.5, samples=300)
    assert probe.exponent == pytest.approx(0.5, abs=0.01)
    assert probe.constant == pytest.approx(math.sqrt(2.0), rel=1e-6)


def test_probe_quartic_exponent_three_quarters():
    probe = lojasiewicz_probe(quartic_1d(), [0.0], radius=0.5, samples=300)
    assert probe.exponent == pytest.approx(0.75, abs=0.01)
    assert probe.constant == pytest.approx(4.0 ** 0.75, rel=1e-6)


def test_probe_requires_critical_point():
    with pytest.raises(ValueError, match="critical point"):
        lojasiewicz_probe(quadratic(1), [0.5], radius=0.1)


def test_probe_kuramoto_sync_nondegenerate():
    # sampled in the zero-mean subspace the sync state is a clean minimum
    prob = kuramoto_problem(NaturalFrequencies.zero(3), coupling=1.0)
    basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T
    probe = lojasiewicz_probe(prob, np.zeros(3), radius=0.1, samples=300,
                              subspace=basis)
    assert probe.exponent == pytest.approx(0.5, abs=0.01)


def test_probe_inequality_holds_on_samples():
    prob = quartic_1d()
    probe = lojasiewicz_probe(prob, [0.0], radius=0.3, samples=100, seed=3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = np.array([rng.uniform(-0.3, 0.3)])
        df = abs(prob.potential(x))
        if df == 0:
            continue
        assert np.linalg.norm(prob.gradient(x)) >= probe.constant * df ** probe.exponent * (1 - 1e-9)


# ---------------------------------------------------------------------------
# oscillator embedding
# ---------------------------------------------------------------------------

def test_kuramoto_embedding_bit_identical():
    theta = np.array([-0.4, 0.05, 0.35])
    freqs = NaturalFrequencies.zero(3)
    k, h, steps = 1.3, 0.02, 200
    traj = simulate(PhaseConfig(theta), freqs,
                    SimParams(k, h, max_steps=steps, conv_tol=0.0))
    prob = kuramoto_problem(freqs, k)
    res = run_descent(prob, theta, h=h, max_steps=steps, tol=0.0, store_path=True)
    assert res.path.shape == traj.phases.shape
    assert res.path.tobytes() == traj.phases.tobytes()
    assert prob.hessian_bound == 2 * k
