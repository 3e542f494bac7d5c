"""Tests for classification, equilibrium matching, and the certificates."""
import math
import re

import numpy as np
import pytest

from kdgf import (
    EquilibriumState,
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    certify_bipolar_bounds,
    certify_cluster_invariance,
    certify_diameter_decay,
    certify_two_sided_decay,
    certify_uniform_bound,
    check_bipolar_containment,
    check_order_preservation,
    classify_initial,
    cluster_spec,
    coupling_threshold,
    effective_phases,
    fit_decay_rate,
    kuramoto_gradient,
    match_equilibrium,
    simulate,
)
from kdgf.inits import near_bipolar, near_sync


def run_identical(init, k=1.0, h=0.01, steps=10_000, conv_tol=1e-10):
    n = init.n
    p = SimParams(coupling=k, step_size=h, max_steps=steps, conv_tol=conv_tol)
    return simulate(init, NaturalFrequencies.zero(n), p)


def synthetic_trajectory(rows, h=0.01, k=1.0):
    """Hand-built trajectory for detector tests (not a replayable run)."""
    import kdgf.integrate as integ

    phases = np.asarray(rows, dtype=float)
    m = phases.shape[0]
    return integ.Trajectory(
        phases=phases,
        params=SimParams(coupling=k, step_size=h, max_steps=m),
        freqs=NaturalFrequencies.zero(phases.shape[1]),
        diameters=phases.max(axis=1) - phases.min(axis=1),
        potentials=np.zeros(m),
        grad_norms=np.zeros(m),
        order_r=np.zeros(m),
        order_phi=np.zeros(m),
        stop_reason="max_steps",
    )


# ---------------------------------------------------------------------------
# equilibrium states and effective phases
# ---------------------------------------------------------------------------

def test_sync_state_reconstruction():
    eq = EquilibriumState.sync([0, 0, 0])
    assert eq.phi_star == 0.0
    assert np.all(eq.reconstruct() == 0.0)

    eq2 = EquilibriumState.sync([0, 0, 0, 1])
    rec = eq2.reconstruct()
    assert eq2.phi_star == pytest.approx(-math.pi / 2)
    np.testing.assert_allclose(rec, [-math.pi / 2] * 3 + [3 * math.pi / 2],
                               atol=1e-12)
    # integer certificate: the half-turn counts make the mean exactly zero
    a = 2 * eq2.windings
    assert (a * 4 - a.sum()).sum() == 0
    assert abs(rec.sum()) < 1e-14


def test_bipolar_state_reconstruction():
    eq = EquilibriumState.bipolar([0, 0, 0], 2)
    assert eq.phi_star == pytest.approx(-math.pi / 3)
    np.testing.assert_allclose(eq.reconstruct(),
                               [-math.pi / 3, -math.pi / 3, 2 * math.pi / 3],
                               atol=1e-15)


def test_reconstructed_states_are_critical():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        w = rng.integers(-2, 3, n)
        if rng.random() < 0.5:
            eq = EquilibriumState.sync(w)
        else:
            eq = EquilibriumState.bipolar(w, int(rng.integers(0, n)))
        rec = eq.reconstruct()
        g = kuramoto_gradient(PhaseConfig(rec), NaturalFrequencies.zero(n), 1.0)
        assert np.abs(g).max() < 1e-12
        assert abs(rec.sum()) < 1e-13 * max(1, np.abs(rec).max())


def test_effective_phases_at_limits():
    eq = EquilibriumState.sync([0, 0, 0])
    at_limit = PhaseConfig(np.zeros(3) + 0.0)
    assert np.all(effective_phases(at_limit, eq) == 0.0)

    eqb = EquilibriumState.bipolar([0, 0, 0], 2)
    at_bipolar = PhaseConfig(eqb.reconstruct())
    ef = effective_phases(at_bipolar, eqb)
    np.testing.assert_allclose(ef, [-math.pi / 3, -math.pi / 3, 2 * math.pi / 3],
                               atol=1e-15)


def test_effective_phases_perturbation_pattern():
    eq = EquilibriumState.sync([0, 0, 0, 0])
    bump = np.array([0.01, -0.01 / 3, -0.01 / 3, -0.01 / 3])
    ef = effective_phases(PhaseConfig(eq.reconstruct() + bump), eq)
    np.testing.assert_allclose(ef, bump, atol=1e-15)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_small_diameter_sync():
    cls = classify_initial(PhaseConfig([-0.2, -0.1, 0.3]), 1.0)
    assert cls.kind == "sync"
    assert cls.bipolar_index is None
    assert np.all(cls.equilibrium.windings == 0)


def test_classify_near_bipolar():
    cls = classify_initial(near_bipolar(3, 0.01), 1.0)
    assert cls.kind == "bipolar"
    assert cls.bipolar_index == 2
    assert cls.equilibrium.phi_star == pytest.approx(-math.pi / 3)


def test_classify_degenerate_cases():
    dup = classify_initial(PhaseConfig([0.1, 0.1, -0.2]), 1.0)
    assert dup.kind == "degenerate"
    balanced = classify_initial(
        PhaseConfig([0.0, 2 * math.pi / 3, -2 * math.pi / 3]), 1.0)
    assert balanced.kind == "degenerate"


def test_classify_requires_zero_mean():
    with pytest.raises(ValueError, match="zero-mean"):
        classify_initial(PhaseConfig([0.5, 0.6, 0.7]), 1.0)


def test_classify_unresolved_reports_grad_norm():
    with pytest.raises(ValueError, match="unresolved classification"):
        classify_initial(PhaseConfig([-0.2, -0.1, 0.3]), 1.0, t_max=0.2)


# ---------------------------------------------------------------------------
# equilibrium matching
# ---------------------------------------------------------------------------

def test_match_sync_at_origin():
    eq = match_equilibrium(PhaseConfig([0.0, 0.0, 0.0]))
    assert eq.kind == "sync"
    assert np.all(eq.windings == 0)
    assert eq.phi_star == 0.0


def test_match_bipolar_state():
    eq = match_equilibrium(PhaseConfig([-math.pi / 3, -math.pi / 3, 2 * math.pi / 3]))
    assert eq.kind == "bipolar"
    assert eq.bipolar_index == 2
    assert eq.phi_star == pytest.approx(-math.pi / 3)
    assert np.all(eq.windings == 0)


def test_match_unconverged_returns_none():
    assert match_equilibrium(PhaseConfig([-1.0, 0.2, 0.8]), tol=1e-6) is None


def test_match_winding_run_agrees_with_classification():
    # a spread configuration whose sync limit carries one full winding
    init = PhaseConfig(np.array([0.6737, -1.0224, 2.608, -2.2594]) * 1.0)
    theta = init.phases - init.phases.mean()
    init = PhaseConfig(theta)
    cls = classify_initial(init, 1.0)
    assert cls.kind == "sync"
    traj = run_identical(init, k=1.0, h=0.005, steps=1_000_000)
    assert traj.stop_reason == "grad_norm"
    eq = match_equilibrium(traj.final_config())
    assert eq is not None and eq.kind == "sync"
    assert np.array_equal(
        eq.windings - eq.windings.min(),
        cls.equilibrium.windings - cls.equilibrium.windings.min())
    assert np.any(eq.windings != eq.windings[0])


def candidate_search(final, tol):
    """Test oracle: the all-sync pattern, then every single-opposed-oscillator
    candidate, each built from whole turns about the mean-field angle; the
    first sync match or the best bipolar match below tol wins.  O(N^2)."""
    y = final.phases
    z = np.exp(1j * y).mean()
    if abs(z) < 1e-14:
        return None
    phi_hat = math.atan2(z.imag, z.real)
    k_sync = np.round((y - phi_hat) / (2 * math.pi)).astype(np.int64)
    eq = EquilibriumState.sync(k_sync)
    if float(np.abs(y - eq.reconstruct()).max()) < tol:
        return eq
    best, best_res = None, tol
    for b in range(y.size):
        k = k_sync.copy()
        k[b] = int(round((y[b] - phi_hat - math.pi) / (2 * math.pi)))
        cand = EquilibriumState.bipolar(k, b)
        res = float(np.abs(y - cand.reconstruct()).max())
        if res < best_res:
            best, best_res = cand, res
    return best


def test_match_agrees_with_candidate_search():
    rng = np.random.default_rng(20190909)
    kinds = set()
    for _ in range(3000):
        n = int(rng.integers(3, 12))
        w = rng.integers(-2, 3, n)
        if rng.random() < 0.5:
            eq = EquilibriumState.sync(w)
        else:
            eq = EquilibriumState.bipolar(w, int(rng.integers(0, n)))
        noise = 10.0 ** rng.uniform(-9, 0) * rng.standard_normal(n)
        final = PhaseConfig(eq.reconstruct() + noise)
        tol = 10.0 ** rng.uniform(-8, -0.01)
        got, want = match_equilibrium(final, tol), candidate_search(final, tol)
        if want is None:
            assert got is None
            continue
        kinds.add(want.kind)
        assert got is not None
        assert got.kind == want.kind
        assert got.bipolar_index == want.bipolar_index
        assert np.array_equal(got.windings, want.windings)
        assert got.phi_star == want.phi_star
    assert kinds == {"sync", "bipolar"}


# ---------------------------------------------------------------------------
# order preservation
# ---------------------------------------------------------------------------

def test_order_single_member_passes():
    traj = run_identical(near_sync(3, 0.1), steps=100)
    assert check_order_preservation(traj, [1]).passed


def test_order_preserved_small_diameter_run():
    traj = run_identical(near_sync(4, 0.15), k=1.0, h=0.01, steps=20_000)
    assert check_order_preservation(traj, range(4)).passed


def test_order_detector_reports_swap():
    rows = [[0.0, 0.1, 0.2],
            [0.0, 0.1, 0.2],
            [0.1, 0.0, 0.2]]
    traj = synthetic_trajectory(rows)
    check = check_order_preservation(traj, range(3))
    assert not check.passed
    assert check.first_violation == 2
    assert check.pair == (0, 1)


# ---------------------------------------------------------------------------
# diameter decay certificates
# ---------------------------------------------------------------------------

def test_decay_constant_sync_trajectory():
    rows = [[0.3, 0.3, 0.3]] * 5
    cert = certify_diameter_decay(synthetic_trajectory(rows), range(3),
                                  eps=0.3, rate=0.5)
    assert cert.passed


def test_decay_certificate_sync_run():
    eps = 0.3
    rate = math.sin(eps) / (2 * eps)  # K = 1
    traj = run_identical(near_sync(4, 0.125), k=1.0, h=0.01, steps=100_000)
    assert traj.stop_reason == "grad_norm"
    cert = certify_diameter_decay(traj, range(4), eps=eps, rate=rate)
    assert cert.passed


def test_decay_certificate_rejects_aggressive_rate():
    traj = run_identical(near_sync(4, 0.125), k=1.0, h=0.01, steps=5_000)
    cert = certify_diameter_decay(traj, range(4), eps=0.3, rate=10.0)
    assert not cert.passed
    assert cert.first_violation is not None


def test_decay_certificate_precondition():
    traj = run_identical(near_sync(3, 0.5), steps=10)
    with pytest.raises(ValueError, match="initial diameter exceeds"):
        certify_diameter_decay(traj, range(3), eps=0.3, rate=0.4)


def test_two_sided_envelope_near_bipolar():
    k, eps = 1.0, 0.2
    traj = run_identical(near_bipolar(3, 0.05), k=k, h=0.005, steps=2_000,
                         conv_tol=0.0)
    alpha = k * (2 * math.sin(eps) / eps - 1) / 6
    cert = certify_two_sided_decay(traj, [0, 1], k, alpha)
    assert cert.passed


def test_two_sided_rejects_contradictory_alpha():
    traj = run_identical(near_bipolar(3, 0.05), k=1.0, h=0.005, steps=10,
                         conv_tol=0.0)
    with pytest.raises(ValueError, match="alpha"):
        certify_two_sided_decay(traj, [0, 1], 1.0, alpha=2.5)


def test_two_sided_requires_positive_initial_diameter():
    rows = [[0.0, 0.0, 0.5]] * 3
    with pytest.raises(ValueError, match="positive"):
        certify_two_sided_decay(synthetic_trajectory(rows), [0, 1], 1.0, 0.1)


# ---------------------------------------------------------------------------
# containment and residual bounds
# ---------------------------------------------------------------------------

def test_containment_exact_bipolar_state():
    eq = EquilibriumState.bipolar([0, 0, 0], 2)
    rows = [eq.reconstruct()] * 10
    rep = check_bipolar_containment(synthetic_trajectory(rows), eq)
    assert rep.all_contained


def test_containment_detects_constructed_exit():
    eq = EquilibriumState.bipolar([0, 0, 0], 2)
    base = eq.reconstruct()
    outside = base.copy()
    outside[2] = base[0] + math.pi - 0.05  # below the band
    rep = check_bipolar_containment(synthetic_trajectory([outside]), eq)
    assert not rep.all_contained
    assert rep.first_exit == 0
    assert rep.exit_side == "below"


def test_containment_near_bipolar_run():
    k = 0.5
    traj = run_identical(near_bipolar(4, 0.05), k=k, h=0.005, steps=3_000,
                         conv_tol=0.0)
    cls = classify_initial(near_bipolar(4, 0.05), k)
    rep = check_bipolar_containment(traj, cls.equilibrium)
    assert rep.all_contained


def test_bipolar_bounds_near_run_and_rate_cap():
    k, eps = 0.5, 0.3
    init = near_bipolar(4, 0.05)
    traj = run_identical(init, k=k, h=0.005, steps=3_000, conv_tol=0.0)
    eq = classify_initial(init, k).equilibrium
    alpha = k * (3 * math.sin(eps) / eps - 1) / 8
    cert = certify_bipolar_bounds(traj, eq, alpha, eps)
    assert cert.passed
    # deliberately mis-set rate far above the attraction scale: must fail
    bad = certify_bipolar_bounds(traj, eq, alpha=10 * k, eps=eps)
    assert not bad.passed


def test_bipolar_bounds_collapsed_residuals_pass_past_exp_underflow():
    # alpha*n*h = 800 puts the envelope D(0)exp(-alpha n h) below the double
    # range; exactly collapsed residuals must still pass, as they do for
    # certify_diameter_decay.
    eq = EquilibriumState.bipolar([0, 0, 0], 2)
    exact = eq.reconstruct()
    start = exact + np.array([-0.01, 0.01, 0.0])  # locked spread 0.02
    traj = synthetic_trajectory([start, exact, exact, exact], h=1.0)
    cert = certify_bipolar_bounds(traj, eq, alpha=800.0, eps=0.3)
    assert cert.passed, cert
    assert certify_diameter_decay(traj, [0, 1], eps=0.3, rate=800.0).passed


def test_bipolar_bounds_reports_earliest_failure():
    eq = EquilibriumState.bipolar([0, 0, 0], 2)
    exact = eq.reconstruct()
    start = exact + np.array([-0.01, 0.01, 0.0])
    # a common shift of 0.015 at step 2 sits under the locked bound
    # (5/3)(0.02)e^-0.2 = 0.027 but over the opposed one (2/3)(0.02)e^-0.2 = 0.011
    shifted = exact + 0.015
    traj = synthetic_trajectory([start, exact, shifted], h=1.0)
    cert = certify_bipolar_bounds(traj, eq, alpha=0.1, eps=0.3)
    assert (cert.passed, cert.first_violation, cert.which) == (False, 2, "opposed")


def test_bipolar_bounds_reports_unmet_hypotheses():
    eq = EquilibriumState.bipolar([0, 0, 0], 2)
    base = eq.reconstruct().copy()
    base[2] += 0.2  # opposed oscillator too far off target
    rows = [base] * 3
    with pytest.raises(ValueError, match="hypotheses unmet"):
        certify_bipolar_bounds(synthetic_trajectory(rows), eq, 0.05, eps=0.3)


# ---------------------------------------------------------------------------
# thresholds and cluster invariance
# ---------------------------------------------------------------------------

def test_coupling_threshold_values():
    assert coupling_threshold(1.0, math.pi / 2) == pytest.approx(1.0)
    assert coupling_threshold(1.0, math.pi / 6) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        coupling_threshold(1.0, math.pi - 1e-12)
    with pytest.raises(ValueError):
        coupling_threshold(0.0, 1.0)


def test_cluster_spec_formula():
    spec = cluster_spec(4, 3, math.pi / 3, d_omega=1.0, coupling=3.0)
    expected = 1.0 / (0.75 * math.sin(math.pi / 3) - 0.5 * math.sin(math.pi / 6))
    assert spec.k_min == pytest.approx(expected)
    assert spec.coupling_ok
    assert spec.step_max > 0


def test_cluster_spec_range_validation():
    cap = 2 * math.acos(0.0)
    spec = cluster_spec(4, 4, cap * 0.99, d_omega=0.1, coupling=1.0)  # n0 = N
    assert spec.k_min > 0
    with pytest.raises(ValueError, match="n0"):
        cluster_spec(4, 2, 0.5, 0.1, 1.0)
    with pytest.raises(ValueError, match="l must lie"):
        cluster_spec(4, 3, 3.0, 0.1, 1.0)


def test_cluster_spec_no_admissible_step_below_threshold():
    spec = cluster_spec(4, 3, math.pi / 3, d_omega=1.0, coupling=1.0)
    assert not spec.coupling_ok
    assert spec.step_max == 0.0


def test_cluster_invariance_identical_trivial():
    init = near_sync(4, 0.05)
    f = NaturalFrequencies([-0.005, -0.001, 0.002, 0.004])
    spec = cluster_spec(4, 3, math.pi / 3, f.d_omega, coupling=1.0)
    traj = simulate(init, f, SimParams(1.0, 0.001, max_steps=2_000, conv_tol=0.0))
    cert = certify_cluster_invariance(traj, spec)
    assert cert.passed


def test_cluster_invariance_with_offset_outsider():
    l = math.pi / 3
    omega = NaturalFrequencies([-0.1, -0.02, 0.02, 0.1])
    spec0 = cluster_spec(4, 3, l, omega.d_omega, coupling=1.0)
    k = 2 * spec0.k_min
    spec = cluster_spec(4, 3, l, omega.d_omega, coupling=k)
    h = min(spec.step_max, 0.002) / 2
    cluster = -math.pi / 2 + np.array([-0.45 * l, 0.0, 0.45 * l])
    init = PhaseConfig(np.append(cluster, -math.pi / 2 + 2 * math.pi))
    traj = simulate(init, omega, SimParams(k, h, max_steps=20_000, conv_tol=0.0))
    cert = certify_cluster_invariance(traj, spec)
    assert cert.passed
    assert certify_uniform_bound(traj, l).passed


def test_cluster_invariance_precondition_errors():
    omega = NaturalFrequencies([-0.1, -0.02, 0.02, 0.1])
    spec = cluster_spec(4, 3, math.pi / 3, omega.d_omega, coupling=1.1)
    init = near_sync(4, 0.1)
    traj = simulate(init, omega, SimParams(0.3, 0.001, max_steps=10, conv_tol=0.0))
    # the message names the values it compared
    with pytest.raises(ValueError, match=re.escape(
            f"preconditions unmet: coupling 0.3 not above k_min {spec.k_min!r}")):
        certify_cluster_invariance(traj, spec)


def test_uniform_bound_detector():
    rows = [[0.0, 0.1, 0.2, 10 * math.pi]] * 2
    cert = certify_uniform_bound(synthetic_trajectory(rows), l=math.pi / 3)
    assert not cert.passed
    assert cert.first_violation == 0


# ---------------------------------------------------------------------------
# decay-rate fitting
# ---------------------------------------------------------------------------

def test_fit_exact_exponential():
    h = 0.01
    n = np.arange(500)
    series = np.exp(-3.0 * n * h)
    fit = fit_decay_rate(series, h, (0, 500))
    assert fit.alpha_fit == pytest.approx(3.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_two_oscillator_linearized_rate():
    # gap map d -> d - K h sin d has per-step rate -log(1 - K h)/h as d -> 0
    k, h = 1.0, 0.01
    traj = run_identical(PhaseConfig([-0.01, 0.01]), k=k, h=h, steps=2_000,
                         conv_tol=0.0)
    fit = fit_decay_rate(traj.diameters, h, (0, 2_000))
    expected = -math.log(1 - k * h) / h
    assert fit.alpha_fit == pytest.approx(expected, rel=1e-3)


def test_fit_rate_sandwich_for_locked_group():
    # the locked-group diameter of an opposed-oscillator run decays at a
    # rate inside [alpha, 2K], the two-sided envelope rates
    k, h, eps = 1.0, 0.005, 0.3
    traj = run_identical(near_bipolar(3, 0.05), k=k, h=h, steps=3_000,
                         conv_tol=0.0)
    pair_diam = traj.phases[:, 1] - traj.phases[:, 0]
    fit = fit_decay_rate(pair_diam, h, (0, 3_000))
    alpha = k * (2 * math.sin(eps) / eps - 1) / 6
    assert alpha < fit.alpha_fit < 2 * k
    assert fit.r_squared > 0.999


def test_fit_constant_series_degenerate():
    fit = fit_decay_rate(np.ones(100), 0.01, (0, 100))
    assert fit.alpha_fit == 0.0
    assert fit.degenerate


def test_fit_rejects_nonpositive_values():
    series = np.array([1.0, 0.5, 0.0, 0.2])
    with pytest.raises(ValueError, match="shrink window"):
        fit_decay_rate(series, 0.01, (0, 4))
