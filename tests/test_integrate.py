"""Tests for the Euler stepper, the RK4 reference, and the error bound."""
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from kdgf import (
    DivergenceError,
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    diameter,
    euler_error_bound,
    euler_step,
    inits,
    kuramoto_gradient,
    kuramoto_potential,
    kuramoto_problem,
    order_parameter,
    rk4_reference,
    rk4_step,
    run_descent,
    simulate,
    simulate_batch,
)
from kdgf import integrate
from kdgf.core import velocity_arrays


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


def test_divergence_error_survives_pickling():
    # sweep points run in worker processes, which hand a divergence back
    for exc in (DivergenceError(5000), DivergenceError(7, "non-finite gradient")):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is DivergenceError
        assert copy.step == exc.step and str(copy) == str(exc)


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


def _nonidentical_run(n, max_steps, seed=5):
    init = inits.random_arc(n, 3.0, np.random.default_rng(seed))
    f = inits.uniform_frequencies(n, 0.3, np.random.default_rng(seed + 1))
    return simulate(init, f, SimParams(1.0, 0.05, max_steps=max_steps, conv_tol=0.0))


@pytest.mark.parametrize("n,max_steps", [(4, 300), (64, 300), (300, 300),
                                         (64, 5000)])  # 320 064 phases: 79 blocks
def test_trajectory_series_equal_the_per_config_functions_bitwise(n, max_steps):
    traj = _nonidentical_run(n, max_steps)
    f, k = traj.freqs, traj.params.coupling
    for i in range(traj.n_steps + 1):
        c = traj.config(i)
        op = order_parameter(c)
        assert (kuramoto_potential(c, f, k), op.r, op.phi, diameter(c),
                np.linalg.norm(kuramoto_gradient(c, f, k))) == (
            traj.potentials[i], traj.order_r[i], traj.order_phi[i],
            traj.diameters[i], traj.grad_norms[i]), i
    result = run_descent(kuramoto_problem(f, k), traj.phases[0], traj.params.step_size,
                         max_steps=max_steps, tol=0.0, store_path=True)
    assert np.array_equal(result.path, traj.phases)
    assert np.array_equal(result.f_values, traj.potentials)


def test_a_steps_diagnostics_do_not_depend_on_the_run_length():
    runs = [_nonidentical_run(64, m) for m in (300, 301, 5000)]
    for short, long in zip(runs, runs[1:]):  # each pair on its common prefix
        rows = short.n_steps + 1
        assert np.array_equal(long.phases[:rows], short.phases)
        for name in ("potentials", "order_r", "order_phi", "diameters", "grad_norms"):
            assert np.array_equal(getattr(long, name)[:rows], getattr(short, name)), name


def test_simulate_peak_memory_is_the_stored_run_and_its_pieces():
    # the diagnostics read each step's mean-field sums: no pass over the
    # stored phases builds a complex (rows x N) temporary on top of the
    # pieces and their concatenation
    init = inits.random_arc(64, 2.0, np.random.default_rng(1))
    f = inits.uniform_frequencies(64, 0.2, np.random.default_rng(2))
    tracemalloc.start()
    try:
        traj = simulate(init, f, SimParams(1.0, 0.04, max_steps=20_000, conv_tol=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * traj.phases.nbytes


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
# simulate_batch: rows stepped together
# ---------------------------------------------------------------------------

def step_by_step(init, freqs, params):
    """The Euler loop checked one step at a time: guard, then gradient norm
    (not finite, then below conv_tol), then step cap.  Returns (phases, grad
    norms, stop reason) or raises."""
    theta, rows, norms = init.phases, [], []
    while True:
        m = len(rows)
        if m > 0 and np.abs(theta).max() > integrate.DIVERGENCE_LIMIT:
            raise DivergenceError(m)
        v = velocity_arrays(theta, freqs.omega, params.coupling)
        rows.append(theta)
        with np.errstate(over="ignore"):
            norms.append(math.sqrt(float(v @ v)))
        if not math.isfinite(norms[-1]):
            raise DivergenceError(m, "gradient norm is not finite")
        if norms[-1] < params.conv_tol:
            return np.array(rows), np.array(norms), "grad_norm"
        if m >= params.max_steps:
            return np.array(rows), np.array(norms), "max_steps"
        theta = theta + v * params.step_size


def assert_same_run(traj, init, freqs, params):
    phases, norms, reason = step_by_step(init, freqs, params)
    assert traj.stop_reason == reason
    assert traj.n_steps == phases.shape[0] - 1
    assert traj.phases.tobytes() == phases.tobytes()
    assert traj.grad_norms.tobytes() == norms.tobytes()
    single = simulate(init, freqs, params)
    for name in ("phases", "grad_norms", "diameters", "potentials", "order_r",
                 "order_phi"):
        assert getattr(traj, name).tobytes() == getattr(single, name).tobytes(), name
    assert single.stop_reason == reason


def ensembles(n, seed, max_steps=20_000, conv_tol=1e-10):
    """Three systems, each with its own frequencies, K and h, and one batch
    of starts: equal phases (a fixed point of the identical system, which
    stops at step 0), near-sync starts and random arcs."""
    rng = np.random.default_rng(seed)
    for k, h, spread in ((1.0, 0.05, 0.0), (2.5, 0.08, 0.1), (0.7, 0.1, 0.3)):
        freqs = (inits.uniform_frequencies(n, spread, rng) if spread
                 else NaturalFrequencies.zero(n))
        starts = [PhaseConfig(np.full(n, 0.3)), inits.near_sync(n, 1e-3),
                  inits.near_sync(n, 0.5), inits.random_arc(n, 2.0, rng),
                  inits.random_arc(n, 5.0, rng)]
        yield starts, freqs, SimParams(k, h, max_steps=max_steps, conv_tol=conv_tol)


@pytest.mark.parametrize("n", [2, 4, 7, 64, 1000])
def test_simulate_batch_rows_equal_single_runs(n):
    for i, (starts, freqs, params) in enumerate(ensembles(n, seed=n)):
        trajs = simulate_batch(starts, freqs, params)
        for traj, init in zip(trajs, starts):
            assert_same_run(traj, init, freqs, params)
        if i == 0:
            assert trajs[0].n_steps == 0 and trajs[0].stop_reason == "grad_norm"
            blocks = {t.n_steps // integrate.BLOCK_STEPS for t in trajs}
            assert len(blocks) >= 3  # rows stop in different blocks


@pytest.mark.parametrize("max_steps", [0, 1, 63, 64, 65, 150])
def test_simulate_batch_runs_to_the_cap(max_steps):
    for starts, freqs, params in ensembles(7, seed=3, max_steps=max_steps, conv_tol=0.0):
        for traj, init in zip(simulate_batch(starts, freqs, params), starts):
            assert traj.n_steps == max_steps and traj.stop_reason == "max_steps"
            assert_same_run(traj, init, freqs, params)


def test_simulate_batch_divergent_row_among_converging_rows():
    # a start beyond the guard diverges at step 1; the rows beside it converge
    freqs, params = NaturalFrequencies.zero(2), SimParams(1.0, 0.1, max_steps=100_000)
    calm = [PhaseConfig([-a, a]) for a in (0.5, 1.2, 0.1)]
    far = PhaseConfig([2e6, 2e6 + 0.1])
    results = simulate_batch([calm[0], far, *calm[1:]], freqs, params)
    assert isinstance(results[1], DivergenceError) and results[1].step == 1
    for traj, init in zip(results[:1] + results[2:], calm):
        assert traj.stop_reason == "grad_norm"
        assert_same_run(traj, init, freqs, params)

    # drifting phases pass the guard at steps 5000, 4501 and 3001, each as in
    # its single run; under a cap of 4000 only the last row diverges, and the
    # rows beside it run on to the cap
    freqs = NaturalFrequencies([-200.0, 200.0])
    starts = [PhaseConfig([-a, a]) for a in (1.0, 1e5, 4e5)]
    params = SimParams(coupling=1e-6, step_size=1.0, max_steps=100_000)
    for result, init, step in zip(simulate_batch(starts, freqs, params), starts,
                                  (5000, 4501, 3001)):
        with pytest.raises(DivergenceError) as exc:
            simulate(init, freqs, params)
        assert result.step == exc.value.step == step
    capped = SimParams(coupling=1e-6, step_size=1.0, max_steps=4000)
    *run_on, diverged = simulate_batch(starts, freqs, capped)
    assert isinstance(diverged, DivergenceError) and diverged.step == 3001
    for traj, init in zip(run_on, starts):
        assert traj.stop_reason == "max_steps"
        assert_same_run(traj, init, freqs, capped)


def test_simulate_batch_rows_with_a_non_finite_gradient_norm_among_finite_rows():
    # at K = 1e160 the gradient norm overflows once K * spread passes about
    # 1e154; at hK = 3 the spread doubles each step.  A 3 rad arc overflows at
    # step 0, a 3e-150 rad spread at step 478, inside a block; the synced row
    # and a 3e-250 rad spread stay finite to the cap, as they run alone
    freqs = NaturalFrequencies.zero(4)
    params = SimParams(1e160, 3e-160, max_steps=600, conv_tol=0.0)
    finite = [PhaseConfig(np.zeros(4)), PhaseConfig([0.0, 1e-250, 2e-250, 3e-250])]
    blown = [inits.random_arc(4, 3.0, np.random.default_rng(0)),
             PhaseConfig([0.0, 1e-150, 2e-150, 3e-150])]
    results = simulate_batch([finite[0], blown[0], blown[1], finite[1]], freqs, params)
    for result, init, step in zip(results[1:3], blown, (0, 478)):
        assert isinstance(result, DivergenceError)
        assert (result.step, result.what) == (step, "gradient norm is not finite")
        with pytest.raises(DivergenceError, match=f"not finite at step {step}$"):
            simulate(init, freqs, params)
        with pytest.raises(DivergenceError) as exc:
            step_by_step(init, freqs, params)
        assert exc.value.step == step
    for traj, init in zip(results[::3], finite):
        assert traj.stop_reason == "max_steps"
        assert np.isfinite(traj.grad_norms).all() and np.isfinite(traj.potentials).all()
        assert_same_run(traj, init, freqs, params)


def test_a_non_finite_potential_is_a_divergence_without_a_warning():
    # (K/2N)(N^2 - |Z|^2) overflows at K = 1e308 once |Z| < N: _trajectory
    # returns the first such step as a DivergenceError, and pyproject.toml's
    # RuntimeWarning-as-error setting would fail this test on a warning
    z = np.array([4.0, 4.0, 0.0, 0.0], dtype=complex)
    result = integrate._trajectory(np.zeros((4, 4)), np.zeros(4), z, "max_steps",
                                   NaturalFrequencies.zero(4), SimParams(1e308, 1e-310))
    assert isinstance(result, DivergenceError)
    assert (result.step, result.what) == (2, "potential is not finite")


def test_guard_skips_the_initial_state():
    # the guard checks the iterates, not the given start
    far = (PhaseConfig([2e6, 2e6 + 0.1]), NaturalFrequencies.zero(2),
           SimParams(coupling=1.0, step_size=0.1, max_steps=10))
    with pytest.raises(DivergenceError) as exc:
        simulate(*far)
    assert exc.value.step == 1
    assert simulate_batch([far[0]], *far[1:])[0].step == 1


def off_the_saddle(n, kick):
    """The bipolar saddle, N - 1 phases at -pi/N and one half a turn away,
    with the odd phase moved by ``kick``: the run lingers near the saddle
    before it synchronises."""
    phases = np.full(n, -math.pi / n)
    phases[-1] = (n - 1) * math.pi / n + kick
    return PhaseConfig(phases)


@pytest.mark.parametrize("n", [8, 64])
def test_simulate_batch_rows_leave_exactly(n):
    # six of eight rows stop early and leave the batch; the two long rows
    # step on alone and must still match their single runs
    rng = np.random.default_rng(n)
    starts = [inits.random_arc(n, 2.0, rng), off_the_saddle(n, 1e-9),
              inits.random_arc(n, 5.0, rng), inits.near_sync(n, 0.3),
              off_the_saddle(n, 1e-8), inits.random_arc(n, 6.0, rng),
              inits.near_sync(n, 1e-3), inits.random_arc(n, 1.0, rng)]
    freqs, params = NaturalFrequencies.zero(n), SimParams(1.0, 0.05, max_steps=5000)
    trajs = simulate_batch(starts, freqs, params)
    long_rows = [1, 4]
    assert min(trajs[i].n_steps for i in long_rows) > 2 * integrate.BLOCK_STEPS + max(
        t.n_steps for i, t in enumerate(trajs) if i not in long_rows)
    for traj, init in zip(trajs, starts):
        assert traj.stop_reason == "grad_norm"
        assert_same_run(traj, init, freqs, params)
        assert traj.phases.flags.c_contiguous


def test_simulate_batch_checks_its_rows():
    freqs, params = NaturalFrequencies.zero(2), SimParams(1.0, 0.1)
    assert simulate_batch([], freqs, params) == []
    pair, triple = PhaseConfig([0.1, -0.1]), PhaseConfig([0.1, 0.0, -0.1])
    for starts in ([triple], [pair, triple]):
        with pytest.raises(ValueError, match="length mismatch"):
            simulate_batch(starts, freqs, params)


# ---------------------------------------------------------------------------
# RK4 reference
# ---------------------------------------------------------------------------

def test_rk4_constant_at_equilibrium():
    init = PhaseConfig([0.5, 0.5, 0.5])
    path = rk4_reference(init, NaturalFrequencies.zero(3), 1.0, h=0.1, n_steps=20)
    np.testing.assert_allclose(path.knots[17], init.phases, atol=1e-14)


def test_rk4_two_oscillator_closed_form():
    # the gap d = theta_2 - theta_1 solves tan(d/2) = tan(d0/2) exp(-K t)
    d0, k = 1.0, 1.0
    init = PhaseConfig([-d0 / 2, d0 / 2])
    path = rk4_reference(init, NaturalFrequencies.zero(2), k, h=0.01, n_steps=100)
    got = path.knots[-1]
    d = got[1] - got[0]
    expected = 2 * math.atan(math.tan(d0 / 2) * math.exp(-k * 1.0))
    assert d == pytest.approx(expected, abs=1e-8)


def test_rk4_order_of_convergence():
    # at h = 0.02 and 0.01 (hK <= 0.1) each Euler step is one RK4 step
    d0, k, t = 1.0, 1.0, 1.0
    init = PhaseConfig([-d0 / 2, d0 / 2])
    ref = init.phases
    for _ in range(10_000):
        ref = rk4_step(ref, np.zeros(2), k, t / 10_000)
    errs = []
    for n_steps in (50, 100):
        path = rk4_reference(init, NaturalFrequencies.zero(2), k, h=t / n_steps,
                             n_steps=n_steps)
        assert path.substeps == 1
        errs.append(np.abs(path.knots[-1] - ref).max())
    ratio = errs[0] / errs[1]
    assert 10 < ratio < 25  # 4th order: ~16x per halving


def test_rk4_reference_rows_are_whole_steps_of_its_substeps():
    init = PhaseConfig([-0.8, 0.15, 0.65])
    for omega, h, k, substeps in (
            ([0.3, -0.1, -0.2], 0.05, 1.3, 1),  # dt (K + d_omega) = 0.09
            ([0.0, 0.0, 0.0], 0.5, 1.0, 5),
            ([0.0, 0.0, 0.0], 0.95, 2.0, 19)):
        omega = np.array(omega)
        path = rk4_reference(init, NaturalFrequencies(omega), k, h=h, n_steps=4)
        assert path.knots.shape == (5, 3) and path.step_size == h
        assert path.substeps == substeps
        y = init.phases
        for i in range(5):
            assert np.array_equal(path.knots[i], y)
            for _ in range(substeps):
                y = rk4_step(y, omega, k, h / substeps)


@pytest.mark.parametrize("h,k,d_omega,substeps", [
    (0.01, 1.0, 0.0, 1), (0.1, 1.0, 0.0, 1), (0.1, 1.0, 1.0, 2), (0.5, 1.0, 0.0, 5),
    (1.9, 1.0, 0.0, 19), (0.3, 1.0, 0.0, 3), (0.7, 1.0, 0.0, 7), (1e-300, 1e300, 0.0, 10),
    (0.01, 0.0, 0.0, 1),
    (0.8, 2.75, 0.0, 23),  # h K / 0.1 rounds to 22, but 0.8 / 22 * 2.75 > 0.1
])
def test_rk4_substeps_keep_every_step_within_the_rule(h, k, d_omega, substeps):
    freqs = NaturalFrequencies(np.array([-d_omega / 2, d_omega / 2]))
    s = integrate.rk4_substeps(h, k, freqs)
    assert s == substeps
    rate = k + d_omega
    assert h / s * rate <= integrate.RK4_STEP
    assert s == 1 or h / (s - 1) * rate > integrate.RK4_STEP


@pytest.mark.parametrize("h,k", [(math.inf, 1.0), (0.1, math.inf), (1e300, 1e300)])
def test_rk4_reference_rejects_a_non_finite_substep_count(h, k):
    with pytest.raises(ValueError, match="finite"):
        rk4_reference(PhaseConfig([-0.5, 0.5]), NaturalFrequencies.zero(2), k, h=h, n_steps=1)


def test_rk4_reference_refuses_a_non_finite_state_without_a_warning():
    # K = 1e308 at h = 5e-310 is one substep per step, and the RK4 stage sum
    # overflows in the first step: refused with that step, and the overflow
    # (a RuntimeWarning, an error under the test settings) stays silent
    freqs = NaturalFrequencies.zero(4)
    assert integrate.rk4_substeps(5e-310, 1e308, freqs) == 1
    with pytest.raises(ValueError, match=r"non-finite reference state at step 1$"):
        rk4_reference(PhaseConfig([-1.0, -0.2, 0.3, 0.9]), freqs, 1e308, h=5e-310,
                      n_steps=5)


# ---------------------------------------------------------------------------
# global error bound
# ---------------------------------------------------------------------------

def _bound_setup(h, t_end=2.0, k=1.0):
    init = PhaseConfig([-0.8, 0.15, 0.65])
    f = NaturalFrequencies.zero(3)
    steps = int(round(t_end / h))
    traj = simulate(init, f, SimParams(k, h, max_steps=steps, conv_tol=0.0))
    oracle = rk4_reference(init, f, k, h, steps)
    return traj, oracle


def test_error_bound_zero_at_start_and_constant_run():
    traj, oracle = _bound_setup(0.01)
    rep = euler_error_bound(traj, oracle, lipschitz=2.0)
    assert rep.observed_error[0] == 0.0
    assert rep.bound_curve[0] == 0.0

    const = simulate(PhaseConfig([0.3, 0.3, 0.3]), NaturalFrequencies.zero(3),
                     SimParams(1.0, 0.01, max_steps=50, conv_tol=0.0))
    oracle_c = rk4_reference(PhaseConfig([0.3, 0.3, 0.3]),
                             NaturalFrequencies.zero(3), 1.0, h=0.01, n_steps=50)
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
    # a reference for another step count or another step size
    for h, n_steps in ((0.01, 20), (0.02, 100)):
        other = rk4_reference(PhaseConfig([-0.8, 0.15, 0.65]),
                              NaturalFrequencies.zero(3), 1.0, h, n_steps)
        with pytest.raises(ValueError, match="mismatch"):
            euler_error_bound(traj, other, lipschitz=2.0)


def _fine_reference(init, freqs, k, h, n_steps, substeps):
    """rk4_reference's rows, each reached in ``substeps`` RK4 steps."""
    knots = np.empty((n_steps + 1, init.n))
    knots[0] = y = init.phases
    for i in range(1, n_steps + 1):
        for _ in range(substeps):
            y = rk4_step(y, freqs.omega, k, h / substeps)
        knots[i] = y
    return integrate.Rk4Path(knots, h, substeps)


def test_error_bound_reference_within_stated_tolerance_of_a_finer_one():
    # The stated tolerance of the substep rule: error_bound's figures on the
    # reference agree with those on one of 40 times as many substeps to 1e-4
    # relative (measured worst 1.3e-5, at hK = 0.1 with one substep).
    steps = {0.01: 20, 0.1: 10, 0.5: 4, 1.9: 2}  # the fine reference's cost grows with hK
    k = 1.0
    for n in (4, 16):
        for hk, n_steps in steps.items():
            for d_omega in (0.0, 1.0):
                init = inits.random_arc(n, 3.0, np.random.default_rng(n))
                freqs = NaturalFrequencies(np.linspace(-d_omega / 2, d_omega / 2, n))
                h = hk / k
                traj = simulate(init, freqs, SimParams(k, h, max_steps=n_steps, conv_tol=0.0))
                ref = rk4_reference(init, freqs, k, h, n_steps)
                fine = _fine_reference(init, freqs, k, h, n_steps, 40 * ref.substeps)
                got, want = (euler_error_bound(traj, r, 2.0 * k) for r in (ref, fine))
                case = (n, hk, d_omega, ref.substeps)
                assert got.truncation_max == pytest.approx(want.truncation_max, rel=1e-4), case
                assert got.observed_error.max() == pytest.approx(
                    want.observed_error.max(), rel=1e-4), case
                assert got.within_bound == want.within_bound, case
