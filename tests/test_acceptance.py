"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Shared runs (the descent batch, the opposed-oscillator run, the
cluster setup) are module-scoped fixtures so paired criteria reuse them.
"""
import math

import numpy as np
import pytest

from kdgf import (
    DescentProblem,
    NaturalFrequencies,
    PhaseConfig,
    SimParams,
    certify_bipolar_bounds,
    certify_cluster_invariance,
    certify_descent,
    certify_diameter_decay,
    certify_two_sided_decay,
    certify_uniform_bound,
    check_bipolar_containment,
    classify_initial,
    cluster_spec,
    euler_error_bound,
    euler_step,
    kuramoto_gradient,
    kuramoto_problem,
    lojasiewicz_probe,
    match_equilibrium,
    rk4_reference,
    run_descent,
    simulate,
)
from kdgf.analysis import effective_series
from kdgf.cli import main
from kdgf.inits import near_bipolar, near_sync, random_arc


def _report(tag, detail=""):
    print(f"[{tag}] PASS {detail}".rstrip())


def _double_well():
    return DescentProblem(
        dim=1,
        potential=lambda x: float(0.25 * x[0] ** 4 - 0.5 * x[0] ** 2),
        gradient=lambda x: np.array([x[0] ** 3 - x[0]]),
        hessian_bound=11.0,
        domain_check=lambda x: bool(abs(x[0]) <= 2.0),
    )


# ---------------------------------------------------------------------------
# A01: stepper/gradient identity and finite-difference consistency
# ---------------------------------------------------------------------------

def test_a01_gradient_flow_identity():
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        theta = rng.uniform(-math.pi, math.pi, n)
        omega = rng.uniform(-1, 1, n)
        omega -= omega.mean()
        k = float(rng.choice([0.5, 1.0, 5.0]))
        h = float(rng.uniform(0.001, 0.1))
        c = PhaseConfig(theta)
        f = NaturalFrequencies(omega)
        g = kuramoto_gradient(c, f, k)
        step = euler_step(c, f, SimParams(k, h))
        assert np.array_equal(step.phases, c.phases - h * g)
        if trial % 10 == 0:  # finite differences on a subsample keeps this < 1 s
            fd = np.empty(n)
            pot = lambda t: float(
                -(omega @ t) + k / (2 * n) * (1 - np.cos(t[None, :] - t[:, None])).sum())
            for i in range(n):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += 1e-6
                tm[i] -= 1e-6
                fd[i] = (pot(tp) - pot(tm)) / 2e-6
            assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))
    _report("A01", "stepper equals -h*gradient bitwise on 200 random configs")


# ---------------------------------------------------------------------------
# A02/A03: descent certification and convergence of the random batch
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def descent_batch():
    rng = np.random.default_rng(202)
    runs = []
    for i in range(50):
        if i % 2 == 0:
            n = int(rng.integers(3, 7))
            k = float(rng.choice([0.5, 1.0, 5.0]))
            problem = kuramoto_problem(NaturalFrequencies.zero(n), k)
            h = float(rng.uniform(0.2, 0.8)) / k  # below the 2/C = 1/K guard
            x0 = random_arc(n, 1.2 * math.pi, rng).phases
        else:
            problem = _double_well()
            h = float(rng.uniform(0.02, 0.17))  # below 2/C = 2/11
            x0 = np.array([rng.choice([-1, 1]) * rng.uniform(0.05, 2.0)])
        tol = min(1e-10, 1e-12 / h)
        res = run_descent(problem, x0, h, max_steps=10_000, tol=tol)
        runs.append((problem, h, res))
    return runs


def test_a02_descent_certification(descent_batch):
    for problem, h, res in descent_batch:
        assert h < 2.0 / problem.hessian_bound
        cert = certify_descent(problem, res, h)
        assert cert.passed, f"descent violated at step {cert.first_violation}"
    # guard sharpness witness: h = 4/C on the quadratic must fail
    quad = DescentProblem(dim=2, potential=lambda x: float(0.5 * (x @ x)),
                          gradient=lambda x: np.asarray(x, float),
                          hessian_bound=1.0)
    res = run_descent(quad, [1.0, 1.0], h=4.0, max_steps=20, tol=1e-12)
    assert not certify_descent(quad, res, 4.0).passed
    _report("A02", "50 random runs certified; h=4/C witness fails as required")


def test_a03_convergence_to_fixed_points(descent_batch):
    for problem, h, res in descent_batch:
        assert res.converged and res.f_values.size - 1 <= 1_000_000
        assert res.grad_norms[-1] < 1e-10
        g = np.asarray(problem.gradient(res.final_point), dtype=float)
        displacement = float(np.abs(h * g).max())
        assert displacement < 1e-12
    _report("A03", "all 50 runs reach grad_norm < 1e-10; fixed points to 1e-12")


# ---------------------------------------------------------------------------
# A04: global error bound and first-order scaling
# ---------------------------------------------------------------------------

def test_a04_euler_global_error():
    init = PhaseConfig([-0.8, 0.15, 0.65])
    freqs = NaturalFrequencies.zero(3)
    k, t_end = 1.0, 2.0
    max_errors = []
    for h in (0.02, 0.01, 0.005):
        steps = int(round(t_end / h))
        traj = simulate(init, freqs, SimParams(k, h, max_steps=steps, conv_tol=0.0))
        oracle = rk4_reference(init, freqs, k, t_end, dt=h / 10)
        rep = euler_error_bound(traj, oracle, lipschitz=2.0 * k)
        assert rep.within_bound, f"bound violated for h={h}"
        max_errors.append(float(rep.observed_error.max()))
    for a, b in zip(max_errors, max_errors[1:]):
        assert 1.6 <= a / b <= 2.4, f"error ratio {a / b} outside 2 +/- 20%"
    _report("A04", f"errors within bound; halving ratios "
            f"{[round(a / b, 3) for a, b in zip(max_errors, max_errors[1:])]}")


# ---------------------------------------------------------------------------
# A05: exponential diameter decay for sync-class data
# ---------------------------------------------------------------------------

def test_a05_diameter_decay_envelope():
    eps, k, h = 0.3, 1.0, 0.005
    rate = k * math.sin(eps) / (2 * eps)
    for n in (3, 5):
        init = near_sync(n, 0.125)  # diameter 0.25 < eps
        cls = classify_initial(init, k)
        assert cls.kind == "sync" and np.all(cls.equilibrium.windings == 0)
        assert abs(cls.equilibrium.phi_star) < 1e-9
        traj = simulate(init, NaturalFrequencies.zero(n),
                        SimParams(k, h, max_steps=100_000))
        assert traj.stop_reason == "grad_norm"
        cert = certify_diameter_decay(traj, range(n), eps=eps, rate=rate)
        assert cert.passed, f"diameter envelope violated at {cert.first_violation}"
        # every effective phase obeys the same envelope (limit state is 0)
        ef = np.abs(effective_series(traj, cls.equilibrium)).max(axis=1)
        bound = traj.diameters[0] * np.exp(-rate * np.arange(ef.size) * h)
        assert ef[0] <= bound[0] and np.all(ef[1:] < bound[1:])
    _report("A05", "diameter and per-oscillator envelopes hold for N=3 and N=5")


# ---------------------------------------------------------------------------
# A06/A07: two-sided envelope and opposed-oscillator persistence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bipolar_run():
    # Coupling choice: the opposed state is a saddle, so double-precision
    # rounding noise grows like exp(K n h) and ejects the trajectory around
    # n ~ 25/(K h).  The criterion asks for 1e5 contained steps; K = 0.02
    # puts the ejection beyond 2.5e5 steps with a 2x margin (measured).
    k, h, delta = 0.02, 0.005, 0.05
    init = near_bipolar(3, delta)
    cls = classify_initial(init, k)
    traj = simulate(init, NaturalFrequencies.zero(3),
                    SimParams(k, h, max_steps=100_000, conv_tol=0.0))
    return k, traj, cls


def test_a06_two_sided_decay_sandwich(bipolar_run):
    k, traj, cls = bipolar_run
    assert cls.kind == "bipolar" and cls.bipolar_index == 2
    n, eps = 3, 0.3
    alpha = k * ((n - 1) * math.sin(eps) / eps - 1.0) / (2.0 * n)
    cert = certify_two_sided_decay(traj, [0, 1], k, alpha, floor=1e-13)
    assert cert.passed, f"{cert.failed_side} bound violated at {cert.first_violation}"
    assert cert.checked_steps == traj.n_steps
    _report("A06", f"two-sided envelope holds on all {cert.checked_steps} steps")


def test_a07_bipolar_persistence(bipolar_run):
    k, traj, cls = bipolar_run
    assert traj.n_steps == 100_000
    containment = check_bipolar_containment(traj, cls.equilibrium)
    assert containment.all_contained, f"exited at {containment.first_exit}"
    n, eps = 3, 0.3
    alpha = k * ((n - 1) * math.sin(eps) / eps - 1.0) / (2.0 * n)
    cert = certify_bipolar_bounds(traj, cls.equilibrium, alpha, eps)
    assert cert.passed, f"{cert.which} residual bound violated at {cert.first_violation}"
    _report("A07", "containment and both residual bounds hold for 1e5 steps")


# ---------------------------------------------------------------------------
# A08: taxonomy of limits for random initial data
# ---------------------------------------------------------------------------

def test_a08_equilibrium_taxonomy():
    rng = np.random.default_rng(808)
    n, k, h = 4, 1.0, 0.005
    params = SimParams(k, h, max_steps=1_000_000)
    freqs = NaturalFrequencies.zero(n)
    sync_count = 0
    inits = [random_arc(n, 1.5 * math.pi, rng) for _ in range(100)]
    inits.append(near_bipolar(n, 0.05))  # one certified opposed-class start
    for init in inits:
        cls = classify_initial(init, k)
        traj = simulate(init, freqs, params)
        assert traj.stop_reason == "grad_norm", "run did not converge"
        eq = match_equilibrium(traj.final_config())
        assert eq is not None, "converged run did not match a locked state"
        if cls.kind == "sync":
            sync_count += 1
            assert eq.kind == "sync"
            rec = eq.reconstruct()
            g = kuramoto_gradient(PhaseConfig(rec), freqs, k)
            assert np.abs(g).max() < 1e-12
            # zero mean: exact at the integer level, machine-exact in floats
            a = eq._half_turn_counts()
            assert int((a * n - a.sum()).sum()) == 0
            if np.all(eq.windings == eq.windings[0]):
                assert rec.sum() == 0.0
            else:
                assert abs(rec.sum()) <= 1e-14 * max(1.0, np.abs(rec).max())
        else:
            assert cls.kind == "bipolar"
            assert eq.kind in ("sync", "bipolar")  # escape to sync is legal
    assert sync_count >= 100
    _report("A08", f"{sync_count} sync-class inits -> sync states; "
            "opposed-class start resolved legally")


# ---------------------------------------------------------------------------
# A09/A10: cluster invariance, uniform bound, locked-state continuity in h
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster_setup():
    l = math.pi / 3
    omega = NaturalFrequencies([-0.1, -0.02, 0.02, 0.1])  # spread exactly 0.2
    probe = cluster_spec(4, 3, l, omega.d_omega, coupling=1.0)
    k = 2.0 * probe.k_min
    spec = cluster_spec(4, 3, l, omega.d_omega, coupling=k)
    h = min(spec.step_max, 0.002) / 2.0
    cluster = -math.pi / 2 + np.array([-0.45 * l, 0.0, 0.45 * l])
    init = PhaseConfig(np.append(cluster, -math.pi / 2 + 2 * math.pi))
    return l, omega, spec, k, h, init


def test_a09_cluster_invariance_and_uniform_bound(cluster_setup):
    l, omega, spec, k, h, init = cluster_setup
    traj = simulate(init, omega, SimParams(k, h, max_steps=1_000_000, conv_tol=0.0))
    assert traj.n_steps == 1_000_000
    cert = certify_cluster_invariance(traj, spec)
    assert cert.passed, f"cluster left l at step {cert.first_violation}"
    cap = certify_uniform_bound(traj, l)
    assert cap.passed, f"diameter exceeded 4pi+2l at step {cap.first_violation}"
    _report("A09", f"cluster diameter < {l:.4f} and full diameter <= 4pi+2l "
            "over 1e6 steps")


def test_a10_locked_state_continuity_in_h(cluster_setup):
    l, omega, spec, k, h, init = cluster_setup
    finals = []
    for step in (h, h / 2):
        traj = simulate(init, omega,
                        SimParams(k, step, max_steps=5_000_000, conv_tol=1e-10))
        assert traj.stop_reason == "grad_norm"
        final = traj.final_config()
        displacement = np.abs(
            euler_step(final, omega, SimParams(k, step)).phases - final.phases)
        assert displacement.max() < 1e-12  # locked: a fixed point of the scheme
        finals.append(final.phases)
    assert np.abs(finals[0] - finals[1]).max() < 10 * h
    _report("A10", "both step sizes converge to the same locked state (within 10h)")


# ---------------------------------------------------------------------------
# A11: gradient-domination exponent probe
# ---------------------------------------------------------------------------

def test_a11_exponent_probe():
    quad = DescentProblem(dim=1, potential=lambda x: float(0.5 * x[0] ** 2),
                          gradient=lambda x: np.asarray(x, float),
                          hessian_bound=1.0)
    quart = DescentProblem(dim=1, potential=lambda x: float(0.25 * x[0] ** 4),
                           gradient=lambda x: np.array([x[0] ** 3]),
                           hessian_bound=3.0,
                           domain_check=lambda x: bool(abs(x[0]) <= 1.0))
    p1 = lojasiewicz_probe(quad, [0.0], radius=0.5, samples=400)
    p2 = lojasiewicz_probe(quart, [0.0], radius=0.5, samples=400)
    assert abs(p1.exponent - 0.50) <= 0.01
    assert abs(p2.exponent - 0.75) <= 0.01
    _report("A11", f"exponents {p1.exponent:.2f} (quadratic), "
            f"{p2.exponent:.2f} (quartic)")


# ---------------------------------------------------------------------------
# A12: byte-level determinism of the harness
# ---------------------------------------------------------------------------

def test_a12_run_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[run]
model = identical
n = 4
seed = 424242
init = random-arc(width=2.5)
omega = zero
coupling = 1.0
step = 0.01
max_steps = 5000
conv_tol = 1e-10

[certifiers]
order_preservation =
""")
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]
    _report("A12", "repeated runs produce byte-identical trajectory.csv")
