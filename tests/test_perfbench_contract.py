"""The benchmark harness traces kdgf by replacing module attributes by name
(``perfbench/tracing.py``); every name it wraps must still exist, and the
kernels it probes directly (``perfbench/probes.py``) must take its calls."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kdgf import NaturalFrequencies, PhaseConfig, cli, core, inits, kuramoto_potential

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)  # standard library only


@pytest.mark.parametrize("mod,attr", [*tracing.SPANS, *tracing.KERNEL_SITES],
                         ids=lambda x: x)
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"kdgf.{mod}"), attr))


def test_reference_count_reads_the_knots():
    ref = cli.rk4_reference(PhaseConfig([0.1, -0.1]), NaturalFrequencies.zero(2),
                            1.0, 0.1, 3)
    assert tracing._result_attrs("integrate.rk4_reference", (), ref) == {"knots": 3}


def test_sweep_reaches_the_traced_names(tmp_path, monkeypatch):
    # perfbench times sweep points as cli.execute_run spans, their stepping
    # as cli.simulate spans and input building as cli.build_initial /
    # cli.build_frequencies spans, so a sweep must call each of them through
    # the module attribute.  Sweep points run in worker processes, so each
    # call is logged to a file, one line per call.
    names = ("execute_run", "simulate", "build_initial", "build_frequencies")
    log = tmp_path / "calls.log"
    running = []  # names of the wrapped calls in progress in this process

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{name} {'execute_run' in running}\n")
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()
        monkeypatch.setattr(cli, name, wrapper)

    for name in names:
        counted(name)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nmodel = nonidentical\nn = 4\ninit = random-arc(2.0)\n"
                   "omega = uniform(0.2)\ncoupling = 1.0\nstep = 0.05\nmax_steps = 50\n")
    assert cli.main(["sweep", str(cfg), "--axis", "K", "--values", "1.0,2.0",
                     "--out", str(tmp_path / "sweep"), "--quiet"]) == 0
    calls = {name: [] for name in names}
    for line in log.read_text().splitlines():
        name, inside = line.split()
        calls[name].append(inside == "True")
    assert len(calls["execute_run"]) == 2
    # each point steps as kdgf run does, inside its execute_run
    assert calls["simulate"] == [True, True]
    for name in ("build_initial", "build_frequencies"):
        # each point's run builds its own inputs (the check pass may too)
        assert calls[name].count(True) == 2


def test_run_reaches_the_traced_simulate(tmp_path, monkeypatch):
    # perfbench's integrate.simulate span wraps cli.simulate, so kdgf run
    # must step its trajectory through that module attribute
    calls = []
    simulate = cli.simulate

    def counted(*args):
        calls.append(args)
        return simulate(*args)
    monkeypatch.setattr(cli, "simulate", counted)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nmodel = identical\nn = 4\ninit = random-arc(3.0)\n"
                   "coupling = 1.0\nstep = 0.01\nmax_steps = 50\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "run"), "--quiet"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 64, 256, 2048])
def test_probed_kernels_take_the_probes_calls(n):
    # the probes pass the read-only arrays of kdgf's own builders, one
    # configuration at a time, with a float coupling
    theta = inits.random_arc(n, 3.0, np.random.default_rng(n)).phases
    freqs = inits.uniform_frequencies(n, 0.2, np.random.default_rng(n + 1))
    sums = core.coupling_sums(theta)
    assert sums.shape == (n,)
    assert np.allclose(sums, np.sin(theta[None, :] - theta[:, None]).sum(axis=1),
                       rtol=0, atol=1e-12 * n)
    potential = core.potential_arrays(theta, freqs.omega, 1.0)
    assert type(potential) is float
    assert potential == kuramoto_potential(PhaseConfig(theta), freqs, 1.0)
