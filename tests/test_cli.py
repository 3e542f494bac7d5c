"""End-to-end tests of the command-line harness."""
import dataclasses
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kdgf import DivergenceError, NaturalFrequencies, SimParams, Trajectory, cli
from kdgf.cli import main, write_trajectory_csv, write_trajectory_json


def write_config(path, text):
    path.write_text(text)
    return str(path)


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity: ``json.dumps`` writes
    them for non-finite floats, but they are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def read_json(path):
    """A JSON file kdgf wrote, parsed strictly."""
    return strict_json(path.read_text())


IDENTICAL_CFG = """
[run]
model = identical
n = 3
seed = 12345
init = near-sync(0.1)
omega = zero
coupling = 1.0
step = 0.01
max_steps = 20000
conv_tol = 1e-10

[certifiers]
order_preservation =
diameter_decay = eps=0.3
"""

DGF_CFG = """
[run]
model = generic_dgf
problem = double_well
x0 = explicit(0.1)
step = 0.01
max_steps = 100000
conv_tol = 1e-10
n = 1
"""


def test_run_identical_with_certifiers(tmp_path):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    assert verdicts == {"order_preservation": True, "diameter_decay": True}
    assert report["trajectory"]["stop_reason"] == "grad_norm"
    assert report["equilibrium"]["kind"] == "sync"
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == ("n,t,theta_0,theta_1,theta_2,"
                     "diameter,potential,grad_norm,order_r,order_phi")
    assert len(csv) == report["trajectory"]["steps"] + 2


def test_run_generic_descent(tmp_path):
    cfg = write_config(tmp_path / "dgf.ini", DGF_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    v = report["verdicts"][0]
    assert v["name"] == "descent" and v["passed"] and v["converged"]
    final = report["trajectory"]["final_point"]
    assert abs(abs(final[0]) - 1.0) < 1e-6


def test_malformed_config_exits_2(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", """
[run]
model = identical
n = 3
init = near-sync(0.1)
step = 0.01
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_unknown_certifier_exits_2(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", IDENTICAL_CFG + "\nwrong_name = a=1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini"), "--quiet"]) == 2


def test_inline_comments_in_config(tmp_path):
    cfg = write_config(tmp_path / "run.ini", """
[run]
model = identical   ; identical | nonidentical | generic_dgf
n = 3
init = near-sync(0.1)
coupling = 1.0      # K > 0
step = 0.01
max_steps = 1000
""")
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_json_config_equivalent(tmp_path):
    data = {
        "run": {"model": "identical", "n": 3, "seed": 12345,
                "init": "near-sync(0.1)", "omega": "zero", "coupling": 1.0,
                "step": 0.01, "max_steps": 20000, "conv_tol": 1e-10},
        "certifiers": {"diameter_decay": {"eps": 0.3}},
    }
    cfg = write_config(tmp_path / "run.json", json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    assert report["verdicts"][0]["passed"]


def test_run_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", cfg, "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_sweep_over_coupling(tmp_path):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", "K", "--values", "0.5,1.0",
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("index,K,steps,stop_reason,final_grad_norm")
    assert len(lines) == 3
    assert (out / "point_000" / "report.json").exists()
    assert (out / "point_001" / "trajectory.csv").exists()


def test_sweep_empty_values_exits_2(tmp_path):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    assert main(["sweep", cfg, "--axis", "K", "--values", "",
                 "--out", str(tmp_path / "s"), "--quiet"]) == 2


def test_report_deterministic_without_timestamp(tmp_path):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
        data = read_json(out / "report.json")
        data.pop("timestamp")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_sweep_step_size_with_error_bound(tmp_path):
    cfg = write_config(tmp_path / "eb.ini", """
[run]
model = identical
n = 3
init = explicit(-0.8, 0.15, 0.65)
omega = zero
coupling = 1.0
step = 0.1
max_steps = 10
conv_tol = 1e-14

[certifiers]
error_bound =
""")
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", "h", "--values", "0.1,0.05,0.025",
                 "--out", str(out), "--quiet"]) == 0
    truncs = []
    for i in range(3):
        report = read_json(out / f"point_{i:03d}" / "report.json")
        v = report["verdicts"][0]
        assert v["passed"]
        truncs.append(v["truncation_max"])
    # first-order scheme: halving the step roughly halves the defect
    for a, b in zip(truncs, truncs[1:]):
        assert 1.6 <= a / b <= 2.4


def test_sweep_deterministic_summary(tmp_path):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["sweep", cfg, "--axis", "h", "--values", "0.02,0.01",
                     "--out", str(out), "--quiet"]) == 0
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_classify_subcommand(tmp_path):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    out = tmp_path / "cls"
    assert main(["classify", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "classification.json")
    assert report["kind"] == "sync"
    assert report["equilibrium"]["windings"] == [0, 0, 0]
    # classify builds its inputs as run does: an identical run needs omega = zero
    bad = write_config(tmp_path / "bad.ini",
                       IDENTICAL_CFG.replace("omega = zero", "omega = uniform(0.3)"))
    assert main(["classify", bad, "--out", str(tmp_path / "bad"), "--quiet"]) == 2
    assert not (tmp_path / "bad").exists()


def test_classify_and_run_write_one_record_at_phi_star_pi(tmp_path):
    # one of A15's full-circle N=4 starts: its limit [pi, -pi, pi, -pi] has
    # the canonical record phi_star = pi, windings [0, -1, 0, -1], and the
    # classification and the converged run write that record alike
    cfg = write_config(tmp_path / "run.ini", """
[run]
model = identical
n = 4
init = explicit(1.1258166261092895, -2.1563132944351873, 2.6412069609318953, -1.6107102926059977)
coupling = 1.0
step = 0.05
""")
    assert main(["classify", cfg, "--out", str(tmp_path / "cls"), "--quiet"]) == 0
    assert main(["run", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
    cls = read_json(tmp_path / "cls" / "classification.json")
    run = read_json(tmp_path / "run" / "report.json")
    want = {"kind": "sync", "windings": [0, -1, 0, -1], "bipolar_index": None,
            "phi_star": math.pi}
    assert cls["equilibrium"] == want
    assert run["equilibrium"] == want


def test_thresholds_subcommand(capsys):
    assert main(["thresholds", "--n", "4", "--n0", "3", "--l",
                 str(math.pi / 3), "--domega", "0.2"]) == 0
    data = strict_json(capsys.readouterr().out)
    denom = 0.75 * math.sin(math.pi / 3) - 0.5 * math.sin(math.pi / 6)
    assert data["k_min"] == pytest.approx(0.2 / denom)
    assert data["step_max"] > 0


DIVERGENT_CFG = """
[run]
model = nonidentical
n = 2
init = explicit(-1.0, 1.0)
omega = explicit(-200.0, 200.0)
coupling = 1e-6
step = 1.0
max_steps = 100000
conv_tol = 1e-300
"""


def test_divergence_exit_code(tmp_path):
    cfg = write_config(tmp_path / "div.ini", DIVERGENT_CFG)
    assert main(["run", cfg, "--out", str(tmp_path / "d"), "--quiet"]) == 3


@pytest.mark.parametrize("coupling, step", [("1e308", "1e-310"), ("1.7e308", "1e-320")])
def test_run_whose_gradient_norm_overflows_exits_3(tmp_path, capsys, coupling, step):
    # |v|^2 overflows from step 0: a divergence, not a report.json holding
    # "Infinity" (not JSON) or a RuntimeWarning from the potential series
    cfg = write_config(tmp_path / "run.ini", (
        "[run]\nmodel = identical\nn = 4\ninit = random-arc(6.0)\nseed = 0\n"
        f"coupling = {coupling}\nstep = {step}\nmax_steps = 50\n"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 3
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err == "error: divergence: gradient norm is not finite at step 0\n"


def test_diverging_descent_exits_3(tmp_path, capsys):
    # x_n = (-4)^n: the potential overflows at step 256.  Tier-1 turns a
    # numpy RuntimeWarning into an error, so a warning would fail this test.
    cfg = write_config(tmp_path / "dgf.ini", "[run]\nmodel = generic_dgf\n"
                       "problem = quadratic\nx0 = explicit(1.0)\nstep = 5\n"
                       "max_steps = 1000\nn = 1\n")
    assert main(["run", cfg, "--out", str(tmp_path / "d"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err == "error: divergence: non-finite potential or gradient at step 256\n"


def test_sweep_divergent_point_is_a_summary_row(tmp_path, capsys):
    # h = 1.0 diverges near step 5000; h = 0.001 runs all 6000 steps
    text = DIVERGENT_CFG.replace("max_steps = 100000", "max_steps = 6000")
    cfg = write_config(tmp_path / "div.ini",
                       text + "\n[certifiers]\norder_preservation =\n")
    out = tmp_path / "sweep"
    # the divergent point comes first: the points after it still run
    assert main(["sweep", cfg, "--axis", "h", "--values", "1.0,0.001",
                 "--out", str(out), "--quiet"]) == 3
    step = re.search(r"at step (\d+)", capsys.readouterr().err).group(1)
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "index,h,steps,stop_reason,final_grad_norm,cert_order_preservation"
    assert lines[1] == f"0,1.0,{step},diverged,nan,fail"
    report = read_json(out / "point_001" / "report.json")
    assert report["trajectory"]["stop_reason"] == "max_steps"
    assert lines[2].startswith("1,0.001,6000,max_steps,") and lines[2].endswith(",pass")


@pytest.mark.parametrize("options", ["", "l=1.0", "n0=2", "epz=0.3"])
def test_missing_certifier_option_exits_2_before_the_run(tmp_path, options):
    # the divergent run would exit 3 if the options were checked after it
    name = {"": "uniform_bound", "epz=0.3": "diameter_decay"}.get(
        options, "cluster_invariance")
    cfg = write_config(tmp_path / "div.ini",
                       DIVERGENT_CFG + f"\n[certifiers]\n{name} = {options}\n")
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


GOOD_RUN = {"model": "identical", "n": 3, "coupling": 1.0, "step": 0.01,
            "max_steps": 200}
MODELS = ("identical", "nonidentical", "generic_dgf")


@pytest.mark.parametrize("data", [
    {"run": {**GOOD_RUN, "seed": [1]}},
    [1, 2],
    {"run": GOOD_RUN, "certifiers": ["uniform_bound"]},
    {"run": [1]},
    {"run": {**GOOD_RUN, "n": math.inf}},
    {"run": {**GOOD_RUN, "n": math.nan}},
    {"run": {**GOOD_RUN, "n": 3.5}},
    {"run": {**GOOD_RUN, "max_steps": {"a": 1}}},
    {"run": GOOD_RUN, "certifiers": {"uniform_bound": "l=1"}},
    {"run": GOOD_RUN, "certifiers": {"fit_decay": {"start": 0.5}}},
    {"run": GOOD_RUN, "certifiers": {"error_bound": {"max_steps": -math.inf}}},
    *({"run": {**GOOD_RUN, "model": model, "conv_tol": tol}}
      for model in MODELS for tol in (-1, math.nan)),
    {"run": {**GOOD_RUN, "init": "near-sync(-0.1)"}},
    {"run": {**GOOD_RUN, "model": "nonidentical", "omega": "explicit(0.1, -0.1)"}},
    {"run": {**GOOD_RUN, "omega": "uniform(0.3)"}},
    {"run": {**GOOD_RUN, "model": "generic_dgf", "x0": "near-sync(0.5)"}},
    {"run": {**GOOD_RUN, "model": "generic_dgf", "problem": "double_well",
             "x0": "explicit(0.1, 0.2)"}},
    {"run": {**GOOD_RUN, "model": "generic_dgf", "x0": "explicit(3.0)"}},
    {"run": {**GOOD_RUN, "model": "generic_dgf", "problem": "saddle"}},
    *({"run": {**GOOD_RUN, "model": model, "max_steps": -1}} for model in MODELS),
    {"run": {**GOOD_RUN, "init": "near-sync(dleta=0.5)"}},
    {"run": {**GOOD_RUN, "init": "random-arc(widht=1.0)"}},
    {"run": {**GOOD_RUN, "model": "nonidentical", "omega": "uniform(sprad=0.5)"}},
    {"run": {**GOOD_RUN, "init": "near-sync(0.5, 0.7)"}},
    {"run": {**GOOD_RUN, "omega": "zero(0.1)"}},
    {"run": {**GOOD_RUN, "coupling": True}},
    {"run": {**GOOD_RUN, "seed": False}},
], ids=["seed-list", "top-level-list", "certifiers-list", "run-list", "n-inf",
        "n-nan", "n-fraction", "max-steps-dict", "options-string",
        "start-fraction", "max-steps-minus-inf",
        *(f"conv-tol-{tol}-{model}" for model in MODELS for tol in ("minus-one", "nan")),
        "delta-negative", "omega-length", "identical-uniform", "x0-not-explicit",
        "x0-dimension", "x0-outside-domain", "unknown-problem",
        *(f"max-steps-minus-one-{model}" for model in MODELS),
        "misspelt-delta", "misspelt-width", "misspelt-spread", "extra-argument",
        "zero-argument", "coupling-true", "seed-false"])
def test_malformed_json_config_exits_2(tmp_path, data):
    cfg = write_config(tmp_path / "bad.json", json.dumps(data))
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert not (tmp_path / "o").exists()


# the [run] lines of IDENTICAL_CFG from model to max_steps
RUN_LINES = IDENTICAL_CFG[IDENTICAL_CFG.index("model"):IDENTICAL_CFG.index("\nconv_tol")]


@pytest.mark.parametrize("old,new", [
    ("diameter_decay = eps=0.3", "fit_decay = start=inf"),
    ("diameter_decay = eps=0.3", "cluster_invariance = n0=nan, l=1.0"),
    ("seed = 12345", "seed = 1.5"),
    ("seed = 12345", "seed = %(missing)s"),
    ("[certifiers]", "[run]\nn = 4\n[certifiers]"),
    ("[certifiers]", "no equals sign\n[certifiers]"),
    ("diameter_decay = eps=0.3", "diameter_decay = eps=0"),
    ("diameter_decay = eps=0.3", "bipolar_bounds = eps=inf"),
    ("init = near-sync(0.1)", "init = near-sync(-0.1)"),
    ("omega = zero", "omega = explicit(0.1, -0.1)"),
    ("omega = zero", "omega = uniform(0.3)"),
    ("model = identical", "model = generic_dgf\nx0 = near-sync(0.5)"),
    ("model = identical", "model = generic_dgf\nproblem = double_well\nx0 = explicit(0.1, 0.2)"),
    ("model = identical", "model = generic_dgf\nx0 = explicit(3.0)"),
    ("model = identical", "model = generic_dgf\nproblem = saddle"),
    *((RUN_LINES, RUN_LINES.replace("identical", model).replace("20000", "-1"))
      for model in MODELS),
    ("init = near-sync(0.1)", "init = near-sync(dleta=0.5)"),
    ("init = near-sync(0.1)", "init = random-arc(widht=1.0)"),
    (RUN_LINES, RUN_LINES.replace("identical", "nonidentical")
     .replace("zero", "uniform(sprad=0.5)")),
    ("init = near-sync(0.1)", "init = near-sync(0.5, 0.7)"),
    ("omega = zero", "omega = zero(0.1)"),
    # too narrow an arc for 3000 distinct phases
    (RUN_LINES, RUN_LINES.replace("n = 3", "n = 3000")
     .replace("near-sync(0.1)", "random-arc(1e-320)")),
], ids=["start-inf", "n0-nan", "seed-fraction", "bad-interpolation",
        "duplicate-section", "unparsable-line", "eps-zero", "eps-inf",
        "delta-negative", "omega-length", "identical-uniform", "x0-not-explicit",
        "x0-dimension", "x0-outside-domain", "unknown-problem",
        *(f"max-steps-minus-one-{model}" for model in MODELS),
        "misspelt-delta", "misspelt-width", "misspelt-spread", "extra-argument",
        "zero-argument", "arc-too-narrow"])
def test_malformed_ini_config_exits_2(tmp_path, old, new):
    assert old in IDENTICAL_CFG
    cfg = write_config(tmp_path / "bad.ini", IDENTICAL_CFG.replace(old, new))
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,text,key", [
    ("bad.ini", IDENTICAL_CFG.replace("max_steps = 20000", "max_step = 5"), "max_step"),
    ("bad.ini", IDENTICAL_CFG.replace("[certifiers]", "[certifier]"), "certifier"),
    ("bad.ini", "[DEFAULT]\nseed = 3\n" + IDENTICAL_CFG, "DEFAULT"),
    ("bad.json", json.dumps({"run": {**GOOD_RUN, "max_step": 5}}), "max_step"),
    ("bad.json", json.dumps({"run": GOOD_RUN, "certifers": {"uniform_bound": {"l": 1}}}),
     "certifers"),
    ("bad.json", json.dumps({"run": {**GOOD_RUN, "certifiers": {}}}), "certifiers"),
], ids=["ini-run-key", "ini-section", "ini-default-section", "json-run-key", "json-top-level-key",
        "json-certifiers-in-run"])
def test_undeclared_config_key_exits_2(tmp_path, capsys, name, text, key):
    # a key nothing reads would otherwise drop a setting or every certifier
    cfg = write_config(tmp_path / name, text)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert not (tmp_path / "o").exists()
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["run"], ["classify"], ["sweep", "--axis", "K", "--values", "1.0,2.0"],
], ids=["run", "classify", "sweep"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, args):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    assert main([args[0], cfg, *args[1:], "--out", str(afile), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err and "Traceback" not in err
    assert afile.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.ini"]


@pytest.mark.parametrize("certifier", [
    "uniform_bound = l=nan",
    "two_sided_decay = floor=nan, alpha=0.01, tol=0.2",
    "diameter_decay = eps=4.0, rate=nan",
    "bipolar_bounds = alpha=-inf",
    "error_bound = lipschitz=inf",
], ids=["bound-nan", "floor-nan", "rate-nan", "alpha-minus-inf", "lipschitz-inf"])
def test_non_finite_certifier_option_exits_2(tmp_path, certifier):
    # a NaN bound or floor passes its check vacuously, and a NaN rate would
    # be written into report.json as a bare NaN
    cfg = write_config(tmp_path / "run.ini",
                       NEAR_BIPOLAR_CFG.replace("uniform_bound = l=1.0", certifier))
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["run"], ["classify"], ["sweep", "--axis", "N", "--values", "4,1e15"],
], ids=["run", "classify", "sweep-N"])
def test_huge_n_exits_2(tmp_path, capsys, args):
    # numpy refuses an array of 8 PB at once, without trying to allocate it
    n = 3 if args[0] == "sweep" else 10**15
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG.replace("n = 3", f"n = {n}"))
    out = tmp_path / "o"
    assert main([args[0], cfg, *args[1:], "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "n = 1000000000000000 is too large" in capsys.readouterr().err


def test_integer_values_accept_whole_numbers(tmp_path):
    data = {"run": {**GOOD_RUN, "n": 3.0, "seed": "7", "max_steps": "2e2"},
            "certifiers": {"fit_decay": {"start": "1", "stop": 50.0}}}
    cfg = write_config(tmp_path / "run.json", json.dumps(data))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    assert report["config"]["n"] == 3 and report["config"]["seed"] == 7
    assert report["config"]["max_steps"] == 200
    assert report["config"]["certifiers"] == {"fit_decay": {"start": 1, "stop": 50}}
    assert report["verdicts"][0]["passed"]


def test_trajectory_writers_render_each_value_by_repr(tmp_path):
    phases = np.array([[-0.0, 0.1 + 0.2, 1e-300],
                       [-1.5, 2.0 / 3.0, 123456789.125],
                       [math.pi, -math.e, 5e-324]])
    traj = Trajectory(
        phases=phases, params=SimParams(coupling=1.0, step_size=0.1, max_steps=2),
        freqs=NaturalFrequencies.zero(3), diameters=np.array([0.3, 1e-17, 7.0]),
        potentials=np.array([-0.5, math.nan, 2.5e10]),
        grad_norms=np.array([math.inf, 0.0, 1.0 / 3.0]),
        order_r=np.array([1.0, 0.999999999999, 0.5]),
        order_phi=np.array([-math.pi, 0.0, 0.25]))
    write_trajectory_csv(traj, tmp_path / "t.csv")
    write_trajectory_json(traj, tmp_path / "t.json")

    series = [traj.diameters, traj.potentials, traj.grad_norms, traj.order_r,
              traj.order_phi]
    rows = ["n,t,theta_0,theta_1,theta_2,diameter,potential,grad_norm,order_r,order_phi"]
    for i in range(3):
        values = [i * 0.1, *phases[i], *(s[i] for s in series)]
        rows.append(",".join([str(i)] + [repr(float(v)) for v in values]))
    assert (tmp_path / "t.csv").read_text() == "\n".join(rows) + "\n"

    def floats(a):
        return [float(v) for v in a]

    expected = {"t": [float(i * 0.1) for i in range(3)],
                "theta": [floats(row) for row in phases],
                **dict(zip(["diameter", "potential", "grad_norm", "order_r",
                            "order_phi"], map(floats, series)))}
    assert (tmp_path / "t.json").read_text() == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("key", ["step", "coupling", "conv_tol"])
def test_non_finite_parameter_exits_2(tmp_path, key):
    text = re.sub(rf"^{key} = .*$", f"{key} = inf", IDENTICAL_CFG, flags=re.M)
    cfg = write_config(tmp_path / "inf.ini", text)
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_json_certifier_options_are_numbers(tmp_path):
    def run(value, name):
        data = {"run": {"model": "identical", "n": 3, "coupling": 1.0,
                        "step": 0.01, "max_steps": 200},
                "certifiers": {"uniform_bound": {"l": value}}}
        cfg = write_config(tmp_path / f"{name}.json", json.dumps(data))
        return main(["run", cfg, "--out", str(tmp_path / name), "--quiet"])

    # a numeric string is read as in an INI file; anything else is bad input
    assert run("1.0", "string") == 0
    report = read_json(tmp_path / "string" / "report.json")
    assert report["config"]["certifiers"] == {"uniform_bound": {"l": 1.0}}
    assert report["verdicts"][0]["passed"]
    assert run("wide", "word") == 2
    assert run([1.0], "list") == 2


def test_unmet_diameter_decay_hypothesis_is_a_verdict(tmp_path):
    text = IDENTICAL_CFG.replace("near-sync(0.1)", "near-sync(0.5)")
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert verdicts["diameter_decay"]["passed"] is False
    assert "exceeds eps" in verdicts["diameter_decay"]["reason"]
    assert verdicts["order_preservation"]["passed"]
    assert (out / "trajectory.csv").exists()


NEAR_BIPOLAR_CFG = """
[run]
model = identical
n = 4
init = near-bipolar(0.05)
omega = zero
coupling = 1.0
step = 0.01
max_steps = 3000

[certifiers]
uniform_bound = l=1.0
"""


@pytest.mark.parametrize("init,certifier,reason", [
    ("near-bipolar(0.05)", "two_sided_decay = alpha=5.0", "alpha >= 2K"),
    ("near-bipolar(0.05)", "cluster_invariance = n0=1, l=1.0", "n0 must lie in (N/2, N]"),
    ("explicit(0, 0, 1, 2)", "order_preservation =", "subset phases are not strictly ordered"),
    ("near-bipolar(0.05)", "error_bound = lipschitz=0", "lipschitz must be positive"),
], ids=["alpha-above-2K", "n0-below-half", "unordered-init", "lipschitz-zero"])
def test_certifier_that_cannot_run_is_a_failed_verdict(tmp_path, init, certifier, reason):
    text = NEAR_BIPOLAR_CFG.replace("near-bipolar(0.05)", init)
    cfg = write_config(tmp_path / "run.ini", text + certifier + "\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    intact, failed = report["verdicts"]
    assert failed["passed"] is False and reason in failed["reason"]
    assert intact["name"] == "uniform_bound" and intact["passed"]
    assert intact["first_violation"] is None and intact["max_diameter"] > 0
    assert (out / "trajectory.csv").exists()


def test_certifier_that_overflows_is_a_failed_verdict():
    # finite potentials near the float limit: the tolerance
    # 1 + |f(0)| + |f(end)| of gradient_square_sum overflows, a failed
    # verdict with numpy's reason, not a RuntimeWarning
    traj = Trajectory(phases=np.zeros((3, 4)), params=SimParams(1.0, 0.1, max_steps=2),
                      freqs=NaturalFrequencies.zero(4), diameters=np.zeros(3),
                      potentials=np.array([1e308, 9.9e307, 9.8e307]),
                      grad_norms=np.array([1.0, 0.5, 0.25]), order_r=np.ones(3),
                      order_phi=np.zeros(3))
    verdict = cli._verdict("gradient_square_sum", traj, {})
    assert verdict == {"name": "gradient_square_sum", "passed": False,
                       "reason": "overflow encountered in scalar add"}


def test_error_bound_with_zero_lipschitz_builds_no_reference(tmp_path, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the verdict is known before the reference")

    monkeypatch.setattr(cli, "rk4_reference", no_reference)
    cfg = write_config(tmp_path / "run.ini",
                       NEAR_BIPOLAR_CFG + "error_bound = lipschitz=0\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    verdict = read_json(out / "report.json")["verdicts"][1]
    assert verdict == {"name": "error_bound", "passed": False,
                       "reason": "lipschitz must be positive"}


def test_sweep_point_whose_certifier_cannot_run_is_a_summary_row(tmp_path):
    # alpha = 1.5 is below 2K at K = 2 and 1, but not at K = 0.5
    text = NEAR_BIPOLAR_CFG + "two_sided_decay = alpha=1.5, tol=0.2\n"
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", "K", "--values", "2.0,1.0,0.5",
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[3].startswith("2,0.5,") and lines[3].endswith(",pass,fail")
    report = read_json(out / "point_002" / "report.json")
    assert "alpha >= 2K" in report["verdicts"][1]["reason"]


NONIDENTICAL_CFG = IDENTICAL_CFG.replace("model = identical", "model = nonidentical")


@pytest.mark.parametrize("text,axis,values", [
    (IDENTICAL_CFG, "K", "1.0,-1.0"),
    (IDENTICAL_CFG, "h", "0.04,0"),
    (IDENTICAL_CFG, "N", "8,1"),
    (IDENTICAL_CFG, "N", "8,2.5"),
    (IDENTICAL_CFG, "delta", "0.1,-0.1"),
    (NONIDENTICAL_CFG.replace("omega = zero", "omega = uniform(0.1)"), "domega", "0.1,-0.1"),
    (NONIDENTICAL_CFG.replace("omega = zero", "omega = explicit(0.1, 0, -0.1)"), "N", "3,4"),
    (DGF_CFG.replace("explicit(0.1)", "explicit(0.1, 0.2)"), "h", "0.01,0.02"),
], ids=["K-negative", "h-zero", "N-one", "N-fraction", "delta-negative",
        "domega-negative", "N-explicit-omega", "dgf-x0-dimension"])
def test_sweep_checks_every_point_before_running_any(tmp_path, text, axis, values):
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", axis, "--values", values,
                 "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--domega", "nan"), ("--domega", "inf"), ("--coupling", "inf"), ("--coupling", "nan"),
])
def test_thresholds_reject_non_finite_input(capsys, flag, value):
    args = {"--n": "4", "--n0": "3", "--l": "1.0", "--domega": "0.2", flag: value}
    assert main(["thresholds", *[x for kv in args.items() for x in kv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_error_bound_on_a_run_of_zero_steps(tmp_path):
    text = NEAR_BIPOLAR_CFG.replace("max_steps = 3000", "max_steps = 0")
    cfg = write_config(tmp_path / "run.ini", text + "error_bound =\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    assert report["trajectory"]["steps"] == 0
    verdict = report["verdicts"][1]
    assert verdict == {"name": "error_bound", "passed": True,
                       "truncation_max": 0.0, "max_observed_error": 0.0, "substeps": 1}


# hK = 1.9: each Euler step takes 19 RK4 substeps
FAST_STEP_CFG = (NEAR_BIPOLAR_CFG.replace("step = 0.01", "step = 1.9")
                 .replace("max_steps = 3000", "max_steps = {}\nconv_tol = 0"))


def test_error_bound_over_its_substep_budget_builds_no_reference(tmp_path, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the verdict is known before the reference")

    monkeypatch.setattr(cli, "rk4_reference", no_reference)
    # 60 steps of 19 substeps exceed the RK4 work of 10 substeps for 100 steps
    cfg = write_config(tmp_path / "run.ini",
                       FAST_STEP_CFG.format(60) + "error_bound = max_steps=100\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    verdict = read_json(out / "report.json")["verdicts"][1]
    assert verdict["name"] == "error_bound" and verdict["passed"] is False
    assert "60 steps of 19 RK4 substeps" in verdict["reason"]


def test_error_bound_at_its_substep_budget_runs(tmp_path):
    # 190 steps of 19 substeps: exactly the work of 10 substeps for 361 steps
    cfg = write_config(tmp_path / "run.ini",
                       FAST_STEP_CFG.format(190) + "error_bound = max_steps=361\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    verdict = read_json(out / "report.json")["verdicts"][1]
    assert verdict["name"] == "error_bound" and verdict["passed"] is True
    assert verdict["substeps"] == 19


def _without_timestamp(path):
    report = read_json(path)
    report.pop("timestamp")
    return report


@pytest.mark.parametrize("text,axis,values,rc,diverged", [
    # K = 1e9 jumps past the divergence guard at the first step
    (IDENTICAL_CFG.replace("near-sync(0.1)", "explicit(-0.5, 0.1, 0.4)")
     .replace("max_steps = 20000", "max_steps = 300"), "K", "1.0,1e9,2.0", 3, [1]),
    # two batches: N = 4 (points 0 and 2) and N = 6 (point 1)
    (NONIDENTICAL_CFG.replace("near-sync(0.1)", "random-arc(2.0)")
     .replace("omega = zero", "omega = uniform(0.2)")
     .replace("max_steps = 20000", "max_steps = 400"), "N", "4,6,4", 0, []),
    (DGF_CFG, "h", "0.05,0.02", 0, []),
], ids=["K-with-divergent-point", "N-two-groups", "dgf-h"])
def test_sweep_point_equals_a_single_run(tmp_path, text, axis, values, rc, diverged):
    cfg_path = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg_path, "--axis", axis, "--values", values,
                 "--out", str(out), "--quiet"]) == rc
    cfg = cli.load_config(cfg_path)
    divergent = []
    for i, v in enumerate(float(x) for x in values.split(",")):
        c = cli._apply_axis(cfg, axis, v)
        c.seed = cfg.seed ^ i
        single, point = tmp_path / f"run_{i}", out / f"point_{i:03d}"
        try:
            cli.execute_run(c, single, quiet=True)
        except DivergenceError:
            divergent.append(i)
            assert list(point.iterdir()) == []
            continue
        names = sorted(f.name for f in single.iterdir())
        assert sorted(f.name for f in point.iterdir()) == names
        for name in names:
            if name == "report.json":
                assert _without_timestamp(point / name) == _without_timestamp(single / name)
            else:
                assert (point / name).read_bytes() == (single / name).read_bytes()
    assert divergent == diverged


def test_classify_at_huge_coupling(tmp_path):
    # the flow is scale-free in K t: at K = 1e300 this start synchronises as
    # at K = 1, and the gradient norm must not overflow on the way
    text = ("[run]\nmodel = identical\nn = 4\ninit = random-arc(3.0)\n"
            "coupling = {}\nstep = 0.01\n")
    kinds = []
    for k in ("1.0", "1e300"):
        cfg = write_config(tmp_path / "run.ini", text.format(k))
        out = tmp_path / k
        assert main(["classify", cfg, "--out", str(out), "--quiet"]) == 0
        kinds.append(read_json(out / "classification.json")["kind"])
    assert kinds == ["sync", "sync"]


def test_classify_writes_one_state_for_every_coupling(tmp_path):
    # classification runs in scaled time K t: the state it writes is the same
    # at every K, and only the witness scales
    text = ("[run]\nmodel = identical\nn = 5\ninit = random-arc(6.0)\nseed = 3\n"
            "coupling = {}\nstep = 0.01\n")
    states = []
    for k in ("1e-8", "1.0", "1e300"):
        cfg = write_config(tmp_path / "run.ini", text.format(k))
        out = tmp_path / k
        assert main(["classify", cfg, "--out", str(out), "--quiet"]) == 0
        eq = read_json(out / "classification.json")["equilibrium"]
        states.append({key: eq[key] for key in ("kind", "windings", "phi_star")})
    assert states[0] == states[1] == states[2]


def test_classify_decides_a_half_circle_start_at_t_0(tmp_path):
    # a random-arc(2.0) start lies inside a half circle: sync at t = 0, one
    # state at every K
    text = ("[run]\nmodel = identical\nn = 4\ninit = random-arc(2.0)\nseed = 7\n"
            "coupling = {}\nstep = 0.01\n")
    states = []
    for k in ("1e-8", "1.0", "1e300"):
        cfg = write_config(tmp_path / "run.ini", text.format(k))
        out = tmp_path / k
        assert main(["classify", cfg, "--out", str(out), "--quiet"]) == 0
        report = read_json(out / "classification.json")
        assert report["kind"] == "sync"
        assert report["witness"]["t_end"] == 0.0
        eq = report["equilibrium"]
        states.append({key: eq[key] for key in ("kind", "windings", "phi_star")})
    assert states[0] == states[1] == states[2]


@pytest.mark.parametrize("n,init,coupling", [
    (64, "random-arc(3.1)", "1.7e308"),  # grad_norm = K |v| overflows at t = 0
    (3, "near-bipolar(0.01)", "1e-320"),  # t_end = tau/K overflows at tau 12.8
], ids=["huge-K", "tiny-K"])
def test_classify_refuses_a_witness_out_of_float_range(tmp_path, capsys, n, init, coupling):
    # bad input, not an unresolved flow: exit 2, and no report
    cfg = write_config(tmp_path / "run.ini", (
        f"[run]\nmodel = identical\nn = {n}\ninit = {init}\nseed = 1\n"
        f"coupling = {coupling}\nstep = 0.01\n"))
    out = tmp_path / "cls"
    assert main(["classify", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "float range" in capsys.readouterr().err


def test_dgf_run_refuses_certifiers(tmp_path, capsys):
    cfg = write_config(tmp_path / "dgf.ini",
                       DGF_CFG + "\n[certifiers]\norder_preservation =\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "generic_dgf" in capsys.readouterr().err


DESCENT_VERDICT_KEYS = {"name", "passed", "min_slack", "h_admissible", "converged"}
SUM_VERDICT_KEYS = {"name", "passed", "weighted_sum", "f_drop"}


@pytest.mark.parametrize("hk", [0.5, 1.9, 2.1])
def test_run_descent_certifiers_on_an_oscillator_run(tmp_path, hk):
    # A13's setup through kdgf run: the descent checks take C = K, so they
    # pass below the step guard hK < 2; above it the run is not admissible
    cfg = write_config(tmp_path / "run.ini", (
        "[run]\nmodel = identical\nn = 8\ninit = random-arc(6.283185)\n"
        f"coupling = 1.0\nstep = {hk}\nmax_steps = 10000\n"
        "[certifiers]\ndescent =\ngradient_square_sum =\n"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    descent_v, sum_v = report["verdicts"]
    assert set(descent_v) == DESCENT_VERDICT_KEYS and descent_v["name"] == "descent"
    assert set(sum_v) == SUM_VERDICT_KEYS and sum_v["name"] == "gradient_square_sum"
    converged = report["trajectory"]["stop_reason"] == "grad_norm"
    assert descent_v["converged"] is converged
    if hk < 2:
        assert converged and descent_v["h_admissible"] is True
        assert descent_v["passed"] and sum_v["passed"]
    else:
        assert not converged and descent_v["h_admissible"] is False
        # the weight h (1 - C h / 2) is negative: the sum bound fails too
        assert sum_v["passed"] is False and sum_v["weighted_sum"] < 0


def test_dgf_run_takes_the_descent_certifiers(tmp_path):
    # a [certifiers] list replaces the default descent verdict
    cfg = write_config(tmp_path / "dgf.ini",
                       DGF_CFG + "\n[certifiers]\ngradient_square_sum =\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    [verdict] = report["verdicts"]
    assert set(verdict) == SUM_VERDICT_KEYS and verdict["passed"]
    assert report["config"]["certifiers"] == {"gradient_square_sum": {}}


def test_dgf_run_without_certifiers_writes_descent_alone(tmp_path):
    # the default list is applied when the verdicts run, not written into
    # the config echo
    cfg = write_config(tmp_path / "dgf.ini", DGF_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = read_json(out / "report.json")
    [verdict] = report["verdicts"]
    assert set(verdict) == DESCENT_VERDICT_KEYS and verdict["name"] == "descent"
    assert verdict["h_admissible"] is True
    assert report["config"]["certifiers"] == {}


def test_dgf_run_refuses_a_phase_scan_beside_descent(tmp_path, capsys):
    cfg = write_config(tmp_path / "dgf.ini",
                       DGF_CFG + "\n[certifiers]\ndescent =\nerror_bound =\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "generic_dgf has no phases for certifier 'error_bound'" in capsys.readouterr().err


@pytest.mark.parametrize("certifiers,column", [
    ("", "cert_descent"),
    ("\n[certifiers]\ngradient_square_sum =\n", "cert_gradient_square_sum"),
])
def test_dgf_sweep_columns_follow_the_applied_certifiers(tmp_path, certifiers, column):
    cfg = write_config(tmp_path / "dgf.ini", DGF_CFG + certifiers)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", "h", "--values", "0.05,0.02",
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == f"index,h,steps,stop_reason,final_grad_norm,{column}"
    assert [line.split(",")[-1] for line in lines[1:]] == ["pass", "pass"]


@pytest.mark.parametrize("axis,values", [
    ("K", "1.0,2.0"), ("N", "1,2"), ("delta", "0.1,0.2"), ("domega", "0.1,0.2"),
])
def test_dgf_sweep_refuses_every_axis_but_h(tmp_path, capsys, axis, values):
    cfg = write_config(tmp_path / "dgf.ini", DGF_CFG)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", axis, "--values", values,
                 "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "generic_dgf sweeps only over axis h" in capsys.readouterr().err


@pytest.mark.parametrize("edits", [
    {},
    # a run with no error at all: the run and its reference stay at 0
    {"n = 4": "n = 3", "near-bipolar(0.05)": "explicit(0.0, 0.0, 0.0)",
     "max_steps = 3000": "max_steps = 100\nconv_tol = 0"},
], ids=["near-bipolar", "zero-error"])
def test_error_bound_with_huge_lipschitz(tmp_path, edits):
    text = NEAR_BIPOLAR_CFG
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = write_config(tmp_path / "run.ini", text + "error_bound = lipschitz=1e300\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    verdict = read_json(out / "report.json")["verdicts"][1]
    # an envelope that overflows is +inf, which every finite error meets
    assert verdict["name"] == "error_bound" and verdict["passed"] is True
    if edits:
        assert verdict["truncation_max"] == 0.0 and verdict["max_observed_error"] == 0.0


def test_trajectory_writers_stream_in_chunks(tmp_path):
    # N = 64 and 20 001 steps: 10.2 MB of phases, files of about 30 MB.
    # Writing the file a chunk of rows at a time keeps each writer's peak
    # far below the file's size.
    m, n = 20_001, 64
    rng = np.random.default_rng(0)
    traj = Trajectory(
        phases=rng.uniform(-math.pi, math.pi, (m, n)),
        params=SimParams(coupling=1.0, step_size=0.01, max_steps=m - 1),
        freqs=NaturalFrequencies.zero(n),
        diameters=rng.uniform(0.0, 2.0, m), potentials=rng.uniform(-1.0, 1.0, m),
        grad_norms=rng.uniform(0.0, 1.0, m), order_r=rng.uniform(0.0, 1.0, m),
        order_phi=rng.uniform(-math.pi, math.pi, m))
    for write, name in ((write_trajectory_csv, "t.csv"), (write_trajectory_json, "t.json")):
        tracemalloc.start()
        try:
            write(traj, tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / name).stat().st_size > 25e6
        assert peak < 10e6, (name, peak)


@pytest.mark.parametrize("chunk", [1, 7, 64, 2**16])
def test_chunked_writers_equal_whole_file_writers(tmp_path, monkeypatch, chunk):
    # chunks of 1 value up to chunks larger than the file: the bytes are
    # those of one repr per value, and of json.dumps of the whole table
    monkeypatch.setattr(cli, "CHUNK_VALUES", chunk)
    rng = np.random.default_rng(1)
    m, n = 23, 5
    traj = Trajectory(
        phases=rng.normal(size=(m, n)) * 10.0 ** rng.integers(-300, 300, (m, n)),
        params=SimParams(coupling=1.0, step_size=0.1, max_steps=m - 1),
        freqs=NaturalFrequencies.zero(n), diameters=rng.normal(size=m),
        potentials=np.where(np.arange(m) % 5, rng.normal(size=m), math.nan),
        grad_norms=np.where(np.arange(m) % 7, rng.normal(size=m), math.inf),
        order_r=rng.uniform(size=m), order_phi=rng.normal(size=m))
    write_trajectory_csv(traj, tmp_path / "t.csv")
    write_trajectory_json(traj, tmp_path / "t.json")
    table = cli._trajectory_table(traj)
    rows = ["n,t," + ",".join(f"theta_{j}" for j in range(n))
            + ",diameter,potential,grad_norm,order_r,order_phi"]
    for i in range(m):
        values = [table["t"][i], *table["theta"][i],
                  *(table[k][i] for k in ("diameter", "potential", "grad_norm",
                                          "order_r", "order_phi"))]
        rows.append(",".join([str(i)] + [repr(float(v)) for v in values]))
    assert (tmp_path / "t.csv").read_text() == "\n".join(rows) + "\n"
    expected = json.dumps({k: col.tolist() for k, col in table.items()}, sort_keys=True)
    assert (tmp_path / "t.json").read_text() == expected


def test_failed_write_leaves_no_file(tmp_path):
    # a writer whose text fails part-way (as the formatter might, inside the
    # generator) leaves neither the temporary file nor the target behind
    def text():
        yield b"n,t\n"
        raise RuntimeError("formatter failed")
    target = tmp_path / "trajectory.csv"
    with pytest.raises(RuntimeError, match="formatter failed"):
        cli._atomic_write(target, text())
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_leaves_out_the_process_pool():
    # sweeps import the pool when they need it; every kdgf run would
    # otherwise pay for its import at start-up
    code = ("import sys, kdgf.cli; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"


def test_random_arc_run_and_classify_leave_out_numpy_ma(tmp_path):
    # the duplicate-phase checks sort and compare neighbours: np.unique's
    # first call imports numpy.ma, which every random-arc start would pay for
    cfg = write_config(tmp_path / "run.ini", "[run]\nmodel = identical\nn = 4\n"
                       "init = random-arc(3.0)\nseed = 1\ncoupling = 1.0\nstep = 0.01\n"
                       "max_steps = 100\n")
    code = ("import sys; from kdgf.cli import main; "
            f"assert main(['run', {cfg!r}, '--out', {str(tmp_path / 'r')!r}, '--quiet']) == 0; "
            f"assert main(['classify', {cfg!r}, '--out', {str(tmp_path / 'c')!r}, '--quiet']) == 0; "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "False\n"


# The verdict keys and values of every trajectory scan, failing where it can,
# pinned so a change to the analysis records cannot change report.json.
SCAN_REPORTS = {
    "nonidentical-failing": ("""
[run]
model = nonidentical
n = 8
init = random-arc(3.0)
omega = uniform(1.0)
coupling = 0.5
step = 0.05
max_steps = 500

[certifiers]
order_preservation =
uniform_bound = l=0.0001
diameter_decay = eps=4.0, rate=5.0
""", [
        {"name": "order_preservation", "passed": False, "first_violation": 2},
        {"name": "uniform_bound", "passed": False, "first_violation": 285,
         "max_diameter": 18.875687615914135},
        {"name": "diameter_decay", "passed": False, "first_violation": 1, "rate": 5.0},
    ]),
    "two-sided-upper": ("""
[run]
model = identical
n = 4
init = near-bipolar(0.05)
coupling = 0.02
step = 0.005
max_steps = 2000
conv_tol = 0

[certifiers]
two_sided_decay = alpha=0.01, tol=0.2
""", [
        {"name": "two_sided_decay", "passed": False, "first_violation": 1,
         "side": "upper", "alpha": 0.01},
    ]),
    "bipolar-locked": ("""
[run]
model = identical
n = 4
init = near-bipolar(0.05)
coupling = 1
step = 0.05
max_steps = 3000
conv_tol = 0

[certifiers]
bipolar_bounds = tol=3
bipolar_containment = tol=3
""", [
        {"name": "bipolar_bounds", "passed": False, "first_violation": 2594,
         "which": "locked", "alpha": 0.24440025832667445},
        {"name": "bipolar_containment", "passed": True, "first_exit": None,
         "exit_side": None},
    ]),
    "cluster-passing": ("""
[run]
model = nonidentical
n = 5
init = near-sync(0.5)
omega = uniform(0.1)
coupling = 2
step = 0.01
max_steps = 300

[certifiers]
cluster_invariance = n0=4, l=1.0
uniform_bound = l=0.5
""", [
        {"name": "cluster_invariance", "passed": True, "first_violation": None,
         "k_min": 0.2077246255706437, "step_max": 0.14201110624456123,
         "max_cluster_diameter": 0.75},
        {"name": "uniform_bound", "passed": True, "first_violation": None,
         "max_diameter": 1.0},
    ]),
}


@pytest.mark.parametrize("case", list(SCAN_REPORTS))
def test_scan_verdicts_keep_their_report_keys(tmp_path, case):
    text, expected = SCAN_REPORTS[case]
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    assert read_json(out / "report.json")["verdicts"] == expected


RANDOM_ARC_CFG = NONIDENTICAL_CFG.replace("near-sync(0.1)", "random-arc(2.0)").replace(
    "omega = zero", "omega = uniform(0.2)").replace("max_steps = 20000", "max_steps = 50")


def test_seed_flag_overrides_the_config_seed_in_run_and_sweep(tmp_path):
    cfg = write_config(tmp_path / "run.ini", RANDOM_ARC_CFG)
    assert main(["run", cfg, "--seed", "7", "--out", str(tmp_path / "run"), "--quiet"]) == 0
    config = cli.load_config(cfg)
    config.seed = 7
    cli.execute_run(config, tmp_path / "seed7", quiet=True)
    run = _without_timestamp(tmp_path / "run" / "report.json")
    assert run["config"]["seed"] == 7
    assert run == _without_timestamp(tmp_path / "seed7" / "report.json")
    assert main(["sweep", cfg, "--seed", "7", "--axis", "K", "--values", "1.0,2.0,3.0",
                 "--out", str(tmp_path / "sweep"), "--quiet"]) == 0
    for i in range(3):  # each point's seed is the override XOR its index
        point = _without_timestamp(tmp_path / "sweep" / f"point_{i:03d}" / "report.json")
        assert point["config"]["seed"] == 7 ^ i


def test_two_sided_decay_default_alpha_is_the_theory_rate(tmp_path):
    cfg = write_config(tmp_path / "run.ini", NEAR_BIPOLAR_CFG + "two_sided_decay = tol=0.2\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    verdict = read_json(out / "report.json")["verdicts"][1]
    # K((N-1) sin(eps)/eps - 1)/(2N) at N = 4, K = 1 and the default eps = 0.3
    assert verdict["name"] == "two_sided_decay"
    assert verdict["alpha"] == pytest.approx((3 * math.sin(0.3) / 0.3 - 1) / 8, rel=1e-15)


def test_unresolved_classification_is_a_report(tmp_path, monkeypatch, capsys):
    def unresolved(*args, **kwargs):
        raise ValueError("unresolved classification (grad_norm=1.000e-03 at t=1e+03)")

    monkeypatch.setattr(cli.analysis, "classify_initial", unresolved)
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    out = tmp_path / "cls"
    assert main(["classify", cfg, "--out", str(out), "--quiet"]) == 0
    assert read_json(out / "classification.json") == {
        "kind": "unresolved",
        "error": "unresolved classification (grad_norm=1.000e-03 at t=1e+03)"}
    assert capsys.readouterr().out == ""


def test_thresholds_with_dtheta0_report_the_sync_threshold(capsys):
    assert main(["thresholds", "--n", "4", "--n0", "3", "--l", "1.0", "--domega", "0.2",
                 "--dtheta0", "0.5"]) == 0
    data = strict_json(capsys.readouterr().out)
    assert data["sync_threshold"] == 0.2 / math.sin(0.5)
    assert data["domega"] == 0.2 and "d_omega" not in data


def test_error_bound_over_its_step_cap_names_the_run_length(tmp_path, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the verdict is known before the reference")

    monkeypatch.setattr(cli, "rk4_reference", no_reference)
    cfg = write_config(tmp_path / "run.ini",
                       FAST_STEP_CFG.format(60) + "error_bound = max_steps=59\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    verdict = read_json(out / "report.json")["verdicts"][1]
    assert verdict == {"name": "error_bound", "passed": False,
                       "reason": "run too long for the reference integration"}


def test_run_with_json_format_writes_the_json_trajectory(tmp_path):
    cfg = write_config(tmp_path / "run.ini", RANDOM_ARC_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--format", "json", "--out", str(out), "--quiet"]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["report.json", "trajectory.json"]
    table = read_json(out / "trajectory.json")
    assert len(table["potential"]) == read_json(out / "report.json")["trajectory"]["steps"] + 1


def test_classify_takes_no_format_flag(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["classify", cfg, "--format", "json", "--out", str(tmp_path / "cls")])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "cls").exists()


def test_commands_print_their_results_unless_quiet(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG.replace(
        "diameter_decay = eps=0.3", "diameter_decay = eps=0.01"))
    assert main(["run", cfg, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "order_preservation: pass", "diameter_decay: FAIL",
        f"report written to {tmp_path / 'run' / 'report.json'}"]
    assert main(["sweep", cfg, "--axis", "K", "--values", "1.0,2.0",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"sweep summary written to {tmp_path / 'sweep' / 'summary.csv'}"]
    assert main(["classify", cfg, "--out", str(tmp_path / "cls")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1
    assert strict_json(printed[0]) == read_json(tmp_path / "cls" / "classification.json")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_the_certifier_registry():
    # the certifiers with their options, and the options read as whole numbers
    text = " ".join(README.read_text().split())
    listed = re.search(r"Certifiers: (.*?)\.\s", text).group(1)
    documented = {name: [a.strip() for a in args.split(",")] if args else []
                  for name, args in re.findall(r"`(\w+)(?:\(([^)]*)\))?`", listed)}
    registry = {name: [p for p in inspect.signature(fn).parameters if p != "traj"]
                for name, fn in cli.CERTIFIERS.items()}
    assert documented == registry
    whole = re.search(r"the certifier options (.*?) must be whole numbers", text).group(1)
    assert set(re.findall(r"`(\w+)`", whole)) == cli._INTEGER_OPTIONS


def test_readme_lists_the_sweep_axes():
    # each axis with the [run] key it sets
    text = " ".join(README.read_text().split())
    listed = re.search(r"Sweep axes and the `\[run\]` key each sets: (.*?)\.\s", text).group(1)
    assert dict(re.findall(r"`(\w+)` → `(\w+)`", listed)) == cli._AXES


@pytest.mark.parametrize("args,text,fault", [
    (["run"], IDENTICAL_CFG.replace("near-sync(0.1)", "near sync"), "cannot parse spec"),
    (["run"], IDENTICAL_CFG[IDENTICAL_CFG.index("[certifiers]"):],
     "config needs a [run] section"),
    (["run"], IDENTICAL_CFG.replace("near-sync(0.1)", "far-sync(0.1)"), "unknown init spec"),
    (["run"], NONIDENTICAL_CFG.replace("omega = zero", "omega = gauss(0.1)"),
     "unknown omega spec"),
    (["sweep", "--axis", "delta", "--values", "0.1"],
     IDENTICAL_CFG.replace("near-sync(0.1)", "random-arc(2.0)"),
     "axis delta needs a near-sync or near-bipolar init"),
    (["sweep", "--axis", "domega", "--values", "0.1"], NONIDENTICAL_CFG,
     "axis domega needs omega = uniform(...)"),
    (["classify"], NONIDENTICAL_CFG, "classification applies to the identical model"),
], ids=["spec-unparsable", "no-run-section", "unknown-init", "unknown-omega",
        "delta-axis-random-arc", "domega-axis-zero-omega", "classify-nonidentical"])
def test_config_refusal_exits_2_naming_the_fault(tmp_path, capsys, args, text, fault):
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert main([args[0], cfg, *args[1:], "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert fault in capsys.readouterr().err


# a text that each [run] key reads, and the value it reads as
RUN_KEY_VALUES = {
    "model": ("NonIdentical", "nonidentical"),
    "n": ("3.0", 3),
    "seed": ("7", 7),
    "init": ("near-bipolar(0.2)", "near-bipolar(0.2)"),
    "omega": ("explicit(0, 0, 0)", "explicit(0, 0, 0)"),
    "coupling": ("2", 2.0),
    "step": ("5e-3", 0.005),
    "max_steps": ("5e1", 50),
    "conv_tol": ("0", 0.0),
    "problem": ("quadratic", "quadratic"),
    "x0": ("explicit(0.5, 0.5)", "explicit(0.5, 0.5)"),
}
DECLARED_TYPES = {"int": int, "float": float, "float | None": float, "str": str}
RUN_FIELDS = [f for f in dataclasses.fields(cli.RunConfig) if f.name != "certifiers"]


@pytest.mark.parametrize("fmt", ["ini", "json"])
@pytest.mark.parametrize("field", RUN_FIELDS, ids=[f.name for f in RUN_FIELDS])
def test_each_run_key_reads_as_its_declared_type(tmp_path, field, fmt):
    # every RunConfig field is a [run] key that is read, none is dropped
    text, value = RUN_KEY_VALUES[field.name]
    run = {**GOOD_RUN, field.name: text}
    if fmt == "json":
        written = json.dumps({"run": run})
    else:
        written = "[run]\n" + "".join(f"{k} = {v}\n" for k, v in run.items())
    cfg = write_config(tmp_path / f"run.{fmt}", written)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    echo = read_json(out / "report.json")["config"][field.name]
    assert echo == value and type(echo) is DECLARED_TYPES[field.type]


AXIS_RUN = {"model": "nonidentical", "n": "4", "seed": "5", "init": "near-bipolar(0.05)",
            "omega": "uniform(0.1)", "coupling": "1.0", "step": "0.01", "max_steps": "100"}


@pytest.mark.parametrize("axis,value,key,text", [
    ("K", 2.5, "coupling", "2.5"),
    ("h", 0.02, "step", "0.02"),
    ("N", 5.0, "n", "5"),
    ("delta", 0.25, "init", "near-bipolar(delta=0.25)"),
    ("domega", 0.3, "omega", "uniform(spread=0.3)"),
])
def test_sweep_axis_sets_its_run_key_as_a_loaded_config_does(tmp_path, axis, value, key, text):
    def load(run):
        lines = [f"{k} = {v}" for k, v in run.items()]
        path = write_config(tmp_path / "run.ini", "\n".join(
            ["[run]", *lines, "[certifiers]", "uniform_bound = l=1.0", ""]))
        return cli.load_config(path)

    cfg = load(AXIS_RUN)
    point, loaded = cli._apply_axis(cfg, axis, value), load({**AXIS_RUN, key: text})
    for field in dataclasses.fields(cli.RunConfig):
        a, b = getattr(point, field.name), getattr(loaded, field.name)
        assert (a, type(a)) == (b, type(b)), field.name
    assert cfg == load(AXIS_RUN)  # the point is a copy


# ---------------------------------------------------------------------------
# thresholds and config values at the ends of the float range
# ---------------------------------------------------------------------------

UNDERFLOW_CFG = """
[run]
model = nonidentical
n = 4
init = near-sync(0.1)
omega = zero
coupling = 1e-320
step = 0.01
max_steps = 50

[certifiers]
cluster_invariance = n0=3, l=1.0
"""


def test_cluster_invariance_whose_constants_underflow_is_a_failed_verdict(tmp_path):
    # at a subnormal coupling the step_max constants c + e round to 0
    cfg = write_config(tmp_path / "run.ini", UNDERFLOW_CFG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    [verdict] = read_json(out / "report.json")["verdicts"]
    assert verdict["passed"] is False and "underflow" in verdict["reason"]


@pytest.mark.parametrize("args", [
    ["--domega", "0", "--coupling", "1e-320"], ["--domega", "1e-320"],
    ["--domega", "1e308", "--coupling", "1.0", "--dtheta0", "1e-300"], ["--domega", "1e308"],
], ids=["coupling-underflows", "default-coupling-underflows", "k-min-overflows",
        "default-coupling-overflows"])
def test_thresholds_out_of_float_range_exit_2_naming_the_value(capsys, args):
    assert main(["thresholds", "--n", "4", "--n0", "3", "--l", "1.0", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.search("underflow|overflow", captured.err)


EXTREMES = ["0", "1e-320", "1e-200", "1.0", "1e200", "1e308"]


def test_thresholds_print_strict_json_or_exit_2_at_extreme_inputs(capsys):
    printed = 0
    for l, domega, coupling, dtheta0 in itertools.product(
            ["1e-300", "1.0", "2.4"], EXTREMES, [None, *EXTREMES[1:]], [None, "1e-300", "1.0"]):
        args = ["thresholds", "--n", "4", "--n0", "3", "--l", l, "--domega", domega]
        args += ["--coupling", coupling] * (coupling is not None)
        args += ["--dtheta0", dtheta0] * (dtheta0 is not None)
        rc = main(args)
        captured = capsys.readouterr()
        assert rc in (0, 2), args
        if rc == 0:
            strict_json(captured.out)
            printed += 1
        else:
            assert captured.out == "" and captured.err.startswith("error: "), args
    assert printed > 100  # the grid reaches printed thresholds, not only refusals


@pytest.mark.parametrize("run", [
    "n = 3\ninit = explicit(1e308, 1e308, -1e308)\n",
    "n = 4\nomega = explicit(1e308, 1e308, -1e308, -1e308)\n",
], ids=["init-mean", "omega-mean"])
def test_explicit_values_whose_mean_overflows_exit_2(tmp_path, run):
    # a numpy overflow warning would print, or be a traceback under -W error
    cfg = write_config(tmp_path / "run.ini", "[run]\nmodel = nonidentical\n" + run
                       + "coupling = 1.0\nstep = 0.01\nmax_steps = 50\n")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for flags in ([], ["-W", "error"]):
        done = subprocess.run([sys.executable, *flags, "-m", "kdgf.cli", "run", cfg,
                               "--out", str(out), "--quiet"], capture_output=True, text=True, env=env)
        assert done.returncode == 2 and not out.exists()
        assert "Warning" not in done.stderr and "mean" in done.stderr and "overflows" in done.stderr


# ---------------------------------------------------------------------------
# refusals that only the CLI reaches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args,edits,rc,reason", [
    (["run"], [("n = 4", "n = 2")], 2, "need at least three oscillators"),
    (["thresholds", "--n", "1", "--n0", "1", "--l", "1.0", "--domega", "0.1"], [], 2,
     "n must be at least 2"),
    (["run"], [("uniform_bound = l=1.0", "two_sided_decay = alpha=-0.1, tol=0.2")],
     0, "alpha must be positive"),
    (["run"], [("near-bipolar(0.05)", "near-sync(0.5)"),
               ("uniform_bound = l=1.0", "cluster_invariance = n0=3, l=0.5")],
     0, "initial cluster diameter"),
    (["run"], [("near-bipolar(0.05)", "near-sync(0.1)"), ("step = 0.01", "step = 1.0"),
               ("uniform_bound = l=1.0", "cluster_invariance = n0=3, l=1.0")],
     0, "not below step_max"),
], ids=["near-bipolar-n2", "thresholds-n1", "negative-alpha", "cluster-too-wide",
        "step-above-step-max"])
def test_cli_refusal_is_an_exit_2_or_a_failed_verdict(tmp_path, capsys, args, edits, rc, reason):
    # a refusal of the inputs exits 2 before writing; an unmet certifier
    # hypothesis is the run's one verdict, failed with its reason
    text = NEAR_BIPOLAR_CFG
    for old, new in edits:
        text = text.replace(old, new)
    out = tmp_path / "out"
    if args[0] == "run":
        args = ["run", write_config(tmp_path / "run.ini", text), "--out", str(out), "--quiet"]
    assert main(args) == rc
    if rc == 0:
        [failed] = read_json(out / "report.json")["verdicts"]
        assert failed["passed"] is False and reason in failed["reason"]
    else:
        assert not out.exists() and reason in capsys.readouterr().err
