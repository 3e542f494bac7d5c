"""End-to-end tests of the command-line harness."""
import json
import math
import re

import numpy as np
import pytest

from kdgf import NaturalFrequencies, SimParams, Trajectory, cli
from kdgf.cli import main, write_trajectory_csv, write_trajectory_json


def write_config(path, text):
    path.write_text(text)
    return str(path)


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
    report = json.loads((out / "report.json").read_text())
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
    report = json.loads((out / "report.json").read_text())
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
    report = json.loads((out / "report.json").read_text())
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
        data = json.loads((out / "report.json").read_text())
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
        report = json.loads((out / f"point_{i:03d}" / "report.json").read_text())
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
    report = json.loads((out / "classification.json").read_text())
    assert report["kind"] == "sync"
    assert report["equilibrium"]["windings"] == [0, 0, 0]


def test_thresholds_subcommand(capsys):
    assert main(["thresholds", "--n", "4", "--n0", "3", "--l",
                 str(math.pi / 3), "--domega", "0.2"]) == 0
    data = json.loads(capsys.readouterr().out)
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
    report = json.loads((out / "point_001" / "report.json").read_text())
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
], ids=["seed-list", "top-level-list", "certifiers-list", "run-list", "n-inf",
        "n-nan", "n-fraction", "max-steps-dict", "options-string",
        "start-fraction", "max-steps-minus-inf",
        *(f"conv-tol-{tol}-{model}" for model in MODELS for tol in ("minus-one", "nan"))])
def test_malformed_json_config_exits_2(tmp_path, data):
    cfg = write_config(tmp_path / "bad.json", json.dumps(data))
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


@pytest.mark.parametrize("old,new", [
    ("diameter_decay = eps=0.3", "fit_decay = start=inf"),
    ("diameter_decay = eps=0.3", "cluster_invariance = n0=nan, l=1.0"),
    ("seed = 12345", "seed = 1.5"),
    ("seed = 12345", "seed = %(missing)s"),
    ("[certifiers]", "[run]\nn = 4\n[certifiers]"),
    ("[certifiers]", "no equals sign\n[certifiers]"),
    ("diameter_decay = eps=0.3", "diameter_decay = eps=0"),
    ("diameter_decay = eps=0.3", "bipolar_bounds = eps=inf"),
], ids=["start-inf", "n0-nan", "seed-fraction", "bad-interpolation",
        "duplicate-section", "unparsable-line", "eps-zero", "eps-inf"])
def test_malformed_ini_config_exits_2(tmp_path, old, new):
    cfg = write_config(tmp_path / "bad.ini", IDENTICAL_CFG.replace(old, new))
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_integer_values_accept_whole_numbers(tmp_path):
    data = {"run": {**GOOD_RUN, "n": 3.0, "seed": "7", "max_steps": "2e2"},
            "certifiers": {"fit_decay": {"start": "1", "stop": 50.0}}}
    cfg = write_config(tmp_path / "run.json", json.dumps(data))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
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
    report = json.loads((tmp_path / "string" / "report.json").read_text())
    assert report["config"]["certifiers"] == {"uniform_bound": {"l": 1.0}}
    assert report["verdicts"][0]["passed"]
    assert run("wide", "word") == 2
    assert run([1.0], "list") == 2


def test_unmet_diameter_decay_hypothesis_is_a_verdict(tmp_path):
    text = IDENTICAL_CFG.replace("near-sync(0.1)", "near-sync(0.5)")
    cfg = write_config(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
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
    report = json.loads((out / "report.json").read_text())
    intact, failed = report["verdicts"]
    assert failed["passed"] is False and reason in failed["reason"]
    assert intact["name"] == "uniform_bound" and intact["passed"]
    assert intact["first_violation"] is None and intact["max_diameter"] > 0
    assert (out / "trajectory.csv").exists()


def test_error_bound_with_zero_lipschitz_builds_no_reference(tmp_path, monkeypatch):
    def no_reference(*args, **kwargs):
        raise AssertionError("the verdict is known before the reference")

    monkeypatch.setattr(cli, "rk4_reference", no_reference)
    cfg = write_config(tmp_path / "run.ini",
                       NEAR_BIPOLAR_CFG + "error_bound = lipschitz=0\n")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out), "--quiet"]) == 0
    verdict = json.loads((out / "report.json").read_text())["verdicts"][1]
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
    report = json.loads((out / "point_002" / "report.json").read_text())
    assert "alpha >= 2K" in report["verdicts"][1]["reason"]


@pytest.mark.parametrize("axis,values", [
    ("K", "1.0,-1.0"), ("h", "0.04,0"), ("N", "8,1"), ("N", "8,2.5"),
], ids=["K-negative", "h-zero", "N-one", "N-fraction"])
def test_sweep_checks_every_point_before_running_any(tmp_path, axis, values):
    cfg = write_config(tmp_path / "run.ini", IDENTICAL_CFG)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", axis, "--values", values,
                 "--out", str(out), "--quiet"]) == 2
    assert not (out / "point_000").exists()
    assert not (out / "summary.csv").exists()
