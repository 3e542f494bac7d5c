"""Config fuzz: whatever an INI or JSON config holds, ``kdgf run`` exits
0 (ran, with a report.json that is strict JSON), 2 (bad input, with nothing
written) or 3 (divergence) and never raises."""
import inspect
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdgf.cli import _INTEGER_OPTIONS, CERTIFIERS, main

# Junk any value may be.  Text has no digits, so it never reads as a size.
JUNK = st.one_of(
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(-3, 3), max_size=1),
    st.none(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
NUMBER = st.one_of(st.integers(-3, 5), st.floats(-5.0, 5.0),
                   st.sampled_from([0.0, 1e-300, math.inf, -math.inf, math.nan]))


def spec(names, arg):
    return st.builds(lambda name, args: f"{name}({', '.join(map(repr, args))})",
                     st.sampled_from(names), st.lists(arg, max_size=3))


def corrupted(valid, keys):
    """Draws of ``valid``, about one in four with one of ``keys`` set to junk.
    A null max_steps would mean the default of 10^6 steps, so it stays a number."""
    def corrupt(draw):
        config, roll, key, value = draw
        if roll not in (3, 4, 5) or (key == "max_steps" and value is None):
            return config
        return {**config, key: value}
    return st.tuples(valid, st.integers(0, 11), st.sampled_from(keys), JUNK).map(corrupt)


# Extreme couplings and steps reach the overflow of the gradient norm (K |v|
# past about 1e154) and of the potential (K near the float limit).
COUPLINGS = [0.02, 0.5, 0.0, 1.0, 4.0, 1e-320, 1e154, 1.7e308]
STEPS = [0.001, 0.01, -0.01, 0.1, 1.0, 1e-310]

# n and max_steps stay small so that no draw allocates much memory.
RUN_KEYS = ["model", "n", "init", "coupling", "step", "max_steps", "seed", "omega",
            "conv_tol", "problem", "x0"]
RUN = corrupted(st.fixed_dictionaries(
    {
        "model": st.sampled_from(["identical", "nonidentical", "generic_dgf"]),
        "n": st.sampled_from([2, 3, 4, 8, -3, 0, 1, 5, 16]),
        "init": spec(["near-sync", "near-bipolar", "random-arc", "explicit"],
                     st.one_of(st.floats(-0.5, 7.0), NUMBER)),
        "coupling": st.sampled_from(COUPLINGS),
        "step": st.sampled_from(STEPS),
        "max_steps": st.integers(-2, 300),
    },
    optional={
        "seed": st.integers(-2, 2**40),
        "omega": spec(["zero", "uniform", "explicit"], st.floats(-0.5, 2.0)),
        "conv_tol": st.floats(-1e-3, 1e-3),
        "problem": st.sampled_from(["double_well", "quadratic"]),
        "x0": spec(["explicit"], st.floats(-3.0, 3.0)),
    }), RUN_KEYS)


def parameters(name):
    """A certifier's options: the parameters of its signature after the run."""
    return list(inspect.signature(CERTIFIERS[name]).parameters.values())[1:]


def options(name):
    """Draws of one certifier's options, taken from its signature: every
    required option and some optional ones, about one in four with one of
    them, or a misspelt one, set to junk."""
    params = parameters(name)

    def value(p):
        return st.integers(-3, 400) if p.name in _INTEGER_OPTIONS else NUMBER

    return corrupted(st.fixed_dictionaries(
        {p.name: value(p) for p in params if p.default is p.empty},
        optional={p.name: value(p) for p in params if p.default is not p.empty}),
        [p.name for p in params] + ["epz"])


OPTIONS = {name: options(name) for name in CERTIFIERS}
CERTS = corrupted(
    st.lists(st.sampled_from(sorted(CERTIFIERS)), unique=True, max_size=3).flatmap(
        lambda names: st.fixed_dictionaries({name: OPTIONS[name] for name in names})),
    sorted(CERTIFIERS))


def _ini_value(v) -> str:
    if isinstance(v, dict):  # certifier options
        return ", ".join(f"{k}={_ini_value(x)}" for k, x in v.items())
    return "" if v is None else str(v)


def refuse(name):
    raise ValueError(f"{name} is not JSON")


def run_config(name: str, text: str) -> int:
    """Exit code of ``kdgf run`` on ``text``; bad input leaves no --out, and
    a run writes a report.json that parses without NaN or Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / name, Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        code = main(["run", str(path), "--out", str(out), "--quiet"])
        assert code != 2 or not out.exists()
        if code == 0:
            json.loads((out / "report.json").read_text(), parse_constant=refuse)
        return code


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run=RUN, certs=CERTS)
def test_ini_config_never_raises(run, certs):
    lines = ["[run]"] + [f"{k} = {_ini_value(v)}" for k, v in run.items()]
    lines += ["[certifiers]"] + [
        f"{name} = {_ini_value(opts)}" for name, opts in certs.items()]
    assert run_config("run.ini", "\n".join(lines) + "\n") in (0, 2, 3)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(top_junk=st.integers(0, 9), junk=JUNK, data=corrupted(
    st.fixed_dictionaries({"run": RUN, "certifiers": CERTS}), ["run", "certifiers"]))
def test_json_config_never_raises(top_junk, junk, data):
    text = json.dumps(junk if top_junk == 5 else data)
    assert run_config("run.json", text) in (0, 2, 3)


# Most draws above are bad input, so few reach the extreme scales with a
# config that runs: these draws are valid oscillator runs at every scale.
SCALED = st.fixed_dictionaries({
    "model": st.just("nonidentical"),
    "n": st.sampled_from([2, 4, 8]),
    "init": st.floats(0.01, 6.28).map(lambda w: f"random-arc({w!r})"),
    "omega": st.sampled_from(["zero", "uniform(0.5)"]),
    "coupling": st.sampled_from([c for c in COUPLINGS if c > 0]),
    "step": st.sampled_from([h for h in STEPS if h > 0]),
    "max_steps": st.integers(0, 100),
    "seed": st.integers(0, 3),
})
# the certifiers that take no required option
SCALED_CERTS = st.lists(st.sampled_from(sorted(
    name for name in CERTIFIERS if all(p.default is not p.empty for p in parameters(name)))),
    unique=True, max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(run=SCALED, certs=SCALED_CERTS)
def test_runs_at_extreme_scales_write_strict_json_or_diverge(run, certs):
    lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    lines += ["[certifiers]"] + [f"{name} =" for name in certs]
    assert run_config("run.ini", "\n".join(lines) + "\n") in (0, 3)


@pytest.mark.parametrize("name", ["run.json", "run.ini"])
def test_a_directory_config_exits_2(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    out = tmp_path / "out"
    assert main(["run", str(tmp_path / name), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert "cannot read config" in capsys.readouterr().err


def test_a_deeply_nested_json_config_exits_2():
    # json.loads recurses once per level
    assert run_config("run.json", "[" * 10**5 + "]" * 10**5) == 2


def test_a_config_that_does_not_decode_exits_2(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(b"\xff[run]\nn = 3\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert not (tmp_path / "out").exists()
