"""Config fuzz: whatever an INI or JSON config holds, ``kdgf run`` exits
0 (ran, with a report.json that is strict JSON), 2 (bad input, with nothing
written) or 3 (divergence) and never raises."""
import inspect
import json
import math
import tempfile
from pathlib import Path

import numpy as np
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


def explicit(values):
    return f"explicit({', '.join(map(repr, values))})"


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


def run_config(name: str, text: str, fmt: str = "csv") -> int:
    """Exit code of ``kdgf run --format fmt`` on ``text``; bad input leaves
    no --out, and a run writes a report.json, and a trajectory.json if any,
    that parse without NaN or Infinity."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / name, Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        code = main(["run", str(path), "--out", str(out), "--quiet", "--format", fmt])
        assert code != 2 or not out.exists()
        if code == 0:
            json.loads((out / "report.json").read_text(), parse_constant=refuse)
            if (out / "trajectory.json").exists():
                json.loads((out / "trajectory.json").read_text(), parse_constant=refuse)
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
# config that runs: these draws are valid runs of both models at every
# scale, with steps and starts up to the float limit.
SCALED_STEPS = [h for h in STEPS if h > 0] + [1e305, 1e308]
HUGE = [1.0, 1e6, 1e154, 1e300, 9e307, 1.7e308]
# the certifiers that take no required option
NO_OPTION_CERTS = sorted(
    name for name in CERTIFIERS if all(p.default is not p.empty for p in parameters(name)))


@st.composite
def scaled_config(draw):
    run = {"step": draw(st.sampled_from(SCALED_STEPS)), "max_steps": draw(st.integers(0, 100)),
           "seed": draw(st.integers(0, 3))}
    if draw(st.booleans()):
        problem = draw(st.sampled_from(["double_well", "quadratic"]))
        x0 = draw(st.floats(-2.0, 2.0) if problem == "double_well" else
                  st.sampled_from(HUGE).flatmap(lambda x: st.sampled_from([x, -x])))
        run.update(model="generic_dgf", problem=problem, x0=explicit([x0]), n=1)
        names = ["descent", "gradient_square_sum"]
    else:
        n = draw(st.sampled_from([2, 4, 8]))
        # phases in adjacent +-pairs sum to exactly 0, so centring them cannot overflow
        half = draw(st.lists(st.one_of(st.sampled_from(HUGE), st.floats(0.0, 7.0)),
                             min_size=n // 2, max_size=n // 2))
        init = draw(st.one_of(st.floats(0.01, 6.28).map(lambda w: f"random-arc({w!r})"),
                              st.just(explicit([x for v in half for x in (v, -v)]))))
        run.update(model="nonidentical", n=n, init=init,
                   omega=draw(st.sampled_from(["zero", "uniform(0.5)"])),
                   coupling=draw(st.sampled_from([c for c in COUPLINGS if c > 0])))
        names = NO_OPTION_CERTS
    return run, draw(st.lists(st.sampled_from(names), unique=True, max_size=3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(config=scaled_config())
def test_runs_at_extreme_scales_write_strict_json_or_diverge(config):
    run, certs = config
    lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    lines += ["[certifiers]"] + [f"{name} =" for name in certs]
    assert run_config("run.ini", "\n".join(lines) + "\n", fmt="json") in (0, 3)


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


# Valid configs only: every model, every init and omega spec family with its
# argument in range (by position, by name or left to its default), and
# certifiers with well-typed, finite options, in INI and in JSON.  Each draw
# runs, so it exits 0 or 3, never 2.
def valid_spec(name, key, value):
    return st.one_of(st.just(name), value.map(lambda v: f"{name}({v!r})"),
                     value.map(lambda v: f"{name}({key}={v!r})"))


def valid_options(name):
    def value(p):
        if p.name in _INTEGER_OPTIONS:
            return st.integers(-5, 400)
        if p.name == "eps":
            return st.floats(1e-3, 3.0)
        return st.floats(allow_nan=False, allow_infinity=False)
    params = parameters(name)
    return st.fixed_dictionaries(
        {p.name: value(p) for p in params if p.default is p.empty},
        optional={p.name: value(p) for p in params if p.default is not p.empty})


@st.composite
def valid_config(draw):
    model = draw(st.sampled_from(["identical", "nonidentical", "generic_dgf"]))
    run = {"model": model, "seed": draw(st.integers(0, 2**40)),
           "step": draw(st.floats(1e-3, 0.5)), "max_steps": draw(st.integers(0, 300)),
           "conv_tol": draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))}
    if model == "generic_dgf":
        problem = draw(st.sampled_from(["double_well", "quadratic"]))
        size, bound = (1, 2.0) if problem == "double_well" else (draw(st.integers(1, 4)), 1e3)
        run.update(problem=problem, x0=explicit(draw(st.lists(
            st.floats(-bound, bound), min_size=size, max_size=size))))
        names = ["descent", "gradient_square_sum"]
    else:
        n = draw(st.integers(2, 16))
        inits = [valid_spec("near-sync", "delta", st.floats(1e-3, 3.0)),
                 valid_spec("random-arc", "width", st.floats(0.01, 6.28)),
                 st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n,
                          unique=True).map(explicit)]
        if n >= 3:
            inits.append(valid_spec("near-bipolar", "delta", st.floats(1e-3, 1.0)))
        omegas = [st.just("zero"), st.just(explicit([0.0] * n)), st.just("uniform(0.0)")]
        if model == "nonidentical":
            omegas += [valid_spec("uniform", "spread", st.floats(0.0, 2.0)),
                       st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(
                           lambda w: explicit((np.array(w) - np.mean(w)).tolist()))]
        run.update(n=n, init=draw(st.one_of(inits)), omega=draw(st.one_of(omegas)),
                   coupling=draw(st.floats(0.01, 4.0)))
        names = sorted(CERTIFIERS)
    chosen = draw(st.permutations(names))[:draw(st.integers(0, 3))]
    return run, {name: draw(valid_options(name)) for name in chosen}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=valid_config(), fmt=st.sampled_from(["ini", "json"]))
def test_valid_configs_run_and_write_strict_json_or_diverge(config, fmt):
    run, certs = config
    if fmt == "json":
        text = json.dumps({"run": run, "certifiers": certs})
    else:
        lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
        lines += ["[certifiers]"] + [f"{name} = {_ini_value(opts)}"
                                     for name, opts in certs.items()]
        text = "\n".join(lines) + "\n"
    assert run_config(f"run.{fmt}", text) in (0, 3)
