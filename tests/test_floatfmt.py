"""The bulk float formatter behind the trajectory writers, against its
oracles: ``repr`` for CSV and ``json.dumps`` for JSON, value by value."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdgf import NaturalFrequencies, SimParams, Trajectory, _floatfmt, cli
from kdgf.cli import write_trajectory_csv, write_trajectory_json

COMMA = _floatfmt.sep_word(b",")
JSON_SEP = _floatfmt.sep_word(b", ")


def csv_text(values) -> str:
    return _floatfmt.render(np.asarray(values, dtype=float), COMMA).decode()


def json_text(values) -> str:
    return _floatfmt.render(np.asarray(values, dtype=float), JSON_SEP, json.dumps).decode()


def check_against_oracles(values):
    values = [float(v) for v in values]
    assert csv_text(values) == "".join(repr(v) + "," for v in values)
    assert json_text(values) == "".join(json.dumps(v) + ", " for v in values)


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


BOUNDARIES = [
    *(v for x in (0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e16) for v in _neighbours(x)),
    2.0**53, 2.0**54, 0.1 + 0.2, 123456789.125, 1.7976931348623157e308,
    math.nan, math.inf, 1.0, 1e15, 1e-5, 9.999999999999999e-5, 1e22, 1e23, 5e-324 * 3,
    2.0**50, 2.0**50 + 0.5, 1e100, 1.2345678901234567e-300, 0.30000000000000004,
]


def test_boundary_values_render_as_their_oracles():
    check_against_oracles(BOUNDARIES + [-v for v in BOUNDARIES])


def test_random_bit_patterns_render_as_their_oracles():
    # every float64 bit pattern is as likely: all exponents, subnormals, NaNs
    bits = np.random.default_rng(7).integers(0, 2**64, 200_000, dtype=np.uint64)
    check_against_oracles(bits.view(np.float64))


def test_trajectory_like_values_render_as_their_oracles():
    rng = np.random.default_rng(3)
    check_against_oracles(np.concatenate([
        rng.uniform(-4, 4, 50_000),
        rng.normal(size=50_000) * 10.0 ** rng.integers(-20, 20, 50_000),
        np.arange(20_000) * 0.005, np.arange(20_000) * 0.04, 1.0 - rng.uniform(0, 1e-12, 1000)]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
def test_any_floats_render_as_their_oracles(values):
    check_against_oracles(values)


@pytest.mark.parametrize("first", [0, 8, 98, 12345, 10**8 - 2, 10**16 - 2])
def test_csv_rows_are_numbered_as_str(first):
    block = np.array([[0.5, -1.5], [2.5e-7, 1e300], [math.nan, -math.inf]])
    rows = _floatfmt.numbered_rows(block, first).decode()
    assert rows == "".join(f"{first + i},{repr(a)},{repr(b)}\n"
                           for i, (a, b) in enumerate(block.tolist()))


def _expected_files(traj):
    table = cli._trajectory_table(traj)
    rows = [",".join(["n", "t", *(f"theta_{j}" for j in range(traj.n)), "diameter",
                      "potential", "grad_norm", "order_r", "order_phi"])]
    for i in range(traj.n_steps + 1):
        values = [table["t"][i], *table["theta"][i],
                  *(table[k][i] for k in ("diameter", "potential", "grad_norm",
                                          "order_r", "order_phi"))]
        rows.append(",".join([str(i)] + [repr(float(v)) for v in values]))
    csv = "\n".join(rows) + "\n"
    return csv, json.dumps({k: col.tolist() for k, col in table.items()}, sort_keys=True)


def _trajectory(phases, series):
    m = phases.shape[0]
    return Trajectory(phases=phases,
                      params=SimParams(coupling=1.0, step_size=0.1, max_steps=m - 1),
                      freqs=NaturalFrequencies.zero(phases.shape[1]), diameters=series[0],
                      potentials=series[1], grad_norms=series[2], order_r=series[3],
                      order_phi=series[4])


def _check_writers(tmp_path, traj):
    csv, js = _expected_files(traj)
    write_trajectory_csv(traj, tmp_path / "t.csv")
    write_trajectory_json(traj, tmp_path / "t.json")
    assert (tmp_path / "t.csv").read_text() == csv
    assert (tmp_path / "t.json").read_text() == js


def test_writers_render_random_bit_patterns_as_their_oracles(tmp_path):
    bits = np.random.default_rng(11).integers(0, 2**64, (12_500, 13), dtype=np.uint64)
    values = bits.view(np.float64)
    _check_writers(tmp_path, _trajectory(values[:, :8], values[:, 8:].T))


def test_writers_render_boundary_values_as_their_oracles(tmp_path):
    values = np.array(BOUNDARIES + [-v for v in BOUNDARIES])
    phases = values.reshape(-1, 2)
    rows = phases.shape[0]
    _check_writers(tmp_path, _trajectory(phases, [np.resize(values[k:], rows) for k in range(5)]))


@pytest.mark.parametrize("rows", [1, cli.CHUNK_VALUES])
def test_writers_render_chunk_edges_as_their_oracles(tmp_path, rows):
    # one row (a zero-step run), and CHUNK_VALUES rows at N = 8: then every
    # column, 1-d or theta, ends exactly on a chunk end
    bits = np.random.default_rng(rows).integers(0, 2**64, (rows, 13), dtype=np.uint64)
    values = bits.view(np.float64)
    _check_writers(tmp_path, _trajectory(values[:, :8], values[:, 8:].T))


@pytest.mark.parametrize("layout", ["fortran", "strided", "read-only", "big-endian"])
def test_writers_take_any_float64_array(tmp_path, layout):
    # inputs the engine never produces: the formatter reads bits only from a
    # native, contiguous copy, so every layout renders as its values do
    rng = np.random.default_rng(5)
    phases = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 8, (40, 6))
    series = [rng.normal(size=40) for _ in range(5)]
    if layout == "fortran":
        phases = np.asfortranarray(phases)
    elif layout == "strided":
        phases = np.repeat(phases, 2, axis=1)[:, ::2]
        series = [np.repeat(s, 3)[::3] for s in series]
    elif layout == "read-only":
        for a in (phases, *series):
            a.flags.writeable = False
    else:
        phases, series = phases.astype(">f8"), [s.astype(">f8") for s in series]
    _check_writers(tmp_path, _trajectory(phases, series))
