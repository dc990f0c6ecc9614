"""Byte-level checks of the tensor-grid CSV writer against a per-value loop."""

import itertools
import json
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from halfwave import g17, propagator
from halfwave.cli import main
from halfwave.propagator import write_grid_csv

SPECIAL = [-0.0, 0.0, 1.0, 1e300, -3.3e-310, np.inf, -np.inf, np.nan]


def reference_csv(header, axes, values):
    """One ``f"{v:.17g}"`` per number, last axis innermost."""
    lines = [header + "\n"]
    for idx in itertools.product(*(range(len(a)) for a in axes)):
        cols = [a[i] for a, i in zip(axes, idx)] + [values[idx]]
        lines.append(",".join(f"{v:.17g}" for v in cols) + "\n")
    return "".join(lines).encode()


def written(path, header, axes, values):
    write_grid_csv(path, header, axes, values)
    return Path(path).read_bytes()


def special_values(shape):
    return np.resize(np.array(SPECIAL), shape)


@pytest.mark.parametrize("shape", [(1,), (8,), (1, 1), (1, 5), (4, 1), (3, 5),
                                   (1, 1, 1), (2, 1, 3), (3, 4, 2)])
def test_matches_per_value_loop(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    axes = [np.sort(rng.uniform(-3.0, 3.0, n)) for n in shape]
    header = ",".join("txy"[: len(shape)]) + ",value"
    values = special_values(shape)
    got = written(tmp_path / "grid.csv", header, axes, values)
    assert got == reference_csv(header, axes, values)


def test_special_values_on_the_axes(tmp_path):
    axes = [np.array([-0.0, 1e300]), np.array([-3.3e-310, 0.0, 1.0])]
    values = special_values((2, 3))
    got = written(tmp_path / "grid.csv", "a,b,value", axes, values)
    assert got == reference_csv("a,b,value", axes, values)
    assert b"-0,-3.3000000000000245e-310,-0\n" in got


@pytest.mark.parametrize("shape", [(2 * propagator._CSV_CHUNK + 5,),
                                   (2, 3 * propagator._CSV_CHUNK + 7)])
def test_runs_longer_than_a_block(tmp_path, shape):
    # each run of the last axis is split across blocks
    rng = np.random.default_rng(len(shape))
    axes = [np.sort(rng.uniform(-3.0, 3.0, n)) for n in shape]
    axes[-1][:len(SPECIAL)] = SPECIAL
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    values.ravel()[::97] = special_values(values.size)[::97]
    got = written(tmp_path / "grid.csv", "h", axes, values)
    assert got == reference_csv("h", axes, values)


def test_peak_memory_does_not_grow_with_the_last_axis(tmp_path):
    # the block holds at most _CSV_CHUNK rows and a split run's axis cells
    # are formatted one piece at a time; formatting the whole 200 000-value
    # axis at once would take about 25 MB
    axes = [np.array([0.25, -1.5]), np.linspace(0.0, 3.0, 200_000)]
    values = np.sin(np.arange(400_000, dtype=float)).reshape(2, 200_000)
    write_grid_csv(tmp_path / "warm.csv", "t,x,value", axes[:1], values[:, 0])
    tracemalloc.start()
    try:
        write_grid_csv(tmp_path / "grid.csv", "t,x,value", axes, values)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 3_000_000


def test_empty_axis_writes_header_only(tmp_path):
    axes = [np.linspace(0.0, 1.0, 3), np.array([])]
    got = written(tmp_path / "grid.csv", "t,x,value", axes, np.zeros((3, 0)))
    assert got == b"t,x,value\n"


def test_value_count_must_match_axes(tmp_path):
    with pytest.raises(ValueError):
        write_grid_csv(tmp_path / "grid.csv", "t,x,value",
                       [np.zeros(2), np.zeros(3)], np.zeros(5))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(data=st.data(),
       shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
def test_random_finite_grids(data, shape):
    axes = [data.draw(hnp.arrays(np.float64, n, elements=finite)) for n in shape]
    values = data.draw(hnp.arrays(np.float64, shape, elements=finite))
    with tempfile.TemporaryDirectory() as tmp:
        got = written(Path(tmp) / "grid.csv", "h", axes, values)
    assert got == reference_csv("h", axes, values)


# ---------------------------------------------------------------------------
# the vectorized formatter behind the writer

def table_csv(tmp_path, numbers):
    """The writer's and the per-value loop's bytes for one column of numbers,
    with the negated numbers as the value column."""
    axes = [np.asarray(numbers, dtype=float)]
    values = -axes[0]
    return (written(tmp_path / "table.csv", "v,value", axes, values),
            reference_csv("v,value", axes, values))


def neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


@settings(max_examples=25, deadline=None)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       cols=st.one_of(st.integers(1, 700),
                      st.integers(propagator._CSV_CHUNK + 1, 3 * propagator._CSV_CHUNK)),
       mid=st.one_of(st.none(), st.integers(1, 3)), extra=st.integers(1, 2000))
def test_raw_bit_patterns_across_chunks(bits, cols, mid, extra):
    # NaN payloads, subnormals, +-0 and +-inf included; the grid is longer
    # than one block, so blocks end between runs of the last axis, and a
    # last axis longer than _CSV_CHUNK splits its runs across blocks
    pool = np.array(bits, dtype=np.uint64).view(np.float64)
    inner = (cols,) if mid is None else (mid, cols)
    rows = -(-(propagator._CSV_CHUNK + extra) // math.prod(inner))
    values = np.resize(pool, (rows,) + inner)
    axes = [np.resize(pool[::-1], rows)] + [np.resize(np.roll(pool, j), n)
                                            for j, n in enumerate(inner, 1)]
    header = "t,x,value" if mid is None else "t,x,y,value"
    with tempfile.TemporaryDirectory() as tmp:
        got = written(Path(tmp) / "grid.csv", header, axes, values)
    assert got == reference_csv(header, axes, values)


def test_powers_of_ten_and_their_neighbours(tmp_path):
    # 1e20, 1e-07 and 1e23 are where exact comparisons against 1e16 and 1e17
    # pick the wrong exponent
    powers = [float(f"1e{e}") for e in range(-323, 309)]
    got, want = table_csv(tmp_path, neighbours(powers))
    assert got == want
    for text in (b"1e+20", b"9.9999999999999995e-08", b"9.9999999999999992e+22"):
        assert b"\n" + text + b"," in got


@pytest.mark.parametrize("numbers", [
    [1e-79, 1e-176],                      # just below 10^E, carried to 1eE
    neighbours([1e-4, 9.9999999999999991e-05, 1e16, 1e17]),   # %g switches
    [5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    [0.0, -0.0, 1.0, -0.0, 0.0, 5e-324],  # signed zeros, on the fast path
    neighbours([1e-250, 1e250, 0.5, 0.1, 2.0 ** -25, 2.0 ** 60]),
])
def test_edge_cases(tmp_path, numbers):
    got, want = table_csv(tmp_path, numbers)
    assert got == want


def test_exact_ties_round_half_even(tmp_path):
    got, want = table_csv(tmp_path, [1000000000000000.25, 1000000000000000.75])
    assert got == want
    assert b"\n1000000000000000.2,-1000000000000000.2\n" in got
    assert b"\n1000000000000000.8,-1000000000000000.8\n" in got


@pytest.mark.parametrize("command, stem, sidecar, header", [
    ("evolve", "field", "field.sidecar.json", "t,x,value"),
    ("kernel", "kernel", "kernel.json", "t,x,y,value")])
def test_default_outputs_match_per_value_loop(tmp_path, command, stem, sidecar, header):
    # the whole file at the command's defaults, 480 x 1024 rows for evolve,
    # against the .bin payload on the axes its sidecar records
    assert main(["--out", str(tmp_path), command]) == 0
    recorded = json.loads((tmp_path / sidecar).read_text())["axes"]
    axes = [np.linspace(*recorded[name][:2], recorded[name][2])
            for name in header.split(",")[:-1]]
    values = np.fromfile(tmp_path / f"{stem}.bin").reshape([a.size for a in axes])
    assert (tmp_path / f"{stem}.csv").read_bytes() == reference_csv(header, axes, values)


def test_default_field_never_falls_back(tmp_path, monkeypatch):
    # a slide of ordinary values onto the per-value path would keep the bytes
    # and lose the speed; the field's exact zeros take the fast path too
    slow = []
    original = g17._fallback
    monkeypatch.setattr(g17, "_fallback", lambda v: slow.append(v) or original(v))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"evolve": {"t_max": 6.0, "steps": 120}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path), "evolve"]) == 0
    field = np.fromfile(tmp_path / "field.bin")
    assert np.count_nonzero(field == 0.0) > 0
    assert slow == []


def test_signed_zeros_take_the_fast_path(monkeypatch):
    monkeypatch.setattr(g17, "_fallback", None)
    rows = g17.text([0.0, -0.0, 1.0, -0.0, 0.0])
    assert [bytes(r[r != 0]) for r in rows] == [b"0", b"-0", b"1", b"-0", b"0"]


def test_power_table_matches_exact_rationals():
    # hi = fl(10^q) and lo = fl(10^q - hi) from Fractions, signs of lo included
    q = range(g17._Q_MIN, g17._Q_MAX + 1)
    hi = np.array([float(Fraction(10) ** p) for p in q])
    lo = np.array([float(Fraction(10) ** p - Fraction(h)) for p, h in zip(q, hi)])
    table = g17._pow10()
    assert table[0].tobytes() == hi.tobytes()
    assert table[-1].tobytes() == lo.tobytes()
    assert np.count_nonzero(np.signbit(lo)) > 0 and np.count_nonzero(lo == 0) > 0
