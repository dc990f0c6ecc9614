"""Byte-level checks of the tensor-grid CSV writer against a per-value loop."""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
