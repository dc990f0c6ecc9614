import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave.quadrature import (PANEL_BYTES, cells, check_uniform_grid, corrected_weights,
                                 derivative, max_abs, row_panels, two_product,
                                 uniform_step)
from halfwave.verify import energy


def edge_slope(u, dx):
    # the one-sided fourth-order stencil written out
    return (-25 * u[0] + 48 * u[1] - 36 * u[2] + 16 * u[3] - 3 * u[4]) / (12 * dx)


@pytest.mark.parametrize("n", [5, 6, 64, 1000])
def test_end_nodes_share_one_stencil(n):
    x = np.linspace(0.0, 3.0, n)
    dx = x[1] - x[0]
    u = np.exp(-x) * np.cos(2 * x) + x ** 2
    want0, want1 = edge_slope(u, dx), -edge_slope(u[::-1], dx)
    # summation order may differ; bound by the size of the stencil's terms
    tol = 1e-15 * 128 * np.max(np.abs(u)) / (12 * dx)
    if n >= 6:
        d = derivative(u, dx, 1)
        assert d[0] == pytest.approx(want0, abs=tol)
        assert d[-1] == pytest.approx(want1, abs=tol)
    trap = np.trapezoid(u, dx=dx)
    want = trap + dx * dx / 12.0 * (want0 - want1)
    assert float(corrected_weights(n, dx) @ u) == pytest.approx(want, rel=1e-14)


def test_corrected_rule_is_exact_on_cubics():
    x = np.linspace(0.0, 2.0, 41)
    u = np.stack([x ** 3 - x, 2 * x ** 2 + 1.0])
    assert np.allclose(u @ corrected_weights(x.size, x[1] - x[0]),
                       [2.0, 16.0 / 3 + 2.0], rtol=1e-13, atol=0)


ORDERS = st.sampled_from([1, 2])
NODES = st.integers(6, 200)
STEPS = st.floats(1e-3, 10.0)


# integer coefficients keep every sample normal, where rounding is relative
@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       order=ORDERS, n=NODES, dx=STEPS)
def test_derivative_is_exact_on_quartics(coeffs, order, n, dx):
    # every row of the table, both edges included, is exact to degree 4
    x = dx * np.arange(n)
    p = np.polynomial.Polynomial(coeffs)
    got = derivative(p(x), dx, order)
    # rounding in the samples is at most eps times the sum of |terms|,
    # amplified by the largest row sum, 640 / 12, over dx^order
    scale = np.max(np.polynomial.Polynomial(np.abs(coeffs))(x)) / dx ** order
    assert np.max(np.abs(got - p.deriv(order)(x))) <= 1e-13 * scale


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=ORDERS, n=NODES, dx=STEPS)
def test_derivative_mirrors(seed, order, n, dx):
    u = np.random.default_rng(seed).normal(size=n)
    mirrored = derivative(u[::-1], dx, order)
    want = (-1) ** order * derivative(u, dx, order)[::-1]
    assert np.max(np.abs(mirrored - want)) <= 1e-13 * np.max(np.abs(u)) / dx ** order


class TestStackIndependence:
    """Each row of a stack rounds as it does alone, so a pass in row panels
    gives the bits of the whole-array pass."""

    U, V = np.random.default_rng(7).normal(size=(2, 301, 1024))

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative(self, order):
        stack = derivative(self.U, 0.01, order)
        for i, u in enumerate(self.U):
            assert derivative(u, 0.01, order).tobytes() == stack[i].tobytes()

    def test_energy(self):
        stack = energy(self.U, self.V, 0.01)
        for i, (u, v) in enumerate(zip(self.U, self.V)):
            assert energy(u, v, 0.01).tobytes() == stack[i].tobytes()


class TestRowPanels:
    def test_no_rows_no_panel(self):
        assert row_panels(0, 1024) == []

    @pytest.mark.parametrize("width", [PANEL_BYTES // 8 + 1, 10 ** 6])
    def test_wide_rows_get_one_row_panels(self, width):
        assert row_panels(3, width) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(0, 500), width=st.integers(0, 300),
           nbytes=st.one_of(st.none(), st.integers(1, 20000)))
    def test_panels_tile_the_rows(self, rows, width, nbytes):
        panels = row_panels(rows, width, nbytes)
        covered = [i for p in panels for i in range(rows)[p]]
        assert covered == list(range(rows))
        sizes = [p.stop - p.start for p in panels]
        assert all(size == sizes[0] for size in sizes[:-1])
        assert all(0 < size <= sizes[0] for size in sizes)
        budget = PANEL_BYTES if nbytes is None else nbytes
        assert all(size == 1 or 8 * size * width <= budget for size in sizes)


# steps that differ by more than 1e-10 of a step, by up to about one ulp of
# the largest value: many nodes, or a grid far from 0
@pytest.mark.parametrize("start,stop,num", [(0.0, 30.0, 2 * 10 ** 6),
                                            (1e6, 1e6 + 1.0, 1001)])
def test_a_linspace_is_a_uniform_grid(start, stop, num):
    x = np.linspace(start, stop, num)
    steps = np.diff(x)
    assert np.max(np.abs(steps - steps[0])) > 1e-10 * steps[0]
    check_uniform_grid(x)


def test_two_product_is_exact():
    # p + e = a b exactly: the error term is the product's rounding error
    from fractions import Fraction
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.0, 1.0, 200) * 2.0 ** rng.integers(-60, 60, 200)
    b = rng.uniform(-1.0, 1.0, 200) * 2.0 ** rng.integers(-60, 60, 200)
    p, e = two_product(a, b)
    for ai, bi, pi, ei in zip(a, b, p, e):
        assert pi == ai * bi
        assert Fraction(pi) + Fraction(ei) == Fraction(ai) * Fraction(bi)


@pytest.mark.parametrize("start,stop,num", [(0.0, 30.0, 2048), (0.0, 30.0, 2049),
                                            (0.2, 3.2, 20), (-1.0, 5.0, 1000)])
def test_cells_rebuild_a_linspace(start, stop, num):
    # each cell start is exact, and every point within an ulp of the stored one
    x = np.linspace(start, stop, num)
    (hi, lo), fine = cells(x)
    b = math.isqrt(num - 1) + 1
    assert fine.size == b and hi.size == -(-num // b)
    assert np.array_equal(fine, np.arange(b) * uniform_step(x))
    j, r = np.divmod(np.arange(num), b)
    assert np.max(np.abs((hi[j] - x) + lo[j] + fine[r])) <= np.spacing(max_abs(x))


def test_scattered_points_make_cells_of_one():
    x = np.array([0.0, 0.1, 0.3, 0.4])
    (hi, lo), fine = cells(x)
    assert uniform_step(x) is None
    assert hi is x or np.array_equal(hi, x)
    assert np.all(lo == 0.0) and np.array_equal(fine, [0.0])
