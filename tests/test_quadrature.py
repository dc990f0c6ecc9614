import numpy as np
import pytest

from halfwave.quadrature import (boundary_derivative, corrected_weights,
                                 first_derivative, integrate)


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
    assert boundary_derivative(u, dx, order=4) == pytest.approx(want0, abs=tol)
    if n >= 6:
        d = first_derivative(u, dx)
        assert d[0] == pytest.approx(want0, abs=tol)
        assert d[-1] == pytest.approx(want1, abs=tol)
    trap = np.trapezoid(u, dx=dx)
    want = trap + dx * dx / 12.0 * (want0 - want1)
    assert integrate(u, dx) == pytest.approx(want, rel=1e-14)
    assert float(corrected_weights(n, dx) @ u) == pytest.approx(want, rel=1e-13)


def test_corrected_rule_is_exact_on_cubics():
    x = np.linspace(0.0, 2.0, 41)
    u = np.stack([x ** 3 - x, 2 * x ** 2 + 1.0])
    assert np.allclose(integrate(u, x[1] - x[0]), [2.0, 16.0 / 3 + 2.0],
                       rtol=1e-13, atol=0)
