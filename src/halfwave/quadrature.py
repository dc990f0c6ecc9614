"""Shared 1-D quadrature and finite-difference stencils.

All gridded functions in this package live on uniform grids.  Inner products
use trapezoid weights with the Euler-Maclaurin endpoint correction, which
upgrades the trapezoid rule to fourth order on smooth integrands and is
what lets oracle-grade residuals reach 1e-8 on grids of a few thousand nodes.
"""

import warnings

import numpy as np


class TruncationWarning(UserWarning):
    """Input does not decay inside the truncated computational window."""


def check_uniform_grid(x) -> None:
    """Raise ``ValueError`` unless ``x`` is a uniform increasing 1-D grid.

    That takes at least 2 samples, and steps that are all positive and
    equal to relative precision 1e-10.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-D grid of at least 2 samples")
    steps = np.diff(x)
    if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-10):
        raise ValueError("x must be a uniform increasing grid")


def trapezoid_weights(n, dx):
    """Trapezoid quadrature weights for ``n`` uniform nodes of spacing ``dx``."""
    w = np.full(n, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# one-sided fourth-order first derivative at an end node, times 12 dx; the
# Euler-Maclaurin edge weights and every end-node derivative share it
_D1_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_EM_EDGE = _D1_EDGE / 12.0


def corrected_weights(n, dx):
    """Trapezoid weights with the Euler-Maclaurin endpoint correction folded in.

    Dotting samples with these weights equals :func:`integrate`; the vector
    form lets stacked integrals run as matrix products.
    """
    w = trapezoid_weights(n, dx)
    if n >= 5:
        w[:5] += dx / 12.0 * _EM_EDGE
        w[-5:] += dx / 12.0 * _EM_EDGE[::-1]
    return w


def _endpoint_slopes(h, dx):
    # one-sided fourth-order first derivatives at the two ends
    c = _D1_EDGE / (12 * dx)
    return h[..., :5] @ c, -(h[..., :-6:-1] @ c)


def integrate(h, dx):
    """Integrate sampled values along the last axis.

    The trapezoid sum gets the Euler-Maclaurin endpoint term
    dx^2/12 (h'(a) - h'(b)), making the rule fourth order.  Fewer than 5
    samples get the plain trapezoid sum.
    """
    v = np.trapezoid(h, dx=dx, axis=-1)
    if h.shape[-1] >= 5:
        d0, d1 = _endpoint_slopes(h, dx)
        v = v + dx * dx / 12.0 * (d0 - d1)
    return v


def inner_product(f, g, dx):
    """L2 inner product of two sampled functions on a uniform grid."""
    return integrate(f * g, dx)


def l2_norm(f, dx):
    return float(np.sqrt(max(inner_product(f, f, dx), 0.0)))


def first_derivative(u, dx):
    """Fourth-order first derivative, one-sided at the ends."""
    u = np.asarray(u, dtype=float)
    d = np.empty_like(u)
    d[..., 2:-2] = (u[..., :-4] - 8 * u[..., 1:-3]
                    + 8 * u[..., 3:-1] - u[..., 4:]) / (12 * dx)
    d[..., 0], d[..., -1] = _endpoint_slopes(u, dx)
    d[..., 1] = (-3 * u[..., 0] - 10 * u[..., 1] + 18 * u[..., 2]
                 - 6 * u[..., 3] + u[..., 4]) / (12 * dx)
    d[..., -2] = (3 * u[..., -1] + 10 * u[..., -2] - 18 * u[..., -3]
                  + 6 * u[..., -4] - u[..., -5]) / (12 * dx)
    return d


def second_derivative(u, dx):
    """Fourth-order second derivative, one-sided at the ends."""
    u = np.asarray(u, dtype=float)
    d = np.empty_like(u)
    d[..., 2:-2] = (-u[..., :-4] + 16 * u[..., 1:-3] - 30 * u[..., 2:-2]
                    + 16 * u[..., 3:-1] - u[..., 4:]) / (12 * dx * dx)
    d[..., 0] = (45 * u[..., 0] - 154 * u[..., 1] + 214 * u[..., 2]
                 - 156 * u[..., 3] + 61 * u[..., 4] - 10 * u[..., 5]) / (12 * dx * dx)
    d[..., 1] = (10 * u[..., 0] - 15 * u[..., 1] - 4 * u[..., 2]
                 + 14 * u[..., 3] - 6 * u[..., 4] + u[..., 5]) / (12 * dx * dx)
    d[..., -2] = (10 * u[..., -1] - 15 * u[..., -2] - 4 * u[..., -3]
                  + 14 * u[..., -4] - 6 * u[..., -5] + u[..., -6]) / (12 * dx * dx)
    d[..., -1] = (45 * u[..., -1] - 154 * u[..., -2] + 214 * u[..., -3]
                  - 156 * u[..., -4] + 61 * u[..., -5] - 10 * u[..., -6]) / (12 * dx * dx)
    return d


# one-sided sixth-order first derivative at an end node, times dx
_D1_EDGE6 = np.array([-49.0 / 20, 6.0, -15.0 / 2, 20.0 / 3, -15.0 / 4, 6.0 / 5, -1.0 / 6])


def boundary_derivative(u, dx):
    """Inward first derivative at the first grid node (one-sided sixth-order
    stencil)."""
    head = np.asarray(u, dtype=float)[: _D1_EDGE6.size]
    return float(np.dot(_D1_EDGE6, head)) / dx


def check_decay(f, dx, rel_tol=1e-8, what="input"):
    """Warn if samples near the far end of the window are not negligible."""
    f = np.asarray(f)
    scale = np.max(np.abs(f))
    if scale == 0:
        return
    tail = np.max(np.abs(f[..., -max(2, f.shape[-1] // 100):]))
    if tail > rel_tol * scale:
        warnings.warn(
            f"{what} has not decayed at the window edge "
            f"(tail/peak = {tail / scale:.2e}); results carry truncation error",
            TruncationWarning, stacklevel=3)
