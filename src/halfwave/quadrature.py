"""Shared 1-D quadrature and finite-difference stencils.

All gridded functions in this package live on uniform grids.  One table,
``_STENCILS``, holds every fourth-order derivative stencil, and every x
integral is a dot with :func:`corrected_weights`: trapezoid weights with the
Euler-Maclaurin endpoint correction, which upgrades the trapezoid rule to
fourth order on smooth integrands and is what lets oracle-grade residuals
reach 1e-8 on grids of a few thousand nodes.

It also owns the panel rule of every pass over a large array, the 128 KB
:func:`row_panels`, and :func:`max_abs`; ``derivative`` rounds each row alike
alone or in any stack, so a panelled pass gives the whole-array bits.
"""

import math
import warnings

import numpy as np

PANEL_BYTES = 1 << 17      # a row panel of doubles that stays in L2 cache
DECAY_TOL = 1e-8           # tail/peak above which check_decay warns


class TruncationWarning(UserWarning):
    """Input does not decay inside the truncated computational window."""


def row_panels(rows: int, width: int, nbytes=None) -> list:
    """Consecutive slices of ``range(rows)``, about ``nbytes`` (by default
    PANEL_BYTES) of ``width`` doubles each and at least one row; only the
    last may be short."""
    nbytes = PANEL_BYTES if nbytes is None else nbytes
    step = max(1, nbytes // (8 * max(width, 1)))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def max_abs(a):
    """max|a| without an |a| temporary; NaN if ``a`` holds one."""
    return max(a.max(), -a.min())


def uniform_step(x):
    """The step of ``x`` if it is a uniform increasing 1-D grid, else None.

    That takes at least 2 samples, and steps that are all positive and
    equal to within 1e-10 of a step plus 4 ulps of max|x|: the steps of a
    ``linspace`` differ by up to about one ulp of its largest value, more
    than 1e-10 of a step once the grid has a few million nodes.  The step
    returned is the mean one, (x[-1] - x[0])/(n - 1).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        return None
    steps = np.diff(x)
    tol = 1e-10 * steps[0] + 4 * np.spacing(max_abs(x))
    if np.any(steps <= 0) or not max_abs(steps - steps[0]) <= tol:
        return None
    return float(x[-1] - x[0]) / (x.size - 1)


def check_uniform_grid(x) -> None:
    """Raise ``ValueError`` unless ``x`` is a uniform increasing 1-D grid,
    as :func:`uniform_step` judges it."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-D grid of at least 2 samples")
    if uniform_step(x) is None:
        raise ValueError("x must be a uniform increasing grid")


_SPLITTER = 134217729.0     # 2^27 + 1, which splits a double into two 26-bit halves


def two_product(a, b):
    """``(p, e)`` with p = fl(a b) and p + e = a b exactly (Dekker's product
    with Veltkamp's split), elementwise at broadcastable ``a``, ``b`` whose
    magnitudes are below 2^996."""
    p = a * b
    halves = []
    for v in (a, b):
        hi = v * _SPLITTER
        hi = hi - (hi - v)
        halves.append((hi, v - hi))
    (a1, a2), (b1, b2) = halves
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def cells(p):
    """The points ``p`` (a 1-D array) as cells: ``((hi, lo), fine)``, the
    point i of cell j = i // b being hi[j] + lo[j] + fine[i % b].

    On a uniform grid (:func:`uniform_step`) of n points, b = ceil(sqrt(n)):
    cell j starts at p[0] + j b h exactly, h the mean step, held as the
    pair hi + lo, and fine holds the offsets r h, r < b, rounded.  Each
    point is then within about one ulp of the stored one (half an ulp for
    a ``linspace`` from 0), and a function of the n points can be sampled
    on about 2 sqrt(n) values.  Any other point set has cells of one point:
    hi = p, lo = 0 and fine = [0].
    """
    p = np.asarray(p, dtype=float)
    h = uniform_step(p)
    if h is None:
        return (p, np.zeros(p.size)), np.zeros(1)
    b = math.isqrt(p.size - 1) + 1
    u, v = two_product(np.arange(0, p.size, b, dtype=float), h)
    # p[0] + u + v: the rounded sum, and its error (Knuth's two-sum) plus v
    hi = p[0] + u
    lo = (p[0] - (hi - (hi - p[0]))) + (u - (hi - p[0])) + v
    return (hi, lo), np.arange(b) * h


def trapezoid_weights(n, dx):
    """Trapezoid quadrature weights for ``n`` uniform nodes of spacing ``dx``."""
    w = np.full(n, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


# fourth-order derivative stencils times 12 dx^order, by order: the centred
# row on offsets -2..2, then the one-sided rows of the first nodes; the last
# nodes take these rows reversed, negated for odd order
_STENCILS = {
    1: ((1, -8, 0, 8, -1),
        ((-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1))),
    2: ((-1, 16, -30, 16, -1),
        ((45, -154, 214, -156, 61, -10), (10, -15, -4, 14, -6, 1))),
}
# the Euler-Maclaurin edge weights are the first order-1 edge row
_EM_EDGE = np.array(_STENCILS[1][1][0]) / 12.0


def corrected_weights(n, dx):
    """Trapezoid weights with the Euler-Maclaurin endpoint correction folded in.

    Adds dx^2/12 (h'(a) - h'(b)) with the one-sided end slopes of
    :func:`derivative`, making the rule fourth order (exact on cubics).
    Fewer than 5 nodes get the plain trapezoid weights.
    """
    w = trapezoid_weights(n, dx)
    if n >= 5:
        w[:5] += dx / 12.0 * _EM_EDGE
        w[-5:] += dx / 12.0 * _EM_EDGE[::-1]
    return w


def derivative(u, dx, order):
    """Fourth-order derivative of ``order`` 1 or 2 along the last axis,
    one-sided at the ends; each row rounds the same alone or in a stack."""
    centre, edges = _STENCILS[order]
    u = np.asarray(u, dtype=float)
    d = np.zeros_like(u)
    inner = d[..., 2:-2]
    term = np.empty_like(inner)     # one buffer for every stencil term
    for j, c in enumerate(centre):
        if c:
            inner += np.multiply(u[..., j:j + u.shape[-1] - 4], c, out=term)
    # edge rows summed along the row: a matrix product rounds by the stack
    for i, row in enumerate(edges):
        d[..., i] = (u[..., :len(row)] * row).sum(axis=-1)
        d[..., -1 - i] = (-1) ** order * (u[..., :-len(row) - 1:-1] * row).sum(axis=-1)
    d /= 12 * dx ** order
    return d


# one-sided sixth-order first derivative at an end node, times dx
_D1_EDGE6 = np.array([-49.0 / 20, 6.0, -15.0 / 2, 20.0 / 3, -15.0 / 4, 6.0 / 5, -1.0 / 6])


def boundary_derivative(u, dx):
    """Inward first derivative at the first grid node (one-sided sixth-order
    stencil)."""
    head = np.asarray(u, dtype=float)[: _D1_EDGE6.size]
    return float(np.dot(_D1_EDGE6, head)) / dx


def check_decay(f, dx, what="input", scale=None):
    """Warn if samples near the far end of the window are not negligible.

    ``scale`` is the peak max|f| when the caller has it already.
    """
    f = np.asarray(f)
    if scale is None:
        scale = max_abs(f)
    if scale == 0:
        return
    tail = max_abs(f[..., -max(2, f.shape[-1] // 100):])
    if tail > DECAY_TOL * scale:
        warnings.warn(
            f"{what} has not decayed at the window edge "
            f"(tail/peak = {tail / scale:.2e}); results carry truncation error",
            TruncationWarning, stacklevel=3)
