"""Closed-form oracles the benchmark checks halfwave's outputs against.

Everything here runs in the benchmark's parent process, after the worker
that produced the outputs has exited, so none of it is timed.
"""

from __future__ import annotations

import numpy as np

GUARD = 0.05


def robin_kernel(t, x, y, alpha):
    """Causal kernel of -d^2/dx^2 on the half line at k = 0, by closed form.

    For t >= 0 and the Robin condition u'(0) = alpha u(0):

        G = 1/2 theta(t - |x - y|) + theta(t - x - y) (exp(-alpha (t - x - y)) - 1/2)

    and G is odd in t.  alpha = 0 is Neumann and ``alpha=None`` is Dirichlet
    (the alpha -> +inf limit, where the reflected term is -1/2).  For
    alpha < 0 the exponential is the bound state's growth exp(kappa s),
    kappa = -alpha.  The step functions make the formula exact only away
    from the two characteristics; compare on :func:`off_characteristics`.
    """
    t, x, y = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, x, y)))
    s = np.abs(t)
    lag = s - (x + y)
    direct = 0.5 * (s > np.abs(x - y))
    if alpha is None:
        reflected = np.where(lag > 0, -0.5, 0.0)
    else:
        reflected = np.where(lag > 0, np.exp(-alpha * np.maximum(lag, 0.0)) - 0.5, 0.0)
    return np.sign(t) * (direct + reflected)


def off_characteristics(t, x, y, guard: float = GUARD):
    """Mask of points at least ``guard`` away from both characteristics."""
    s = np.abs(t)
    return (np.abs(s - np.abs(x - y)) > guard) & (np.abs(s - (x + y)) > guard)


def gaussian_source(src: dict, t, x):
    """The CLI's separable Gaussian source, rebuilt from its config section."""
    return float(src["amplitude"]) * np.exp(
        -((t[:, None] - float(src["t0"])) ** 2) / (2 * float(src["sigma_t"]) ** 2)
        - ((x[None, :] - float(src["x0"])) ** 2) / (2 * float(src["sigma_x"]) ** 2))


def rel_l2(a, b) -> float:
    return float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b * b)))
