"""Boundary trace algebra for the half-line operator -d^2/dx^2 + k^2.

Provides the two trace maps at x = 0 (value and inward derivative), the
symmetric-difference residual of the boundary Green identity, the explicit
Weyl function -sqrt(k^2 - lambda), the spectral membership test it induces,
and a certified lower bound for realizations with semibounded boundary
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .model import BoundaryCondition
from .quadrature import (boundary_derivative, check_decay, corrected_weights,
                         derivative, row_panels)


@dataclass(frozen=True)
class TraceMaps:
    """Evaluators of u(0) and the inward derivative u'(0) on sampled functions.

    The derivative trace uses the one-sided sixth-order stencil, which keeps
    trace errors near 1e-12 on grids with dx ~ 1e-2.
    """

    dx: float

    def gamma0(self, u) -> float:
        return float(np.asarray(u)[0])

    def gamma1(self, u) -> float:
        return boundary_derivative(u, self.dx)


@dataclass(frozen=True)
class WeylValue:
    """Value of the Weyl function at spectral parameter lambda and mode k."""

    lam: float
    k: float
    value: float


def weyl_function(lam: float, k: float = 0.0) -> WeylValue:
    """Weyl function M(lambda) = -sqrt(k^2 - lambda) for lambda < 0.

    Negative square-root convention throughout (the k = 0 value is
    -sqrt(-lambda)); membership tests only use the root of
    alpha + sqrt(k^2 - lambda), so verdicts do not depend on this sign.
    """
    if lam >= 0:
        raise ValueError("lambda must lie below the Dirichlet spectrum (lambda < 0)")
    return WeylValue(lam=float(lam), k=float(k), value=-float(np.sqrt(k * k - lam)))


def greens_identity_residual(f1, f2, x) -> float:
    """Defect of the boundary Green identity for two sampled functions.

    Computes | (A f1, f2) - (f1, A f2) - [g1(f1) g0(f2) - g0(f1) g1(f2)] |
    with A = -d^2/dx^2 + k^2 applied by fourth-order stencils and the inner
    products by endpoint-corrected trapezoid quadrature.  The k^2 terms
    cancel identically, (k^2 f1, f2) = (f1, k^2 f2), so they are not formed:
    the residual is the same at every k, and no product k^2 f can overflow
    or swamp the second derivatives.  For twice differentiable inputs
    decaying inside the window the residual is pure discretization error,
    at the 1e-8 scale on a 3000-node grid.

    Parameters
    ----------
    f1, f2 : sampled functions on the uniform grid ``x``.
    x : uniform grid starting at 0.
    """
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    check_decay(f1, dx, what="first argument")
    check_decay(f2, dx, what="second argument")
    a1 = -derivative(f1, dx, 2)
    a2 = -derivative(f2, dx, 2)
    w = corrected_weights(x.size, dx)
    lhs = w @ (a1 * f2) - w @ (f1 * a2)
    tr = TraceMaps(dx=dx)
    boundary = tr.gamma1(f1) * tr.gamma0(f2) - tr.gamma0(f1) * tr.gamma1(f2)
    return abs(lhs - boundary)


def lower_bound_estimate(m_theta: float, m_a0: float) -> float:
    """Certified spectral lower bound m_theta*m_a0/(m_theta + m_a0).

    Valid whenever the boundary operator bound exceeds minus the Dirichlet
    bound, i.e. m_theta > -m_a0; otherwise raises.
    """
    if not m_theta > -m_a0:
        raise ValueError("inapplicable: requires m_theta > -m_a0")
    if m_theta == 0.0:
        return 0.0
    return m_theta * m_a0 / (m_theta + m_a0)


IN_SPECTRUM = "IN_SPECTRUM"
NOT_IN_SPECTRUM = "NOT_IN_SPECTRUM"
K_SAMPLES = 2001    # points of an interval k_range (:func:`_k_sample`)


def _alpha_sample(bc: BoundaryCondition, k: np.ndarray) -> np.ndarray:
    """theta(k), the per-mode Robin coefficient, on a k sample.  Dirichlet is
    its infinite-coupling limit, theta = inf: nothing vanishes below the
    continuum.  It does not depend on lambda, so scans evaluate it once."""
    if bc.kind == "dirichlet":
        return np.full(k.shape, np.inf)
    return np.array([bc.effective_alpha(kv) for kv in k], dtype=float)


def _scan_witness(alpha, lam: np.ndarray, k: np.ndarray):
    """Witness of theta(k) + sqrt(k^2 - lambda) over a k sample, per lambda.

    ``alpha`` is theta on the sample (:func:`_alpha_sample`).  The values
    are formed on one ``row_panels`` block of (lambda x k) values at a time:
    8 rows of a ``K_SAMPLES`` k interval, which scanned faster than 2^16-value
    blocks.  Returns three arrays over ``lam``: the finite value closest to
    0 (the first one on ties; inf when none is finite), its k index (0 when
    none) and whether the finite values change sign.
    """
    value = np.empty(lam.shape)
    index = np.empty(lam.shape, dtype=int)
    change = np.empty(lam.shape, dtype=bool)
    kk = k * k
    for sl in row_panels(lam.size, k.size):
        vals = np.sqrt(kk - lam[sl, None])
        vals += alpha
        finite = np.isfinite(vals)
        dist = np.abs(vals)
        dist[~finite] = np.inf
        # a row with no finite value has dist all inf, so argmin gives 0
        index[sl] = idx = dist.argmin(axis=1)
        best = np.take_along_axis(vals, idx[:, None], axis=1)[:, 0]
        value[sl] = np.where(np.isfinite(best), best, np.inf)
        change[sl] = (((vals < 0.0) & finite).any(axis=1)
                      & ((vals > 0.0) & finite).any(axis=1))
    return value, index, change


def _k_sample(k_range: Union[float, tuple, Iterable[float]]) -> np.ndarray:
    """Wavenumbers of a ``k_range``: one k, an interval ``(k_min, k_max)``
    sampled at ``K_SAMPLES`` points, or an explicit sample."""
    if isinstance(k_range, (int, float)):
        return np.array([float(k_range)])
    if isinstance(k_range, tuple) and len(k_range) == 2:
        return np.linspace(float(k_range[0]), float(k_range[1]), K_SAMPLES)
    return np.asarray(list(k_range), dtype=float)


def spectrum_scan(bc: BoundaryCondition, lam_grid,
                  k_range: Union[float, tuple, Iterable[float]] = 0.0,
                  tol: float = 1e-9):
    """Scan spectral membership over a lambda grid.

    Returns a list of rows ``(lam, k_ref, theta_minus_weyl_min, verdict)``
    where the third column is the signed value closest to zero over the
    k sample (the root-finding witness behind each verdict).  The whole
    grid goes through :func:`_scan_witness`, blocks of lambda rows against
    the k sample; lambda is in the spectrum when that value is within
    ``tol`` of 0 or the finite values change sign.
    """
    ks = _k_sample(k_range)
    lam = np.asarray(lam_grid, dtype=float)
    value, index, change = _scan_witness(_alpha_sample(bc, ks), lam, ks)
    hit = (np.abs(value) <= tol) | change
    return [(float(l), float(ks[i]), float(v), IN_SPECTRUM if h else NOT_IN_SPECTRUM)
            for l, i, v, h in zip(lam, index, value, hit)]


def negative_spectrum_roots(bc: BoundaryCondition, lam_min: float,
                            step: float = 1e-3,
                            k_range: Union[float, tuple] = 0.0) -> list:
    """Locate zero crossings of theta(k) + sqrt(k^2 - lambda) in (lam_min, 0).

    Evaluates the witness of :func:`_scan_witness` on the whole lambda grid
    in one call, then refines every sign-change bracket together: 60 joint
    halvings, each one witness call over all the brackets' midpoints.
    Returns the refined negative spectral points in increasing order (point
    spectrum below the continuum for single-k problems, band edges for
    interval k ranges).
    """
    lam_grid = np.arange(lam_min, 0.0, step)
    ks = _k_sample(k_range)
    alpha = _alpha_sample(bc, ks)
    w = _scan_witness(alpha, lam_grid, ks)[0]
    pairs = np.flatnonzero(np.isfinite(w[:-1]) & np.isfinite(w[1:]))
    exact = pairs[w[pairs] == 0.0]
    bracket = pairs[w[pairs] * w[pairs + 1] < 0]
    lo, hi, flo = lam_grid[bracket], lam_grid[bracket + 1], w[bracket]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _scan_witness(alpha, mid, ks)[0]
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
    roots = lam_grid.copy()
    roots[bracket] = 0.5 * (lo + hi)
    return [float(r) for r in roots[np.union1d(exact, bracket)]]
