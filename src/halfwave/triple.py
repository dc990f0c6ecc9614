"""Boundary trace algebra for the half-line operator -d^2/dx^2 + k^2.

Provides the two trace maps at x = 0 (value and inward derivative), the
symmetric-difference residual of the boundary Green identity, membership
tests for the domain of a chosen self-adjoint realization, the decay rate
spanning the deficiency spaces, the Cayley transform linking the boundary
operator to the unitary parametrization of extensions, the explicit
Weyl function -sqrt(k^2 - lambda), the spectral membership test it induces,
and a certified lower bound for realizations with semibounded boundary
operators.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .model import BoundaryCondition
from .quadrature import (boundary_derivative, check_decay, inner_product,
                         second_derivative)


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


def deficiency_decay(lam: complex) -> complex:
    """Decay rate mu with Re mu > 0 and mu^2 = -lambda (principal branch).

    exp(-mu x) then spans the kernel of the adjoint minus lambda on the half
    line.  Raises for lambda on the nonnegative real axis, where the branch
    degenerates.
    """
    lam = complex(lam)
    if lam.imag == 0.0 and lam.real >= 0.0:
        raise ValueError("lambda on [0, inf) does not give a decaying solution")
    mu = cmath.sqrt(-lam)
    if mu.real < 0:
        mu = -mu
    return mu


def cayley_unitary(theta: float) -> complex:
    """Unimodular number C(-theta) = (-theta - i)/(-theta + i)."""
    t = float(theta)
    return (-t - 1j) / (-t + 1j)


def greens_identity_residual(f1, f2, k: float, x) -> float:
    """Defect of the boundary Green identity for two sampled functions.

    Computes | (A f1, f2) - (f1, A f2) - [g1(f1) g0(f2) - g0(f1) g1(f2)] |
    with A = -d^2/dx^2 + k^2 applied by fourth-order stencils and the inner
    products by endpoint-corrected trapezoid quadrature.  For twice
    differentiable inputs decaying inside the window the residual is pure
    discretization error, at the 1e-8 scale on a 3000-node grid.

    Parameters
    ----------
    f1, f2 : sampled functions on the uniform grid ``x``.
    k : transverse wavenumber.
    x : uniform grid starting at 0.
    """
    k = float(k)
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    check_decay(f1, dx, what="first argument")
    check_decay(f2, dx, what="second argument")
    a1 = -second_derivative(f1, dx) + k * k * f1
    a2 = -second_derivative(f2, dx) + k * k * f2
    lhs = inner_product(a1, f2, dx) - inner_product(f1, a2, dx)
    tr = TraceMaps(dx=dx)
    boundary = tr.gamma1(f1) * tr.gamma0(f2) - tr.gamma0(f1) * tr.gamma1(f2)
    return abs(lhs - boundary)


def extension_membership(u, bc: BoundaryCondition, k: float, x,
                         tol: float = 1e-8):
    """Check whether a sampled function satisfies the boundary condition.

    Returns ``(ok, residual)`` where the residual is |u'(0) - alpha u(0)|
    for Robin-type conditions (|u(0)| for Dirichlet) and ``ok`` marks
    residual <= tol.  The dynamical condition has no static membership test;
    use the space-time residual in :mod:`halfwave.verify` instead.
    """
    if bc.is_dynamic:
        raise ValueError("dynamical condition: test space-time fields with "
                         "verify.bc_residual")
    x = np.asarray(x, dtype=float)
    tr = TraceMaps(dx=float(x[1] - x[0]))
    alpha = bc.effective_alpha(k)
    if alpha is None:
        residual = abs(tr.gamma0(u))
    else:
        residual = abs(tr.gamma1(u) - alpha * tr.gamma0(u))
    return residual <= tol, residual


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


def _alpha_sample(bc: BoundaryCondition, k: np.ndarray):
    """theta(k), the per-mode Robin coefficient, on a k sample; None for
    Dirichlet.  It does not depend on lambda, so scans evaluate it once."""
    if bc.kind == "dirichlet":
        return None
    return np.array([bc.effective_alpha(kv) for kv in k], dtype=float)


def _theta_minus_weyl(alpha, lam: float, k: np.ndarray) -> np.ndarray:
    """theta(k) + sqrt(k^2 - lambda) on a k sample, theta from :func:`_alpha_sample`."""
    if alpha is None:
        # Dirichlet is the degenerate realization: no finite boundary operator,
        # nothing to vanish below the continuum.
        return np.full_like(k, np.inf)
    return alpha + np.sqrt(k * k - lam)


def _closest_to_zero(vals: np.ndarray):
    """Index of the finite value of ``vals`` closest to 0 (the first one on
    ties), or None when no value is finite: the witness of a scan over k."""
    dist = np.abs(vals)
    idx = int(dist.argmin())
    if math.isnan(dist[idx]):
        # argmin stops at the first NaN: look again among finite values only
        dist[~np.isfinite(vals)] = np.inf
        idx = int(dist.argmin())
    return idx if math.isfinite(vals[idx]) else None


def _k_sample(k_range: Union[float, tuple, Iterable[float]],
              samples: int) -> np.ndarray:
    """Wavenumbers of a ``k_range``: one k, an interval ``(k_min, k_max)``
    sampled at ``samples`` points, or an explicit sample."""
    if isinstance(k_range, (int, float)):
        return np.array([float(k_range)])
    if isinstance(k_range, tuple) and len(k_range) == 2:
        return np.linspace(float(k_range[0]), float(k_range[1]), samples)
    return np.asarray(list(k_range), dtype=float)


def spectrum_test(lam: float, bc: BoundaryCondition,
                  k_range: Union[float, tuple, Iterable[float]] = 0.0,
                  samples: int = 2001, tol: float = 1e-9) -> str:
    """Spectral membership of lambda < 0 for the realization chosen by ``bc``.

    lambda belongs to the spectrum iff 0 lies in the closure of
    {theta(k) + sqrt(k^2 - lambda)} over admissible k.  ``k_range`` is a
    single wavenumber (n = 0 style), an interval ``(k_min, k_max)``, or an
    explicit sample of wavenumbers.  Interval input is sampled and decided
    by sign change or |value| <= tol on the min/max envelope; the verdict
    is that of :func:`spectrum_scan` on the single lambda.
    """
    if lam >= 0:
        raise ValueError("spectrum_test scans below the continuum: lambda < 0")
    return spectrum_scan(bc, [lam], k_range, samples, tol)[0][3]


def spectrum_scan(bc: BoundaryCondition, lam_grid,
                  k_range: Union[float, tuple, Iterable[float]] = 0.0,
                  samples: int = 2001, tol: float = 1e-9):
    """Scan spectral membership over a lambda grid.

    Returns a list of rows ``(lam, k_ref, theta_minus_weyl_min, verdict)``
    where the third column is the signed value closest to zero over the
    k sample (the root-finding witness behind each verdict).
    """
    rows = []
    ks = _k_sample(k_range, samples)
    alpha = _alpha_sample(bc, ks)
    for lam in np.asarray(lam_grid, dtype=float):
        vals = _theta_minus_weyl(alpha, lam, ks)
        idx = _closest_to_zero(vals)
        if idx is None:
            rows.append((float(lam), float(ks[0]), float("inf"), NOT_IN_SPECTRUM))
            continue
        witness = float(vals[idx])
        finite = vals[np.isfinite(vals)]
        hit = abs(witness) <= tol or (np.min(finite) < 0.0 < np.max(finite))
        rows.append((float(lam), float(ks[idx]), witness,
                     IN_SPECTRUM if hit else NOT_IN_SPECTRUM))
    return rows


def negative_spectrum_roots(bc: BoundaryCondition, lam_min: float,
                            step: float = 1e-3,
                            k_range: Union[float, tuple] = 0.0) -> list:
    """Locate zero crossings of theta(k) + sqrt(k^2 - lambda) in (lam_min, 0).

    Scans with the given step and refines each bracket by bisection; returns
    the refined negative spectral points (point spectrum below the continuum
    for single-k problems, band edges for interval k ranges).
    """
    lam_grid = np.arange(lam_min, 0.0, step)
    ks = _k_sample(k_range, 2001)
    alpha = _alpha_sample(bc, ks)

    def witness(lam):
        vals = _theta_minus_weyl(alpha, lam, ks)
        idx = _closest_to_zero(vals)
        return np.inf if idx is None else vals[idx]

    w = np.array([witness(l) for l in lam_grid])
    roots = []
    for i in range(len(lam_grid) - 1):
        if not (np.isfinite(w[i]) and np.isfinite(w[i + 1])):
            continue
        if w[i] == 0.0:
            roots.append(float(lam_grid[i]))
        elif w[i] * w[i + 1] < 0:
            lo, hi = lam_grid[i], lam_grid[i + 1]
            flo = w[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = witness(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(float(0.5 * (lo + hi)))
    return roots
