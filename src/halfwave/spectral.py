"""Spectral resolutions of the half-line realizations, one transverse mode
at a time.

Each realization diagonalizes through an explicit family of generalized
eigenfunctions on the half line:

* Dirichlet: sin(xi x)
* Neumann / Robin(alpha): (xi cos(xi x) + alpha sin(xi x)) / sqrt(xi^2 + alpha^2)
* dynamical (Wentzell-type): the extended bulk (+) boundary pair
  (cos(xi x) - xi sin(xi x), 1) / sqrt(1 + xi^2)

all with uniform Plancherel weight 2/pi, plus a single bound state
sqrt(2 kappa) exp(-kappa x) with kappa = -alpha whenever alpha < 0 and
k^2 < alpha^2.  A ``SpectralResolution`` samples the family on a truncated
uniform quadrature grid xi in [0, xi_max] and provides analysis/synthesis,
which is all downstream propagator construction needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import BoundaryCondition
from .quadrature import (check_decay, corrected_weights, integrate,
                         trapezoid_weights)

DEFAULT_XI_MAX = 40.0
DEFAULT_NODES = 4000

_CHUNK = 256


def robin_continuum_mode(x, xi, alpha: float):
    """Continuum eigenfunction of the Robin realization at radial frequency xi.

    (xi cos(xi x) + alpha sin(xi x)) / sqrt(xi^2 + alpha^2); satisfies
    u'(0) = alpha u(0) identically.  alpha = 0 reduces to cos(xi x).
    Degenerate at xi = alpha = 0.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if alpha == 0.0:
        if np.any(xi == 0.0):
            raise ValueError("xi = alpha = 0 is degenerate: no normalized "
                             "direction exists there")
        return np.cos(xi * x)
    return (xi * np.cos(xi * x) + alpha * np.sin(xi * x)) / np.hypot(xi, alpha)


@dataclass(frozen=True)
class BoundState:
    """Normalized bound state of a Robin realization with alpha < 0."""

    lam: float          # eigenvalue, k^2 - alpha^2
    kappa: float        # decay rate, -alpha
    k: float

    def profile(self, x) -> np.ndarray:
        return np.sqrt(2.0 * self.kappa) * np.exp(-self.kappa * np.asarray(x, dtype=float))


def bound_state(alpha: float, k: float, x=None) -> Optional[BoundState]:
    """Bound state of the Robin(alpha) mode problem, if one exists.

    Exists iff alpha < 0 and k^2 < alpha^2 (strict: at the threshold the
    state merges into the continuum).  Its eigenvalue is k^2 - alpha^2 and
    its L2-normalized profile is sqrt(2 kappa) exp(-kappa x), kappa = -alpha.
    """
    if alpha is None or not alpha < 0.0 or not k * k < alpha * alpha:
        return None
    return BoundState(lam=float(k * k - alpha * alpha), kappa=float(-alpha), k=float(k))


@dataclass(frozen=True)
class ExtendedState:
    """Bulk function paired with its boundary degree of freedom.

    States in the domain of the extended (dynamical) realization satisfy
    the compatibility v = u(0); ``from_bulk`` builds the compatible lift of
    a bulk function, and ``compatibility_residual`` measures the defect of
    an arbitrary pair.
    """

    u: np.ndarray
    v: float

    @classmethod
    def from_bulk(cls, u) -> "ExtendedState":
        u = np.asarray(u, dtype=float)
        return cls(u=u, v=float(u[0]))

    def compatibility_residual(self) -> float:
        scale = max(float(np.max(np.abs(self.u))), abs(self.v), 1e-300)
        return abs(float(self.u[0]) - self.v) / scale


@dataclass(frozen=True)
class WentzellMode:
    """One extended-space harmonic mode (transverse phase factored out).

    ``bulk`` holds [a (xi^2+1)]^(-1/2) (cos(xi x) - xi sin(xi x)) sampled on
    the requested points, ``boundary_value`` the matching boundary component.
    bulk[0] = boundary_value whenever the sample starts at x = 0, and the
    inward derivative at 0 equals -xi^2 boundary_value, which is the
    harmonic form of the dynamical condition at frequency sqrt(xi^2 + k^2).
    """

    bulk: np.ndarray
    boundary_value: float
    xi: float
    k: float
    norm: float


# per-mode normalization constant of the extended continuum family;
# the transverse plane-wave factor carries its own (2 pi)-per-dimension
WENTZELL_NORM = np.pi / 2.0


def wentzell_mode(x1, xi: float, k: float) -> WentzellMode:
    """Extended-space continuum mode at radial frequency xi for mode k."""
    if not xi > 0:
        raise ValueError("xi must be positive")
    x1 = np.asarray(x1, dtype=float)
    norm = 1.0 / np.sqrt(WENTZELL_NORM * (xi * xi + 1.0))
    bulk = norm * (np.cos(xi * x1) - xi * np.sin(xi * x1))
    return WentzellMode(bulk=bulk, boundary_value=norm, xi=float(xi),
                        k=float(k), norm=norm)


@dataclass(frozen=True)
class SpectralResolution:
    """Sampled diagonalization of one self-adjoint realization at mode k.

    ``kind`` is 'dirichlet', 'robin' (covering Neumann and multiplier
    reductions through alpha), or 'wentzell' (extended bulk + boundary
    space).  The continuum family is sampled on the uniform quadrature grid
    ``xi`` with Plancherel weight 2/pi; eigenvalues are xi^2 + k^2.  ``bound``
    carries the single Robin bound state when present.

    Analysis maps a gridded function (plus a boundary value in the extended
    case) to continuum and bound coefficients; synthesis inverts.  Both use
    endpoint-corrected trapezoid quadrature on the x grid.
    """

    kind: str
    alpha: Optional[float]
    k: float
    x: np.ndarray
    xi: np.ndarray
    bound: Optional[BoundState] = None

    weight = 2.0 / np.pi

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    @property
    def extended(self) -> bool:
        return self.kind == "wentzell"

    def omega_sq(self) -> np.ndarray:
        """Continuum eigenvalues xi^2 + k^2."""
        return self.xi ** 2 + self.k ** 2

    def xi_weights(self) -> np.ndarray:
        return trapezoid_weights(self.xi.size, self.dxi)

    def family_block(self, sl: slice, points=None):
        """Continuum family sampled at ``points`` for a block of xi nodes.

        Returns ``(phi, v)`` where phi has shape (block, npoints) and v is the
        per-mode boundary component (None unless extended).
        """
        pts = self.x if points is None else np.asarray(points, dtype=float)
        xi = self.xi[sl][:, None]
        X = xi * pts[None, :]
        if self.kind == "dirichlet":
            return np.sin(X), None
        if self.kind == "robin":
            a = self.alpha
            if a == 0.0:
                return np.cos(X), None
            return (xi * np.cos(X) + a * np.sin(X)) / np.hypot(xi, a), None
        # extended family
        nrm = 1.0 / np.sqrt(1.0 + xi * xi)
        return nrm * (np.cos(X) - xi * np.sin(X)), nrm[:, 0]

    def analyze(self, f, f_boundary: float = 0.0):
        """Project onto the family: returns (continuum coeffs, bound coeff).

        ``f`` may be a single gridded function or a stack with the grid on the
        last axis; ``f_boundary`` (scalar or matching stack) is the boundary
        component of an extended-space vector and is ignored otherwise.
        Projections are endpoint-corrected quadratures, run as matrix
        products against a folded weight vector.
        """
        f = np.asarray(f, dtype=float)
        fw = f * corrected_weights(self.x.size, self.dx)
        lead = f.shape[:-1]
        coeffs = np.empty(lead + (self.xi.size,))
        for i0 in range(0, self.xi.size, _CHUNK):
            sl = slice(i0, min(i0 + _CHUNK, self.xi.size))
            phi, v = self.family_block(sl)
            block = fw @ phi.T
            if v is not None:
                block = block + np.multiply.outer(np.asarray(f_boundary, dtype=float), v)
            coeffs[..., sl] = block
        cb = None
        if self.bound is not None:
            cb = fw @ self.bound.profile(self.x)
        return coeffs, cb

    def synthesize(self, coeffs, cb=None):
        """Invert :meth:`analyze`.

        Returns the gridded function, or ``(function, boundary_value)`` for
        extended resolutions.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        lead = coeffs.shape[:-1]
        out = np.zeros(lead + (self.x.size,))
        out_b = np.zeros(lead) if self.extended else None
        w = self.xi_weights() * self.weight
        for i0 in range(0, self.xi.size, _CHUNK):
            sl = slice(i0, min(i0 + _CHUNK, self.xi.size))
            phi, v = self.family_block(sl)
            wc = coeffs[..., sl] * w[sl]
            out += wc @ phi
            if v is not None:
                out_b += wc @ v
        if self.bound is not None and cb is not None:
            out += np.multiply.outer(np.asarray(cb, dtype=float),
                                     self.bound.profile(self.x))
        if self.extended:
            return out, out_b
        return out

    def apply_operator(self, f, f_boundary: float = 0.0):
        """Apply the realized operator through the resolution.

        Continuum coefficients are multiplied by xi^2 + k^2 and the bound
        coefficient by its eigenvalue before resynthesis.
        """
        c, cb = self.analyze(f, f_boundary)
        c = c * self.omega_sq()
        if cb is not None:
            cb = cb * self.bound.lam
        return self.synthesize(c, cb)

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "alpha": self.alpha,
            "k": self.k,
            "x": {"max": float(self.x[-1]), "nodes": int(self.x.size)},
            "quadrature": {"xi_max": float(self.xi[-1]), "nodes": int(self.xi.size)},
            "weight": self.weight,
            "bound": None if self.bound is None else
                     {"lam": self.bound.lam, "kappa": self.bound.kappa},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SpectralResolution":
        doc = json.loads(text)
        x = np.linspace(0.0, doc["x"]["max"], doc["x"]["nodes"])
        xi = np.linspace(0.0, doc["quadrature"]["xi_max"], doc["quadrature"]["nodes"])
        res = cls(kind=doc["kind"], alpha=doc["alpha"], k=doc["k"], x=x, xi=xi)
        if doc["bound"] is not None:
            res = replace(res, bound=BoundState(lam=doc["bound"]["lam"],
                                                kappa=doc["bound"]["kappa"],
                                                k=doc["k"]))
        return res


def resolve(bc: BoundaryCondition, k: float, x,
            xi_max: float = DEFAULT_XI_MAX,
            nodes: int = DEFAULT_NODES) -> SpectralResolution:
    """Build the spectral resolution of the realization chosen by ``bc``.

    Dirichlet gives the sine family; Neumann, Robin and multiplier conditions
    give the Robin family at the per-mode coefficient (plus the bound state
    when alpha < 0 and k^2 < alpha^2); the dynamical condition gives the
    extended family.  ``xi_max`` and ``nodes`` fix the quadrature truncation.
    """
    if not xi_max > 0:
        raise ValueError("xi_max must be positive")
    if nodes < 64:
        raise ValueError("need at least 64 quadrature nodes")
    x = np.asarray(x, dtype=float)
    xi = np.linspace(0.0, float(xi_max), int(nodes))
    if bc.is_dynamic:
        return SpectralResolution(kind="wentzell", alpha=None, k=float(k), x=x, xi=xi)
    alpha = bc.effective_alpha(k)
    if alpha is None:
        return SpectralResolution(kind="dirichlet", alpha=None, k=float(k), x=x, xi=xi)
    return SpectralResolution(kind="robin", alpha=float(alpha), k=float(k), x=x,
                              xi=xi, bound=bound_state(alpha, k))


def completeness_residual(res: SpectralResolution, f, f_boundary: float = 0.0,
                          include_bound: bool = True) -> float:
    """Relative L2 defect of reconstructing ``f`` through the resolution.

    ``include_bound=False`` deliberately drops the bound-state channel,
    which quantifies how much of the input lives on it.
    """
    f = np.asarray(f, dtype=float)
    check_decay(f, res.dx, what="completeness input")
    c, cb = res.analyze(f, f_boundary)
    if not include_bound:
        cb = None
    rec = res.synthesize(c, cb)
    if res.extended:
        rec, rec_b = rec
        num = (integrate((f - rec) ** 2, res.dx)
               + (float(f_boundary) - rec_b) ** 2)
        den = integrate(f * f, res.dx) + float(f_boundary) ** 2
    else:
        num = integrate((f - rec) ** 2, res.dx)
        den = integrate(f * f, res.dx)
    return float(np.sqrt(max(num, 0.0) / den))


def sine_transform(f, x, xi) -> np.ndarray:
    """Forward half-line sine transform by endpoint-corrected quadrature.

    Coefficients are plain projections int f(x) sin(xi x) dx on the given
    xi grid; the Dirichlet realization acts on them as multiplication by
    xi^2 + k^2.
    """
    f = np.asarray(f, dtype=float)
    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    check_decay(f, dx, what="sine transform input")
    xi = np.asarray(xi, dtype=float)
    out = np.empty(xi.size)
    for i0 in range(0, xi.size, _CHUNK):
        sl = slice(i0, min(i0 + _CHUNK, xi.size))
        out[sl] = integrate(np.sin(xi[sl][:, None] * x[None, :]) * f[None, :], dx)
    return out


def inverse_sine_transform(coeffs, x, xi) -> np.ndarray:
    """Inverse of :func:`sine_transform` with Plancherel weight 2/pi.

    Exact inversion only up to the band limit xi_max: input content beyond
    the truncation is unrecoverable and returns as a residual of order
    1/(xi_max * distance-to-boundary).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    w = trapezoid_weights(xi.size, float(xi[1] - xi[0])) * (2.0 / np.pi)
    out = np.zeros(x.size)
    for i0 in range(0, xi.size, _CHUNK):
        sl = slice(i0, min(i0 + _CHUNK, xi.size))
        out += (coeffs[sl] * w[sl]) @ np.sin(xi[sl][:, None] * x[None, :])
    return out
