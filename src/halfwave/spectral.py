"""Spectral resolutions of the half-line realizations, one transverse mode
at a time.

Each realization diagonalizes through an explicit family of generalized
eigenfunctions on the half line:

* Dirichlet: sin(xi x)
* Neumann / Robin(alpha): (xi cos(xi x) + alpha sin(xi x)) / sqrt(xi^2 + alpha^2)
* dynamical (Wentzell-type): the extended bulk (+) boundary pair
  (cos(xi x) - xi sin(xi x), 1) / sqrt(1 + xi^2)

all with uniform Plancherel weight 2/pi, plus a single bound state
sqrt(2 kappa) exp(-kappa x) with kappa = -alpha whenever alpha < 0, at
eigenvalue k^2 - alpha^2 below the continuum threshold k^2 (negative when
k^2 < alpha^2).  A ``SpectralResolution`` samples the family on a truncated
uniform quadrature grid xi in [0, xi_max] and provides analysis/synthesis
and ``transform``, their fusion around a per-mode action, which is all
downstream propagator construction needs.

``SpectralResolution.family_block`` is the one evaluator of the continuum
family, at any points and any block of xi nodes; ``BoundState.profile`` is
the one evaluator of the bound state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import BoundaryCondition
from .quadrature import (check_decay, check_uniform_grid, corrected_weights,
                         integrate, trapezoid_weights)

DEFAULT_XI_MAX = 40.0
DEFAULT_NODES = 4000
MIN_NODES = 64

_CHUNK = 256


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

    Exists iff alpha < 0.  Its L2-normalized profile is sqrt(2 kappa)
    exp(-kappa x), kappa = -alpha, and its eigenvalue k^2 - alpha^2 lies
    below the continuum threshold k^2 for every k; it is negative (the
    negative spectrum) iff k^2 < alpha^2.
    """
    if alpha is None or not alpha < 0.0:
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


def _project(fw, f_boundary, phi, v):
    # coefficients of pre-weighted samples ``fw`` (plus the boundary
    # component, in the extended case) on one block of the family
    block = fw @ phi.T
    if v is not None:
        block = block + np.multiply.outer(np.asarray(f_boundary, dtype=float), v)
    return block


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
    endpoint-corrected trapezoid quadrature on the x grid.  ``transform``
    runs analysis, a per-mode action and synthesis block by block.
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

    def blocks(self, points=None):
        """Yield ``(sl, phi, v)`` over consecutive blocks of xi nodes.

        ``(phi, v)`` is :meth:`family_block` on the slice ``sl``; blocking
        bounds the transient family sample to _CHUNK rows.
        """
        for i0 in range(0, self.xi.size, _CHUNK):
            sl = slice(i0, min(i0 + _CHUNK, self.xi.size))
            yield (sl, *self.family_block(sl, points=points))

    def _synthesize(self, coeffs_of, cb):
        # sum the family against the block coefficients ``coeffs_of(sl, phi,
        # v)``, one block at a time, then add the bound channel ``cb``
        out = out_b = None
        w = self.xi_weights() * self.weight
        for sl, phi, v in self.blocks():
            wc = coeffs_of(sl, phi, v) * w[sl]
            if out is None:
                out = np.zeros(wc.shape[:-1] + (self.x.size,))
                out_b = np.zeros(wc.shape[:-1]) if self.extended else None
            out += wc @ phi
            if v is not None:
                out_b += wc @ v
        if self.bound is not None and cb is not None:
            out += np.multiply.outer(np.asarray(cb, dtype=float),
                                     self.bound.profile(self.x))
        if self.extended:
            return out, out_b
        return out

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
        for sl, phi, v in self.blocks():
            coeffs[..., sl] = _project(fw, f_boundary, phi, v)
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
        return self._synthesize(lambda sl, phi, v: coeffs[..., sl], cb)

    def transform(self, f, f_boundary, act):
        """``synthesize`` of ``act`` applied to the ``analyze`` coefficients.

        ``act(c, lam)`` maps a block of coefficients ``c`` (grid axis of
        ``f`` replaced by the block's modes) at eigenvalues ``lam`` to new
        coefficients; it must act on each mode independently, and may change
        the leading axes.  The continuum runs through it one block of _CHUNK
        xi nodes at a time: the family block is evaluated once, projected on,
        acted on and summed against, so no full coefficient array is formed.
        The bound channel is one more call, with ``lam = [bound.lam]``.
        Returns what :meth:`synthesize` returns.
        """
        f = np.asarray(f, dtype=float)
        fw = f * corrected_weights(self.x.size, self.dx)
        lam = self.omega_sq()
        cb = None
        if self.bound is not None:
            cb = act((fw @ self.bound.profile(self.x))[..., None],
                     np.array([self.bound.lam]))[..., 0]
        return self._synthesize(
            lambda sl, phi, v: act(_project(fw, f_boundary, phi, v), lam[sl]),
            cb)

    def apply_operator(self, f, f_boundary: float = 0.0):
        """Apply the realized operator through the resolution.

        Continuum coefficients are multiplied by xi^2 + k^2 and the bound
        coefficient by its eigenvalue before resynthesis.
        """
        return self.transform(f, f_boundary, lambda c, lam: c * lam)

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
    when alpha < 0); the dynamical condition gives the extended family.
    ``xi_max`` and ``nodes`` fix the quadrature truncation.  ``x`` must be a
    uniform increasing grid starting at the boundary, x = 0.
    """
    if not xi_max > 0:
        raise ValueError("xi_max must be positive")
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} quadrature nodes")
    x = np.asarray(x, dtype=float)
    check_uniform_grid(x)
    if x[0] != 0.0:
        raise ValueError(f"x must start at the boundary x = 0, got {x[0]:g}")
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
    xi grid, computed as the analysis of the Dirichlet resolution; the
    Dirichlet realization acts on them as multiplication by xi^2 + k^2.
    """
    res = SpectralResolution(kind="dirichlet", alpha=None, k=0.0, x=x, xi=xi)
    f = np.asarray(f, dtype=float)
    check_decay(f, res.dx, what="sine transform input")
    return res.analyze(f)[0]


def inverse_sine_transform(coeffs, x, xi) -> np.ndarray:
    """Inverse of :func:`sine_transform` with Plancherel weight 2/pi.

    The synthesis of the Dirichlet resolution on a uniform xi grid.  Exact
    inversion only up to the band limit xi_max: input content beyond the
    truncation is unrecoverable and returns as a residual of order
    1/(xi_max * distance-to-boundary).
    """
    res = SpectralResolution(kind="dirichlet", alpha=None, k=0.0, x=x, xi=xi)
    return res.synthesize(coeffs)
