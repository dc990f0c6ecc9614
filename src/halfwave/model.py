"""Geometry, boundary conditions, and the conformal reduction to d_tt + A.

The computational domain is the half line x >= 0 (truncated at ``x_max``)
crossed with flat transverse directions.  Transverse directions never appear
as grids: each transverse wavenumber ``k`` yields an independent 1-D problem
for the operator -d^2/dx^2 + k^2, and the boundary condition at x = 0 selects
its self-adjoint realization.

A warped time metric enters only through pointwise multipliers and a
zeroth-order potential: ``conformal_factors`` gives the pre/post multipliers
that wrap a flat-model Green operator into the physical one, and
``assemble_potential`` gives the potential picked up by the reduction.
Both differentiate the sampled profile with the fourth-order stencils of
:mod:`halfwave.quadrature`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .quadrature import check_uniform_grid, derivative


@dataclass(frozen=True)
class HalfSpaceModel:
    """Half line times R^n, handled one transverse mode at a time.

    Parameters
    ----------
    n : transverse dimension (n = 0 means a pure half-line problem).
    k : transverse wavenumber of the mode under study.
    x_max : truncation length of the half line (c = 1 units).
    grid : number of uniform spatial samples on [0, x_max].
    """

    n: int = 0
    k: float = 0.0
    x_max: float = 30.0
    grid: int = 3000

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("transverse dimension n must be >= 0")
        if self.n == 0 and self.k != 0.0:
            raise ValueError("n = 0 admits only the k = 0 mode")
        if not self.x_max > 0:
            raise ValueError("x_max must be positive")
        if self.grid < 16:
            raise ValueError("grid must have at least 16 samples")

    @property
    def dx(self) -> float:
        return self.x_max / (self.grid - 1)

    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.grid)


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary operator selecting the self-adjoint realization at x = 0.

    ``kind`` is one of 'dirichlet', 'neumann', 'robin', 'multiplier',
    'wentzell'.  Robin stores the coefficient of u(0) in u'(0) = alpha u(0)
    (inward derivative).  Multiplier stores a real-valued symbol p(k), acting
    per mode as Robin with alpha = p(k).  'wentzell' is the dynamical
    condition u'(0) = (d_tt + k^2) u(0), realized on the extended bulk (+)
    boundary state space; its static reading (used by membership tests) is
    the multiplier k^2.
    """

    kind: str
    alpha: Optional[float] = None
    symbol: Optional[Callable[[float], float]] = field(default=None, compare=False)

    _KINDS = ("dirichlet", "neumann", "robin", "multiplier", "wentzell")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind == "robin" and self.alpha is None:
            raise ValueError("robin condition needs a coefficient")
        if self.kind == "multiplier" and self.symbol is None:
            raise ValueError("multiplier condition needs a symbol k -> p(k)")

    @classmethod
    def dirichlet(cls) -> "BoundaryCondition":
        return cls("dirichlet")

    @classmethod
    def neumann(cls) -> "BoundaryCondition":
        return cls("neumann")

    @classmethod
    def robin(cls, alpha: float) -> "BoundaryCondition":
        return cls("robin", alpha=float(alpha))

    @classmethod
    def multiplier(cls, symbol: Callable[[float], float]) -> "BoundaryCondition":
        return cls("multiplier", symbol=symbol)

    @classmethod
    def wentzell_laplace(cls) -> "BoundaryCondition":
        return cls("wentzell")

    @property
    def is_dynamic(self) -> bool:
        return self.kind == "wentzell"

    def effective_alpha(self, k: float = 0.0) -> Optional[float]:
        """Robin coefficient of the per-mode reduction; None for Dirichlet."""
        if self.kind == "dirichlet":
            return None
        if self.kind == "neumann":
            return 0.0
        if self.kind == "robin":
            return float(self.alpha)
        if self.kind == "wentzell":
            return float(k) ** 2
        value = self.symbol(k)
        if np.iscomplexobj(np.asarray(value)) and abs(complex(value).imag) > 0:
            raise ValueError("multiplier symbol must be real valued")
        value = float(np.real(value))
        if not np.isfinite(value):
            raise ValueError(f"multiplier symbol evaluated to {value} at k={k}")
        return value

    def describe(self, k: float = 0.0) -> dict:
        """JSON-friendly descriptor (used in file sidecars)."""
        d = {"kind": self.kind}
        if self.kind == "robin":
            d["alpha"] = self.alpha
        elif self.kind == "multiplier":
            d["alpha_at_k"] = self.effective_alpha(k)
        return d


@dataclass(frozen=True)
class WarpedProfile:
    """Sampled warp factor beta > 0 on a uniform grid, with spatial dimension m."""

    x: np.ndarray
    beta: np.ndarray
    m: int = 1

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        b = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "beta", b)
        if x.ndim != 1 or b.shape != x.shape:
            raise ValueError("x and beta must be matching 1-D arrays")
        if x.size >= 2:
            check_uniform_grid(x)
        if np.any(b <= 0):
            raise ValueError("beta must be strictly positive")
        if self.m < 1:
            raise ValueError("spatial dimension m must be >= 1")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @classmethod
    def from_csv(cls, path, m: int = 1) -> "WarpedProfile":
        """Read a two-column CSV of (x, beta) samples."""
        xs, bs = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#"):
                    continue
                xs.append(float(row[0]))
                bs.append(float(row[1]))
        return cls(np.array(xs), np.array(bs), m=m)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for xv, bv in zip(self.x, self.beta):
                writer.writerow([f"{xv:.17g}", f"{bv:.17g}"])


def conformal_factors(profile: WarpedProfile):
    """Pointwise multipliers wrapping reduced Green operators into physical ones.

    Returns ``(pre, post)`` with pre = beta^((1-m)/4) and
    post = beta^((3+m)/4).  The exponents sum to one, so pre * post = beta.
    """
    m = profile.m
    pre = profile.beta ** ((1.0 - m) / 4.0)
    post = profile.beta ** ((3.0 + m) / 4.0)
    return pre, post


def conformal_laplacian(profile: WarpedProfile, u: np.ndarray) -> np.ndarray:
    """Apply the Laplacian of the conformally scaled metric beta^(-1) g.

    On a 1-D profile this is -beta u'' - (1 - m/2) beta' u', discretized with
    fourth-order stencils (one-sided at the endpoints).
    """
    if profile.x.size < 6:
        raise ValueError("need at least 6 samples for second differences")
    dx = profile.dx
    return (-profile.beta * derivative(u, dx, 2)
            - (1.0 - profile.m / 2.0) * derivative(profile.beta, dx, 1)
            * derivative(u, dx, 1))


def assemble_potential(profile: WarpedProfile) -> np.ndarray:
    """Zeroth-order coefficient C = A - Delta picked up by the reduction.

    C = (1-m)/2 * beta^(-1/2) * Delta_conf(beta^(1/2))
        - (1-m)(m-3)/4 * (beta')^2,

    sampled on the profile grid.  Identically zero for constant beta.
    """
    m = profile.m
    root = np.sqrt(profile.beta)
    lap_root = conformal_laplacian(profile, root)
    grad_sq = derivative(profile.beta, profile.dx, 1) ** 2
    return (1.0 - m) / 2.0 / root * lap_root - (1.0 - m) * (m - 3.0) / 4.0 * grad_sq
