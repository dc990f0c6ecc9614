"""Geometry and boundary conditions of the half-line model.

The computational domain is the half line x >= 0 (truncated at ``x_max``)
crossed with flat transverse directions.  Transverse directions never appear
as grids: each transverse wavenumber ``k`` yields an independent 1-D problem
for the operator -d^2/dx^2 + k^2, and the boundary condition at x = 0 selects
its self-adjoint realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


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

    def realization(self, k: float = 0.0) -> tuple:
        """The realization selected at mode k: ("dirichlet", None), ("robin",
        alpha(k)) for Neumann, Robin and multipliers, or ("wentzell", None)."""
        if self.kind in ("dirichlet", "wentzell"):
            return self.kind, None
        return "robin", self.effective_alpha(k)

    def describe(self, k: float = 0.0) -> dict:
        """JSON-friendly descriptor (used in file sidecars)."""
        d = {"kind": self.kind}
        if self.kind == "robin":
            d["alpha"] = self.alpha
        elif self.kind == "multiplier":
            d["alpha_at_k"] = self.effective_alpha(k)
        return d
