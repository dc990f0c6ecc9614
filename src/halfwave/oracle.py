"""Independent finite-difference ground truth.

Everything spectral in this package is cross-checked against symmetric
tridiagonal matrices: the mode operator -d^2/dx^2 + k^2 discretized with the
standard 3-point stencil, the boundary condition entering through the first
row, and its extension with one genuine boundary degree of freedom for the
dynamical condition.  A lumped-mass formulation keeps the matrices exactly
symmetric: stiffness K and diagonal mass b define S = b^(-1/2) K b^(-1/2) + k^2,
stored as its diagonal and off-diagonal.  S is similar to the ghost-point
scheme at the boundary (second-order accurate there and in the interior).

The far end of the window always carries a homogeneous Dirichlet wall; tests
keep supports away from it.

Eigenvalues come from Sturm counts, numpy and plain Python, no scipy: the
number of negative pivots of the LDL^T factorization of S - lam is the
number of eigenvalues below lam (``fd_count_below``), and ``fd_spectrum``
finds each requested eigenvalue as the least double at which that count
passes it, by plain bisection on the count until the bracket's ends are
adjacent doubles (Barth-Martin-Wilkinson bisection, as in LAPACK's
dstebz/dlaebz): one count per halving, about 70 per eigenvalue.  The whole
spectrum comes from numpy's dense symmetric solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BoundaryCondition

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass
class FdSystem:
    """Symmetric tridiagonal discretization of one mode operator.

    ``diag``/``off`` hold the matrix acting on mass-weighted coordinates
    w = sqrt(b) u (``act`` applies it over leading axes; ``matrix`` builds
    the dense view on demand); ``offset`` is the first active grid node (1
    when the x = 0 node is eliminated by a Dirichlet row).  ``to_w``/
    ``from_w`` convert between full-grid samples and active mass-weighted
    vectors; ``apply_grid`` is the physical operator action on them.
    """

    diag: np.ndarray
    off: np.ndarray
    mass: np.ndarray
    dx: float
    offset: int
    n: int

    @property
    def n_active(self) -> int:
        return self.diag.size

    @property
    def matrix(self) -> np.ndarray:
        S = np.diag(self.diag)
        i = np.arange(self.n_active - 1)
        S[i, i + 1] = S[i + 1, i] = self.off
        return S

    def act(self, w) -> np.ndarray:
        out = w * self.diag
        out[..., :-1] += self.off * w[..., 1:]
        out[..., 1:] += self.off * w[..., :-1]
        return out

    def to_w(self, u_grid) -> np.ndarray:
        u = np.asarray(u_grid, dtype=float)
        return u[..., self.offset:self.offset + self.n_active] * np.sqrt(self.mass)

    def from_w(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        u = np.zeros(w.shape[:-1] + (self.n,))
        u[..., self.offset:self.offset + self.n_active] = w / np.sqrt(self.mass)
        return u

    def apply_grid(self, u_grid) -> np.ndarray:
        return self.from_w(self.act(self.to_w(u_grid)))


def assemble_fd(bc: BoundaryCondition, k: float, grid: int,
                x_max: float = 30.0) -> FdSystem:
    """Assemble the symmetric tridiagonal system for one mode.

    Dirichlet eliminates the x = 0 node.  Neumann/Robin/multiplier enter as
    the boundary stiffness alpha u(0)^2 with a half mass cell at the node,
    which reproduces the second-order ghost-point row after symmetrization.
    The dynamical condition adds unit mass at the boundary node, whose
    equation of motion then reads v'' = u'(0) - k^2 v.
    """
    if grid < 16:
        raise ValueError("grid must have at least 16 samples")
    dx = x_max / (grid - 1)
    kind, alpha = bc.realization(k)
    m = grid - 2 if kind == "dirichlet" else grid - 1
    offset = 1 if kind == "dirichlet" else 0
    kd = np.full(m, 2.0 / dx)
    ko = -1.0 / dx
    b = np.full(m, dx)
    if kind == "robin":
        kd[0] = 1.0 / dx + alpha
        b[0] = dx / 2.0
    elif kind == "wentzell":
        kd[0] = 1.0 / dx
        b[0] = dx / 2.0 + 1.0     # boundary degree of freedom carries weight 1
    sb = np.sqrt(b)
    diag = kd / sb / sb + k * k
    # both triangles of b^(-1/2) K b^(-1/2), averaged: exactly symmetric
    off = 0.5 * (ko / sb[:-1] / sb[1:] + ko / sb[1:] / sb[:-1])
    return FdSystem(diag=diag, off=off, mass=b, dx=dx, offset=offset, n=grid)


def _sturm(sys: FdSystem):
    """The Sturm recurrence's data as Python floats: the diagonal, the
    squared off-diagonal led by 0, dlaebz's pivot floor, a Gerschgorin
    bracket of the spectrum widened as dstebz does (its counts are exactly 0
    and n)."""
    d = sys.diag.tolist()
    e2 = [0.0] + (sys.off * sys.off).tolist()
    radius = np.zeros(sys.n_active)
    radius[:-1] = np.abs(sys.off)
    radius[1:] += np.abs(sys.off)
    lo = float(np.min(sys.diag - radius))
    hi = float(np.max(sys.diag + radius))
    norm = max(-lo, hi)
    pivmin = _TINY * max(1.0, max(e2))
    slack = 2.1 * (norm * _EPS * len(d) + 2.0 * pivmin)
    if not math.isfinite(norm + pivmin + slack):
        raise FloatingPointError("the FD matrix overflows the Sturm recurrence")
    return d, e2, pivmin, lo - slack, hi + slack


def _count(d, e2, pivmin, lam):
    # negative pivots of S - lam; dlaebz's guard: |q| < pivmin becomes
    # -pivmin, so an exact zero pivot counts and never divides
    count, q = 0, 1.0
    for a, b in zip(d, e2):
        q = a - b / q - lam
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _locate(d, e2, pivmin, i, lo, hi):
    """The least double lam with more than ``i`` eigenvalues at or below it,
    given count(lo) <= i < count(hi), by bisection to adjacent doubles;
    returns it, with the last lower end (a start for eigenvalue i + 1)."""
    while True:
        # halves first: lo + hi overflows when both ends are near DBL_MAX
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return hi, lo
        if _count(d, e2, pivmin, mid) > i:
            hi = mid
        else:
            lo = mid


def fd_count_below(sys: FdSystem, lam: float) -> int:
    """Number of eigenvalues below ``lam`` (one equal to it, to rounding,
    counts too): the negative pivots of S - lam, one sweep."""
    d, e2, pivmin, *_ = _sturm(sys)
    return _count(d, e2, pivmin, float(lam))


def fd_spectrum(sys: FdSystem, count: int = None) -> np.ndarray:
    """Lowest ``count`` eigenvalues (all when count is None), ascending.

    With a count, each is located by bisection on Sturm counts (``_locate``,
    resumed from the last lower end of the one before): within rounding of
    order eps ||S|| of the exact eigenvalue of the stored matrix.  The whole
    spectrum comes from numpy's dense symmetric solver.
    """
    if count is None or count >= sys.n_active:
        return np.linalg.eigvalsh(sys.matrix)
    d, e2, pivmin, lo, hi = _sturm(sys)
    eigs = []
    for i in range(count):
        lam, lo = _locate(d, e2, pivmin, i, lo, hi)
        eigs.append(lam)
    return np.array(eigs)


def leapfrog(sys: FdSystem, u0, v0, dt: float, T: float,
             sample_stride: int = 1, source=None):
    """Central-difference time stepping of u'' = -(FD operator) u + source.

    Parameters
    ----------
    u0, v0 : initial data on the full grid.
    dt, T : step and final time; requires dt <= 0.5 dx for stability margin.
    sample_stride : keep every so-many steps in the returned trajectory.
    source : optional forcing, callable t -> full-grid samples or an array
        of shape (nsteps + 1, grid).

    Returns
    -------
    times, U, Udot : sample times and the trajectory with its velocity,
        both on the full grid.  Velocities are centered differences at the
        full step rate, so they carry the same second-order accuracy as the
        trajectory itself.
    """
    if dt > 0.5 * sys.dx + 1e-15:
        raise ValueError(f"unstable step: dt = {dt} exceeds 0.5 dx = {0.5 * sys.dx}")
    nsteps = int(round(T / dt))

    def forcing(i):
        if source is None:
            return 0.0
        return sys.to_w(source(i * dt) if callable(source) else source[i])

    w_prev = sys.to_w(u0)
    wd0 = sys.to_w(v0)
    acc = -sys.act(w_prev) + forcing(0)
    w = w_prev + dt * wd0 + 0.5 * dt * dt * acc

    # each kept sample goes straight onto the full grid, as from_w puts it
    kept = [i for i in range(1, nsteps + 1) if i % sample_stride == 0 or i == nsteps]
    U = np.zeros((len(kept) + 1,) + w.shape[:-1] + (sys.n,))
    Udot = np.zeros_like(U)
    active = (Ellipsis, slice(sys.offset, sys.offset + sys.n_active))
    root_mass = np.sqrt(sys.mass)
    np.divide(w_prev, root_mass, out=U[0][active])
    np.divide(wd0, root_mass, out=Udot[0][active])
    row = 1
    for i in range(1, nsteps + 1):
        acc = -sys.act(w) + forcing(i)
        w_next = 2.0 * w - w_prev + dt * dt * acc
        if i % sample_stride == 0 or i == nsteps:
            np.divide(w, root_mass, out=U[row][active])
            velocity = np.divide(w_next - w_prev, 2.0 * dt, out=Udot[row][active])
            velocity /= root_mass
            row += 1
        w_prev, w = w, w_next
    times = np.array([0.0] + [i * dt for i in kept])
    return times, U, Udot


def images_kernel(t, x, y, bc: BoundaryCondition):
    """Closed-form causal kernel at k = 0 by reflection.

    For t > 0 and the Robin condition u'(0) = alpha u(0),

        G = 1/2 theta(t - |x - y|) + theta(t - x - y) (exp(-alpha (t - x - y)) - 1/2)

    and G is odd in t: half of the sign of t on the direct characteristic
    region, plus the boundary image behind the reflected one.  Neumann is
    alpha = 0 (image +1/2) and Dirichlet the alpha -> inf limit (image -1/2);
    for alpha < 0 the exponential is the bound state's growth.  The dynamical
    condition reflects with minus the Robin alpha = 1 coefficient, and its
    image is minus Robin alpha = 1's: 1/2 - exp(-(t - x - y)).  Every other
    condition enters as the realization it selects at k = 0.
    """
    kind, alpha = bc.realization(0.0)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.abs(t)
    lag = s - np.abs(x + y)
    direct = 0.5 * (np.abs(x - y) < s)
    if kind == "dirichlet":
        image = np.where(lag > 0, -0.5, 0.0)
    else:
        alpha = 1.0 if kind == "wentzell" else alpha
        image = np.where(lag > 0, np.exp(-alpha * np.maximum(lag, 0.0)) - 0.5, 0.0)
    return np.sign(t) * (direct - image if kind == "wentzell" else direct + image)
