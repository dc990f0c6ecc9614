"""Independent finite-difference ground truth.

Everything spectral in this package is cross-checked against dense symmetric
matrices: the mode operator -d^2/dx^2 + k^2 discretized with the standard
3-point stencil, the boundary condition entering through the first row, and
its extension with one genuine boundary degree of freedom for the dynamical
condition.  A lumped-mass formulation keeps the matrices exactly symmetric:
stiffness K and diagonal mass b define S = b^(-1/2) K b^(-1/2) + k^2, which
is similar to the ghost-point scheme at the boundary (second-order accurate
there, second order in the interior).

The far end of the window always carries a homogeneous Dirichlet wall; tests
keep supports away from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, eigvalsh

from .model import BoundaryCondition


@dataclass
class FdSystem:
    """Dense symmetric discretization of one mode operator.

    ``matrix`` acts on mass-weighted coordinates w = sqrt(b) u; ``offset`` is
    the first active grid node (1 when the x = 0 node is eliminated by a
    Dirichlet row).  ``to_w``/``from_w`` convert between full-grid samples
    and active mass-weighted vectors; ``apply_grid`` is the physical operator
    action on full-grid samples.
    """

    matrix: np.ndarray
    mass: np.ndarray
    dx: float
    k: float
    kind: str
    offset: int
    n: int
    meta: dict = field(default_factory=dict)

    @property
    def n_active(self) -> int:
        return self.matrix.shape[0]

    def x_active(self) -> np.ndarray:
        L = self.dx * (self.n - 1)
        return np.linspace(0.0, L, self.n)[self.offset:self.offset + self.n_active]

    def to_w(self, u_grid) -> np.ndarray:
        u = np.asarray(u_grid, dtype=float)
        return u[..., self.offset:self.offset + self.n_active] * np.sqrt(self.mass)

    def from_w(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        u = np.zeros(w.shape[:-1] + (self.n,))
        u[..., self.offset:self.offset + self.n_active] = w / np.sqrt(self.mass)
        return u

    def apply_grid(self, u_grid) -> np.ndarray:
        return self.from_w(self.to_w(u_grid) @ self.matrix.T)


def assemble_fd(bc: BoundaryCondition, k: float, grid: int,
                x_max: float = 30.0) -> FdSystem:
    """Assemble the dense symmetric system for one mode.

    Dirichlet eliminates the x = 0 node.  Neumann/Robin/multiplier enter as
    the boundary stiffness alpha u(0)^2 with a half mass cell at the node,
    which reproduces the second-order ghost-point row after symmetrization.
    The dynamical condition adds unit mass at the boundary node, whose
    equation of motion then reads v'' = u'(0) - k^2 v.
    """
    if grid < 16:
        raise ValueError("grid must have at least 16 samples")
    dx = x_max / (grid - 1)
    kind = "wentzell" if bc.is_dynamic else ("dirichlet" if bc.kind == "dirichlet"
                                             else "robin")
    alpha = None if bc.is_dynamic else bc.effective_alpha(k)
    if kind == "dirichlet":
        m = grid - 2
        offset = 1
    else:
        m = grid - 1
        offset = 0
    K = np.zeros((m, m))
    idx = np.arange(m)
    K[idx, idx] = 2.0 / dx
    K[idx[:-1], idx[:-1] + 1] = -1.0 / dx
    K[idx[:-1] + 1, idx[:-1]] = -1.0 / dx
    b = np.full(m, dx)
    if kind == "robin":
        K[0, 0] = 1.0 / dx + alpha
        b[0] = dx / 2.0
    elif kind == "wentzell":
        K[0, 0] = 1.0 / dx
        b[0] = dx / 2.0 + 1.0     # boundary degree of freedom carries weight 1
    sb = np.sqrt(b)
    S = K / sb[:, None] / sb[None, :] + (k * k) * np.eye(m)
    S = 0.5 * (S + S.T)           # kill asymmetric rounding exactly
    return FdSystem(matrix=S, mass=b, dx=dx, k=float(k), kind=kind,
                    offset=offset, n=grid,
                    meta={"alpha": alpha, "x_max": x_max})


def fd_spectrum(sys: FdSystem, count: int = None) -> np.ndarray:
    """Lowest ``count`` eigenvalues (all when count is None), ascending."""
    if count is None or count >= sys.n_active:
        return eigvalsh(sys.matrix)
    return eigvalsh(sys.matrix, subset_by_index=[0, count - 1])


def fd_modes(sys: FdSystem, count: int):
    """Lowest eigenpairs; eigenvectors returned on the full grid, normalized
    in the discrete (mass-weighted) inner product."""
    vals, vecs = eigh(sys.matrix, subset_by_index=[0, count - 1])
    return vals, sys.from_w(vecs.T)


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
    S = sys.matrix
    sb = np.sqrt(sys.mass)

    def forcing(i):
        if source is None:
            return 0.0
        f = source(i * dt) if callable(source) else source[i]
        return np.asarray(f, dtype=float)[sys.offset:sys.offset + sys.n_active] * sb

    w_prev = sys.to_w(u0)
    wd0 = sys.to_w(v0)
    acc = -(S @ w_prev) + forcing(0)
    w = w_prev + dt * wd0 + 0.5 * dt * dt * acc

    times = [0.0]
    traj_w = [w_prev]
    vel_w = [wd0]
    pending = None  # sample index waiting for its centered velocity
    for i in range(1, nsteps + 1):
        if i % sample_stride == 0 or i == nsteps:
            times.append(i * dt)
            traj_w.append(w)
            pending = len(traj_w) - 1
        acc = -(S @ w) + forcing(i)
        w_next = 2.0 * w - w_prev + dt * dt * acc
        if pending is not None:
            vel_w.append((w_next - w_prev) / (2.0 * dt))
            pending = None
        w_prev, w = w, w_next
    U = sys.from_w(np.array(traj_w))
    Udot = sys.from_w(np.array(vel_w))
    return np.array(times), U, Udot


def images_kernel(t, x, y, bc: BoundaryCondition):
    """Closed-form causal kernel at k = 0 by reflection.

    For t > 0 and the Robin condition u'(0) = alpha u(0),

        G = 1/2 theta(t - |x - y|) + theta(t - x - y) (exp(-alpha (t - x - y)) - 1/2)

    and G is odd in t: half of the sign of t on the direct characteristic
    region, plus the boundary image behind the reflected one.  Neumann is
    alpha = 0 (image +1/2) and Dirichlet the alpha -> inf limit (image -1/2);
    for alpha < 0 the exponential is the bound state's growth.
    """
    if bc.kind not in ("dirichlet", "neumann", "robin"):
        raise ValueError("images construction covers Dirichlet, Neumann and "
                         "Robin conditions only")
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.abs(t)
    lag = s - np.abs(x + y)
    direct = 0.5 * (np.abs(x - y) < s)
    if bc.kind == "dirichlet":
        image = np.where(lag > 0, -0.5, 0.0)
    else:
        alpha = bc.effective_alpha()
        image = np.where(lag > 0, np.exp(-alpha * np.maximum(lag, 0.0)) - 0.5, 0.0)
    return np.sign(t) * (direct + image)


def free_space_solution(u0_fn, x, t: float):
    """d'Alembert half of a free evolution from (u0, 0): the average of the
    two translates.  Valid before any boundary influence arrives."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (u0_fn(x - t) + u0_fn(x + t))
