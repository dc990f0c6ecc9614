"""Spectral resolutions of the half-line realizations, one transverse mode
at a time.

Each realization diagonalizes through one family of generalized
eigenfunctions on the half line, sin(xi x + theta(xi)); the boundary
condition enters only through the phase theta: 0 for Dirichlet,
pi/2 - atan2(alpha, xi) for Neumann / Robin(alpha), and pi/2 + atan(xi) for
the dynamical (Wentzell-type) condition.  That condition acts on L2 of
dx + delta_0: the boundary value is one more x node, x = 0 with weight 1,
where the family is sin(theta) = 1/sqrt(1 + xi^2).  The family has
uniform Plancherel weight 2/pi, plus a single bound state
sqrt(2 kappa) exp(-kappa x) with kappa = -alpha whenever alpha < 0, at
eigenvalue k^2 - alpha^2 below the continuum threshold k^2 (negative when
k^2 < alpha^2).  A ``SpectralResolution`` samples the family on a truncated
uniform quadrature grid xi in [0, xi_max] and provides analysis/synthesis
and ``transform``, their fusion around a per-mode action, which is all
downstream propagator construction needs.  The half-line sine transform
and its inverse are the analysis and synthesis of the Dirichlet
resolution.

The xi integrals use one weight vector, ``SpectralResolution.xi_weights``:
trapezoid weights with the Euler-Maclaurin correction at the xi_max end
only.  Every integrand (family products, analysis/synthesis pairs) is even
in xi, so the trapezoid rule carries no error at xi = 0 and the correction
there would only spoil completeness; at xi_max it lifts the rule to fourth
order.  ``default_nodes`` sizes the grid for the window a caller evaluates.

``SpectralResolution.family_block`` is the one evaluator of the continuum
family, at any points and any block of xi nodes; ``BoundState.profile`` is
the one evaluator of the bound state.

Two rules keep the blocked products off slow floating-point paths, and
neither changes a result bit.  ``family_block`` evaluates its block in the
128 KB row panels of ``quadrature.row_panels``: the outer product, the
reduction mod 2 pi, the phase and the sine each pass over one panel in
cache, and the only temporaries are two panel-sized buffers.  And the
analysis input, the samples that ``analyze`` and ``transform`` project, has
every |value| < DBL_MIN set to 0: a subnormal operand sends the matrix
products through microcode assists, and it can move no sum whose magnitude
is above 2^53 DBL_MIN (~2e-292).

No array of the input's size is made besides the output.  ``analyze`` and
``transform`` share one projector, which folds the x weights into the
family block rather than into the samples, and ``_synthesize`` sums each
block into its output, weighting in place the blocks ``transform`` hands
it, so a block has one coefficient array.  Both products run one row panel
of about _PRODUCT_PANEL_BYTES (1 MB) at a time, so the weighted family and
the partial sums never take more than one panel each.

The input may also arrive factored, as the pair ``(g, h)`` of a
space-time source g(t) h(x): then no array of the samples' size exists at
all, the input is one vector per factor, and each block's projection is
outer(g, phi @ (h w)), one matrix-vector product in place of a matrix
product.  Its coefficients are flushed below DBL_MIN, as the samples of a
dense input are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import BoundaryCondition
from .quadrature import (_EM_EDGE, check_decay, check_uniform_grid,
                         corrected_weights, row_panels, trapezoid_weights)

DEFAULT_XI_MAX = 40.0
DEFAULT_NODES = 4000
MIN_NODES = 64
MAX_STEP = 0.05     # xi spacing that keeps end-corrected kernels within 1e-7

_CHUNK = 256
_PRODUCT_PANEL_BYTES = 1 << 20    # a row panel of the analysis and synthesis products
_TINY = np.finfo(float).tiny    # DBL_MIN, the least normal double

# 2 pi = _TWO_PI_HI + _TWO_PI_LO to ~1e-26, the high part with 33 significant
# bits so that n * _TWO_PI_HI is exact for whole n < 2^20; 2.449...e-16 is
# 2 pi less the double 2.0 * math.pi
_TWO_PI_HI = math.ldexp(math.floor(math.ldexp(2.0 * math.pi, 30)), -30)
_TWO_PI_LO = (2.0 * math.pi - _TWO_PI_HI) + 2.4492935982947064e-16


def _flush(a: np.ndarray) -> None:
    """Set every |value| < DBL_MIN of ``a``, a contiguous array, to 0 in
    place, one row panel at a time, so that no full-size mask is made."""
    rows = a.reshape(-1, a.shape[-1] if a.ndim else 1)
    for p in row_panels(len(rows), rows.shape[1]):
        rows[p][np.abs(rows[p]) < _TINY] = 0.0


def _flushed(a: np.ndarray) -> np.ndarray:
    """``a`` with every |value| < DBL_MIN set to 0 (see the module docstring).

    ``a`` is scanned one row panel at a time, and it is returned as it is
    unless some value changes; only then is it copied.
    """
    rows = a.reshape(-1, a.shape[-1] if a.ndim else 1)
    if not any(np.any(rows[p][np.abs(rows[p]) < _TINY])
               for p in row_panels(len(rows), rows.shape[1])):
        return a
    a = a.copy()
    _flush(a)
    return a


def _factored(f) -> bool:
    # a source given as its factors (g, h), the samples g[i] h[j]
    return isinstance(f, tuple)


def _accumulate(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    # out += a @ b one row panel of about _PRODUCT_PANEL_BYTES at a time, so
    # no product of out's size is made; out must be contiguous
    rows, acc = a.reshape(-1, a.shape[-1]), out.reshape(-1, out.shape[-1])
    for p in row_panels(len(acc), acc.shape[1], _PRODUCT_PANEL_BYTES):
        acc[p] += rows[p] @ b


@dataclass(frozen=True)
class BoundState:
    """Normalized bound state of a Robin realization with alpha < 0."""

    lam: float          # eigenvalue, k^2 - alpha^2
    kappa: float        # decay rate, -alpha

    def profile(self, x) -> np.ndarray:
        return np.sqrt(2.0 * self.kappa) * np.exp(-self.kappa * np.asarray(x, dtype=float))


def bound_state(alpha: float, k: float) -> Optional[BoundState]:
    """Bound state of the Robin(alpha) mode problem, if one exists.

    Exists iff alpha < 0.  Its L2-normalized profile is sqrt(2 kappa)
    exp(-kappa x), kappa = -alpha, and its eigenvalue k^2 - alpha^2 lies
    below the continuum threshold k^2 for every k; it is negative (the
    negative spectrum) iff k^2 < alpha^2.
    """
    if alpha is None or not alpha < 0.0:
        return None
    return BoundState(lam=float(k * k - alpha * alpha), kappa=float(-alpha))


@dataclass(frozen=True)
class ExtendedState:
    """Bulk function paired with its boundary degree of freedom.

    States in the domain of the extended (dynamical) realization satisfy
    the compatibility v = u(0); ``from_bulk`` builds the compatible lift of
    a bulk function.
    """

    u: np.ndarray
    v: float

    @classmethod
    def from_bulk(cls, u) -> "ExtendedState":
        u = np.asarray(u, dtype=float)
        return cls(u=u, v=float(u[0]))


@dataclass(frozen=True)
class SpectralResolution:
    """Sampled diagonalization of one self-adjoint realization at mode k.

    ``kind`` is 'dirichlet', 'robin' (covering Neumann and multiplier
    reductions through alpha), or 'wentzell' (the extended space, L2 of
    dx + delta_0).  The continuum family is sampled on the uniform quadrature grid
    ``xi`` with Plancherel weight 2/pi; eigenvalues are xi^2 + k^2.  ``bound``
    carries the single Robin bound state when present.

    Analysis maps a gridded function (plus a boundary value in the extended
    case) to continuum and bound coefficients; synthesis inverts.  Both are
    quadratures on the x nodes: endpoint-corrected on the x grid, weight 1 at
    the extended boundary node.  ``transform`` fuses them block by block.
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

    @property
    def quadrature(self) -> dict:
        """The xi truncation as recorded in sidecars: xi_max and node count."""
        return {"xi_max": float(self.xi[-1]), "nodes": int(self.xi.size)}

    def omega_sq(self) -> np.ndarray:
        """Continuum eigenvalues xi^2 + k^2."""
        return self.xi ** 2 + self.k ** 2

    def xi_weights(self) -> np.ndarray:
        """Trapezoid weights on ``xi``, Euler-Maclaurin corrected at xi_max.

        The xi = 0 end stays plain: the integrands are even in xi there.
        """
        w = trapezoid_weights(self.xi.size, self.dxi)
        if self.xi.size >= 5:
            w[-5:] += self.dxi / 12.0 * _EM_EDGE[::-1]
        return w

    def phase(self, xi) -> np.ndarray:
        """Boundary phase theta(xi) of the family sin(xi x + theta(xi)), exact
        at xi = 0 (Neumann too: atan2(0, 0) = 0); the reflection coefficient
        is r(xi) = -e^{2 i theta(xi)}, (xi - i alpha)/(xi + i alpha) for Robin."""
        if self.kind == "dirichlet":
            return np.zeros(np.shape(xi))
        if self.kind == "robin":
            return np.pi / 2 - np.arctan2(self.alpha, xi)
        return np.pi / 2 + np.arctan(xi)

    def family_block(self, sl: slice, points=None):
        """Continuum family sin(xi x + theta) at ``points`` for a block of xi
        nodes: ``(phi, v)``, phi of shape (block, npoints) and v the boundary
        component sin(theta) = phi at x = 0 (None unless extended).  Rows are
        evaluated in the default ``row_panels``, bit for bit the one-shot
        formula."""
        pts = self.x if points is None else np.asarray(points, dtype=float)
        xi = self.xi[sl]
        theta = self.phase(xi)
        phi = np.empty((xi.size, pts.size))
        panels = row_panels(xi.size, pts.size)
        n = np.empty_like(phi[panels[0]] if panels else phi)
        scaled = np.empty_like(n)
        for rows in panels:
            p = phi[rows]
            np.multiply.outer(xi[rows], pts, out=p)
            if self.kind != "dirichlet":
                # add theta to xi x reduced mod 2 pi, so the sum rounds at the
                # scale of 2 pi, not of xi x (as accurate as the expanded forms)
                m, s = n[:len(p)], scaled[:len(p)]
                np.rint(np.divide(p, 2.0 * np.pi, out=m), out=m)
                p -= np.multiply(m, _TWO_PI_HI, out=s)
                p -= np.multiply(m, _TWO_PI_LO, out=s)
                p += theta[rows, None]
            np.sin(p, out=p)
        return phi, (np.sin(theta) if self.extended else None)

    def blocks(self, points=None):
        """Yield ``(sl, phi)`` over consecutive blocks of xi nodes.

        ``phi`` is :meth:`family_block` on the slice ``sl`` at ``points``,
        by default the x nodes: the x grid, plus x = 0 on the extended space.
        Blocking bounds the transient family sample to _CHUNK rows.
        """
        if points is None:
            points = np.append(self.x, 0.0) if self.extended else self.x
        for i0 in range(0, self.xi.size, _CHUNK):
            sl = slice(i0, min(i0 + _CHUNK, self.xi.size))
            yield sl, self.family_block(sl, points=points)[0]

    def _projector(self, f, f_boundary):
        """The analysis of ``f`` as a function of a family block.

        ``project(phi)`` is the endpoint-corrected quadrature of ``f``
        (flushed, see the module docstring) against each row of ``phi``:
        one column per row, the grid axis of ``f`` replaced.  ``phi`` holds
        the rows on the x nodes, then, on the extended space, at x = 0,
        whose weight 1 takes ``f_boundary``.  The x weights are folded into
        the block one row panel at a time, ``phi * w``, so no weighted copy
        of ``f`` is made.

        A factored ``f``, the pair ``(g, h)``, has the samples g[i] h[j]
        and the boundary values g[i] f_boundary; its projection is
        outer(g, phi @ (h w)), one matrix-vector product per block, with
        the coefficients below DBL_MIN flushed, since the outer product
        can make subnormals of normal factors.
        """
        w = corrected_weights(self.x.size, self.dx)
        nx = self.x.size
        fb = _flushed(np.asarray(f_boundary, dtype=float)) if self.extended else None
        if _factored(f):
            g, h = (_flushed(np.asarray(a, dtype=float)) for a in f)
            hw = h * w

            def project(phi):
                v = phi[:, :nx] @ hw
                if fb is not None:
                    v += fb * phi[:, nx]
                c = np.multiply.outer(g, v)
                _flush(c)
                return c

            return project
        f = _flushed(np.asarray(f, dtype=float))

        def project(phi):
            c = np.empty(f.shape[:-1] + (len(phi),))
            for rows in row_panels(len(phi), nx, _PRODUCT_PANEL_BYTES):
                c[..., rows] = f @ (phi[rows, :nx] * w).T
            if fb is not None:
                c += np.multiply.outer(fb, phi[:, nx])
            return c

        return project

    def _synthesize(self, coeffs_of, cb, owned=False):
        # the family on the x nodes summed against the block coefficients
        # ``coeffs_of(sl, phi)`` block by block, plus the bound channel ``cb``;
        # ``owned``: each block is an array of its own, weighted in place
        out = None
        w = self.xi_weights() * self.weight
        for sl, phi in self.blocks():
            c = coeffs_of(sl, phi)
            wc = np.multiply(c, w[sl], out=c if owned else None)
            if out is None:
                out = np.zeros(wc.shape[:-1] + (phi.shape[1],))
            _accumulate(out, wc, phi)
            del phi, c, wc  # free the block before the next one is evaluated
        if self.bound is not None and cb is not None:
            _accumulate(out, np.asarray(cb, dtype=float)[..., None],
                        self.bound.profile(self.x)[None, :])
        return out

    def _split(self, out):
        return (out[..., :-1], out[..., -1]) if self.extended else out

    def analyze(self, f, f_boundary: float = 0.0):
        """Project onto the family: returns (continuum coeffs, bound coeff).

        ``f`` may be a single gridded function, a stack with the grid on the
        last axis, or a factored stack ``(g, h)``, the samples g[i] h[j];
        ``f_boundary`` (scalar or matching stack, or for ``(g, h)`` the
        boundary value of h) is the boundary component of an extended-space
        vector and is ignored otherwise.
        Projections are endpoint-corrected quadratures, run block by block as
        matrix products against the family with the x weights folded in (the
        projector :meth:`transform` uses too).
        """
        project = self._projector(f, f_boundary)
        lead = np.shape(f[0]) if _factored(f) else np.shape(f)[:-1]
        coeffs = np.empty(lead + (self.xi.size,))
        for sl, phi in self.blocks():
            coeffs[..., sl] = project(phi)
            del phi
        cb = None
        if self.bound is not None:
            cb = project(self.bound.profile(self.x)[None, :])[..., 0]
        return coeffs, cb

    def synthesize(self, coeffs, cb=None):
        """Invert :meth:`analyze`.

        Returns the gridded function, or ``(function, boundary_value)`` for
        extended resolutions.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        return self._split(self._synthesize(lambda sl, phi: coeffs[..., sl], cb))

    def transform(self, f, f_boundary, act):
        """``synthesize`` of ``act`` applied to the ``analyze`` coefficients.

        ``act(c, lam)`` maps a block of coefficients ``c`` (grid axis of
        ``f`` replaced by the block's modes) at eigenvalues ``lam`` to new
        coefficients; it must act on each mode independently, and may change
        the leading axes.  What it returns must be an array of its own, a
        new one or ``c`` itself, since the xi weights go on in place.  The
        continuum runs through it one block of _CHUNK xi nodes at a time:
        the family block is evaluated once, projected on, acted on and
        summed against, so no full coefficient array is formed, and no
        array of ``f``'s size besides the output (see the module
        docstring).  ``f`` and ``f_boundary`` are as in :meth:`analyze`,
        the factored pair ``(g, h)`` included.  The bound channel is one
        more call, with ``lam = [bound.lam]``.
        Returns what :meth:`synthesize` returns.
        """
        project = self._projector(f, f_boundary)
        lam = self.omega_sq()
        cb = None
        if self.bound is not None:
            cb = act(project(self.bound.profile(self.x)[None, :]),
                     np.array([self.bound.lam]))[..., 0]
        return self._split(self._synthesize(
            lambda sl, phi: act(project(phi), lam[sl]), cb, owned=True))

    def apply_operator(self, f, f_boundary: float = 0.0):
        """Apply the realized operator through the resolution.

        Continuum coefficients are multiplied by xi^2 + k^2 and the bound
        coefficient by its eigenvalue before resynthesis.
        """
        return self.transform(f, f_boundary, lambda c, lam: c * lam)


def default_nodes(bc: BoundaryCondition, k: float,
                  xi_max: float = DEFAULT_XI_MAX, span: float = 0.0) -> int:
    """Quadrature node count for the window of width ``span``.

    ``span`` is the largest |t - t'| + x + y the caller evaluates: the
    widest t window plus twice x_max for the appliers, max|t| + max x +
    max y for kernels.  The node spacing h is the smallest of MAX_STEP,
    pi/span (the trapezoid aliases an oscillation e^{i xi span} once
    h > 2 pi/span; pi/span keeps a factor 2 clear of it) and, for Robin
    type conditions with alpha(k) != 0, |alpha|/10 (the family turns from
    0 to cos(xi x) over xi ~ |alpha|).  Returns ceil(xi_max/h) + 1, at
    least MIN_NODES and at most DEFAULT_NODES; the ratio is clamped before
    rounding up, so a huge span or a subnormal alpha gives DEFAULT_NODES.
    """
    h = MAX_STEP
    if span > 0:
        h = min(h, math.pi / span)
    alpha = bc.realization(k)[1]
    if alpha:
        h = min(h, abs(alpha) / 10.0)
    steps = xi_max / h if h > 0 else math.inf
    return max(MIN_NODES, math.ceil(min(steps, DEFAULT_NODES - 1)) + 1)


def resolve(bc: BoundaryCondition, k: float, x,
            xi_max: float = DEFAULT_XI_MAX, nodes: Optional[int] = DEFAULT_NODES,
            span: float = 0.0) -> SpectralResolution:
    """Build the spectral resolution of the realization chosen by ``bc``.

    Dirichlet gives the sine family; Neumann, Robin and multiplier conditions
    give the Robin family at the per-mode coefficient (plus the bound state
    when alpha < 0); the dynamical condition gives the extended family.
    ``xi_max`` and ``nodes`` fix the quadrature truncation; ``nodes=None``
    takes :func:`default_nodes` for the window of width ``span``.  ``x`` must
    be a uniform increasing grid starting at the boundary, x = 0.
    """
    if not xi_max > 0:
        raise ValueError("xi_max must be positive")
    nodes = default_nodes(bc, k, xi_max, span) if nodes is None else nodes
    if nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} quadrature nodes")
    x = np.asarray(x, dtype=float)
    check_uniform_grid(x)
    if x[0] != 0.0:
        raise ValueError(f"x must start at the boundary x = 0, got {x[0]:g}")
    xi = np.linspace(0.0, float(xi_max), int(nodes))
    kind, alpha = bc.realization(k)
    return SpectralResolution(kind=kind, alpha=alpha, k=float(k), x=x, xi=xi,
                              bound=bound_state(alpha, k))


def completeness_residual(res: SpectralResolution, f, f_boundary: float = 0.0,
                          include_bound: bool = True) -> float:
    """Relative L2 defect of reconstructing ``f`` through the resolution.

    On the extended space the norm is that of L2(dx + delta_0).
    ``include_bound=False`` deliberately drops the bound-state channel,
    which quantifies how much of the input lives on it.
    """
    f = np.asarray(f, dtype=float)
    check_decay(f, res.dx, what="completeness input")
    c, cb = res.analyze(f, f_boundary)
    fn, w = f, corrected_weights(res.x.size, res.dx)    # f on the x nodes
    if res.extended:
        fn, w = np.append(f, f_boundary), np.append(w, 1.0)
    err = fn - res._synthesize(lambda sl, phi: c[..., sl],
                               cb if include_bound else None)
    return float(np.sqrt(max((err * err) @ w, 0.0) / ((fn * fn) @ w)))
