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

One evaluator, ``_addition``, samples both the family and the time
harmonics (``propagator._harmonics``) through the addition theorem.  A row
has a rate omega, a sign sigma and a phase theta, and its S, C are sin, cos
(sigma = -1), sinh, cosh (sigma = +1) or p, 1 (sigma = 0) of omega p +
theta.  The points p go in cells, p = c + f (``quadrature.cells``): on a
uniform grid of n points, about sqrt(n) cell starts c, held exactly as
pairs of doubles, and b = ceil(sqrt(n)) offsets f.  Then s = S_c C_f + C_c
S_f and c = C_c C_f + sigma S_c S_f, from tables (``_table``) at omega c +
theta, the exact omega c reduced mod 2 pi where sigma = -1 (``_angles``),
and at omega f: about 4 sqrt(n) table values for n points, combined by one
batched matrix product per row over its cells (``_cell_sum``), the only
combine path.  The tables are made a few dozen rows at a time, each at most
half of a 128 KB panel.  The family is s at sigma = -1 and theta(xi), within
one ulp of xi_max x_max of the exact family at the stored points: the
point's own error (half an ulp of x_max on a ``linspace`` from 0) times xi,
plus a few ulps of 2 pi.  Points that are not uniform make cells of one
point, where s and c are the table itself.

One rule keeps the blocked products off a slow floating-point path and
changes no result bit: the analysis input, the samples that ``analyze``
and ``transform`` project, has every |value| < DBL_MIN set to 0.  A
subnormal operand sends the matrix products through microcode assists, and
it can move no sum whose magnitude is above 2^53 DBL_MIN (~2e-292).

No array of the input's size is made besides the output.  ``analyze`` and
``transform`` share one projector, which folds the x weights into the
family block rather than into the samples, and ``_synthesize`` sums each
block into its output, weighting it in place, so a block has one
coefficient array.  Both products run one row panel of about
_PRODUCT_PANEL_BYTES (1 MB) at a time, so the weighted family and the
partial sums never take more than one panel each.

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
from .quadrature import (_EM_EDGE, cells, check_decay, check_uniform_grid,
                         corrected_weights, row_panels, trapezoid_weights,
                         two_product)

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


def _angles(omega, coarse, periodic):
    """omega c in one double, at the rates ``omega`` and the cell starts
    ``coarse`` = (hi, lo) of ``quadrature.cells`` (broadcastable): the
    exact product, reduced mod 2 pi where ``periodic`` (whole multiples of
    _TWO_PI_HI come off exactly), its low part added last."""
    hi, lo = coarse
    p, e = two_product(omega, hi)
    e += omega * lo
    m = np.rint(p / (2.0 * np.pi)) * periodic
    p -= m * _TWO_PI_HI
    p -= m * _TWO_PI_LO
    p += e
    return p


def _cell_sum(out, coarse, fine):
    # out[:, j b + r] = sum over k of coarse[:, j, k] fine[:, k, r], b =
    # fine.shape[2]: one matrix product per row over its whole cells, one
    # more over the last cell, which may be short.  A product into strided
    # rows takes numpy's slow loop (about 10 times the time), so rows that
    # are not contiguous are summed into a new array and copied, same bits
    if out.strides[-1] != out.itemsize:
        out[...] = _cell_sum(np.empty(out.shape), coarse, fine)
        return out
    rows, n = out.shape
    b = fine.shape[2]
    m = n - n % b
    np.matmul(coarse[:, :m // b], fine, out=out[:, :m].reshape(rows, m // b, b))
    if m < n:
        np.matmul(coarse[:, m // b:], fine[:, :, :n - m],
                  out=out[:, m:].reshape(rows, 1, n - m))
    return out


def _table(sign, arg, lin):
    """``(S, C)`` at the angles ``arg``, with ``sign`` and ``lin``
    broadcastable to its shape: sin and cos where sign < 0, sinh and cosh
    where sign > 0, and ``lin`` and 1 where sign = 0.  sin and cos are taken
    everywhere, unmasked, and the few other entries written over; sinh and
    cosh are taken where sign > 0 only, so nothing overflows that is not
    returned."""
    s, c = np.asarray(np.sin(arg)), np.asarray(np.cos(arg))
    if not np.all(sign < 0):
        np.sinh(arg, out=s, where=sign > 0)
        np.cosh(arg, out=c, where=sign > 0)
        np.copyto(s, lin, where=sign == 0)
        np.copyto(c, 1.0, where=sign == 0)
    return s, c


def _addition(rate, sign, points, s, c=None, theta=None):
    """The addition-theorem evaluator: row i of ``s`` is S, and of ``c``
    (when given) C, of :func:`_table` at rate[i] p + theta[i] and sign[i],
    over the points p, given as their ``quadrature.cells`` (see the module
    docstring).  ``s`` and ``c`` may be strided views."""
    coarse, fine = points
    for rows in row_panels(rate.size, 2 * (coarse[0].size + fine.size)):
        r, sg = rate[rows, None], sign[rows, None]
        a = _angles(r, coarse, sg < 0)
        if theta is not None:
            a += theta[rows, None]
        cell = np.stack(_table(sg, a, coarse[0] + coarse[1]), axis=2)
        sf, cf = _table(sg, r * fine, fine)
        _cell_sum(s[rows], cell, np.stack([cf, sf], axis=1))
        if c is not None:
            _cell_sum(c[rows], cell, np.stack([sg * sf, cf], axis=1))


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

    def family_block(self, sl: slice, points=None, *, _out=None):
        """Continuum family sin(xi x + theta) at ``points``, by default the
        x grid, for a block of xi nodes: ``(phi, v)``, phi of shape (block,
        npoints) and v the boundary component sin(theta) = phi at x = 0
        (None unless extended).

        It is :func:`_addition` at rates xi, sign -1 and phase theta, s
        only (see the module docstring); points that are not uniform make
        cells of one point, where it is sin(xi x + theta) itself.  phi is
        the leading rows of ``_out`` when :meth:`blocks` passes its buffer."""
        pts = self.x if points is None else np.asarray(points, dtype=float)
        xi = self.xi[sl]
        theta = self.phase(xi)
        phi = np.empty((xi.size, pts.size)) if _out is None else _out[:xi.size]
        _addition(xi, np.full(xi.size, -1.0), cells(pts), phi, theta=theta)
        return phi, (np.sin(theta) if self.extended else None)

    def blocks(self, points=None):
        """Yield ``(sl, phi)`` over consecutive blocks of xi nodes.

        ``phi`` is :meth:`family_block` on the slice ``sl`` at ``points``,
        by default the x grid, whose first node is the boundary x = 0: on
        the extended space its column is also the boundary component.
        Every block is evaluated into one buffer of _CHUNK rows, the first
        block's, so a pass touches its pages once, and a yielded ``phi``
        stays valid only until the next step.
        """
        buf = None
        for i0 in range(0, self.xi.size, _CHUNK):
            sl = slice(i0, min(i0 + _CHUNK, self.xi.size))
            phi = self.family_block(sl, points=points, _out=buf)[0]
            buf = phi if buf is None else buf
            yield sl, phi

    def _projector(self, f, f_boundary):
        """The analysis of ``f`` as a function of a family block.

        ``project(phi)`` is the endpoint-corrected quadrature of ``f``
        (flushed, see the module docstring) against each row of ``phi``:
        one column per row, the grid axis of ``f`` replaced.  ``phi`` holds
        the rows on the x grid; on the extended space the boundary node,
        x = 0 with weight 1, takes ``f_boundary`` against the grid's first
        column, its value there.  The x weights are folded into
        the block one row panel at a time, ``phi * w``, so no weighted copy
        of ``f`` is made.

        A factored ``f``, the pair ``(g, h)``, has the samples g[i] h[j]
        and the boundary values g[i] f_boundary; its projection is
        outer(g, phi @ (h w)), one matrix-vector product per block, with
        the coefficients below DBL_MIN flushed, since the outer product
        can make subnormals of normal factors.
        """
        w = corrected_weights(self.x.size, self.dx)
        fb = _flushed(np.asarray(f_boundary, dtype=float)) if self.extended else None
        if _factored(f):
            g, h = (_flushed(np.asarray(a, dtype=float)) for a in f)
            hw = h * w

            def project(phi):
                v = phi @ hw
                if fb is not None:
                    v += fb * phi[:, 0]
                c = np.multiply.outer(g, v)
                _flush(c)
                return c

            return project
        f = _flushed(np.asarray(f, dtype=float))

        def project(phi):
            c = np.empty(f.shape[:-1] + (len(phi),))
            for rows in row_panels(len(phi), phi.shape[1], _PRODUCT_PANEL_BYTES):
                c[..., rows] = f @ (phi[rows] * w).T
            if fb is not None:
                c += np.multiply.outer(fb, phi[:, 0])
            return c

        return project

    def _synthesize(self, coeffs_of, cb):
        # the family on the x nodes summed against the block coefficients
        # ``coeffs_of(sl, phi)`` block by block, plus the bound channel ``cb``;
        # each block must be an array of its own, since it is weighted in place
        out = None
        w = self.xi_weights() * self.weight
        for sl, phi in self.blocks():
            c = coeffs_of(sl, phi)
            c *= w[sl]
            if out is None:
                out = np.zeros(c.shape[:-1] + (phi.shape[1],))
            _accumulate(out, c, phi)
            del c  # free the coefficients before the next block is evaluated
        if self.bound is not None and cb is not None:
            _accumulate(out, np.asarray(cb, dtype=float)[..., None],
                        self.bound.profile(self.x)[None, :])
        return out

    def _split(self, out):
        # the extended space's boundary component is the value at x = 0
        return (out, out[..., 0].copy()) if self.extended else out

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
        return self._split(self._synthesize(lambda sl, phi: coeffs[..., sl].copy(), cb))

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
            lambda sl, phi: act(project(phi), lam[sl]), cb))

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
    u = res._synthesize(lambda sl, phi: c[..., sl].copy(), cb if include_bound else None)
    if res.extended:
        fn, w, u = np.append(f, f_boundary), np.append(w, 1.0), np.append(u, u[0])
    err = fn - u
    return float(np.sqrt(max((err * err) @ w, 0.0) / ((fn * fn) @ w)))
