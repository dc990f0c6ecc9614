"""Causal, retarded and advanced Green operators built by functional calculus.

Conventions (fixed here, used by every test):

* the causal kernel is
  G(t; x, y) = (2/pi) int s(xi^2 + k^2, t) phi(x; xi) phi(y; xi) dxi
             + s(lam_b, t) e(x) e(y)
  with s(lam, t) = sin(sqrt(lam) t)/sqrt(lam) continued through lam <= 0
  (t at lam = 0, sinh for lam < 0); it is odd in t, symmetric in (x, y),
  vanishes at t = 0 and has a delta-type time derivative there;
* the retarded applier integrates sources over past times only and its
  output vanishes before the source; the advanced applier is its mirror and
  vanishes after the source; retarded - advanced = causal;
* both one-sided appliers are two-sided inverses of d_tt + A on compactly
  supported sources.

The three appliers share one window routine, ``_window``: the time
convolution with s(lam, t - t') factors through the addition formula of
sin, of t - t' at lam = 0, or of sinh for lam < 0, into integrals of the
source coefficients over the whole sample (causal), its prefix (retarded)
or its suffix (advanced, negated).  The continuum, its omega = 0 node
included, goes through it block by block; the bound channel is one more
call, through sinh/cosh whenever its eigenvalue k^2 - alpha^2 is negative.

Every applier on the x grid (the three above, ``wentzell_apply``,
``evolve_cauchy`` and ``kernel_time_derivative_apply``) is one pass of
``SpectralResolution.transform``: one loop over blocks of _CHUNK xi nodes
that evaluates each family block once, projects the source on it, acts on
the block's modes and sums the block back into the field.  Transient memory
is O(nt nx + nt _CHUNK + _CHUNK nx); no nt x n_xi coefficient array exists.

Truncating the frequency integral at xi_max leaves an oscillatory tail of
size O(1/(xi_max * c)), c the distance to the nearest characteristic, far
too large for pointwise kernel work.  For the k = 0 trigonometric families
the tail has closed form in sine-integral and exponential-integral
functions, and ``causal_kernel`` adds it back by default, leaving pure
quadrature error.  The tail is evaluated once per distinct characteristic
argument |t -+ u|, |t -+ v| and gathered back, so a tensor grid pays about
nt (nx + ny) complex exp1 evaluations instead of nt nx ny.  The xi weights
carry the Euler-Maclaurin correction at xi_max
(``SpectralResolution.xi_weights``), so that error is fourth order in the
node spacing: below 1e-7 at 801 nodes on [0, 40], about 3e-11 at 4000.
Elsewhere no completion exists and the kernel warns.

The trapezoid rule in xi aliases once the evaluated span, the widest
|t - t'| + x + y, exceeds 2 pi/dxi; every kernel and applier then raises a
:class:`TruncationWarning`.  ``spectral.default_nodes`` sizes the grid with
a factor 2 clear of that limit.

On a tensor grid the continuum sum separates into t, x and y factors:
``build_kernel_grid`` evaluates the family once per axis and contracts one
matrix product per time sample, at n_xi (nt + nx + ny) transcendental
evaluations against nt nx ny n_xi for pointwise sampling of every grid point.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import exp1, sici

from . import g17
from .model import WarpedProfile, conformal_factors
from .quadrature import TruncationWarning, check_decay
from .spectral import ExtendedState, SpectralResolution

_SERIES_CUT = 1e-4
_CSV_CHUNK = 4096      # values formatted at a time by write_grid_csv


def _continued(lam, t, series, trig, hyp, per_rate):
    # one body for the continued functions of sqrt(lam) t: ``series(t, z)``
    # for |z| = |lam| t^2 below _SERIES_CUT, else ``trig`` for lam > 0 and
    # ``hyp`` for lam < 0 at sqrt(|lam|) t, divided by sqrt(|lam|) when
    # ``per_rate``
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=float),
                                 np.asarray(t, dtype=float))
    z = lam * t * t
    out = np.empty(z.shape)
    small = np.abs(z) < _SERIES_CUT
    out[small] = series(t[small], z[small])
    big = ~small
    lb, tb = lam[big], t[big]
    rb = np.sqrt(np.abs(lb))
    vals = np.where(lb > 0, trig(rb * tb), hyp(rb * tb))
    out[big] = vals / np.where(rb == 0, 1.0, rb) if per_rate else vals
    return out


def sin_propagator(lam, t):
    """s(lam, t) = sin(sqrt(lam) t)/sqrt(lam), continued through lam <= 0.

    Equals t at lam = 0 and sinh(sqrt(-lam) t)/sqrt(-lam) for lam < 0.  A
    series branch handles |lam| t^2 < 1e-4 without cancellation; the series
    is one and the same for both signs of lam.
    """
    return _continued(lam, t, lambda t, z: t * (1.0 - z / 6.0 + z * z / 120.0),
                      np.sin, np.sinh, per_rate=True)


def cos_propagator(lam, t):
    """cos(sqrt(lam) t) continued through lam <= 0 (cosh for lam < 0)."""
    return _continued(lam, t, lambda t, z: 1.0 - z / 2.0 + z * z / 24.0,
                      np.cos, np.cosh, per_rate=False)


# ---------------------------------------------------------------------------
# closed-form frequency tails (k = 0 trigonometric families)

def _distinct(c):
    # the distinct |c| and the indices that gather them back onto c's shape;
    # scipy's special functions are elementwise, so a tail computed on the
    # distinct values and gathered is bit-identical to one computed pointwise
    mags, inverse = np.unique(np.abs(c), return_inverse=True)
    return mags, inverse.reshape(np.shape(c))


def _si_tail(c, xi_max):
    # int_X^inf sin(xi c)/xi dxi
    c = np.asarray(c, dtype=float)
    mags, back = _distinct(c)
    s, _ = sici(xi_max * mags)
    return np.sign(c) * (np.pi / 2 - s)[back]


def _exp1_pair(c, a, xi_max):
    # int_X^inf e^{i c xi}/(xi -+ i a) dxi for c > 0, a > 0
    p = -1j * c
    plus = np.exp(p * (-1j * a)) * exp1(p * (xi_max - 1j * a))
    minus = np.exp(p * (1j * a)) * exp1(p * (xi_max + 1j * a))
    return plus, minus


def _frac_tails(c, a, xi_max):
    # int_X^inf cos(xi c)/(xi^2 + a^2) dxi, even in c, and
    # int_X^inf sin(xi c) xi/(xi^2 + a^2) dxi, odd in c, from one exp1 pair
    c = np.asarray(c, dtype=float)
    ca, back = _distinct(c)
    a = abs(a)
    cos_tail = np.empty(ca.shape)
    sin_tail = np.zeros(ca.shape)
    zero = ca == 0
    cos_tail[zero] = (np.pi / 2 - np.arctan(xi_max / a)) / a
    nz = ~zero
    if np.any(nz):
        plus, minus = _exp1_pair(ca[nz], a, xi_max)
        cos_tail[nz] = (plus - minus).imag / (2.0 * a)
        sin_tail[nz] = ((plus + minus) / 2).imag
    return cos_tail[back], np.sign(c) * sin_tail[back]


def _kernel_tail(kind, alpha, t, x, y, xi_max):
    """Exact xi > xi_max completion of the k = 0 kernel integral.

    Derived from the product decomposition of the family: with u = x - y and
    v = x + y the Dirichlet product is (cos(xi u) - cos(xi v))/2, and the
    Robin product adds correction terms with 1/(xi^2 + alpha^2) envelopes.
    Returns the raw tail integral (the caller applies the 2/pi weight).
    """
    u = x - y
    v = x + y
    tail = 0.25 * (_si_tail(t + u, xi_max) + _si_tail(t - u, xi_max))
    if kind == "dirichlet":
        return tail - 0.25 * (_si_tail(t + v, xi_max) + _si_tail(t - v, xi_max))
    if alpha == 0.0:
        return tail + 0.25 * (_si_tail(t + v, xi_max) + _si_tail(t - v, xi_max))
    a = alpha
    tail = tail - 0.25 * (_si_tail(t + v, xi_max) + _si_tail(t - v, xi_max))
    cos_minus, sin_minus = _frac_tails(t - v, a, xi_max)
    cos_plus, sin_plus = _frac_tails(t + v, a, xi_max)
    tail = tail + (a / 2.0) * (cos_minus - cos_plus)
    tail = tail + 0.5 * (sin_plus + sin_minus)
    return tail


def _check_aliasing(res: SpectralResolution, span: float) -> None:
    # the xi trapezoid aliases e^{i xi span} once span exceeds 2 pi/dxi
    limit = 2.0 * np.pi / res.dxi
    if span > limit:
        warnings.warn(
            f"the evaluated span {span:.4g} exceeds 2 pi/dxi = {limit:.4g} "
            f"at {res.xi.size} xi nodes: the frequency quadrature aliases; "
            "use more nodes or a narrower window", TruncationWarning, stacklevel=3)


def kernel_span(t, x, y) -> float:
    """Widest |t| + |x| + |y| a kernel evaluation at these samples reaches."""
    return sum(float(np.max(np.abs(a))) if np.size(a) else 0.0 for a in (t, x, y))


def _non_separable(res: SpectralResolution, t, x, y, tails: Optional[bool]):
    """Kernel terms outside the continuum sum, at broadcastable (t, x, y).

    Resolves the ``tails`` default (on whenever the closed-form completion
    exists: static families at k = 0) and returns ``(terms, tails)``, where
    ``terms`` is the bound-state term plus, with tails on, the weighted
    closed-form xi > xi_max completion.  Without a completion the truncation
    error is of order 1/xi_max, growing near the characteristics; a
    defaulted ``tails`` says so with a :class:`TruncationWarning`.
    """
    closed_form = res.k == 0.0 and not res.extended
    if tails is None:
        tails = closed_form
        if not closed_form:
            xi_max = float(res.xi[-1])
            warnings.warn(
                f"no closed-form frequency tail for the {res.kind} family at "
                f"k = {res.k:g}: the kernel keeps a truncation error of order "
                f"1/xi_max = {1.0 / xi_max:.1e}, growing near the characteristics",
                TruncationWarning, stacklevel=3)
    if tails and not closed_form:
        raise ValueError("tail completion only exists for static families at k = 0")
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y))
    terms = np.zeros(shape)
    if res.bound is not None:
        b = res.bound
        terms += sin_propagator(b.lam, t) * b.profile(x) * b.profile(y)
    if tails:
        terms += res.weight * _kernel_tail(res.kind, res.alpha, t, x, y,
                                           float(res.xi[-1]))
    return terms, bool(tails)


def causal_kernel(res: SpectralResolution, t, x, y, tails: Optional[bool] = None):
    """Sample the causal kernel G(t; x, y) at broadcastable points.

    Points need not lie on the resolution's x grid: the eigenfamily has a
    closed form.  ``tails`` controls the analytic completion of the truncated
    frequency integral; it defaults to on whenever the closed form exists
    (static families at k = 0) and off otherwise, with a
    :class:`TruncationWarning`.  For extended resolutions this is the
    bulk-bulk block of the extended kernel; the boundary channel enters
    through the source lift in :func:`wentzell_apply`.  Tensor grids go
    through :func:`build_kernel_grid`, which factors the sum instead.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
    tt = np.broadcast_to(t, shape).ravel()
    xx = np.broadcast_to(x, shape).ravel()
    yy = np.broadcast_to(y, shape).ravel()
    _check_aliasing(res, kernel_span(tt, xx, yy))
    terms, _ = _non_separable(res, tt, xx, yy, tails)
    out = np.zeros(tt.size)
    w = res.xi_weights()
    for (sl, phi_x, _), (_, phi_y, _) in zip(res.blocks(xx), res.blocks(yy)):
        lam = (res.xi[sl] ** 2 + res.k ** 2)[:, None]
        s = sin_propagator(lam, tt[None, :])
        out += (w[sl][:, None] * s * phi_x * phi_y).sum(axis=0)
    return (res.weight * out + terms).reshape(shape)


def write_grid_csv(path, header: str, axes, values) -> None:
    """Write ``values`` sampled on the tensor grid of ``axes`` as CSV.

    Rows are ``(axis values..., value)`` over the tensor product of the axes,
    last axis innermost, every number printed as ``%.17g`` (round-trip
    precision).  Axes are formatted once; values go _CSV_CHUNK at a time
    through ``g17.text``, and each chunk's rows are assembled into one
    NUL-padded byte matrix whose padding is dropped before the write.

    The bytes are exactly ``'%.17g' % v`` (``g17`` has the derivation):

    * the digits are the integer nearest to y = |v| 10^(16-E), formed as a
      double-double hi + lo from Dekker's exact product with a double-double
      table of 10^q, so |hi + lo - y| < 1e-14;
    * E = floor(log10 |v|) is kept while 10^16 - 0.025 <= y < 10^17 + 0.25,
      not by exact comparisons (10^q is inexact for q < 0 and q > 22); in
      those edge bands both exponents give the same 17 digits once 10^17 is
      carried to 10^16 at E + 1;
    * values whose fractional part of y lies within 1e-9 of 1/2 (ties and
      near-ties), zeros, non-finite values and |v| outside [1e-250, 1e250]
      are formatted by ``%`` itself.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float).reshape([a.size for a in axes])
    flat = values.ravel()
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        if flat.size == 0:
            return
        # each axis value's text and comma as one fixed-width void item,
        # less the columns that are NUL for every value of the axis
        cells = []
        for a in axes:
            c = np.hstack([g17.text(a), np.full((a.size, 1), ord(","), np.uint8)])
            c = np.ascontiguousarray(c[:, c.any(axis=0)])
            cells.append(c.view(f"V{c.shape[1]}").ravel())
        strides = np.cumprod([1] + [a.size for a in axes[:0:-1]])[::-1]
        for start in range(0, flat.size, _CSV_CHUNK):
            fh.write(_csv_rows(cells, strides, flat, start))


def _csv_rows(cells, strides, flat, start):
    # the rows of flat[start:start + _CSV_CHUNK] as one byte array; a call
    # of its own, so one chunk's buffers are freed before the next is built
    i = np.arange(start, min(start + _CSV_CHUNK, flat.size))
    block = np.hstack([c[i // s % c.size].view(np.uint8).reshape(i.size, -1)
                       for c, s in zip(cells, strides)]
                      + [g17.text(flat[i]), np.full((i.size, 1), ord("\n"), np.uint8)])
    return block[block != 0]


@dataclass
class KernelGrid:
    """Causal kernel sampled on a (t, x, y) tensor grid."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Rows (t, x, y, value), as written by :func:`write_grid_csv`."""
        write_grid_csv(path, "t,x,y,value", (self.t, self.x, self.y), self.values)

    def to_binary(self, path_base) -> None:
        """Raw row-major doubles plus a JSON sidecar describing the axes."""
        self.values.astype("<f8").tofile(str(path_base) + ".bin")
        sidecar = {
            "dtype": "<f8",
            "order": "C",
            "shape": list(self.values.shape),
            "axes": {
                "t": [float(self.t[0]), float(self.t[-1]), int(self.t.size)],
                "x": [float(self.x[0]), float(self.x[-1]), int(self.x.size)],
                "y": [float(self.y[0]), float(self.y[-1]), int(self.y.size)],
            },
            "meta": self.meta,
        }
        with open(str(path_base) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)

    @classmethod
    def from_binary(cls, path_base) -> "KernelGrid":
        with open(str(path_base) + ".json") as fh:
            sidecar = json.load(fh)
        values = np.fromfile(str(path_base) + ".bin", dtype=sidecar["dtype"])
        values = values.reshape(sidecar["shape"])
        ax = sidecar["axes"]
        return cls(t=np.linspace(*ax["t"][:2], ax["t"][2]),
                   x=np.linspace(*ax["x"][:2], ax["x"][2]),
                   y=np.linspace(*ax["y"][:2], ax["y"][2]),
                   values=values, meta=sidecar.get("meta", {}))


def build_kernel_grid(res: SpectralResolution, t, x, y,
                      tails: Optional[bool] = None) -> KernelGrid:
    """Evaluate the causal kernel on the tensor grid t (x) x (x) y.

    The continuum sum factors over the grid: with phi_x = phi_xi(x),
    phi_y = phi_xi(y) and S[t] = w_xi s(xi^2 + k^2, t), each time slice is
    the matrix product (phi_x * S[t]).T @ phi_y.  The bound-state and tail
    terms (``tails`` as in :func:`causal_kernel`) are broadcast over the grid.
    Transient memory is O(n_xi (nt + nx + ny) + nt nx ny).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_aliasing(res, kernel_span(t, x, y))
    terms, tails = _non_separable(res, t[:, None, None], x[None, :, None],
                                  y[None, None, :], tails)
    phi_x, _ = res.family_block(slice(None), points=x)
    phi_y, _ = res.family_block(slice(None), points=y)
    S = res.xi_weights() * sin_propagator(res.omega_sq()[None, :], t[:, None])
    values = np.empty((t.size, x.size, y.size))
    for i, s in enumerate(S):
        values[i] = (phi_x * s[:, None]).T @ phi_y
    values = res.weight * values + terms
    meta = {
        "kind": res.kind,
        "alpha": res.alpha,
        "k": res.k,
        "quadrature": res.quadrature,
        "tails": tails,
    }
    return KernelGrid(t=t, x=x, y=y, values=values, meta=meta)


# ---------------------------------------------------------------------------
# space-time appliers

def _check_source_window(res, f, t):
    f = np.asarray(f)
    if f.size == 0 or np.max(np.abs(f)) == 0:
        return
    scale = np.max(np.abs(f))
    edge = max(np.max(np.abs(f[0])), np.max(np.abs(f[-1])))
    if edge > 1e-8 * scale:
        warnings.warn(
            f"source support touches the time window edge "
            f"(edge/peak = {edge / scale:.2e}); one-sided appliers lose "
            "contributions from outside the window",
            TruncationWarning, stacklevel=3)
    check_decay(f, res.dx, what="source spatial support")


def _harmonics(lam, t):
    """Factors (s, c, rate) of s(lam, t - t') = (s(t) c(t') - c(t) s(t'))/rate.

    Per column of ``lam``: sin, cos and sqrt(lam) for lam > 0; t, 1 and 1 at
    lam = 0; sinh, cosh and sqrt(-lam) for lam < 0.  Arrays are (nt, nlam).
    """
    lam = np.asarray(lam, dtype=float)
    rate = np.sqrt(np.abs(lam))
    arg = np.multiply.outer(t, rate)
    pos, neg = lam > 0, lam < 0
    s = np.broadcast_to(t[:, None], arg.shape).copy()
    c = np.ones(arg.shape)
    np.sin(arg, out=s, where=pos)
    np.sinh(arg, out=s, where=neg)
    np.cos(arg, out=c, where=pos)
    np.cosh(arg, out=c, where=neg)
    return s, c, np.where(lam == 0, 1.0, rate)


def _window(coeffs, t, lam, support: str):
    """Time convolution of mode coefficients with s(lam, t - t') over a window.

    ``coeffs`` is (nt, nlam), one column per eigenvalue in ``lam``.  The
    addition formula of :func:`_harmonics` turns the convolution into
    (s(t) I_c(t) - c(t) I_s(t))/rate, with I_c, I_s the trapezoid integrals
    of c(t') coeffs and s(t') coeffs over the window ``support`` selects:
    all t' for 'causal', the prefix t' <= t for 'retarded' and the suffix
    t' >= t for 'advanced', whose result is negated so that
    retarded - advanced = causal.
    """
    s, c, rate = _harmonics(lam, t)
    dt = float(t[1] - t[0])
    if support == "causal":
        Ic = np.trapezoid(c * coeffs, dx=dt, axis=0)
        Is = np.trapezoid(s * coeffs, dx=dt, axis=0)
    else:
        Ic = cumulative_trapezoid(c * coeffs, dx=dt, axis=0, initial=0.0)
        Is = cumulative_trapezoid(s * coeffs, dx=dt, axis=0, initial=0.0)
        if support == "advanced":
            Ic, Is = Ic[-1] - Ic, Is[-1] - Is
    D = (s * Ic - c * Is) / rate
    return -D if support == "advanced" else D


def _apply(res: SpectralResolution, f, t, support: str):
    """Shared machinery behind the causal/retarded/advanced appliers.

    One pass of :meth:`SpectralResolution.transform`: per block of _CHUNK xi
    nodes the source is projected on the family block, each mode is
    convolved in time by one window routine, :func:`_window` (two cumulative
    integrals per mode instead of a dense (t, t') contraction), and the
    block is summed back against the same family block.  The continuum
    (including its omega = 0 node) and the bound channel (sinh/cosh while
    its eigenvalue is negative) go through that routine alike.  Transient
    memory is O(nt nx + nt _CHUNK + _CHUNK nx); no nt x n_xi array is formed.
    The xi grid must resolve the span t_max - t_min + 2 x_max; a coarser
    grid aliases and raises a :class:`TruncationWarning`.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != (t.size, res.x.size):
        raise ValueError("source must be sampled on the (t, x) grid of the call")
    _check_source_window(res, f, t)
    _check_aliasing(res, float(t[-1] - t[0]) + 2.0 * float(res.x[-1]))
    out = res.transform(f, f[:, 0] if res.extended else 0.0,
                        lambda c, lam: _window(c, t, lam, support))
    return out[0] if res.extended else out


def apply_causal(res: SpectralResolution, f, t):
    """Field of the causal propagator for a space-time source f(t, x).

    Annihilates sources of the form (d_tt + A) g for compactly supported g,
    and solves the homogeneous equation away from the source support.
    """
    return _apply(res, f, t, "causal")


def apply_retarded(res: SpectralResolution, f, t):
    """Retarded solution of (d_tt + A) u = f; vanishes before the source."""
    return _apply(res, f, t, "retarded")


def apply_advanced(res: SpectralResolution, f, t):
    """Advanced solution of (d_tt + A) u = f; vanishes after the source."""
    return _apply(res, f, t, "advanced")


def wentzell_apply(res: SpectralResolution, f, t, support: str = "retarded"):
    """Field of the dynamical-condition propagator for a bulk source.

    The source is lifted to the extended space by pairing it with its own
    boundary trace, propagated through the extended family, and projected
    back to the bulk.  The output obeys the dynamical boundary condition
    u'(0) = (d_tt + k^2) u(0) up to discretization error.
    """
    if not res.extended:
        raise ValueError("needs an extended (dynamical) resolution")
    if support not in ("causal", "retarded", "advanced"):
        raise ValueError(f"unknown support {support!r}")
    return _apply(res, f, t, support)


def evolve_cauchy(res: SpectralResolution, u0, v0, times):
    """Homogeneous evolution from initial data (u0, v0).

    u(t) = cos-propagator(t) u0 + sin-propagator(t) v0 through the
    resolution; u(0) = u0 exactly and du/dt(0) = v0.  Extended resolutions
    accept :class:`halfwave.spectral.ExtendedState` data (plain arrays are
    lifted compatibly).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if isinstance(u0, ExtendedState):
        fb0, u0 = u0.v, u0.u
    else:
        u0 = np.asarray(u0, dtype=float)
        fb0 = u0[0] if res.extended else 0.0
    if isinstance(v0, ExtendedState):
        fb1, v0 = v0.v, v0.u
    else:
        v0 = np.asarray(v0, dtype=float)
        fb1 = v0[0] if res.extended else 0.0

    def act(c, lam):
        # c stacks the coefficients of u0 and v0; one row per time out
        return (cos_propagator(lam[None, :], times[:, None]) * c[0]
                + sin_propagator(lam[None, :], times[:, None]) * c[1])

    out = res.transform(np.stack([u0, v0]), np.array([fb0, fb1], dtype=float), act)
    return out[0] if res.extended else out


def kernel_time_derivative_apply(res: SpectralResolution, g):
    """Apply the t = 0 time derivative of the causal kernel to a function.

    The equal-time derivative is a reproducing (delta-type) kernel, so the
    output should reproduce ``g`` up to quadrature residuals.
    """
    g = np.asarray(g, dtype=float)
    out = res.transform(g, g[0] if res.extended else 0.0, lambda c, lam: c)
    return out[0] if res.extended else out


def conformal_wrap(apply_fn: Callable, profile: WarpedProfile) -> Callable:
    """Wrap a reduced-model applier into the warped-metric one.

    Returns ``f -> pre * apply_fn(post * f)`` with the pointwise multipliers
    of :func:`halfwave.model.conformal_factors`.  For beta identically 1 the
    wrapped applier equals the original.
    """
    pre, post = conformal_factors(profile)

    def wrapped(f, *args, **kwargs):
        f = np.asarray(f, dtype=float)
        return pre * apply_fn(f * post, *args, **kwargs)

    return wrapped
