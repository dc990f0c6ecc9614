"""Causal, retarded and advanced Green operators built by functional calculus.

Conventions (fixed here, used by every test):

* the causal kernel is
  G(t; x, y) = (2/pi) int s(xi^2 + k^2, t) phi(x; xi) phi(y; xi) dxi
             + s(lam_b, t) e(x) e(y)
  with s(lam, t) = sin(sqrt(lam) t)/sqrt(lam) continued through lam <= 0
  (t at lam = 0, sinh for lam < 0); it is odd in t, symmetric in (x, y),
  vanishes at t = 0 and has a delta-type time derivative there; one
  evaluator, ``_harmonics``, computes the continued sin/cos of sqrt(lam) t
  for the kernels, the appliers and ``evolve_cauchy``;
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
too large for pointwise kernel work.  For every family at k = 0 the tail
has closed form through the reflection coefficient r(xi) of the family
sin(xi x + theta(xi)): sine integrals for Dirichlet (r = -1), plus one
complex exp1 per reflected argument for Robin and the dynamical condition
(r = -r_Robin(alpha = 1)).  ``causal_kernel`` and
``build_kernel_grid`` always add it back, once per distinct characteristic
argument, so a tensor grid pays about nt (nx + ny) exp1 evaluations instead
of nt nx ny.  The xi weights carry the Euler-Maclaurin correction at xi_max
(``SpectralResolution.xi_weights``), so the error left is fourth order in
the node spacing: below 1e-7 at 801 nodes on [0, 40], about 3e-11 at 4000.
At k != 0 no completion exists and the kernel warns.  The two tail
functions import ``scipy.special`` when called, not at module import, so
importing the package (and running the appliers) never loads scipy; the CLI
imports it at the start of the commands that build kernels.

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
from typing import Callable

import numpy as np

from . import g17
from .model import WarpedProfile, conformal_factors
from .quadrature import TruncationWarning, check_decay
from .spectral import ExtendedState, SpectralResolution

_CSV_CHUNK = 4096      # values formatted at a time by write_grid_csv
_ASYMPTOTIC = 600.0    # |Re z| from which e^z E1(z) is its asymptotic series


def _harmonics(lam, t):
    """Factors (s, c, rate) of the continued functions of sqrt(lam) t.

    At broadcastable ``(lam, t)``: sin, cos and sqrt(lam) where lam > 0; t, 1
    and 1 where lam = 0; sinh, cosh and sqrt(-lam) where lam < 0.  Each entry
    is computed by one of sin/sinh and one of cos/cosh only, so a large
    sqrt(lam) t overflows nothing it does not return.  ``rate`` keeps the
    shape of ``lam``; s/rate is s(lam, t) and the addition formula reads
    s(lam, t - t') = (s(t) c(t') - c(t) s(t'))/rate.
    """
    lam = np.asarray(lam, dtype=float)
    t = np.asarray(t, dtype=float)
    rate = np.sqrt(np.abs(lam))
    arg = rate * t
    s = np.broadcast_to(t, arg.shape).copy()
    c = np.ones(arg.shape)
    pos, neg = lam > 0, lam < 0
    np.sin(arg, out=s, where=pos)
    np.sinh(arg, out=s, where=neg)
    np.cos(arg, out=c, where=pos)
    np.cosh(arg, out=c, where=neg)
    return s, c, np.where(lam == 0, 1.0, rate)


def sin_propagator(lam, t):
    """s(lam, t) = sin(sqrt(lam) t)/sqrt(lam), continued through lam <= 0.

    Equals t at lam = 0 and sinh(sqrt(-lam) t)/sqrt(-lam) for lam < 0.  It
    and :func:`cos_propagator` read :func:`_harmonics`, the one evaluator of
    the continued functions behind the kernels, the appliers and
    :func:`evolve_cauchy`.
    """
    s, _, rate = _harmonics(lam, t)
    return s / rate


def cos_propagator(lam, t):
    """cos(sqrt(lam) t) continued through lam <= 0 (cosh for lam < 0)."""
    return _harmonics(lam, t)[1]


# ---------------------------------------------------------------------------
# closed-form frequency tails (k = 0 trigonometric families)

def _si_tail(c, xi_max):
    # int_X^inf sin(xi c)/xi dxi, once per distinct |c|; scipy's special
    # functions are elementwise, so gathering is bit-identical to pointwise
    from scipy.special import sici
    c = np.asarray(c, dtype=float)
    mags, back = np.unique(np.abs(c), return_inverse=True)
    s, _ = sici(xi_max * mags)
    return np.sign(c) * (np.pi / 2 - s)[back.reshape(c.shape)]


def _exp_e1(z):
    # g(z) = e^z E1(z) by its asymptotic series sum_n (-1)^n n!/z^(n+1),
    # 12 terms: the truncation is below 12!/600^13 relative for |z| >= 600
    w = 1.0 / z
    s = 1.0
    for n in range(12, 0, -1):
        s = 1.0 - n * w * s
    return w * s


def _reflection_tail(c, alpha, xi_max):
    """Im F(c), F(c) = int_X^inf e^{i c xi}/(xi + i alpha) dxi, X = xi_max.

    Evaluated once per distinct signed c and gathered back.  For c > 0,
    F(c) = e^{c alpha} E1(z) with z = c (alpha - i X), written
    e^{i c X} g(z), g(z) = e^z E1(z), through g's asymptotic series once
    |Re z| >= _ASYMPTOTIC, where e^{c alpha} or E1 would overflow;
    F(-c) is the conjugate of F(c) at -alpha, and Im F(0) = -atan2(alpha, X).
    At alpha = 0 (Neumann) Im F is the sine-integral tail, which sici
    evaluates more accurately than exp1 on the imaginary axis.
    """
    if alpha == 0.0:
        return _si_tail(c, xi_max)
    from scipy.special import exp1
    c = np.asarray(c, dtype=float)
    vals, back = np.unique(c, return_inverse=True)
    m = np.abs(vals)
    z = vals * alpha - 1j * (m * xi_max)   # |c| (sign(c) alpha - i X)
    F = np.zeros(vals.shape, dtype=complex)
    far = np.abs(z.real) >= _ASYMPTOTIC
    near = (vals != 0) & ~far
    F[near] = np.exp(z.real[near]) * exp1(z[near])
    F[far] = np.exp(1j * m[far] * xi_max) * _exp_e1(z[far])
    im = np.sign(vals) * F.imag
    im[vals == 0] = -np.arctan2(alpha, xi_max)
    return im[back.reshape(c.shape)]


def _kernel_tail(kind, alpha, t, x, y, xi_max):
    """Exact xi > xi_max completion of the k = 0 kernel integral.

    With u = x - y, v = x + y and the family sin(xi x + theta), the product
    phi(x) phi(y) = (cos(xi u) + Re(r e^{i xi v}))/2 carries the reflection
    coefficient r = -e^{2 i theta}: -1 for Dirichlet, (xi - i alpha)/(xi +
    i alpha) for Robin alpha and minus its alpha = 1 value for the dynamical
    condition.  Since r/xi = -1/xi + 2/(xi + i alpha), the Robin tail is the
    Dirichlet tail plus (Im F(v + t) - Im F(v - t))/2
    (:func:`_reflection_tail`); the dynamical tail flips the sign ``s`` of
    the reflected part of the Robin alpha = 1 tail.
    Returns the raw tail integral (the caller applies the 2/pi weight).
    """
    u, v = x - y, x + y
    direct = 0.25 * (_si_tail(t + u, xi_max) + _si_tail(t - u, xi_max))
    image = 0.25 * (_si_tail(t + v, xi_max) + _si_tail(t - v, xi_max))
    if kind == "dirichlet":
        return direct - image
    s, alpha = (1.0, 1.0) if kind == "wentzell" else (-1.0, alpha)
    return direct + s * image + s * 0.5 * (_reflection_tail(v - t, alpha, xi_max)
                                           - _reflection_tail(v + t, alpha, xi_max))


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


def _non_separable(res: SpectralResolution, t, x, y):
    """Kernel terms outside the continuum sum, at broadcastable (t, x, y).

    Returns ``(terms, tails)``: ``terms`` is the bound-state term plus,
    where the closed-form xi > xi_max completion exists (every family at
    k = 0, then ``tails`` is True), that completion weighted.  Elsewhere the
    truncation error is of order 1/xi_max, growing near the characteristics,
    and a :class:`TruncationWarning` says so.
    """
    tails = bool(res.k == 0.0)
    shape = np.broadcast_shapes(np.shape(t), np.shape(x), np.shape(y))
    terms = np.zeros(shape)
    if res.bound is not None:
        b = res.bound
        terms += sin_propagator(b.lam, t) * b.profile(x) * b.profile(y)
    if tails:
        terms += res.weight * _kernel_tail(res.kind, res.alpha, t, x, y,
                                           float(res.xi[-1]))
    else:
        warnings.warn(
            f"no closed-form frequency tail for the {res.kind} family at "
            f"k = {res.k:g}: the kernel keeps a truncation error of order "
            f"1/xi_max = {1.0 / float(res.xi[-1]):.1e}, growing near the "
            "characteristics", TruncationWarning, stacklevel=3)
    return terms, tails


def causal_kernel(res: SpectralResolution, t, x, y):
    """Sample the causal kernel G(t; x, y) at broadcastable points.

    Points need not lie on the resolution's x grid: the eigenfamily has a
    closed form.  The tail completion and the bound state enter as in
    :func:`_non_separable`.  For extended resolutions this is the bulk-bulk
    block of the extended kernel; the boundary channel enters through the
    source lift the field appliers make.  Tensor grids go through
    :func:`build_kernel_grid`, which factors the sum instead.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(t.shape, x.shape, y.shape)
    tt = np.broadcast_to(t, shape).ravel()
    xx = np.broadcast_to(x, shape).ravel()
    yy = np.broadcast_to(y, shape).ravel()
    _check_aliasing(res, kernel_span(tt, xx, yy))
    terms, _ = _non_separable(res, tt, xx, yy)
    out = np.zeros(tt.size)
    w = res.xi_weights()
    for (sl, phi_x), (_, phi_y) in zip(res.blocks(xx), res.blocks(yy)):
        lam = (res.xi[sl] ** 2 + res.k ** 2)[:, None]
        s = sin_propagator(lam, tt[None, :])
        out += (w[sl][:, None] * s * phi_x * phi_y).sum(axis=0)
    return (res.weight * out + terms).reshape(shape)


def write_grid_csv(path, header: str, axes, values) -> None:
    """Write ``values`` sampled on the tensor grid of ``axes`` as CSV.

    Rows are ``(axis values..., value)`` over the tensor product of the axes,
    last axis innermost, every number printed as exactly ``'%.17g' % v``
    (round-trip precision; :mod:`halfwave.g17` has the derivation).  Axes
    are formatted once; values go _CSV_CHUNK at a time through
    ``g17.text``, and each chunk's rows are assembled into one NUL-padded
    byte matrix whose padding is dropped before the write.
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
        self.values.astype("<f8", copy=False).tofile(str(path_base) + ".bin")
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


def build_kernel_grid(res: SpectralResolution, t, x, y) -> KernelGrid:
    """Evaluate the causal kernel on the tensor grid t (x) x (x) y.

    The continuum sum factors over the grid: with phi_x = phi_xi(x),
    phi_y = phi_xi(y) and S[t] = w_xi s(xi^2 + k^2, t), each time slice is
    the matrix product (phi_x * S[t]).T @ phi_y.  The bound-state and tail
    terms (as in :func:`causal_kernel`) are broadcast over the grid.
    Transient memory is O(n_xi (nt + nx + ny) + nt nx ny).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_aliasing(res, kernel_span(t, x, y))
    terms, tails = _non_separable(res, t[:, None, None], x[None, :, None],
                                  y[None, None, :])
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

def _on_bulk(res: SpectralResolution, f, act, f_boundary=None):
    """:meth:`SpectralResolution.transform` of bulk samples ``f`` (grid on
    the last axis), returned as bulk samples.

    On an extended resolution ``f`` is lifted by pairing it with its own
    boundary trace, or with ``f_boundary`` when given, and the result is
    projected back to the bulk; other resolutions ignore the boundary value.
    """
    out = res.transform(f, f[..., 0] if f_boundary is None else f_boundary, act)
    return out[0] if res.extended else out


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


def _prefix_trapezoid(h, dt):
    # trapezoid integrals of h over t' <= t along axis 0, zero in the first row
    out = np.zeros_like(h)
    np.cumsum(dt * (h[1:] + h[:-1]) / 2.0, axis=0, out=out[1:])
    return out


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
    s, c, rate = _harmonics(lam[None, :], t[:, None])
    dt = float(t[1] - t[0])
    if support == "causal":
        Ic = np.trapezoid(c * coeffs, dx=dt, axis=0)
        Is = np.trapezoid(s * coeffs, dx=dt, axis=0)
    else:
        Ic, Is = _prefix_trapezoid(c * coeffs, dt), _prefix_trapezoid(s * coeffs, dt)
        if support == "advanced":
            Ic, Is = Ic[-1] - Ic, Is[-1] - Is
    D = (s * Ic - c * Is) / rate
    return -D if support == "advanced" else D


def _apply(res: SpectralResolution, f, t, support: str):
    """Shared machinery behind the causal/retarded/advanced appliers: one
    pass of :meth:`SpectralResolution.transform` with :func:`_window` as the
    per-mode action, the continuum and the bound channel alike (see the
    module docstring).  The xi grid must resolve the span
    t_max - t_min + 2 x_max; a coarser grid raises a :class:`TruncationWarning`.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != (t.size, res.x.size):
        raise ValueError("source must be sampled on the (t, x) grid of the call")
    _check_source_window(res, f, t)
    _check_aliasing(res, float(t[-1] - t[0]) + 2.0 * float(res.x[-1]))
    return _on_bulk(res, f, lambda c, lam: _window(c, t, lam, support))


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
    u'(0) = (d_tt + k^2) u(0) up to discretization error.  It runs the
    applier ``support`` names (``apply_retarded`` by default), which makes
    that lift itself, and only accepts extended resolutions.
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
    u0, v0 = (d if isinstance(d, ExtendedState) else ExtendedState.from_bulk(d)
              for d in (u0, v0))

    def act(c, lam):
        # c stacks the coefficients of u0 and v0; one row per time out
        s, cos, rate = _harmonics(lam[None, :], times[:, None])
        return cos * c[0] + s / rate * c[1]

    return _on_bulk(res, np.stack([u0.u, v0.u]), act,
                    np.array([u0.v, v0.v], dtype=float))


def kernel_time_derivative_apply(res: SpectralResolution, g):
    """Apply the t = 0 time derivative of the causal kernel to a function.

    The equal-time derivative is a reproducing (delta-type) kernel, so the
    output should reproduce ``g`` up to quadrature residuals.
    """
    return _on_bulk(res, np.asarray(g, dtype=float), lambda c, lam: c)


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
