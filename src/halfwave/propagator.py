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

Every applier on the x grid (the three above, ``wentzell_apply`` and
``evolve_cauchy``) is one pass of ``SpectralResolution.transform``: one
loop over blocks of _CHUNK xi nodes that evaluates each family block once,
projects the source on it, acts on the block's modes and sums the block
back into the field.  Besides the source and the field, a block holds its
family sample (_CHUNK, nx), one (nt, _CHUNK) coefficient array, which
``_window`` overwrites in 128 KB column panels and ``transform`` weights in
place, the window's panels and one 1 MB panel of the products: no
nt x n_xi coefficient array exists, and no other array of the field's size.
A product source g(t) h(x) may be passed as its factors, the pair
``(g, h)``; then the field is the only array of its size, and each block
projects h once, by one matrix-vector product.

Truncating the frequency integral at xi_max leaves an oscillatory tail of
size O(1/(xi_max * c)), c the distance to the nearest characteristic, far
too large for pointwise kernel work.  For every family at k = 0 the tail
has closed form through the reflection coefficient r(xi) of the family
sin(xi x + theta(xi)).  Each of its pieces is Im F(c), F(c) = int_X^inf
e^{i c xi}/(xi + i alpha) dxi at X = xi_max: the sine integrals of the
direct term and of Dirichlet's image (r = -1) at alpha = 0, plus one
reflected pair at the Robin alpha, or at 1 for the dynamical condition
(r = -r_Robin(alpha = 1)).  F(c) = e^{i c X} g(z) with g(z) = e^z E1(z) at
z = c (alpha - i X), and one numpy evaluator, ``_scaled_exp1``, computes g
by power series, continued fraction or asymptotic series, each point's
region and term count set by its own z alone.  ``causal_kernel`` and
``build_kernel_grid`` always add the tail back, with one call of g over the
distinct arguments of all six tail integrals, so a tensor grid pays about
6 nt (nx + ny) evaluations instead of 6 nt nx ny.  The xi weights carry the
Euler-Maclaurin correction at xi_max (``SpectralResolution.xi_weights``),
so the error left is fourth order in the node spacing: below 1e-7 at 801
nodes on [0, 40], about 3e-11 at 4000.  At k != 0 no completion exists and
the kernel warns.  Nothing in this module uses scipy.

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
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import g17, quadrature
from .quadrature import TruncationWarning, check_decay, max_abs, row_panels
from .spectral import ExtendedState, SpectralResolution, _factored

_CSV_CHUNK = 4096      # rows per write_grid_csv block, values per g17.text call
_DBL_MIN = float(np.finfo(float).tiny)
_LOG_TINY = math.log(_DBL_MIN)    # least exponent of a normal exp


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
    reads :func:`_harmonics`, the one evaluator of the continued functions
    behind the kernels, the appliers and :func:`evolve_cauchy`; only the
    kernel's bound term at lam < 0 takes sinh's two exponentials together
    with its profiles (``_non_separable``).
    """
    s, _, rate = _harmonics(lam, t)
    return s / rate


# ---------------------------------------------------------------------------
# closed-form frequency tails (k = 0 trigonometric families)

_EULER = 0.57721566490153286061  # Euler's constant gamma
_CUT = 2.0          # s = |z| + Re z below which the continued fraction is slow
_FAR = 40.0         # |z| from which the asymptotic series serves when s < _CUT
_FAR_TERMS = 41     # its terms, n = 0..40: the first left out, 41!/|z|^41, is < 1e-16
# 1/(n n!), the power series coefficients of E1, enough for |z| < _FAR
_SERIES = np.array([0.0] + [1 / (n * math.factorial(n)) for n in range(1, 130)])


def _backward(z, terms, step):
    """Run step(k, z, acc), which updates acc in place, for k = terms, ...,
    1 at each point, from acc = 0, and return acc.

    Points run in order of decreasing ``terms``, so step k touches a prefix
    of them: each point runs exactly its own steps, whatever else is in the
    batch, and its value is the one it has alone.
    """
    order = np.argsort(-terms, kind="stable")
    z = z[order]
    runs = np.cumsum(np.bincount(terms)[::-1])[::-1]   # points with terms >= k
    acc = np.zeros(z.shape, dtype=complex)
    for k in range(int(runs.size) - 1, 0, -1):
        m = runs[k]
        step(k, z[:m], acc[:m])
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _fraction_step(k, z, t):
    # t <- k^2/(z - t + 2k + 1)
    np.subtract(z, t, out=t)
    t += 2 * k + 1
    np.divide(k * k, t, out=t)


def _series_step(k, minus_z, p):
    # p <- 1/(k k!) - z p; not an in-place complex product, which numpy can
    # round differently in long arrays than in short ones
    np.add(minus_z * p, _SERIES[k], out=p)


def _asymptotic_step(k, w, h):
    # h <- 1 - k w h, w = 1/z
    np.subtract(1.0, (k * w) * h, out=h)


def _scaled_exp1(z):
    """g(z) = e^z E1(z) at nonzero z, elementwise, on the principal branch
    (the sign of Im z picks the side of the negative real axis).

    Three regions, by r = |z| and s = |z| + Re z, the distance scale from
    the cut along the negative axis (DLMF 6.6, 6.9, 6.12):

    * s >= _CUT: the continued fraction 1/(z+1 - 1^2/(z+3 - 2^2/(z+5 - ...)))
      with ceil(220/s) + 4 levels, run backward;
    * s < _CUT and r < _FAR: the power series E1 = -gamma - log z
      - sum (-z)^n/(n n!) with ceil(e r) + 20 terms, times e^z; near the
      cut its terms share one sign, so nothing cancels;
    * s < _CUT and r >= _FAR: the asymptotic series sum (-1)^n n!/z^(n+1).

    Each point's term count depends on its own z only, so the result is
    bit-identical to evaluating every point alone.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    r, x = np.abs(z), z.real
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.where(x >= 0.0, r + x, z.imag * (z.imag / (r - x)))
    near = s < _CUT
    series, far = near & (r < _FAR), near & (r >= _FAR)
    cf = ~near
    if cf.any():
        zc = z[cf]
        t = _backward(zc, (np.ceil(220.0 / s[cf]) + 4).astype(np.intp), _fraction_step)
        out[cf] = 1.0 / (zc + 1.0 - t)
    if series.any():
        zs = z[series]
        p = _backward(-zs, (np.ceil(np.e * r[series]) + 20).astype(np.intp),
                      _series_step)
        out[series] = np.exp(zs) * (zs * p - _EULER - np.log(zs))
    if far.any():
        w = 1.0 / z[far]
        h = _backward(w, np.full(w.size, _FAR_TERMS), _asymptotic_step)
        out[far] = w * h
    return out


def _tails(cs, alphas, xi_max):
    """Im F(c) at every pair (c, alpha) of ``cs`` and ``alphas``, with
    F(c) = int_X^inf e^{i c xi}/(xi + i alpha) dxi, X = xi_max.

    For c > 0, F(c) = e^{c alpha} E1(z) = e^{i c X} g(z) with z = c (alpha
    - i X) and g = :func:`_scaled_exp1`; F(-c) is the conjugate of F(c) at
    -alpha, and Im F(0) = -atan2(alpha, X).  At alpha = 0 this is the
    sine-integral tail int_X^inf sin(c xi)/xi dxi = sign(c) (pi/2 - Si(|c| X)),
    since E1(-i y) = -Ci(y) + i (pi/2 - Si(y)).  g is evaluated once per
    distinct z over all pairs, in one call, and gathered back.  Where
    0 < |z| < DBL_MIN the rounded parts of z lose its direction, and Im F(c)
    is its c -> 0+- limit, sign(c) atan2(X, sign(c) alpha), to within 1e-300.
    """
    found = []
    for c, alpha in zip(cs, alphas):
        vals, inv = np.unique(np.asarray(c, dtype=float), return_inverse=True)
        big = np.abs(vals) * math.hypot(alpha, xi_max) >= _DBL_MIN
        found.append((vals, inv, big))
    parts = []
    for (vals, _, big), alpha in zip(found, alphas):
        c = vals[big]
        z = np.empty(c.size, dtype=complex)
        z.real = c * alpha + 0.0     # |c| (sign(c) alpha), -0.0 folded into 0.0
        z.imag = -(np.abs(c) * xi_max)
        parts.append(z)
    z, back = np.unique(np.concatenate(parts), return_inverse=True)
    g = _scaled_exp1(z)
    im = (g.imag * np.cos(z.imag) - g.real * np.sin(z.imag))[back]   # Im e^{i c X} g
    out, start = [], 0
    for c, (vals, inv, big), alpha, part in zip(cs, found, alphas, parts):
        side = np.sign(vals)
        tail = np.where(side == 0, -np.arctan2(alpha, xi_max),
                        side * np.arctan2(xi_max, side * alpha))
        tail[big] = side[big] * im[start:start + part.size]
        start += part.size
        out.append(tail[inv.reshape(np.shape(c))])
    return out


def _kernel_tail(kind, alpha, t, x, y, xi_max):
    """Exact xi > xi_max completion of the k = 0 kernel integral.

    With u = x - y, v = x + y and the family sin(xi x + theta), the product
    phi(x) phi(y) = (cos(xi u) + Re(r e^{i xi v}))/2 carries the reflection
    coefficient r = -e^{2 i theta}: -1 for Dirichlet, (xi - i alpha)/(xi +
    i alpha) for Robin alpha and minus its alpha = 1 value for the dynamical
    condition.  Since r/xi = -1/xi + 2/(xi + i alpha), the Robin tail is the
    Dirichlet tail plus (Im F(v + t) - Im F(v - t))/2; the dynamical tail
    flips the sign ``s`` of the reflected part of the Robin alpha = 1 tail.
    All six tail integrals, the four sine-integral ones included, go through
    one call of :func:`_tails`.
    Returns the raw tail integral (the caller applies the 2/pi weight).
    """
    u, v = x - y, x + y
    args, alphas = [t + u, t - u, t + v, t - v], [0.0] * 4
    if kind != "dirichlet":
        s, alpha = (1.0, 1.0) if kind == "wentzell" else (-1.0, alpha)
        args += [v - t, v + t]
        alphas += [alpha, alpha]
    im = _tails(args, alphas, xi_max)
    direct, image = 0.25 * (im[0] + im[1]), 0.25 * (im[2] + im[3])
    if kind == "dirichlet":
        return direct - image
    return direct + s * image + s * 0.5 * (im[4] - im[5])


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
    b = res.bound
    if b is not None and b.lam < 0:
        # s(lam, t) 2 kappa e^{-kappa (x + y)} with each exponential of sinh
        # taken with the profiles' decay, so it overflows only where the
        # kernel itself exceeds a double
        r, z = math.sqrt(-b.lam), -b.kappa * (x + y)
        rt = r * np.abs(t)
        terms += np.sign(t) * (b.kappa / r) * (np.exp(rt + z) - np.exp(z - rt))
    elif b is not None:
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
    (round-trip precision; :mod:`halfwave.g17` has the derivation).

    The rows are assembled in one NUL-padded byte block, allocated once per
    call and reused: a band of columns per axis, then the value's
    ``g17.text`` columns and a newline.  The block holds whole runs of the
    last axis, about _CSV_CHUNK rows; a run longer than _CSV_CHUNK is split
    into equal pieces, one per block, so the block's size does not grow with
    the grid.  An axis's cells are its values' text and comma, packed left.
    The last axis's cells are formatted and laid into the block once (once
    per piece when runs are split), each outer axis is formatted once and
    its cell broadcast once per run, and each block's values take one
    ``g17.text`` call.  The block's NULs are dropped before the write.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    values = np.asarray(values, dtype=float).reshape([a.size for a in axes])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        if values.size == 0:
            return
        *outer, last = axes
        n = last.size
        runs = values.size // n
        pieces = -(-n // _CSV_CHUNK)
        span = -(-n // pieces)                  # rows of a run per block
        per = min(runs, _CSV_CHUNK // span)     # runs per block
        cells = [_csv_cells(a) for a in outer]
        bands = np.cumsum([0] + [c.shape[1] for c in cells])
        at_last = bands[-1]                     # the last axis's band
        last_cells = _csv_cells(last) if pieces == 1 else None
        at_value = at_last + (last_cells.shape[1] if pieces == 1 else g17.WIDTH + 1)
        block = np.zeros((per * span, at_value + g17.WIDTH + 1), dtype=np.uint8)
        block[:, -1] = ord("\n")
        by_run = block.reshape(per, span, -1)
        if last_cells is not None:
            by_run[:, :, at_last:at_value] = last_cells
        keep = np.empty(block.shape, dtype=bool)
        flat = values.reshape(runs, n)
        outer_shape = values.shape[:-1] or (1,)     # a 1-D grid is one run
        for r in range(0, runs, per):
            k = min(per, runs - r)
            index = np.unravel_index(np.arange(r, r + k), outer_shape)
            for c, i, lo in zip(cells, index, bands):
                by_run[:k, :, lo:lo + c.shape[1]] = c[i, None]
            for s in range(0, n, span):
                rows = block[:k * min(span, n - s)]
                if last_cells is None:
                    c = _csv_cells(last[s:s + span])
                    rows[:, at_last:at_last + c.shape[1]] = c
                    rows[:, at_last + c.shape[1]:at_value] = 0
                rows[:, at_value:-1] = g17.text(flat[r:r + k, s:s + span])
                mask = keep[:rows.shape[0]]
                np.not_equal(rows, 0, out=mask)
                fh.write(rows[mask])


def _csv_cells(a):
    # each axis value's text and comma with its NULs moved to the end (one
    # run for the NUL drop to copy instead of up to three), less the
    # columns that are NUL for every value of the axis
    c = np.full((a.size, g17.WIDTH + 1), ord(","), dtype=np.uint8)
    c[:, :-1] = g17.text(a)
    c = np.take_along_axis(c, np.argsort(c == 0, axis=1, kind="stable"), axis=1)
    return c[:, :np.count_nonzero(c.any(axis=0))]


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
        """Raw row-major doubles plus a JSON sidecar describing the axes.

        Each axis is stored as [first, last, size] and reloaded by
        ``linspace``, so an axis that ``linspace`` does not rebuild to
        within 4 ulps of its largest |value|, a non-uniform one, raises
        ``ValueError`` before anything is written.
        """
        axes = {}
        for name, a in (("t", self.t), ("x", self.x), ("y", self.y)):
            # not np.allclose, whose call overhead is most of this check on a short axis
            if a.size > 1 and not (max_abs(np.linspace(a[0], a[-1], a.size) - a)
                                   <= 4 * np.spacing(max_abs(a))):
                raise ValueError(f"the kernel grid's {name} axis is not uniform, so "
                                 "[first, last, size] cannot store it")
            axes[name] = [float(a[0]), float(a[-1]), int(a.size)]
        self.values.astype("<f8", copy=False).tofile(str(path_base) + ".bin")
        sidecar = {
            "dtype": "<f8",
            "order": "C",
            "shape": list(self.values.shape),
            "axes": axes,
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

def gaussian_source(src: dict, t: np.ndarray, x: np.ndarray) -> tuple:
    """The factors (g, h) of the source g(t) h(x) = amplitude
    exp(-(t - t0)^2/(2 sigma_t^2)) exp(-(x - x0)^2/(2 sigma_x^2)) on the t
    grid and the x grid; the amplitude is on g.

    Exponents below log(DBL_MIN) become -inf, so their exp is exactly 0 and
    no value is subnormal: an exp that underflows costs about ten times one
    that does not, for a value the analysis would flush to 0 anyway.
    """
    def factor(s, centre, width):
        out = -((s - centre) ** 2) / (2 * width ** 2)
        out[out < _LOG_TINY] = -np.inf
        return np.exp(out, out=out)

    return (src["amplitude"] * factor(t, src["t0"], src["sigma_t"]),
            factor(x, src["x0"], src["sigma_x"]))


def _on_bulk(res: SpectralResolution, f, act, f_boundary=None):
    """:meth:`SpectralResolution.transform` of bulk samples ``f`` (grid on
    the last axis, or the factored pair ``(g, h)``), returned as bulk samples.

    On an extended resolution ``f`` is lifted by pairing it with its own
    boundary trace, or with ``f_boundary`` when given, and the result is
    projected back to the bulk; other resolutions ignore the boundary value.
    The trace of ``(g, h)`` is g h[0], given as h[0].
    """
    if f_boundary is None:
        f_boundary = f[1][0] if _factored(f) else f[..., 0]
    out = res.transform(f, f_boundary, act)
    return out[0] if res.extended else out


def _check_source_window(res, f, t):
    """Warn when the source ``f`` touches either end of the time window, or
    has not decayed at the far end of the x window.

    A factored source ``(g, h)`` is checked through its factors: the edge
    ratio is max(|g_0|, |g_-1|)/max|g|, and the decay check runs on h
    scaled by max|g|.
    """
    if _factored(f):
        g, h = f
        if g.size == 0 or h.size == 0:
            return
        scale, edge = max_abs(g), max(abs(g[0]), abs(g[-1]))
        space = scale * h       # h at the time factor's peak
        peak = max_abs(space)
    else:
        if f.size == 0:
            return
        space, peak = f, max_abs(f)
        scale, edge = peak, max(max_abs(f[0]), max_abs(f[-1]))
    if peak == 0:
        return
    if edge > 1e-8 * scale:
        warnings.warn(
            f"source support touches the time window edge "
            f"(edge/peak = {edge / scale:.2e}); one-sided appliers lose "
            "contributions from outside the window",
            TruncationWarning, stacklevel=3)
    check_decay(space, res.dx, what="source spatial support", scale=peak)


def _prefix_trapezoid(h, dt):
    # trapezoid integrals of h over t' <= t along axis 0, zero in the first
    # row: one new array, the sums and the prefix sum formed in place
    out = np.empty_like(h)
    out[0] = 0.0
    steps = np.add(h[1:], h[:-1], out=out[1:])
    steps *= dt
    steps /= 2.0
    np.cumsum(steps, axis=0, out=steps)
    return out


def _one_sided(h, dt, support):
    # the prefix integrals of h, or for 'advanced' the suffix ones, t' >= t
    out = _prefix_trapezoid(h, dt)
    if support == "advanced":
        np.subtract(out[-1].copy(), out, out=out)
    return out


def _column_panels(nlam, nt):
    """``row_panels`` over the nlam columns of an (nt, nlam) block, none of
    them a lone column unless the block is one: np.trapezoid sums a lone
    column pairwise and each column of a wider array in order, so panels of
    two or more columns keep every column's sum that of the whole block."""
    panels = row_panels(nlam, nt, max(quadrature.PANEL_BYTES, 16 * nt))
    if len(panels) > 1 and panels[-1].stop - panels[-1].start == 1:
        panels[-2:] = [slice(panels[-2].start, nlam)]
    return panels


def _window(coeffs, t, lam, support: str, out=None):
    """Time convolution of mode coefficients with s(lam, t - t') over a window.

    ``coeffs`` is (nt, nlam), one column per eigenvalue in ``lam``.  The
    addition formula of :func:`_harmonics` turns the convolution into
    (s(t) I_c(t) - c(t) I_s(t))/rate, with I_c, I_s the trapezoid integrals
    of c(t') coeffs and s(t') coeffs over the window ``support`` selects:
    all t' for 'causal', the prefix t' <= t for 'retarded' and the suffix
    t' >= t for 'advanced', whose result is negated so that
    retarded - advanced = causal.

    The arithmetic runs over column panels of about
    ``quadrature.PANEL_BYTES`` per (nt, width) array: one buffer holds
    c coeffs and then s coeffs, and the window's temporaries are four
    panels at most (six for 'causal', with np.trapezoid's own).  Each
    panel's result goes into ``out``, by default a new array; ``out`` may
    be ``coeffs`` itself, since a panel's columns are read before they are
    written.  Each column's arithmetic is that of the whole block.
    """
    dt = float(t[1] - t[0])
    out = np.empty(coeffs.shape) if out is None else out
    for cols in _column_panels(lam.size, t.size):
        _window_panel(coeffs[:, cols], t, dt, lam[None, cols], support, out[:, cols])
    return out


def _window_panel(a, t, dt, lam, support, out):
    # _window on the columns ``a`` at eigenvalues ``lam`` (1, width), into
    # ``out``; its temporaries go when it returns, before the next panel
    s, c, rate = _harmonics(lam, t[:, None])
    h = np.multiply(c, a)
    if support == "causal":
        D = s * np.trapezoid(h, dx=dt, axis=0)
        np.multiply(s, a, out=h)
        c *= np.trapezoid(h, dx=dt, axis=0)
    else:
        D = _one_sided(h, dt, support)
        D *= s
        np.multiply(s, a, out=h)
        del s
        c *= _one_sided(h, dt, support)
    np.subtract(D, c, out=out)      # s I_c - c I_s
    out /= rate
    if support == "advanced":
        np.negative(out, out=out)


def _apply(res: SpectralResolution, f, t, support: str):
    """Shared machinery behind the causal/retarded/advanced appliers: one
    pass of :meth:`SpectralResolution.transform` with :func:`_window` as the
    per-mode action, the continuum and the bound channel alike (see the
    module docstring).  The source ``f`` is its (t, x) samples, or the
    pair ``(g, h)`` of a product source g(t) h(x), sampled on t and on the
    x nodes.  The xi grid must resolve the span
    t_max - t_min + 2 x_max; a coarser grid raises a :class:`TruncationWarning`.
    """
    t = np.asarray(t, dtype=float)
    if _factored(f):
        f = tuple(np.asarray(a, dtype=float) for a in f)
        shapes = tuple(a.shape for a in f)
    else:
        f = np.asarray(f, dtype=float)
        shapes = f.shape
    if shapes not in ((t.size, res.x.size), ((t.size,), (res.x.size,))):
        raise ValueError("source must be sampled on the (t, x) grid of the call")
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t must hold at least 2 time samples")
    _check_source_window(res, f, t)
    _check_aliasing(res, float(t[-1] - t[0]) + 2.0 * float(res.x[-1]))
    # the window writes over the block's fresh coefficients
    return _on_bulk(res, f, lambda c, lam: _window(c, t, lam, support, out=c))


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


def wentzell_apply(res: SpectralResolution, f, t):
    """Retarded field of the dynamical-condition propagator for a bulk source.

    The source is lifted to the extended space by pairing it with its own
    boundary trace, propagated through the extended family, and projected
    back to the bulk.  The output obeys the dynamical boundary condition
    u'(0) = (d_tt + k^2) u(0) up to discretization error.  It is
    ``apply_retarded``, which makes that lift itself, restricted to extended
    resolutions.
    """
    if not res.extended:
        raise ValueError("needs an extended (dynamical) resolution")
    return _apply(res, f, t, "retarded")


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
