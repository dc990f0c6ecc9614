"""Exact ``%.17g`` text of float64 arrays, vectorized with numpy.

``text(values)`` returns an ``(n, WIDTH)`` uint8 matrix whose row i, less
its NUL bytes, is ``'%.17g' % values[i]``.  No Python object is made per
value, except for the few values the fast path below cannot prove, which
go through ``%`` itself (``_fallback``).

The 17 digits of |v| = D 10^(E-16), 10^16 <= D < 10^17, are the integer
nearest to y = |v| 10^(16-E):

* E starts at floor(log10 |v|).  y is formed as hi + lo with Dekker's
  exact product of |v| and the high part of a double-double table of 10^q,
  plus |v| times its low part, then renormalised by an exact two-sum.  Each
  ufunc call rounds once (numpy has no fused multiply-add), so the only
  errors are the table's, |10^q - hi_q - lo_q| <= 2^-106 10^q, and the
  rounding of the low product and of the final sum: |hi + lo - y| is below
  1e-14 for y < 1.1e17.
* 10^q is inexact for q < 0 and q > 22, so an exact power of ten can land a
  hair below 10^16.  E is kept while y >= 10^16 - 0.025 and y < 10^17 + 0.25
  and moved by one otherwise (log10 is off by at most one, so two moves
  suffice; a third raises); inside those two bands the neighbouring
  exponent rounds to the same 17 digits once D = 10^17 is carried to 10^16
  at E + 1.
* D = hi + floor(lo) + (frac > 1/2) with frac = lo - floor(lo).  hi is an
  integer (every double above 2^53 is), so D is exact unless the true frac
  lies within 1e-14 of 1/2; values with |frac - 1/2| < 1e-9 fall back, which
  covers exact ties and near-ties such as 1000000000000000.25.

Zeros take D = 0 at E = 0, which lays out as ``0`` (``-0`` with the sign
bit), as ``%.17g`` writes them.  Non-finite values and nonzero |v| outside
[1e-250, 1e250] (where the table or Dekker's split would leave the normal
range) fall back as well.

The layout follows ``%g``: fixed notation for -4 <= E < 17, else
``d.ddd...e+XX`` with three exponent digits when |E| >= 100; trailing zeros
and a bare point are stripped, and ``-`` comes from the sign bit.  Every
character has a fixed column, NUL where a value has none, so the whole
layout is a few masked array operations along the values; a reader of the
rows drops the NULs.  The 16 digits after the leading one are four groups
of four: each group is looked up as one 4-character word, a uint32 from a
cached table of 0000..9999 whose bytes are in text order, and one
transposed copy spreads the words over the 16 digit columns.  The five
exponent columns are one take from a cached table over E, NUL for the E
that are written in fixed notation.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 29        # sign, 0.000 prefix, 17 digits and a point, e+XXX
_FAST = (1e-250, 1e250)
_Q_MIN, _Q_MAX = -236, 268    # 16 - E for E across the fast range, +-1
_E_MIN, _E_MAX = 16 - _Q_MAX, 16 - _Q_MIN
_SPLIT = 134217729.0          # 2^27 + 1, Dekker's splitter
_TIE_GUARD = 1e-9
_COLS = np.arange(18, dtype=np.int8)
_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)


@functools.lru_cache(maxsize=None)
def _pow10():
    # 10^q for q in [_Q_MIN, _Q_MAX] as the rows hi, split(hi) and lo, with
    # hi = fl(10^q) and lo = fl(10^q - hi), in exact integer arithmetic:
    # Python rounds int -> float and int / int correctly
    hi = np.empty(_Q_MAX - _Q_MIN + 1)
    lo = np.empty_like(hi)
    for i, q in enumerate(range(_Q_MIN, _Q_MAX + 1)):
        if q >= 0:
            hi[i] = float(10 ** q)
            lo[i] = float(10 ** q - int(hi[i]))
        else:
            h = 1 / 10 ** -q
            m, e = h.as_integer_ratio()     # h = m/e
            hi[i], lo[i] = h, (e - m * 10 ** -q) / (e * 10 ** -q)
    return np.array((hi,) + _split(hi) + (lo,))


@functools.lru_cache(maxsize=None)
def _quads():
    # the four digit characters of 0..9999 as one uint32 word each, bytes in
    # text order whatever the byte order, and their number of trailing
    # zeros (4 for 0)
    i = np.arange(10000)
    chars = i[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    zeros = sum((i % 10 ** j == 0).astype(np.int8) for j in range(1, 5))
    return chars.astype(np.uint8).view(np.uint32).ravel(), zeros


@functools.lru_cache(maxsize=None)
def _exponents():
    # the five columns ``e+XXX`` for every E of the fast range, one column
    # per E, NUL for the E that %g writes in fixed notation
    e = np.arange(_E_MIN, _E_MAX + 1)
    ae = np.abs(e)
    sci = (e < -4) | (e >= 17)
    cols = np.array([np.full_like(e, ord("e")),
                     np.where(e < 0, ord("-"), ord("+")),
                     np.where(ae >= 100, ae // 100 + ord("0"), 0),
                     ae // 10 % 10 + ord("0"),
                     ae % 10 + ord("0")])
    return (cols * sci).astype(np.uint8)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, q):
    """hi + lo = a 10^q to about 1e-31 relative (hi the rounded sum)."""
    p_hi, p_hi_hi, p_hi_lo, p_lo = np.take(_pow10(), q - _Q_MIN, axis=1)
    p = a * p_hi
    a_hi, a_lo = _split(a)
    err = ((a_hi * p_hi_hi - p) + a_hi * p_hi_lo + a_lo * p_hi_hi) + a_lo * p_hi_lo
    err += a * p_lo
    hi = p + err
    return hi, err - (hi - p)


def _digits(a):
    """(D, E, exact) with D 10^(E-16) = a rounded to 17 digits, for a > 0 in
    the fast range; ``exact`` is False where frac is too close to 1/2."""
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 16 - e)
    for _ in range(3):
        move = (((hi - 1e17) + lo >= 0.25).astype(np.int64)
                - ((hi - 1e16) + lo < -0.025))
        moved = np.flatnonzero(move)
        if moved.size == 0:
            break
        e[moved] += move[moved]
        hi[moved], lo[moved] = _scaled(a[moved], 16 - e[moved])
    else:
        raise ArithmeticError("decimal exponent estimate did not settle")
    floor = np.floor(lo)
    frac = lo - floor
    d = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    return d, e, np.abs(frac - 0.5) >= _TIE_GUARD


def _fallback(v: float) -> bytes:
    return b"%.17g" % v


def text(values) -> np.ndarray:
    """(n, WIDTH) uint8 rows; row i less its NUL bytes is ``'%.17g' % v[i]``.

    Columns: the sign, the ``0.000`` prefix of -4 <= E < 0, the 17 digits
    with the point inserted (trailing zeros blanked), then ``e+XXX``.
    """
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    d, e, exact = _digits(np.where(fast, a, 1.0))
    zero = a == 0.0
    d[zero] = 0
    fast = (fast & exact) | zero
    e = e.astype(np.int16)
    digit, zeros = _quads()
    # D = lead 10^16 + four groups of four digits, split by // and a product
    # back: numpy's divmod and % are several times slower than //
    upper = d // 10 ** 8
    lead = upper // 10 ** 8
    eights = np.array([upper - lead * 10 ** 8, d - upper * 10 ** 8], dtype=np.int32)
    fours = eights // 10 ** 4
    groups = np.stack([fours, eights - fours * 10 ** 4], axis=1).reshape(4, v.size)
    z = np.take(zeros, groups)
    trailing = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    size = 17 - trailing

    # columns are rows here: every operation runs along the n values
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, np.maximum(e + 1, 0), 1).astype(np.int8)
    digits = np.empty((17, v.size), dtype=np.uint8)
    digits[0] = lead + ord("0")
    words = np.take(digit, groups).view(np.uint8).reshape(4, v.size, 4)
    digits[1:].reshape(4, 4, v.size)[...] = words.transpose(0, 2, 1)
    digits *= _COLS[:17, None] < np.maximum(size, point)

    out = np.zeros((WIDTH, v.size), dtype=np.uint8)
    out[0] = np.signbit(v) * ord("-")
    prefix = np.where(fixed & (e < 0), 1 - e, 0).astype(np.int8)
    np.multiply(_ZEROS[:, None], _COLS[:5, None] < prefix, out=out[1:6])
    body = out[6:24]
    body[1:] = digits
    np.copyto(body[:17], digits, where=_COLS[:17, None] < point)
    dot = ((size > point) & (point > 0)) * np.uint8(ord("."))
    np.copyto(body, dot, where=_COLS[:, None] == point)
    np.take(_exponents(), e - _E_MIN, axis=1, out=out[24:])
    for i in np.flatnonzero(~fast):
        s = _fallback(float(v[i]))
        out[:, i] = 0
        out[:len(s), i] = np.frombuffer(s, dtype=np.uint8)
    return out.T
