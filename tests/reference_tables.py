"""The addition-theorem formula behind ``family_block`` and ``_harmonics``,
written once for the tests, as one whole-array pass: the evaluator runs it
in row panels and column panels, and each panel must give these bits."""

import numpy as np

from halfwave import quadrature
from halfwave.spectral import _TWO_PI_HI, _TWO_PI_LO


def addition_tables(rate, sign, points, theta=None):
    """``(s, c)``, one row per rate: S and C of rate p + theta at the points
    p, sin and cos where sign < 0, sinh and cosh where sign > 0, and p and 1
    where sign = 0.  The points go in cells p = c + f, the exact product
    rate c is reduced mod 2 pi where sign < 0, theta is added, and each
    point's s is the row (S, C) of its cell times the column (C, S) of its
    offset, its c the same row times (sign S, C): one matrix product per row
    over the whole cells and one over the last."""
    rate, sign = rate[:, None], sign[:, None]
    (hi, lo), fine = quadrature.cells(points)
    p, e = quadrature.two_product(rate, hi)
    e += rate * lo
    n = np.rint(p / (2.0 * np.pi)) * (sign < 0)
    p -= n * _TWO_PI_HI
    p -= n * _TWO_PI_LO
    p += e
    if theta is not None:
        p += theta[:, None]

    def table(arg, lin):
        with np.errstate(over="ignore"):
            return (np.where(sign < 0, np.sin(arg), np.where(sign > 0, np.sinh(arg), lin)),
                    np.where(sign < 0, np.cos(arg), np.where(sign > 0, np.cosh(arg), 1.0)))

    S, C = table(p, hi + lo)
    rows = np.stack([S, C], axis=2)
    Sf, Cf = table(rate * fine, fine)
    whole, short = divmod(len(points), fine.size)

    def cell_sum(cols):
        return np.concatenate([np.matmul(rows[:, :whole], cols).reshape(len(rate), -1),
                               np.matmul(rows[:, whole:], cols[:, :, :short])
                               .reshape(len(rate), -1)], axis=1)

    return (cell_sum(np.stack([Cf, Sf], axis=1)),
            cell_sum(np.stack([sign * Sf, Cf], axis=1)))


def reference_harmonics(lam, t):
    """``_harmonics`` of a lam row against a t column, as ``(s, c, rate)``
    of shapes (nt, nlam), (nt, nlam) and (1, nlam)."""
    rate = np.sqrt(np.abs(lam))
    s, c = addition_tables(rate, -np.sign(lam), t)
    return s.T, c.T, np.where(lam == 0, 1.0, rate)[None, :]
