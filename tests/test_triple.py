import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_equal

from halfwave import quadrature, triple
from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, fd_spectrum
from halfwave.quadrature import TruncationWarning
from halfwave.triple import (IN_SPECTRUM, NOT_IN_SPECTRUM, TraceMaps,
                             greens_identity_residual, lower_bound_estimate,
                             negative_spectrum_roots, spectrum_scan,
                             spectrum_test, weyl_function)

X30 = np.linspace(0.0, 30.0, 3000)


def bump(x, center, width):
    return np.exp(-((x - center) ** 2) / (2 * width ** 2))


class TestTraceMaps:
    def test_linearity(self):
        tr = TraceMaps(dx=X30[1] - X30[0])
        f = np.exp(-X30) * np.cos(X30)
        g = bump(X30, 3.0, 1.0)
        for gamma in (tr.gamma0, tr.gamma1):
            lhs = gamma(2.5 * f - 1.25 * g)
            rhs = 2.5 * gamma(f) - 1.25 * gamma(g)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))

    def test_derivative_trace_accuracy(self):
        tr = TraceMaps(dx=X30[1] - X30[0])
        u = np.exp(-2.0 * X30)
        assert abs(tr.gamma1(u) + 2.0) <= 1e-9


class TestGreensIdentity:
    def test_identical_arguments_exact_zero(self):
        f = np.exp(-X30) * (1 + X30)
        assert greens_identity_residual(f, f, X30) == 0.0

    def test_interior_bumps_no_boundary_term(self):
        f = bump(X30, 4.0, 0.8)
        g = bump(X30, 6.0, 1.1)
        assert greens_identity_residual(f, g, X30) <= 1e-8

    def test_analytic_pair(self):
        # boundary term is exactly -1 for this pair; the rest is discretization
        f1 = np.exp(-X30)
        f2 = X30 * np.exp(-X30)
        assert greens_identity_residual(f1, f2, X30) <= 1e-6

    def test_random_smooth_decaying_pairs(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(30):
            f = (rng.uniform(0.5, 2) * bump(X30, rng.uniform(2, 9), rng.uniform(0.6, 1.5))
                 + rng.uniform(0, 1) * np.exp(-rng.uniform(0.8, 1.5) * X30))
            g = (rng.uniform(0.5, 2) * bump(X30, rng.uniform(2, 9), rng.uniform(0.6, 1.5))
                 + rng.uniform(0, 1) * X30 * np.exp(-rng.uniform(0.8, 1.5) * X30))
            rng.uniform(0, 2)   # the stream once drew k here; the pairs stay as drawn
            worst = max(worst, greens_identity_residual(f, g, X30))
        assert worst <= 1e-6

    def test_undecayed_input_warns(self):
        f = np.cos(X30)
        with pytest.warns(TruncationWarning):
            greens_identity_residual(f, f, X30)


class TestWeylFunction:
    def test_half_line_value(self):
        assert weyl_function(-1.0, 0.0).value == pytest.approx(-1.0)

    def test_mode_value(self):
        assert weyl_function(-3.0, 1.0).value == pytest.approx(-2.0)

    def test_derivative_matches_difference_quotient(self):
        lam, h = -4.0, 1e-5
        fd = (weyl_function(lam + h, 0.0).value
              - weyl_function(lam - h, 0.0).value) / (2 * h)
        analytic = 1.0 / (2.0 * np.sqrt(-lam))
        assert abs(fd - analytic) <= 1e-6

    def test_monotone_in_lambda(self):
        for k in (0.0, 1.0, 2.5):
            lams = np.linspace(-8.0, -0.1, 60)
            vals = [weyl_function(l, k).value for l in lams]
            assert np.all(np.diff(vals) > 0)
            assert np.all(np.asarray(vals) < 0)

    def test_out_of_resolvent(self):
        with pytest.raises(ValueError):
            weyl_function(0.5, 0.0)


class TestSpectrumTest:
    def test_robin_negative_point(self):
        assert spectrum_test(-1.0, BoundaryCondition.robin(-1.0), 0.0) == IN_SPECTRUM

    def test_robin_positive_alpha_empty(self):
        bc = BoundaryCondition.robin(1.0)
        for lam in (-0.25, -1.0, -4.0):
            assert spectrum_test(lam, bc, 0.0) == NOT_IN_SPECTRUM

    def test_witness_skips_nan_wavenumbers(self):
        # the witness is the finite value closest to 0 over the k sample;
        # a NaN ahead of it in the sample does not hide it
        rows = spectrum_scan(BoundaryCondition.robin(-1.0), [-1.0],
                             [np.nan, 2.0, 0.0])
        assert rows == [(-1.0, 0.0, 0.0, IN_SPECTRUM)]
        (row,) = spectrum_scan(BoundaryCondition.robin(-1.0), [-1.0], [np.nan])
        assert row[2:] == (float("inf"), NOT_IN_SPECTRUM)

    def test_robin_band_with_transverse_modes(self):
        bc = BoundaryCondition.robin(-2.0)
        assert spectrum_test(-3.0, bc, (0.0, 8.0)) == IN_SPECTRUM
        assert spectrum_test(-5.0, bc, (0.0, 8.0)) == NOT_IN_SPECTRUM

    def test_dirichlet_has_no_negative_spectrum(self):
        bc = BoundaryCondition.dirichlet()
        for lam in (-0.1, -2.0):
            assert spectrum_test(lam, bc, 0.0) == NOT_IN_SPECTRUM

    def test_agreement_with_fd_counts(self):
        for alpha in (-2.0, -1.0, -0.5, 0.0, 1.0):
            roots = negative_spectrum_roots(BoundaryCondition.robin(alpha), -6.0)
            sysm = assemble_fd(BoundaryCondition.robin(alpha), 0.0, 1024, 20.0)
            negatives = int(np.sum(fd_spectrum(sysm, 8) < 0))
            assert len(roots) == negatives


def reference_alpha(bc, ks):
    # theta(k) per k sample; None for Dirichlet, whose values are all inf
    if bc.kind == "dirichlet":
        return None
    return np.array([bc.effective_alpha(kv) for kv in ks], dtype=float)


def reference_witness(alpha, lam, ks):
    # the finite value of theta(k) + sqrt(k^2 - lambda) closest to 0 (first
    # on ties), its k index and the sign change, for one lambda at a time
    vals = np.full_like(ks, np.inf) if alpha is None else alpha + np.sqrt(ks * ks - lam)
    finite = np.isfinite(vals)
    if not finite.any():
        return float("inf"), 0, False
    idx = int(np.where(finite, np.abs(vals), np.inf).argmin())
    return float(vals[idx]), idx, vals[finite].min() < 0.0 < vals[finite].max()


def reference_scan(bc, lam_grid, k_range=0.0, tol=1e-9):
    ks = triple._k_sample(k_range)
    alpha = reference_alpha(bc, ks)
    rows = []
    for lam in np.asarray(lam_grid, dtype=float):
        witness, idx, change = reference_witness(alpha, lam, ks)
        hit = abs(witness) <= tol or change
        rows.append((float(lam), float(ks[idx]), witness,
                     IN_SPECTRUM if hit else NOT_IN_SPECTRUM))
    return rows


def reference_roots(bc, lam_min, step=1e-3, k_range=0.0):
    # negative_spectrum_roots with one scalar bisection per bracket
    lam_grid = np.arange(lam_min, 0.0, step)
    ks = triple._k_sample(k_range)
    alpha = reference_alpha(bc, ks)

    def witness(lam):
        return reference_witness(alpha, lam, ks)[0]

    w = np.array([witness(lam) for lam in lam_grid])
    roots = []
    for i in range(len(lam_grid) - 1):
        if not (np.isfinite(w[i]) and np.isfinite(w[i + 1])):
            continue
        if w[i] == 0.0:
            roots.append(float(lam_grid[i]))
        elif w[i] * w[i + 1] < 0:
            lo, hi, flo = lam_grid[i], lam_grid[i + 1], w[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = witness(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(float(0.5 * (lo + hi)))
    return roots


def outcome(fn, *args, **kwargs):
    # the result, or the type of the error raised (multipliers reject NaN k)
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc)


SCAN_CONDITIONS = [
    BoundaryCondition.robin(-1.0),
    BoundaryCondition.robin(0.7),
    BoundaryCondition.dirichlet(),
    BoundaryCondition.neumann(),
    BoundaryCondition("wentzell"),
    BoundaryCondition.multiplier(lambda k: k * k - 1.5),
    BoundaryCondition.multiplier(lambda k: -2.0 + 0.5 * k),
]
CONDITION_IDS = ["robin-1", "robin0.7", "dirichlet", "neumann", "wentzell",
                 "k2-1.5", "0.5k-2"]
K_RANGES = [0.0, (0.0, 8.0), [0.0, np.nan, 1.0]]


class TestScanWitness:
    """The blocked array witness reproduces the per-lambda scan exactly."""

    # the values of the default panel, and 5000 values: two lambda rows of a
    # 2001-sample k interval, so many full blocks and a partial last one
    @pytest.mark.parametrize("block", [1 << 14, 5000])
    @pytest.mark.parametrize("k_range", K_RANGES, ids=["k0", "interval", "nan"])
    @pytest.mark.parametrize("bc", SCAN_CONDITIONS, ids=CONDITION_IDS)
    def test_scan_rows_match_reference(self, monkeypatch, bc, k_range, block):
        monkeypatch.setattr(quadrature, "PANEL_BYTES", 8 * block)
        lam_grid = np.linspace(-3.0, -1e-12, 101)
        assert_equal(outcome(spectrum_scan, bc, lam_grid, k_range),
                     outcome(reference_scan, bc, lam_grid, k_range))

    @pytest.mark.parametrize("k_range", K_RANGES, ids=["k0", "interval", "nan"])
    @pytest.mark.parametrize("bc", SCAN_CONDITIONS, ids=CONDITION_IDS)
    def test_roots_match_reference(self, monkeypatch, bc, k_range):
        monkeypatch.setattr(quadrature, "PANEL_BYTES", 8 * 5000)
        assert_equal(outcome(negative_spectrum_roots, bc, -3.0, k_range=k_range),
                     outcome(reference_roots, bc, -3.0, k_range=k_range))

    def test_brackets_bisected_together(self, monkeypatch):
        # one witness call for the grid and one per halving over all the
        # brackets' midpoints; on this k sample the witness changes sign in
        # several brackets of (-3, 0)
        calls = []
        witness = triple._scan_witness
        monkeypatch.setattr(triple, "_scan_witness",
                            lambda *a: calls.append(a[1].size) or witness(*a))
        roots = negative_spectrum_roots(BoundaryCondition.robin(-1.5), -3.0,
                                        k_range=[0.0, 0.5, 1.0])
        assert len(calls) == 61 and calls[0] == 3000
        assert len(set(calls[1:])) == 1 and 2 <= calls[1] <= len(roots)

    def test_blocks_stay_below_the_value_budget(self, monkeypatch):
        sizes = []
        sqrt = np.sqrt
        monkeypatch.setattr(triple.np, "sqrt",
                            lambda a: sizes.append(np.size(a)) or sqrt(a))
        spectrum_scan(BoundaryCondition.robin(-2.0), np.linspace(-3, -0.1, 600),
                      (0.0, 8.0))
        assert sizes and max(sizes) <= quadrature.PANEL_BYTES // 8
        assert sum(sizes) == 600 * 2001

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(-4.0, 4.0),
           lams=st.lists(st.floats(-6.0, -1e-9), min_size=1, max_size=40),
           ks=st.lists(st.one_of(st.floats(0.0, 6.0), st.just(math.nan),
                                 st.just(math.inf)), min_size=1, max_size=12),
           block=st.integers(1, 64))
    def test_scan_matches_reference_property(self, alpha, lams, ks, block):
        bc = BoundaryCondition.robin(alpha)
        saved = quadrature.PANEL_BYTES
        quadrature.PANEL_BYTES = 8 * block
        try:
            rows = spectrum_scan(bc, lams, ks, tol=1e-3)
            roots = negative_spectrum_roots(bc, -2.0, step=0.05, k_range=ks)
        finally:
            quadrature.PANEL_BYTES = saved
        assert_equal(rows, reference_scan(bc, lams, ks, tol=1e-3))
        assert_equal(roots, reference_roots(bc, -2.0, step=0.05, k_range=ks))


class TestLowerBound:
    def test_symmetric_pair(self):
        assert lower_bound_estimate(1.0, 1.0) == pytest.approx(0.5)

    def test_zero_boundary_bound(self):
        assert lower_bound_estimate(0.0, 5.0) == 0.0

    def test_inapplicable(self):
        with pytest.raises(ValueError, match="inapplicable"):
            lower_bound_estimate(-2.0, 1.0)

    def test_certified_against_fd(self):
        # engineer a Dirichlet ground level near 3 by picking the window length
        m_theta, m_a0 = 2.0, 3.0
        L = np.pi / np.sqrt(m_a0)
        grid = 600
        dirichlet = assemble_fd(BoundaryCondition.dirichlet(), 0.0, grid, L)
        ground = float(fd_spectrum(dirichlet, 1)[0])
        assert abs(ground - m_a0) <= 5e-3
        bound = lower_bound_estimate(m_theta, m_a0)
        assert bound == pytest.approx(1.2)
        robin = assemble_fd(BoundaryCondition.robin(m_theta), 0.0, grid, L)
        assert float(fd_spectrum(robin, 1)[0]) >= bound
