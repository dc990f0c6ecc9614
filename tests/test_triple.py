import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, fd_spectrum
from halfwave.quadrature import TruncationWarning, l2_norm, second_derivative
from halfwave.triple import (IN_SPECTRUM, NOT_IN_SPECTRUM, TraceMaps,
                             cayley_unitary, deficiency_decay,
                             extension_membership, greens_identity_residual,
                             lower_bound_estimate, negative_spectrum_roots,
                             spectrum_scan, spectrum_test, weyl_function)

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
        assert greens_identity_residual(f, f, 0.0, X30) == 0.0

    def test_interior_bumps_no_boundary_term(self):
        f = bump(X30, 4.0, 0.8)
        g = bump(X30, 6.0, 1.1)
        assert greens_identity_residual(f, g, 1.3, X30) <= 1e-8

    def test_analytic_pair(self):
        # boundary term is exactly -1 for this pair; the rest is discretization
        f1 = np.exp(-X30)
        f2 = X30 * np.exp(-X30)
        assert greens_identity_residual(f1, f2, 0.0, X30) <= 1e-6

    def test_random_smooth_decaying_pairs(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(30):
            f = (rng.uniform(0.5, 2) * bump(X30, rng.uniform(2, 9), rng.uniform(0.6, 1.5))
                 + rng.uniform(0, 1) * np.exp(-rng.uniform(0.8, 1.5) * X30))
            g = (rng.uniform(0.5, 2) * bump(X30, rng.uniform(2, 9), rng.uniform(0.6, 1.5))
                 + rng.uniform(0, 1) * X30 * np.exp(-rng.uniform(0.8, 1.5) * X30))
            worst = max(worst, greens_identity_residual(f, g, rng.uniform(0, 2), X30))
        assert worst <= 1e-6

    def test_undecayed_input_warns(self):
        f = np.cos(X30)
        with pytest.warns(TruncationWarning):
            greens_identity_residual(f, f, 0.0, X30)


class TestExtensionMembership:
    def test_dirichlet_sine(self):
        ok, residual = extension_membership(np.sin(1.7 * X30),
                                            BoundaryCondition.dirichlet(), 0.0, X30)
        assert ok and residual == 0.0

    def test_neumann_cosine(self):
        ok, residual = extension_membership(np.cos(1.7 * X30),
                                            BoundaryCondition.neumann(), 0.0, X30)
        assert ok and residual <= 1e-10

    def test_robin_exponential(self):
        ok, residual = extension_membership(np.exp(-X30),
                                            BoundaryCondition.robin(-1.0), 0.0, X30)
        assert ok and residual <= 1e-10

    def test_mismatch_detected(self):
        ok, residual = extension_membership(np.cos(1.7 * X30),
                                            BoundaryCondition.robin(-1.0), 0.0, X30)
        assert not ok and residual >= 0.5

    def test_dynamic_condition_rejected(self):
        with pytest.raises(ValueError, match="dynamical"):
            extension_membership(np.exp(-X30),
                                 BoundaryCondition.wentzell_laplace(), 0.0, X30)


class TestDeficiencyDecay:
    def test_real_negative(self):
        assert deficiency_decay(-1.0) == pytest.approx(1.0)

    def test_imaginary_unit(self):
        mu = deficiency_decay(1j)
        assert mu == pytest.approx(np.exp(-1j * np.pi / 4))
        assert mu.real > 0

    def test_decay_solves_operator_equation(self):
        lam = -4.0
        mu = deficiency_decay(lam)
        assert mu == pytest.approx(2.0)
        x = np.linspace(0.0, 30.0, 6000)
        u = np.exp(-mu.real * x)
        resid = -second_derivative(u, x[1] - x[0]) - lam * u
        assert l2_norm(resid, x[1] - x[0]) <= 1e-8

    def test_branch_cut_rejected(self):
        for lam in (0.0, 2.5):
            with pytest.raises(ValueError):
                deficiency_decay(lam)


class TestCayley:
    def test_zero(self):
        assert cayley_unitary(0.0) == pytest.approx(-1.0)

    def test_one(self):
        assert cayley_unitary(1.0) == pytest.approx(1j)

    def test_infinite_coupling_limit(self):
        assert abs(cayley_unitary(1e6) - 1.0) <= 1e-5

    def test_unimodular_and_injective(self):
        thetas = np.linspace(-50, 50, 401)
        values = np.array([cayley_unitary(t) for t in thetas])
        assert_allclose(np.abs(values), 1.0, atol=1e-12)
        assert len(np.unique(np.round(values, 12))) == len(thetas)


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
