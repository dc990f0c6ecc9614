import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, fd_spectrum
from halfwave.quadrature import (TruncationWarning, boundary_derivative,
                                 l2_norm, second_derivative)
from halfwave.spectral import (SpectralResolution, bound_state,
                               completeness_residual, inverse_sine_transform,
                               resolve, sine_transform)

X = np.linspace(0.0, 30.0, 3000)
XI = np.linspace(0.0, 40.0, 4000)


def bump(x, center, width):
    return np.exp(-((x - center) ** 2) / (2 * width ** 2))


def family(kind, xi, points, alpha=None):
    """``family_block`` of a resolution sampled at the radial frequencies
    ``xi``: (phi, v) with one row of phi per frequency."""
    res = SpectralResolution(kind=kind, alpha=alpha, k=0.0, x=X,
                             xi=np.atleast_1d(xi))
    return res.family_block(slice(None), points=points)


class TestRobinContinuumMode:
    def test_neumann_limit(self):
        assert_allclose(family("robin", 1.3, X, alpha=0.0)[0][0], np.cos(1.3 * X))

    def test_boundary_value(self):
        for xi, alpha in [(1.0, -1.0), (2.5, 0.7), (0.3, 3.0)]:
            got = family("robin", xi, [0.0], alpha=alpha)[0][0, 0]
            assert got == pytest.approx(xi / np.sqrt(xi ** 2 + alpha ** 2))

    def test_printed_value(self):
        got = family("robin", 1.0, [np.pi / 2], alpha=-1.0)[0][0, 0]
        assert got == pytest.approx(-1.0 / np.sqrt(2.0))

    def test_eigen_equation(self):
        xi = 1.0
        psi = family("robin", xi, X, alpha=-1.0)[0][0]
        resid = -second_derivative(psi, X[1] - X[0]) - xi ** 2 * psi
        assert np.max(np.abs(resid[: len(X) // 2])) <= 1e-6

    def test_boundary_condition_all_frequencies(self):
        # fine local grid so the derivative trace carries no stencil error
        xloc = np.linspace(0.0, 0.004, 8)
        for alpha in (-2.0, -1.0, 0.0, 0.5, 4.0):
            phi, _ = family("robin", np.linspace(0.05, 39.0, 25), xloc,
                            alpha=alpha)
            for psi in phi:
                d0 = boundary_derivative(psi, xloc[1] - xloc[0])
                assert abs(d0 - alpha * psi[0]) <= 1e-10


class TestBoundState:
    def test_half_line_state(self):
        st = bound_state(-1.0, 0.0)
        assert st.lam == pytest.approx(-1.0)
        e = st.profile(X)
        from halfwave.quadrature import inner_product
        assert abs(inner_product(e, e, X[1] - X[0]) - 1.0) <= 1e-6

    def test_profile_solves_eigen_equation(self):
        st = bound_state(-1.5, 1.0)
        xf = np.linspace(0.0, 30.0, 6000)
        e = st.profile(xf)
        resid = -second_derivative(e, xf[1] - xf[0]) + 1.0 * e - st.lam * e
        assert l2_norm(resid, xf[1] - xf[0]) <= 1e-6

    def test_absent_for_nonnegative_alpha(self):
        assert bound_state(0.5, 0.0) is None
        assert bound_state(0.0, 0.0) is None

    def test_threshold_is_open(self):
        # the eigenvalue is negative only for k^2 < alpha^2: at k = |alpha|
        # the state stays, at eigenvalue 0
        assert bound_state(-1.0, 1.0).lam == 0.0

    @pytest.mark.parametrize("alpha,k", [(-1.0, 1.0), (-0.3, 0.5), (-1.0, 2.0)])
    def test_exists_at_and_above_threshold(self, alpha, k):
        # e^{alpha x} solves the mode problem for every k, at eigenvalue
        # k^2 - alpha^2 below the continuum threshold k^2
        st = bound_state(alpha, k)
        assert st.lam == pytest.approx(k * k - alpha * alpha)
        sysm = assemble_fd(BoundaryCondition.robin(alpha), k, 2048, 15.0)
        assert abs(float(fd_spectrum(sysm, 1)[0]) - st.lam) <= 1e-3
        res = resolve(BoundaryCondition.robin(alpha), k, X)
        assert completeness_residual(res, bump(X, 2.0, 0.5)) <= 1e-3

    def test_existence_matches_membership_scan(self):
        from halfwave.triple import negative_spectrum_roots
        for alpha in np.linspace(-3.0, 3.0, 20):
            bc = BoundaryCondition.robin(float(alpha))
            roots = negative_spectrum_roots(bc, lam_min=-10.0, step=1e-2)
            has_state = bound_state(float(alpha), 0.0) is not None
            assert has_state == (len(roots) > 0)

    def test_mode_eigenvalue_against_fd(self):
        st = bound_state(-2.0, 1.0)
        assert st.lam == pytest.approx(-3.0)
        sysm = assemble_fd(BoundaryCondition.robin(-2.0), 1.0, 2048, 15.0)
        assert abs(float(fd_spectrum(sysm, 1)[0]) - st.lam) <= 1e-3


class TestSineTransform:
    def test_zero(self):
        assert_allclose(sine_transform(np.zeros_like(X), X, XI), 0.0)

    def test_concentration(self):
        xi0 = 7.0
        f = np.sin(xi0 * X) * bump(X, 12.0, 2.5)
        coeffs = sine_transform(f, X, XI)
        peak = XI[np.argmax(np.abs(coeffs))]
        assert abs(peak - xi0) <= XI[1] - XI[0] + 1e-12

    def test_roundtrip_error_is_pure_band_limit(self):
        # exact transform of x e^{-x} is 2 xi/(1+xi^2)^2; reconstruction can
        # only miss the content beyond xi_max, which has a closed tail
        f = X * np.exp(-X)
        recon = inverse_sine_transform(sine_transform(f, X, XI), X, XI)
        err = f - recon
        worst_idx = int(np.argmax(np.abs(err)))
        xw = X[worst_idx]
        tail, _ = quad(lambda s: 2 * s / (1 + s * s) ** 2, XI[-1], np.inf,
                       weight="sin", wvar=xw)
        assert abs(err[worst_idx] - (2 / np.pi) * tail) <= 2e-6
        assert np.max(np.abs(err)) <= 5e-4

    def test_roundtrip_on_band_limited_input(self):
        f = bump(X, 8.0, 0.5)
        recon = inverse_sine_transform(sine_transform(f, X, XI), X, XI)
        assert np.max(np.abs(recon - f)) <= 1e-6


class TestResolve:
    def test_dirichlet_continuum_only(self):
        res = resolve(BoundaryCondition.dirichlet(), 0.0, X)
        assert res.kind == "dirichlet" and res.bound is None

    def test_robin_bound_state(self):
        res = resolve(BoundaryCondition.robin(-1.0), 0.0, X)
        assert res.bound is not None and res.bound.lam == pytest.approx(-1.0)

    def test_robin_zero_matches_neumann(self):
        res0 = resolve(BoundaryCondition.robin(0.0), 0.0, X)
        resn = resolve(BoundaryCondition.neumann(), 0.0, X)
        f = bump(X, 5.0, 0.8)
        assert_allclose(res0.synthesize(*res0.analyze(f)),
                        resn.synthesize(*resn.analyze(f)), atol=1e-12)

    def test_multiplier_reduction(self):
        bc = BoundaryCondition.multiplier(lambda k: k * k)
        res = resolve(bc, 1.0, X)
        assert res.kind == "robin" and res.alpha == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            resolve(BoundaryCondition.dirichlet(), 0.0, X, xi_max=-1.0)
        with pytest.raises(ValueError):
            resolve(BoundaryCondition.dirichlet(), 0.0, X, nodes=32)

    @pytest.mark.parametrize("x,match", [
        (np.array([0.0]), "at least 2 samples"),
        (np.empty(0), "at least 2 samples"),
        (np.zeros((2, 64)), "1-D grid"),
        (np.concatenate([X[:10], X[11:]]), "uniform increasing"),
        (np.array([0.0, 0.1, 0.3, 0.4]), "uniform increasing"),
        (X[::-1], "uniform increasing"),
        (np.zeros(64), "uniform increasing"),
        (X + 0.5, "start at the boundary"),
        (X - X[1], "start at the boundary"),
    ])
    def test_rejects_unusable_x_grids(self, x, match):
        # analysis reads dx from the first step and places the boundary at x[0]
        with pytest.raises(ValueError, match=match):
            resolve(BoundaryCondition.robin(-1.0), 0.0, x)

    def test_operator_through_resolution_matches_fd(self):
        f = bump(X, 8.0, 0.7)
        for bc, k in [(BoundaryCondition.dirichlet(), 0.0),
                      (BoundaryCondition.robin(-1.0), 0.0),
                      (BoundaryCondition.robin(0.5), 1.0)]:
            res = resolve(bc, k, X)
            spec_af = res.apply_operator(f)
            sysm = assemble_fd(bc, k, X.size, X[-1])
            fd_af = sysm.apply_grid(f)
            num = l2_norm(spec_af - fd_af, res.dx)
            assert num / l2_norm(fd_af, res.dx) <= 1e-3


class TestCompleteness:
    def test_bound_state_projects_onto_itself(self):
        xfine = np.linspace(0.0, 30.0, 6000)
        res = resolve(BoundaryCondition.robin(-1.0), 0.0, xfine)
        e = res.bound.profile(xfine)
        assert completeness_residual(res, e) <= 1e-6

    def test_bump_reconstruction_default_resolution(self):
        res = resolve(BoundaryCondition.dirichlet(), 0.0, X)
        assert completeness_residual(res, bump(X, 2.0, 0.5)) <= 1e-3

    @pytest.mark.xfail(strict=True, reason="the uniform xi grid does not "
                       "resolve the Robin family's transition at xi ~ |alpha| "
                       "when |alpha| is below the node spacing")
    @pytest.mark.parametrize("alpha", [1e-3, -1e-3])
    def test_bump_reconstruction_unresolved_small_alpha(self, alpha):
        res = resolve(BoundaryCondition.robin(alpha), 0.0, X)
        assert completeness_residual(res, bump(X, 2.0, 0.5)) <= 1e-3

    def test_bound_state_channel_is_required(self):
        res = resolve(BoundaryCondition.robin(-1.0), 0.0, X)
        f = bump(X, 2.0, 0.5)
        assert completeness_residual(res, f) <= 1e-3
        assert completeness_residual(res, f, include_bound=False) >= 1e-2

    def test_residual_halves_when_grid_doubles(self):
        coarse = resolve(BoundaryCondition.robin(-1.0), 0.0,
                         np.linspace(0.0, 30.0, 1500))
        fine = resolve(BoundaryCondition.robin(-1.0), 0.0, X)
        e_c = coarse.bound.profile(coarse.x)
        e_f = fine.bound.profile(fine.x)
        r_coarse = completeness_residual(coarse, e_c)
        r_fine = completeness_residual(fine, e_f)
        assert r_fine <= r_coarse / 2


class TestWentzell:
    def test_boundary_compatibility(self):
        phi, v = family("wentzell", 2.0, X)
        assert phi[0, 0] == v[0]

    def test_dynamic_condition_at_harmonic_frequency(self):
        xloc = np.linspace(0.0, 0.01, 8)
        xi = np.array([0.5, 1.0, 3.0, 10.0])
        phi, v = family("wentzell", xi, xloc)
        for bulk, xi_j, v_j in zip(phi, xi, v):
            d0 = boundary_derivative(bulk, xloc[1] - xloc[0])
            assert abs(d0 + xi_j ** 2 * v_j) <= 1e-6

    def test_eigen_equation(self):
        k = 1.0
        bulk = family("wentzell", 2.0, X)[0][0]
        lhs = -second_derivative(bulk, X[1] - X[0]) + k * k * bulk
        rhs = (2.0 ** 2 + k * k) * bulk
        assert np.max(np.abs(lhs - rhs)[: len(X) // 2]) <= 1e-6

    def test_extended_completeness(self):
        res = resolve(BoundaryCondition.wentzell_laplace(), 1.0, X)
        assert res.extended
        # domain-compatible pair: boundary value equals the trace
        f = np.exp(-X)
        assert completeness_residual(res, f, f_boundary=1.0) <= 1e-3
        g = bump(X, 6.0, 0.8)
        assert completeness_residual(res, g, f_boundary=g[0]) <= 1e-3


def test_resolution_json_round_trip():
    res = resolve(BoundaryCondition.robin(-1.5), 0.5, X, xi_max=30.0, nodes=1500)
    back = SpectralResolution.from_json(res.to_json())
    assert back.kind == res.kind and back.alpha == res.alpha and back.k == res.k
    assert back.bound.lam == pytest.approx(res.bound.lam)
    f = bump(X, 5.0, 0.7)
    c1, b1 = res.analyze(f)
    c2, b2 = back.analyze(f)
    assert_allclose(c1, c2, rtol=0, atol=0)
    assert b1 == b2


def test_sine_transform_warns_on_undecayed_input():
    with pytest.warns(TruncationWarning):
        sine_transform(np.cos(X), X, XI)
