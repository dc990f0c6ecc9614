import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import floats
from numpy.testing import assert_allclose
from scipy.integrate import quad

from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, fd_spectrum
from halfwave.quadrature import (TruncationWarning, boundary_derivative,
                                 corrected_weights, derivative,
                                 trapezoid_weights)
from halfwave import quadrature, spectral
from halfwave.spectral import (_CHUNK, _TWO_PI_HI, _TWO_PI_LO, DEFAULT_NODES,
                               MIN_NODES, SpectralResolution, bound_state,
                               completeness_residual, default_nodes, resolve)

X = np.linspace(0.0, 30.0, 3000)
# the half-line sine transform is the Dirichlet resolution: analysis gives
# int f(x) sin(xi x) dx, synthesis inverts it with weight 2/pi
SINE = resolve(BoundaryCondition.dirichlet(), 0.0, X)
XI = SINE.xi


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
        resid = -derivative(psi, X[1] - X[0], 2) - xi ** 2 * psi
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


def expanded_family(kind, alpha, xi, x):
    # the per-kind closed forms the phase form sin(xi x + theta) replaces
    xi = xi[:, None]
    X = xi * x[None, :]
    if kind == "dirichlet":
        return np.sin(X), None
    if kind == "robin":
        if alpha == 0.0:
            return np.cos(X), None
        return (xi * np.cos(X) + alpha * np.sin(X)) / np.hypot(xi, alpha), None
    nrm = 1.0 / np.sqrt(1.0 + xi * xi)
    return nrm * (np.cos(X) - xi * np.sin(X)), nrm[:, 0]


PHASE_CASES = [("dirichlet", None), ("robin", -1.0), ("robin", 0.0), ("robin", 0.7),
               ("robin", 5.0), ("robin", -0.01), ("wentzell", None)]


class TestPhaseForm:
    """``family_block`` is sin(xi x + theta(xi)) for every kind."""

    XI = np.linspace(0.0, 40.0, 801)
    PTS = np.linspace(0.0, 30.0, 1024)

    @pytest.mark.parametrize("kind,alpha", PHASE_CASES)
    def test_matches_expanded_formulas(self, kind, alpha):
        phi, v = family(kind, self.XI, self.PTS, alpha=alpha)
        want, want_v = expanded_family(kind, alpha, self.XI, self.PTS)
        assert_allclose(phi, want, rtol=0, atol=1e-13)     # xi = 0 row included
        if kind == "wentzell":
            assert_allclose(v, want_v, rtol=0, atol=1e-13)
        else:
            assert v is None

    def test_dirichlet_is_exactly_sine(self):
        phi, _ = family("dirichlet", self.XI, self.PTS)
        assert phi.tobytes() == np.sin(np.multiply.outer(self.XI, self.PTS)).tobytes()
        assert np.all(phi[:, 0] == 0.0)

    def test_neumann_is_exact_at_zero_frequency(self):
        phi, _ = family("robin", self.XI, self.PTS, alpha=0.0)
        assert np.all(phi[0] == 1.0)

    def test_extended_boundary_component_is_the_trace(self):
        phi, v = family("wentzell", self.XI, np.array([0.0, 1.0]))
        assert np.array_equal(v, phi[:, 0])

    @pytest.mark.parametrize("kind,alpha", PHASE_CASES)
    def test_reflection_coefficient(self, kind, alpha):
        # r = -e^{2 i theta}: -1 for Dirichlet, (xi - i alpha)/(xi + i alpha)
        # for Robin, and -r_Robin(alpha = 1) for the extended family
        xi = self.XI[1:]
        res = SpectralResolution(kind=kind, alpha=alpha, k=0.0, x=X, xi=self.XI)
        r = -np.exp(2j * res.phase(xi))
        if kind == "dirichlet":
            want = -np.ones(xi.size)
        elif kind == "robin":
            want = (xi - 1j * alpha) / (xi + 1j * alpha)
        else:
            want = -(xi - 1j) / (xi + 1j)
        assert_allclose(r, want, rtol=0, atol=1e-15)


def one_shot_family(res, sl, points):
    # family_block as one pass over the whole block, the formula it runs
    # panel by panel
    xi = res.xi[sl]
    theta = res.phase(xi)
    phi = np.multiply.outer(xi, points)
    if res.kind != "dirichlet":
        n = np.rint(phi / (2.0 * np.pi))
        phi -= _TWO_PI_HI * n
        phi -= _TWO_PI_LO * n
        phi += theta[:, None]
    np.sin(phi, out=phi)
    return phi


def panel_rows(npoints):
    # rows of npoints doubles in one default panel
    first = quadrature.row_panels(_CHUNK, npoints)[0]
    return first.stop - first.start


PANEL_CASES = [BoundaryCondition.dirichlet(), BoundaryCondition.robin(-1.0),
               BoundaryCondition.wentzell_laplace()]


class TestPanels:
    """``family_block`` runs in row panels, bit for bit the one-shot formula."""

    @pytest.mark.parametrize("rows", [None, 3], ids=["default", "3rows"])
    @pytest.mark.parametrize("npoints", [1, 20, 1025, 2049])
    @pytest.mark.parametrize("bc", PANEL_CASES, ids=lambda bc: bc.kind)
    def test_bit_identical_to_one_shot(self, monkeypatch, bc, npoints, rows):
        if rows is not None:
            # 3-row panels: edges fall inside every block below
            monkeypatch.setattr(quadrature, "PANEL_BYTES", 8 * npoints * rows + 7)
        res = resolve(bc, 0.0, X, nodes=700)
        points = np.linspace(0.0, 37.5, npoints)
        for sl in (slice(0, _CHUNK), slice(3 * _CHUNK // 2, 700), slice(5, 6)):
            phi, v = res.family_block(sl, points=points)
            assert phi.tobytes() == one_shot_family(res, sl, points).tobytes()
            if bc.is_dynamic:
                assert v.tobytes() == np.sin(res.phase(res.xi[sl])).tobytes()
            else:
                assert v is None

    def test_panel_edges_do_not_divide_the_block(self):
        for npoints in (1025, 2049):
            assert _CHUNK % panel_rows(npoints) != 0

    def test_transient_memory_is_two_panels(self):
        # the one-shot formula held three more block-sized arrays
        res = resolve(BoundaryCondition.robin(-1.0), 0.0, X, nodes=700)
        points = np.linspace(0.0, 30.0, 2049)
        tracemalloc.start()
        try:
            phi, _ = res.family_block(slice(0, _CHUNK), points=points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two panel buffers, plus the ufuncs' own iteration buffers
        panel = panel_rows(points.size) * points.size * 8
        assert peak < phi.nbytes + 2 * panel + 2 ** 18


class TestBoundState:
    def test_half_line_state(self):
        st = bound_state(-1.0, 0.0)
        assert st.lam == pytest.approx(-1.0)
        e = st.profile(X)
        w = corrected_weights(X.size, X[1] - X[0])
        assert abs(w @ (e * e) - 1.0) <= 1e-6

    def test_profile_solves_eigen_equation(self):
        st = bound_state(-1.5, 1.0)
        xf = np.linspace(0.0, 30.0, 6000)
        e = st.profile(xf)
        dx = xf[1] - xf[0]
        resid = -derivative(e, dx, 2) + 1.0 * e - st.lam * e
        assert np.sqrt(corrected_weights(xf.size, dx) @ resid ** 2) <= 1e-6

    def test_absent_for_nonnegative_alpha(self):
        assert bound_state(0.5, 0.0) is None
        assert bound_state(0.0, 0.0) is None

    def test_threshold_is_open(self):
        # the eigenvalue is negative only for k^2 < alpha^2: at k = |alpha|
        # the state stays, at eigenvalue 0
        assert bound_state(-1.0, 1.0).lam == 0.0

    @settings(max_examples=60, deadline=None)
    @given(alpha=floats(-2.5, -0.3), k=floats(0.0, 2.0))
    @example(alpha=-1.0, k=1.0)
    @example(alpha=-0.3, k=0.5)
    @example(alpha=-1.0, k=2.0)
    def test_lowest_fd_eigenvalue_across_the_box(self, alpha, k):
        # e^{alpha x} solves the mode problem for every k, at eigenvalue
        # k^2 - alpha^2 below the continuum threshold k^2; the lowest FD
        # eigenvalue finds it across the whole box
        st = bound_state(alpha, k)
        assert st.lam == pytest.approx(k * k - alpha * alpha)
        sysm = assemble_fd(BoundaryCondition.robin(alpha), k, 2048, 15.0)
        assert abs(float(fd_spectrum(sysm, 1)[0]) - st.lam) <= 1e-3

    @pytest.mark.parametrize("alpha,k", [(-1.0, 1.0), (-0.3, 0.5), (-1.0, 2.0)])
    def test_exists_at_and_above_threshold(self, alpha, k):
        # the state exists at and above the threshold k^2 = alpha^2, and the
        # resolution carrying it is complete there (its eigenvalue against
        # FD is the property above)
        st = bound_state(alpha, k)
        assert st.lam == pytest.approx(k * k - alpha * alpha)
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
        assert_allclose(SINE.analyze(np.zeros_like(X))[0], 0.0)

    def test_concentration(self):
        xi0 = 7.0
        f = np.sin(xi0 * X) * bump(X, 12.0, 2.5)
        coeffs, _ = SINE.analyze(f)
        peak = XI[np.argmax(np.abs(coeffs))]
        assert abs(peak - xi0) <= XI[1] - XI[0] + 1e-12

    def test_roundtrip_error_is_pure_band_limit(self):
        # exact transform of x e^{-x} is 2 xi/(1+xi^2)^2; reconstruction can
        # only miss the content beyond xi_max, which has a closed tail
        f = X * np.exp(-X)
        recon = SINE.synthesize(*SINE.analyze(f))
        err = f - recon
        worst_idx = int(np.argmax(np.abs(err)))
        xw = X[worst_idx]
        tail, _ = quad(lambda s: 2 * s / (1 + s * s) ** 2, XI[-1], np.inf,
                       weight="sin", wvar=xw)
        assert abs(err[worst_idx] - (2 / np.pi) * tail) <= 2e-6
        assert np.max(np.abs(err)) <= 5e-4

    def test_roundtrip_on_band_limited_input(self):
        f = bump(X, 8.0, 0.5)
        recon = SINE.synthesize(*SINE.analyze(f))
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
            w = corrected_weights(X.size, res.dx)
            num = np.sqrt(w @ (spec_af - fd_af) ** 2)
            assert num / np.sqrt(w @ fd_af ** 2) <= 1e-3


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


class TestXiWeights:
    def test_corrected_at_xi_max_only(self):
        res = resolve(BoundaryCondition.dirichlet(), 0.0, X, nodes=801)
        w = res.xi_weights()
        plain = trapezoid_weights(801, res.dxi)
        assert_allclose(w[:-5], plain[:-5], rtol=0, atol=0)
        assert not np.allclose(w[-5:], plain[-5:], rtol=1e-3, atol=0)
        # exact on cubics over [0, xi_max]
        xi = res.xi
        assert np.dot(w, xi ** 3) == pytest.approx(40.0 ** 4 / 4, rel=1e-13)

    @pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(),
                                    BoundaryCondition.robin(-1.0),
                                    BoundaryCondition.robin(0.7),
                                    BoundaryCondition.wentzell_laplace()],
                             ids=["dirichlet", "robin-1", "robin0.7", "wentzell"])
    @pytest.mark.parametrize("nodes", [801, 4000])
    def test_completeness_unchanged_by_the_correction(self, monkeypatch, bc,
                                                      nodes):
        x = np.linspace(0.0, 15.0, 1500)
        res = resolve(bc, 0.0, x, nodes=nodes)
        f = bump(x, 4.0, 0.6)
        fb = f[0] if res.extended else 0.0
        corrected = completeness_residual(res, f, fb)
        monkeypatch.setattr(SpectralResolution, "xi_weights",
                            lambda self: trapezoid_weights(self.xi.size, self.dxi))
        assert abs(corrected - completeness_residual(res, f, fb)) <= 1e-12


class TestDefaultNodes:
    @pytest.mark.parametrize("bc,k,xi_max,span,nodes", [
        # the CLI windows at the default config (Robin -1, k = 0, xi_max 40)
        (BoundaryCondition.robin(-1.0), 0.0, 40.0, 66.0, 842),   # evolve
        (BoundaryCondition.robin(-1.0), 0.0, 40.0, 64.0, 816),   # verify bc
        (BoundaryCondition.robin(-1.0), 0.0, 40.0, 8.0, 801),    # kernel
        (BoundaryCondition.robin(-1.0), 0.0, 40.0, 0.0, 801),
        # |alpha|/10 below the 0.05 step
        (BoundaryCondition.robin(0.3), 0.0, 40.0, 8.0, 1335),
        # small |alpha| and wide windows hit the cap
        (BoundaryCondition.robin(0.05), 0.0, 40.0, 8.0, DEFAULT_NODES),
        (BoundaryCondition.robin(-1.0), 0.0, 40.0, 700.0, DEFAULT_NODES),
        (BoundaryCondition.multiplier(lambda k: k * k), 0.2, 40.0, 8.0,
         DEFAULT_NODES),
        # no alpha term for Dirichlet, Neumann or the dynamical condition
        (BoundaryCondition.dirichlet(), 0.0, 40.0, 66.0, 842),
        (BoundaryCondition.neumann(), 0.0, 40.0, 8.0, 801),
        (BoundaryCondition.wentzell_laplace(), 0.0, 40.0, 66.0, 842),
        (BoundaryCondition.wentzell_laplace(), 1.0, 40.0, 8.0, 801),
        (BoundaryCondition.dirichlet(), 0.0, 80.0, 8.0, 1601),
        # never below the resolve floor
        (BoundaryCondition.dirichlet(), 0.0, 1.0, 8.0, MIN_NODES),
    ])
    def test_table(self, bc, k, xi_max, span, nodes):
        assert default_nodes(bc, k, xi_max, span) == nodes

    def test_library_default_unchanged(self):
        res = resolve(BoundaryCondition.robin(-1.0), 0.0, X)
        assert res.quadrature == {"xi_max": 40.0, "nodes": 4000}


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
        lhs = -derivative(bulk, X[1] - X[0], 2) + k * k * bulk
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


class TestExtendedFold:
    """The extended space is L2(dx + delta_0): its boundary value is one more
    x node, at x = 0 with weight 1, so analysis and synthesis equal the
    two-channel formulas, bulk plus boundary, written out here."""

    # 400 xi nodes: one full block of _CHUNK and one partial block
    RES = resolve(BoundaryCondition.wentzell_laplace(), 0.0,
                  np.linspace(0.0, 12.0, 64), nodes=400)

    def data(self, stack):
        x = self.RES.x
        f = bump(x, 4.0, 0.6) + 0.5 * np.exp(-x)
        if stack:
            f = np.stack([f, bump(x, 6.0, 0.8), -2.0 * f])
        # boundary values off the trace, so the boundary channel is visible
        return f, f[..., 0] + 0.25

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    def test_analyze_matches_two_channel_formula(self, stack):
        res = self.RES
        f, fb = self.data(stack)
        fw = f * corrected_weights(res.x.size, res.dx)
        phi, v = res.family_block(slice(None))
        want = fw @ phi.T + np.multiply.outer(fb, v)
        got, cb = res.analyze(f, fb)
        assert cb is None and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    def test_synthesize_matches_two_channel_formula(self, stack):
        res = self.RES
        f, fb = self.data(stack)
        coeffs, _ = res.analyze(f, fb)
        phi, v = res.family_block(slice(None))
        wc = coeffs * (res.xi_weights() * res.weight)
        bulk, boundary = res.synthesize(coeffs)
        for got, want in ((bulk, wc @ phi), (boundary, wc @ v)):
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_sine_transform_warns_on_undecayed_input():
    with pytest.warns(TruncationWarning, match="completeness input"):
        completeness_residual(SINE, np.cos(X))
