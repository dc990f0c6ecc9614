import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import exp1, sici

from halfwave import propagator
from halfwave.model import BoundaryCondition, WarpedProfile
from halfwave.oracle import assemble_fd, images_kernel, leapfrog
from halfwave.propagator import (KernelGrid, _window, apply_advanced,
                                 apply_causal, apply_retarded, build_kernel_grid,
                                 causal_kernel, conformal_wrap,
                                 cos_propagator, evolve_cauchy,
                                 kernel_time_derivative_apply, sin_propagator,
                                 wentzell_apply)
from halfwave.spectral import _CHUNK, SpectralResolution, default_nodes, resolve
from halfwave.quadrature import TruncationWarning
from halfwave.verify import wave_operator

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()
ROBIN = BoundaryCondition.robin(-1.0)


def bump(x, center, width):
    return np.exp(-((x - center) ** 2) / (2 * width ** 2))


def gaussian_source(t, x, t0, st, x0, sx):
    return np.exp(-((t[:, None] - t0) ** 2) / (2 * st ** 2)
                  - ((x[None, :] - x0) ** 2) / (2 * sx ** 2))


def rel_l2(a, b):
    return np.sqrt(np.sum((a - b) ** 2) / np.sum(b * b))


class TestTimePropagatorScalars:
    def test_series_matches_direct_across_cut(self):
        lam = np.array([-2.0, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 2.0, 50.0])
        t = np.array([1e-6, 1e-3, 0.3, 2.0])
        for tv in t:
            got = sin_propagator(lam, tv)
            ref = []
            for lv in lam:
                if lv > 0:
                    ref.append(np.sin(np.sqrt(lv) * tv) / np.sqrt(lv))
                elif lv < 0:
                    ref.append(np.sinh(np.sqrt(-lv) * tv) / np.sqrt(-lv))
                else:
                    ref.append(tv)
            assert_allclose(got, ref, rtol=1e-10, atol=1e-300)

    def test_odd_in_time(self):
        lam = np.linspace(-3, 3, 13)
        assert_allclose(sin_propagator(lam, 0.7), -sin_propagator(lam, -0.7),
                        rtol=1e-14)

    def test_cos_at_zero(self):
        assert_allclose(cos_propagator(np.array([-4.0, 0.0, 9.0]), 0.0), 1.0)


@pytest.fixture(scope="module")
def res_dirichlet():
    return resolve(DIR, 0.0, np.linspace(0.0, 12.0, 1024))


@pytest.fixture(scope="module")
def res_robin():
    return resolve(ROBIN, 0.0, np.linspace(0.0, 12.0, 1024))


class TestCausalKernel:
    def test_vanishes_at_equal_times(self, res_dirichlet):
        x = np.array([0.3, 1.0, 2.5])
        assert_allclose(causal_kernel(res_dirichlet, 0.0, x, x[::-1]), 0.0,
                        atol=1e-15)

    def test_inside_direct_cone(self, res_dirichlet):
        got = causal_kernel(res_dirichlet, np.array(0.3), np.array(0.4),
                            np.array(0.5))
        assert got == pytest.approx(0.5, abs=1e-4)

    def test_cancellation_after_reflection(self, res_dirichlet):
        got = causal_kernel(res_dirichlet, np.array(1.0), np.array(0.4),
                            np.array(0.5))
        assert abs(got) <= 1e-4

    def test_neumann_doubles_after_reflection(self):
        res = resolve(NEU, 0.0, np.linspace(0.0, 12.0, 64))
        got = causal_kernel(res, np.array(1.0), np.array(0.4), np.array(0.5))
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_matches_images_off_cone(self, res_dirichlet):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.05, 2.0, 200)
        x = rng.uniform(0.2, 3.0, 200)
        y = rng.uniform(0.2, 3.0, 200)
        keep = (np.abs(t - np.abs(x - y)) > 0.05) & (np.abs(t - (x + y)) > 0.05)
        got = causal_kernel(res_dirichlet, t[keep], x[keep], y[keep])
        want = images_kernel(t[keep], x[keep], y[keep], DIR)
        assert np.max(np.abs(got - want)) <= 1e-4

    def test_tail_flag_guard(self):
        res = resolve(ROBIN, 1.0, np.linspace(0, 12, 64))
        with pytest.raises(ValueError, match="k = 0"):
            causal_kernel(res, 0.5, 1.0, 1.0, tails=True)


STRUCTURAL_CASES = [
    (DIR, 0.0), (NEU, 0.0), (ROBIN, 0.0),
    (BoundaryCondition.robin(0.7), 0.0),
    (BoundaryCondition.multiplier(lambda k: k * k), 1.0),
    (BoundaryCondition.wentzell_laplace(), 1.0),
]


def assert_grid_matches_pointwise(res, t, x, y, tails=None):
    grid = build_kernel_grid(res, t, x, y, tails=tails)
    want = causal_kernel(res, *np.meshgrid(t, x, y, indexing="ij"), tails=tails)
    assert grid.values.shape == want.shape
    assert np.max(np.abs(grid.values - want)) <= 1e-12
    return grid


class TestKernelGridInvariants:
    @pytest.mark.filterwarnings("ignore::halfwave.quadrature.TruncationWarning")
    @pytest.mark.parametrize("bc,k", STRUCTURAL_CASES)
    def test_structural_invariants(self, bc, k):
        res = resolve(bc, k, np.linspace(0.0, 12.0, 64), nodes=400)
        t = np.linspace(-1.0, 1.0, 9)
        x = np.linspace(0.3, 2.7, 7)
        grid = build_kernel_grid(res, t, x, x)
        v = grid.values
        # odd in t, symmetric in (x, y), zero slice at t = 0
        assert np.max(np.abs(v + v[::-1])) <= 1e-10
        assert np.max(np.abs(v - np.swapaxes(v, 1, 2))) <= 1e-10
        assert np.max(np.abs(v[4])) <= 1e-10

    @pytest.mark.filterwarnings("ignore::halfwave.quadrature.TruncationWarning")
    @pytest.mark.parametrize("bc,k", STRUCTURAL_CASES)
    def test_factored_grid_matches_pointwise(self, bc, k):
        res = resolve(bc, k, np.linspace(0.0, 12.0, 64), nodes=400)
        grid = assert_grid_matches_pointwise(res, np.linspace(-1.0, 1.0, 9),
                                             np.linspace(0.3, 2.7, 7),
                                             np.linspace(0.3, 2.7, 7))
        assert grid.meta["tails"] is (k == 0.0 and not res.extended)

    @pytest.mark.parametrize("tails", [True, False, None])
    def test_factored_grid_matches_pointwise_at_default_nodes(self, res_robin, tails):
        grid = assert_grid_matches_pointwise(res_robin, np.linspace(0.0, 2.0, 6),
                                             np.linspace(0.2, 3.0, 5),
                                             np.linspace(0.2, 3.0, 5), tails=tails)
        assert grid.meta["tails"] is (tails is not False)

    def test_factored_grid_single_samples(self, res_robin):
        grid = assert_grid_matches_pointwise(res_robin, np.array([0.0]),
                                             np.array([0.7]),
                                             np.linspace(0.2, 3.0, 4))
        assert np.max(np.abs(grid.values)) <= 1e-15

    def test_factored_grid_unequal_axes(self, res_robin):
        # distinct lengths and offsets expose a transposed contraction
        grid = assert_grid_matches_pointwise(res_robin, np.linspace(-0.5, 2.0, 5),
                                             np.linspace(0.1, 1.3, 3),
                                             np.linspace(0.9, 3.4, 7))
        assert grid.values.shape == (5, 3, 7)

    @pytest.mark.parametrize("alpha", [-1.0, 0.7, 2.0])
    def test_matches_robin_images_off_characteristics(self, alpha):
        bc = BoundaryCondition.robin(alpha)
        res = resolve(bc, 0.0, np.linspace(0.0, 12.0, 64))
        t = np.linspace(-2.0, 2.5, 19)
        x = np.linspace(0.2, 3.5, 15)
        y = np.linspace(0.1, 3.1, 11)
        grid = build_kernel_grid(res, t, x, y)
        T, X, Y = np.meshgrid(t, x, y, indexing="ij")
        keep = ((np.abs(np.abs(T) - np.abs(X - Y)) > 0.05)
                & (np.abs(np.abs(T) - (X + Y)) > 0.05))
        err = np.abs(grid.values - images_kernel(T, X, Y, bc))[keep]
        assert err.max() <= 1e-4

    def test_truncation_warning_without_tail_completion(self):
        res = resolve(ROBIN, 1.0, np.linspace(0.0, 12.0, 64), nodes=400)
        x = np.linspace(0.3, 2.0, 3)
        with pytest.warns(TruncationWarning, match=r"1/xi_max = 2\.5e-02"):
            causal_kernel(res, 0.5, 1.0, 1.0)
        with pytest.warns(TruncationWarning, match=r"1/xi_max = 2\.5e-02"):
            grid = build_kernel_grid(res, x, x, x)
        assert grid.meta["tails"] is False
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            causal_kernel(res, 0.5, 1.0, 1.0, tails=False)
            build_kernel_grid(res, x, x, x, tails=False)

    def test_serialization_round_trips(self, tmp_path, res_dirichlet):
        t = np.linspace(0.0, 1.0, 4)
        x = np.linspace(0.3, 2.0, 5)
        grid = build_kernel_grid(res_dirichlet, t, x, x)
        grid.to_binary(tmp_path / "kern")
        back = KernelGrid.from_binary(tmp_path / "kern")
        assert_allclose(back.values, grid.values, rtol=0, atol=0)
        assert back.meta["kind"] == "dirichlet"
        grid.to_csv(tmp_path / "kern.csv")
        rows = (tmp_path / "kern.csv").read_text().splitlines()
        assert rows[0] == "t,x,y,value"
        assert len(rows) == 1 + t.size * x.size * x.size

    def test_equal_time_derivative_reproduces(self, res_robin):
        g = bump(res_robin.x, 4.0, 0.6)
        out = kernel_time_derivative_apply(res_robin, g)
        assert rel_l2(out, g) <= 1e-2


def pointwise_tail(kind, alpha, t, x, y, xi_max):
    # the closed-form xi > xi_max tail with one sici and one exp1 pair per
    # point, however often a characteristic argument repeats
    def si(c):
        return np.sign(c) * (np.pi / 2 - sici(xi_max * np.abs(c))[0])

    def frac(c, a):
        ca, a = np.abs(c), abs(a)
        cos_tail, sin_tail = np.empty(ca.shape), np.zeros(ca.shape)
        zero = ca == 0
        cos_tail[zero] = (np.pi / 2 - np.arctan(xi_max / a)) / a
        p = -1j * ca[~zero]
        plus = np.exp(p * (-1j * a)) * exp1(p * (xi_max - 1j * a))
        minus = np.exp(p * (1j * a)) * exp1(p * (xi_max + 1j * a))
        cos_tail[~zero] = (plus - minus).imag / (2.0 * a)
        sin_tail[~zero] = ((plus + minus) / 2).imag
        return cos_tail, np.sign(c) * sin_tail

    t, x, y = np.broadcast_arrays(t, x, y)
    u, v = x - y, x + y
    tail = 0.25 * (si(t + u) + si(t - u))
    if kind == "dirichlet":
        return tail - 0.25 * (si(t + v) + si(t - v))
    if alpha == 0.0:
        return tail + 0.25 * (si(t + v) + si(t - v))
    tail = tail - 0.25 * (si(t + v) + si(t - v))
    cos_minus, sin_minus = frac(t - v, alpha)
    cos_plus, sin_plus = frac(t + v, alpha)
    tail = tail + (alpha / 2.0) * (cos_minus - cos_plus)
    return tail + 0.5 * (sin_plus + sin_minus)


TAIL_CASES = [("dirichlet", None), ("robin", 0.0), ("robin", -1.0), ("robin", 0.7)]


def assert_same_tail(kind, alpha, t, x, y, xi_max=40.0):
    T, X, Y = t[:, None, None], x[None, :, None], y[None, None, :]
    got = propagator._kernel_tail(kind, alpha, T, X, Y, xi_max)
    want = pointwise_tail(kind, alpha, T, X, Y, xi_max)
    assert got.shape == (t.size, x.size, y.size)
    assert_allclose(got, want, rtol=0, atol=0)
    assert got.tobytes() == want.tobytes()      # signed zeros included


class TestDistinctTail:
    """The closed-form tail is evaluated once per distinct |argument| and
    gathered back: bit-identical to evaluating it at every point."""

    @pytest.mark.parametrize("kind,alpha", TAIL_CASES)
    def test_matches_pointwise_on_repeated_arguments(self, kind, alpha):
        # x = y repeats t -+ u; t = v on the grid gives c = 0; t < 0 and
        # t = -0.0 give negative and negative-zero arguments
        t = np.array([-1.5, -0.0, 0.0, 0.4, 0.8, 1.2, 2.0])
        x = np.array([0.0, 0.2, 0.4, 0.6, 1.0])
        assert_same_tail(kind, alpha, t, x, x)
        assert_same_tail(kind, alpha, t, x, x[::-1] + 0.2, xi_max=17.5)

    @pytest.mark.parametrize("kind,alpha", TAIL_CASES)
    def test_matches_pointwise_on_causal_kernel_points(self, kind, alpha):
        rng = np.random.default_rng(5)
        t, x, y = (np.round(rng.uniform(lo, 3.0, 40), 1) for lo in (-3.0, 0.0, 0.0))
        want = pointwise_tail(kind, alpha, t, x, y, 40.0)
        assert_allclose(propagator._kernel_tail(kind, alpha, t, x, y, 40.0), want,
                        rtol=0, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(TAIL_CASES), data=st.data())
    def test_matches_pointwise_on_random_tensor_grids(self, case, data):
        # few distinct values per axis, so arguments repeat and hit 0
        values = st.sampled_from([-2.5, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0,
                                  1.75, 3.0]) | st.floats(-3.0, 3.0)
        t, x, y = (np.array(data.draw(st.lists(values, min_size=1, max_size=6)))
                   for _ in range(3))
        assert_same_tail(*case, t, np.abs(x), np.abs(y),
                         xi_max=data.draw(st.floats(1.0, 80.0)))

    def test_exp1_once_per_distinct_argument(self, monkeypatch):
        # a shifted 20^3 grid: 8000 points, far fewer distinct |t -+ v|
        sizes = []
        real = propagator._exp1_pair

        def counting(c, a, xi_max):
            sizes.append(c.size)
            return real(c, a, xi_max)
        monkeypatch.setattr(propagator, "_exp1_pair", counting)
        t = np.linspace(0.1, 2.1, 20)
        x = np.linspace(0.25, 3.05, 20)
        y = np.linspace(0.15, 2.95, 20)
        res = resolve(ROBIN, 0.0, np.linspace(0.0, 12.0, 64), nodes=400)
        build_kernel_grid(res, t, x, y)
        T, V = t[:, None, None], x[None, :, None] + y[None, None, :]
        want = [np.unique(np.abs(c)[c != 0]).size for c in (T - V, T + V)]
        assert sizes == want
        assert max(sizes) <= t.size * (x.size + y.size - 1) < 8000


class TestAppliers:
    T = np.linspace(0.0, 6.0, 480)

    def test_zero_source(self, res_robin):
        f = np.zeros((self.T.size, res_robin.x.size))
        assert_allclose(apply_causal(res_robin, f, self.T), 0.0)
        assert_allclose(apply_retarded(res_robin, f, self.T), 0.0)

    def test_causal_annihilates_wave_images(self, res_dirichlet):
        # f = box g for compactly supported g lies in the kernel
        x = res_dirichlet.x
        g = (gaussian_source(self.T, x, 3.0, 0.4, 4.0, 0.5))
        sysm = assemble_fd(DIR, 0.0, x.size, x[-1])
        box_g = wave_operator(g, self.T, sysm)
        out = apply_causal(res_dirichlet, box_g, self.T)
        dx, dt = x[1] - x[0], self.T[1] - self.T[0]
        num = np.sqrt(np.sum(out[1:-1] ** 2) * dx * dt)
        den = np.sqrt(np.sum(g[1:-1] ** 2) * dx * dt)
        assert num / den <= 1e-2

    def test_retarded_silent_before_source(self, res_robin):
        x = res_robin.x
        f = gaussian_source(self.T, x, 3.0, 0.3, 4.0, 0.4)
        u = apply_retarded(res_robin, f, self.T)
        early = self.T < 1.0
        assert np.max(np.abs(u[early])) <= 1e-6 * np.max(np.abs(u))

    def test_advanced_silent_after_source(self, res_robin):
        x = res_robin.x
        f = gaussian_source(self.T, x, 3.0, 0.3, 4.0, 0.4)
        u = apply_advanced(res_robin, f, self.T)
        late = self.T > 5.0
        assert np.max(np.abs(u[late])) <= 1e-6 * np.max(np.abs(u))

    def test_retarded_minus_advanced_is_causal(self, res_robin):
        x = res_robin.x
        f = gaussian_source(self.T, x, 3.0, 0.3, 4.0, 0.4)
        ret = apply_retarded(res_robin, f, self.T)
        adv = apply_advanced(res_robin, f, self.T)
        cau = apply_causal(res_robin, f, self.T)
        assert np.max(np.abs(ret - adv - cau)) <= 1e-10 * np.max(np.abs(cau))

    @pytest.mark.parametrize("bc", [DIR, ROBIN])
    def test_one_sided_appliers_invert_wave_operator(self, bc):
        x = np.linspace(0.0, 12.0, 1024)
        res = resolve(bc, 0.0, x)
        f = gaussian_source(self.T, x, 3.0, 0.4, 4.0, 0.5)
        sysm = assemble_fd(bc, 0.0, x.size, x[-1])
        for applier in (apply_retarded, apply_advanced):
            u = applier(res, f, self.T)
            assert rel_l2(wave_operator(u, self.T, sysm)[1:-1], f[1:-1]) <= 1e-2

    def test_narrow_pulse_matches_leapfrog(self, res_dirichlet):
        # near-impulsive band-limited source shared by both routes
        x = res_dirichlet.x
        dx = x[1] - x[0]
        dt = 0.25 * dx
        nt = int(round(3.0 / dt)) + 1
        t = np.arange(nt) * dt
        f = gaussian_source(t, x, 0.5, 6 * dt, 5.0, 6 * dx)
        u = apply_retarded(res_dirichlet, f, t)
        sysm = assemble_fd(DIR, 0.0, x.size, x[-1])
        times, U, _ = leapfrog(sysm, np.zeros_like(x), np.zeros_like(x), dt,
                               3.0, sample_stride=1, source=f)
        assert rel_l2(u[: times.size], U) <= 1e-2


def direct_window(coeffs, t, lam, support):
    # dense (t, t') trapezoid sum of s(lam, t - t') coeffs(t') per window
    dt = t[1] - t[0]
    S = sin_propagator(lam[None, None, :], (t[:, None] - t[None, :])[:, :, None])
    out = np.zeros((t.size, lam.size))
    for i in range(t.size):
        lo, hi = {"causal": (0, t.size), "retarded": (0, i + 1),
                  "advanced": (i, t.size)}[support]
        if hi - lo > 1:
            out[i] = np.trapezoid(S[i, lo:hi] * coeffs[lo:hi], dx=dt, axis=0)
    return -out if support == "advanced" else out


SUPPORTS = ("causal", "retarded", "advanced")
APPLIERS = {"causal": apply_causal, "retarded": apply_retarded,
            "advanced": apply_advanced}


class TestWindow:
    T = np.linspace(0.0, 3.0, 41)
    X = np.linspace(0.0, 12.0, 64)

    @pytest.mark.parametrize("support", SUPPORTS)
    @pytest.mark.parametrize("bc,channel", [(NEU, "continuum"), (ROBIN, "bound")])
    def test_matches_direct_convolution(self, bc, channel, support):
        # Neumann at k = 0 has the omega = 0 node (lam = 0) next to lam > 0;
        # the Robin alpha = -1 bound channel has lam = -1
        res = resolve(bc, 0.0, self.X, nodes=64)
        lam = res.omega_sq() if channel == "continuum" else np.array([res.bound.lam])
        rng = np.random.default_rng(3)
        coeffs = (np.exp(-((self.T[:, None] - 1.5) ** 2) / 0.18)
                  * rng.normal(size=lam.size))
        got = _window(coeffs, self.T, lam, support)
        want = direct_window(coeffs, self.T, lam, support)
        if channel == "continuum":
            assert lam[0] == 0.0 and np.all(lam[1:] > 0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("support", SUPPORTS)
    def test_applier_sums_continuum_and_bound_channel(self, support):
        res = resolve(ROBIN, 0.0, self.X, nodes=200)
        f = gaussian_source(self.T, self.X, 1.5, 0.2, 2.0, 0.5)
        coeffs, cb = res.analyze(f)
        want = res.synthesize(
            direct_window(coeffs, self.T, res.omega_sq(), support),
            direct_window(cb[:, None], self.T, np.array([res.bound.lam]), support)[:, 0])
        got = APPLIERS[support](res, f, self.T)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def reference_apply(res, f, t, support):
    # analyze -> window -> synthesize over the whole xi grid at once
    coeffs, cb = res.analyze(f, f[:, 0] if res.extended else 0.0)
    D = _window(coeffs, t, res.omega_sq(), support)
    Db = None
    if res.bound is not None:
        Db = _window(cb[:, None], t, np.array([res.bound.lam]), support)[:, 0]
    out = res.synthesize(D, Db)
    return out[0] if res.extended else out


FUSED_CALLS = {
    "apply_retarded": lambda res, f, t: apply_retarded(res, f, t),
    "wentzell_apply": lambda res, f, t: wentzell_apply(res, f, t),
    "apply_operator": lambda res, f, t: res.apply_operator(f[0], f[0, 0]),
    "evolve_cauchy": lambda res, f, t: evolve_cauchy(res, f[0], f[1], t),
    "kernel_time_derivative_apply":
        lambda res, f, t: kernel_time_derivative_apply(res, f[0]),
}


class TestFusedBlockLoop:
    T = np.linspace(0.0, 3.0, 41)
    X = np.linspace(0.0, 12.0, 64)

    @pytest.mark.parametrize("support", SUPPORTS)
    @pytest.mark.parametrize(
        "bc,k", STRUCTURAL_CASES + [(BoundaryCondition.wentzell_laplace(), 0.0)])
    def test_bit_identical_to_whole_grid_composition(self, bc, k, support):
        # 400 nodes: one full block of _CHUNK and one partial block
        res = resolve(bc, k, self.X, nodes=400)
        f = gaussian_source(self.T, self.X, 1.5, 0.2, 2.0, 0.5)
        if res.extended:
            got = wentzell_apply(res, f, self.T, support)
        else:
            got = APPLIERS[support](res, f, self.T)
        assert_allclose(got, reference_apply(res, f, self.T, support),
                        rtol=0, atol=0)

    @pytest.mark.parametrize("call", sorted(FUSED_CALLS))
    def test_family_evaluated_once_per_block(self, monkeypatch, call):
        bc = (BoundaryCondition.wentzell_laplace() if call == "wentzell_apply"
              else ROBIN)
        res = resolve(bc, 0.0, self.X, nodes=400)
        f = gaussian_source(self.T, self.X, 1.5, 0.2, 2.0, 0.5)
        calls = []
        family_block = SpectralResolution.family_block

        def counted(self, *args, **kwargs):
            calls.append(args)
            return family_block(self, *args, **kwargs)

        monkeypatch.setattr(SpectralResolution, "family_block", counted)
        FUSED_CALLS[call](res, f, self.T)
        assert len(calls) == math.ceil(400 / _CHUNK)

    def test_transient_memory_below_one_coefficient_pair(self):
        # the whole-grid composition holds several nt x n_xi arrays at once
        t = np.linspace(0.0, 6.0, 480)
        x = np.linspace(0.0, 12.0, 1024)
        res = resolve(ROBIN, 0.0, x, nodes=4000)
        f = gaussian_source(t, x, 3.0, 0.3, 4.0, 0.4)
        tracemalloc.start()
        try:
            apply_retarded(res, f, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * t.size * res.xi.size * 8


class TestEvolveCauchy:
    def test_time_zero_is_projection(self, res_dirichlet):
        u0 = bump(res_dirichlet.x, 5.0, 0.6)
        got = evolve_cauchy(res_dirichlet, u0, np.zeros_like(u0), 0.0)[0]
        want = res_dirichlet.synthesize(*res_dirichlet.analyze(u0))
        assert_allclose(got, want, rtol=0, atol=1e-14)
        assert rel_l2(got, u0) <= 1e-3

    def test_initial_velocity(self, res_dirichlet):
        x = res_dirichlet.x
        v0 = bump(x, 5.0, 0.6)
        eps = 1e-4
        u = evolve_cauchy(res_dirichlet, np.zeros_like(x), v0,
                          np.array([0.0, eps, 2 * eps]))
        fd_vel = (u[2] - u[0]) / (2 * eps) - (u[2] - 2 * u[1] + u[0]) / (2 * eps) * 0
        assert rel_l2(fd_vel, v0) <= 1e-3

    def test_packet_against_leapfrog(self, res_dirichlet):
        x = res_dirichlet.x
        dx = x[1] - x[0]
        u0 = bump(x, 5.0, 0.6)
        dt = 0.4 * dx
        times, U, _ = leapfrog(assemble_fd(DIR, 0.0, x.size, x[-1]), u0,
                               np.zeros_like(u0), dt, 2.0, sample_stride=64)
        got = evolve_cauchy(res_dirichlet, u0, np.zeros_like(u0), times)
        assert rel_l2(got, U) <= 1e-2

    def test_bound_state_grows_hyperbolically(self, res_robin):
        e = res_robin.bound.profile(res_robin.x)
        times = np.linspace(0.0, 2.0, 9)
        got = evolve_cauchy(res_robin, e, np.zeros_like(e), times)
        want = np.cosh(times)[:, None] * e[None, :]
        assert np.max(np.abs(got - want)) <= 1e-3


class TestDerivedNodeCount:
    """Outputs at ``default_nodes`` against a 16000-node reference or the
    images oracle, and the aliasing guard that bounds the node spacing."""

    # the default evolve window (span t_max + 2 x_max = 66) on coarser samples
    T = np.linspace(0.0, 6.0, 240)
    X = np.linspace(0.0, 30.0, 512)

    @pytest.mark.parametrize("bc", [
        BoundaryCondition.robin(-1.5), BoundaryCondition.robin(-0.5),
        BoundaryCondition.robin(0.5), DIR, NEU,
        BoundaryCondition.wentzell_laplace()],
        ids=["robin-1.5", "robin-0.5", "robin0.5", "dirichlet", "neumann",
             "wentzell"])
    def test_appliers_match_fine_reference(self, bc):
        nodes = default_nodes(bc, 0.0, 40.0, self.T[-1] + 2 * self.X[-1])
        assert nodes == 842
        apply = wentzell_apply if bc.is_dynamic else apply_retarded
        f = gaussian_source(self.T, self.X, 1.6, 0.25, 3.0, 0.4)
        got = apply(resolve(bc, 0.0, self.X, nodes=nodes), f, self.T)
        ref = apply(resolve(bc, 0.0, self.X, nodes=16000), f, self.T)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bc", [DIR, NEU, ROBIN, BoundaryCondition.robin(0.7)],
                             ids=["dirichlet", "neumann", "robin-1", "robin0.7"])
    def test_kernel_grid_matches_images(self, bc):
        t = np.linspace(0.0, 2.0, 20)
        x = np.linspace(0.2, 3.0, 20)
        nodes = default_nodes(bc, 0.0, 40.0, t[-1] + 2 * x[-1])
        res = resolve(bc, 0.0, np.linspace(0.0, 12.0, 64), nodes=nodes)
        grid = build_kernel_grid(res, t, x, x)
        T, Xg, Y = np.meshgrid(t, x, x, indexing="ij")
        keep = ((np.abs(T - np.abs(Xg - Y)) > 0.05)
                & (np.abs(T - (Xg + Y)) > 0.05))
        err = np.abs(grid.values - images_kernel(T, Xg, Y, bc))[keep]
        assert np.max(err) <= 1e-7

    def test_applier_warns_past_the_aliasing_span(self):
        # 400 nodes on [0, 40]: 2 pi/dxi = 62.7 < 66
        f = gaussian_source(self.T, self.X, 1.6, 0.25, 3.0, 0.4)
        with pytest.warns(TruncationWarning, match="aliases"):
            apply_retarded(resolve(ROBIN, 0.0, self.X, nodes=400), f, self.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apply_retarded(resolve(ROBIN, 0.0, self.X, nodes=842), f, self.T)

    def test_kernels_warn_past_the_aliasing_span(self):
        res = resolve(DIR, 0.0, np.linspace(0.0, 12.0, 64), nodes=100)
        # 2 pi/dxi = 15.5: t + x + y = 16 aliases, 15 does not
        with pytest.warns(TruncationWarning, match="aliases"):
            causal_kernel(res, 6.0, 5.0, 5.0)
        with pytest.warns(TruncationWarning, match="aliases"):
            build_kernel_grid(res, np.array([0.0, 6.0]), np.array([1.0, 5.0]),
                              np.array([5.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            causal_kernel(res, 5.0, 5.0, 5.0)
            build_kernel_grid(res, np.array([5.0]), np.array([5.0]),
                              np.array([5.0]))


WENTZELL_X = np.linspace(0.0, 20.0, 1200)


@pytest.fixture(scope="module")
def res_w():
    return resolve(BoundaryCondition.wentzell_laplace(), 1.0, WENTZELL_X)


class TestWentzell:
    X = WENTZELL_X
    T = np.linspace(0.0, 8.0, 640)

    def test_zero_source(self, res_w):
        f = np.zeros((self.T.size, self.X.size))
        assert_allclose(wentzell_apply(res_w, f, self.T), 0.0)

    def test_static_resolution_rejected(self, res_robin):
        f = np.zeros((self.T.size, res_robin.x.size))
        with pytest.raises(ValueError, match="extended"):
            wentzell_apply(res_robin, f, self.T)

    def test_single_mode_response_frequency(self, res_w):
        # narrow-band drive of one extended mode rings at sqrt(xi^2 + k^2),
        # not at xi or k; the continuum mode does not decay, so the window
        # warning is expected
        xi0, k = 2.0, 1.0
        omega0 = np.sqrt(xi0 ** 2 + k ** 2)
        bulk = replace(res_w, xi=np.array([xi0])).family_block(slice(None))[0]
        window = np.exp(-((self.T - 1.2) ** 2) / (2 * 0.5 ** 2))
        f = window[:, None] * bulk
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            u = wentzell_apply(res_w, f, self.T, support="retarded")
        late = self.T > 3.0
        r = u[late, 0]
        tt = self.T[late]
        crossings = np.where(np.diff(np.sign(r)) != 0)[0]
        tc = tt[crossings] - r[crossings] * (tt[crossings + 1] - tt[crossings]) \
            / (r[crossings + 1] - r[crossings])
        omega_est = np.pi / np.mean(np.diff(tc))
        assert abs(omega_est - omega0) <= 1e-3
        assert abs(omega_est - xi0) > 0.2 and abs(omega_est - k) > 1.0

    def test_matches_extended_leapfrog(self, res_w):
        x = self.X
        dx = x[1] - x[0]
        dt = 0.4 * dx
        nt = int(round(5.0 / dt)) + 1
        t = np.arange(nt) * dt
        f = gaussian_source(t, x, 2.0, 0.3, 3.0, 0.4)
        u = wentzell_apply(res_w, f, t, support="retarded")
        sysm = assemble_fd(BoundaryCondition.wentzell_laplace(), 1.0,
                           x.size, x[-1])
        times, U, _ = leapfrog(sysm, np.zeros_like(x), np.zeros_like(x), dt,
                               5.0, sample_stride=1, source=f)
        assert rel_l2(u[: times.size], U) <= 1e-2


class TestConformalWrap:
    X = np.linspace(0.0, 12.0, 256)

    def _double(self, f):
        return 2.0 * np.asarray(f)

    def test_unit_profile_is_identity(self):
        prof = WarpedProfile(x=self.X, beta=np.ones_like(self.X), m=3)
        wrapped = conformal_wrap(self._double, prof)
        f = bump(self.X, 5.0, 1.0)[None, :]
        assert_allclose(wrapped(f), self._double(f), rtol=0, atol=0)

    def test_constant_profile_m1(self):
        prof = WarpedProfile(x=self.X, beta=np.full_like(self.X, 4.0), m=1)
        wrapped = conformal_wrap(self._double, prof)
        f = bump(self.X, 5.0, 1.0)[None, :]
        assert_allclose(wrapped(f), self._double(4.0 * f), rtol=1e-14)

    def test_constant_profile_m3_by_linearity(self):
        c = 2.25
        prof = WarpedProfile(x=self.X, beta=np.full_like(self.X, c), m=3)
        wrapped = conformal_wrap(self._double, prof)
        f = bump(self.X, 5.0, 1.0)[None, :]
        assert_allclose(wrapped(f), c * self._double(f), rtol=1e-12)


class TestExtendedState:
    def test_compatible_lift(self):
        from halfwave.spectral import ExtendedState
        u = bump(np.linspace(0, 12, 256), 4.0, 0.8) + 0.3
        state = ExtendedState.from_bulk(u)
        assert state.v == u[0]
        assert state.compatibility_residual() == 0.0

    def test_incompatible_pair_detected(self):
        from halfwave.spectral import ExtendedState
        u = np.ones(64)
        state = ExtendedState(u=u, v=2.0)
        assert state.compatibility_residual() == pytest.approx(0.5)

    def test_cauchy_evolution_accepts_extended_state(self):
        from halfwave.spectral import ExtendedState
        x = np.linspace(0.0, 20.0, 1200)
        res = resolve(BoundaryCondition.wentzell_laplace(), 1.0, x)
        u0 = np.exp(-x)       # trace-compatible decaying state
        state = ExtendedState.from_bulk(u0)
        got = evolve_cauchy(res, state, ExtendedState(u=np.zeros_like(x), v=0.0),
                            np.array([0.0]))[0]
        want = evolve_cauchy(res, u0, np.zeros_like(x), np.array([0.0]))[0]
        assert_allclose(got, want, rtol=0, atol=0)
        assert rel_l2(got, u0) <= 1e-3
