"""The space-time paths stream: besides the source and the field they hold
only the working memory of one block of _CHUNK xi nodes, and each streamed
form equals the whole-array formula it replaced, bit for bit."""

import tracemalloc

import numpy as np
import pytest

from halfwave import cli, propagator, quadrature, spectral, verify
from halfwave.model import BoundaryCondition
from halfwave.propagator import _harmonics, _window
from halfwave.quadrature import _STENCILS, derivative
from halfwave.spectral import _CHUNK, resolve

ROBIN = BoundaryCondition.robin(-1.0)
WENTZELL = BoundaryCondition.wentzell_laplace()


def block_allowance(nt, npoints):
    """Bytes one block may hold at once: its family sample (_CHUNK x
    npoints), its coefficients and the four (nt, _CHUNK) arrays of the
    one-sided window, one panel of the synthesis product, and 256 KB for
    the ufuncs' own buffers."""
    return (8 * _CHUNK * (npoints + 5 * nt) + spectral._PRODUCT_PANEL_BYTES
            + 2 ** 18)


def streaming_bound(nt, npoints, fields):
    """Peak traced bytes of a path that holds ``fields`` arrays of
    (nt, npoints) doubles, its inputs and outputs, plus one block."""
    return fields * 8 * nt * npoints + block_allowance(nt, npoints)


def traced_peak(fn, *args):
    """Peak traced bytes of ``fn(*args)`` above what it still holds when it
    returns: a first run in a process keeps caches and lazy imports."""
    tracemalloc.start()
    try:
        fn(*args)
        held, peak = tracemalloc.get_traced_memory()
        return peak - held
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    def test_retarded_applier_holds_one_block(self):
        # the `halfwave evolve` grid; the source is made before tracing
        t = np.linspace(0.0, 6.0, 480)
        x = np.linspace(0.0, 30.0, 1024)
        res = resolve(ROBIN, 0.0, x, nodes=spectral.default_nodes(ROBIN, 0.0, span=66.0))
        f = cli._gaussian_source({"amplitude": 1.0, "t0": 1.6, "sigma_t": 0.25,
                                  "x0": 3.0, "sigma_x": 0.4}, t, x)
        peak = traced_peak(propagator.apply_retarded, res, f, t)
        assert peak < streaming_bound(t.size, x.size, fields=1)

    def test_verify_bc_check_holds_one_block(self):
        # the check at grid 2048 makes its source and its field
        run = cli.settings(cli._merge(cli.default_config(), {"model": {"grid": 2048}}))
        peak = traced_peak(cli._verify_bc, run, 1e-2)
        assert peak < streaming_bound(320, 2048, fields=2)

    @pytest.mark.parametrize("command,nt", [("evolve", 480), ("verify", 320)])
    def test_command_at_defaults(self, tmp_path, capsys, command, nt):
        # the largest fields are the applier's source and output: evolve's
        # own, and the bc check's inside verify
        peak = traced_peak(cli.main, ["--out", str(tmp_path), command])
        bound = streaming_bound(nt, cli.default_config()["model"]["grid"], fields=2)
        with capsys.disabled():
            print(f"\n{command} at its defaults: traced peak {peak / 1e6:.2f} MB, "
                  f"bound {bound / 1e6:.2f} MB")
        assert peak < bound


def whole_array_derivative(u, dx, order):
    # derivative as written before its stencil terms shared a buffer
    centre, edges = _STENCILS[order]
    u = np.asarray(u, dtype=float)
    d = np.zeros_like(u)
    for j, c in enumerate(centre):
        if c:
            d[..., 2:-2] += c * u[..., j:j + u.shape[-1] - 4]
    for i, row in enumerate(edges):
        d[..., i] = (u[..., :len(row)] * row).sum(axis=-1)
        d[..., -1 - i] = (-1) ** order * (u[..., :-len(row) - 1:-1] * row).sum(axis=-1)
    d /= 12 * dx ** order
    return d


def whole_array_bc_residual(U, t, x, bc, k=0.0):
    # bc_residual as written before it ran in row panels
    dx = float(x[1] - x[0])
    g0 = U[:, 0]
    if bc.kind == "dirichlet":
        scale = max(float(np.max(np.abs(U))), verify._FLOOR)
        return float(np.max(np.abs(g0))) / scale
    dU = whole_array_derivative(U, dx, 1)
    g1 = dU[:, 0]
    if bc.is_dynamic:
        dt = float(t[1] - t[0])
        g0_tt = (g0[2:] - 2 * g0[1:-1] + g0[:-2]) / (dt * dt)
        theta_g0 = g0_tt + (k * k) * g0[1:-1]
        resid = np.abs(g1[1:-1] - theta_g0)
        g1 = g1[1:-1]
    else:
        theta_g0 = bc.effective_alpha(k) * g0
        resid = np.abs(g1 - theta_g0)
    grad_scale = float(np.max(np.abs(dU)))
    scale = max(float(np.max(np.abs(g1)) + np.max(np.abs(theta_g0))),
                grad_scale, verify._FLOOR)
    return float(np.max(resid)) / scale


def whole_array_window(coeffs, t, lam, support):
    # _window as written before it reused its buffers
    s, c, rate = _harmonics(lam[None, :], t[:, None])
    dt = float(t[1] - t[0])

    def prefix(h):
        out = np.zeros_like(h)
        np.cumsum(dt * (h[1:] + h[:-1]) / 2.0, axis=0, out=out[1:])
        return out

    if support == "causal":
        Ic = np.trapezoid(c * coeffs, dx=dt, axis=0)
        Is = np.trapezoid(s * coeffs, dx=dt, axis=0)
    else:
        Ic, Is = prefix(c * coeffs), prefix(s * coeffs)
        if support == "advanced":
            Ic, Is = Ic[-1] - Ic, Is[-1] - Is
    D = (s * Ic - c * Is) / rate
    return -D if support == "advanced" else D


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


BC_CASES = [(BoundaryCondition.dirichlet(), 0.0), (ROBIN, 0.0),
            (BoundaryCondition.neumann(), 0.0), (WENTZELL, 1.0)]


class TestBitIdentical:
    T = np.linspace(0.0, 5.0, 301)      # not a multiple of any panel below
    X = np.linspace(0.0, 12.0, 1024)

    def applied_field(self, bc, k):
        res = resolve(bc, k, self.X, nodes=600)
        f = cli._gaussian_source({"amplitude": 1.0, "t0": 2.0, "sigma_t": 0.3,
                                  "x0": 3.0, "sigma_x": 0.4}, self.T, self.X)
        return propagator.apply_retarded(res, f, self.T)

    # 128 and 6 rows: 301 is 2 x 128 + 45 and 50 x 6 + a lone row
    @pytest.mark.parametrize("panel_bytes", [1 << 20, 8 * 1024 * 6])
    @pytest.mark.parametrize("bc,k", BC_CASES)
    def test_bc_residual_of_an_applied_field(self, monkeypatch, bc, k, panel_bytes):
        U = self.applied_field(bc, k)
        monkeypatch.setattr(quadrature, "PANEL_BYTES", panel_bytes)
        assert self.T.size % (panel_bytes // (8 * self.X.size)) != 0
        for check in (bc, BoundaryCondition.robin(1.0)):
            got = verify.bc_residual(U, self.T, self.X, check, k=k)
            assert same_bits(got, whole_array_bc_residual(U, self.T, self.X, check, k))

    @pytest.mark.parametrize("bc,k", BC_CASES)
    def test_bc_residual_is_the_same_in_any_panels(self, monkeypatch, bc, k):
        # one row, three rows (301 = 100 x 3 + a lone row) and the default
        U = self.applied_field(bc, k)
        want = verify.bc_residual(U, self.T, self.X, bc, k=k)
        for rows in (1, 3):
            monkeypatch.setattr(quadrature, "PANEL_BYTES", 8 * self.X.size * rows)
            panels = quadrature.row_panels(self.T.size, self.X.size)
            assert len(panels) == -(-self.T.size // rows)
            assert same_bits(verify.bc_residual(U, self.T, self.X, bc, k=k), want)

    @pytest.mark.parametrize("bc,k", BC_CASES)
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf])
    def test_bc_residual_of_a_rough_field(self, monkeypatch, bc, k, bad):
        # the peak gradient anywhere, and non-finite samples off the trace
        U = np.random.default_rng(3).normal(size=(self.T.size, 64))
        if bad is not None:
            U[150, 40] = bad
        x = self.X[:64]
        monkeypatch.setattr(quadrature, "PANEL_BYTES", 8 * 64 * 9)
        got = verify.bc_residual(U, self.T, x, bc, k=k)
        assert same_bits(got, whole_array_bc_residual(U, self.T, x, bc, k))

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative(self, order):
        u = np.random.default_rng(4).normal(size=(7, 200))
        u[3, 100] = np.nan
        u[5, 2] = -np.inf
        assert same_bits(derivative(u, 0.03, order),
                         whole_array_derivative(u, 0.03, order))

    @pytest.mark.parametrize("support", ["causal", "retarded", "advanced"])
    def test_window(self, support):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 6.0, 480)
        coeffs = rng.normal(size=(t.size, _CHUNK))
        lam = np.concatenate([[-1.0, 0.0], rng.uniform(0.0, 50.0, _CHUNK - 2)])
        assert same_bits(_window(coeffs, t, lam, support),
                         whole_array_window(coeffs, t, lam, support))

    @pytest.mark.parametrize("bad", [None, np.nan])
    def test_energy_drift(self, bad):
        x = np.linspace(0.0, 12.0, 200)
        U = np.random.default_rng(6).normal(size=(9, x.size))
        if bad is not None:
            U[4, 50] = bad
        rep = verify.energy_report(np.linspace(0.0, 1.0, 9), U, U[::-1], x[1] - x[0], ROBIN)
        scale = max(abs(rep.E_total[0]), float(np.max(rep.E)), verify._FLOOR)
        want = float(np.max(np.abs(rep.E_total - rep.E_total[0])) / scale)
        assert same_bits(rep.drift, want)
