"""The space-time paths stream: besides the field (and a dense source) they
hold only the working memory of one block of _CHUNK xi nodes, the energy
check holds its two sampled trajectories and one row panel, and each
streamed form equals the whole-array formula it replaced, bit for bit."""

import tracemalloc

import numpy as np
import pytest

from halfwave import cli, oracle, propagator, quadrature, spectral, verify
from halfwave.model import BoundaryCondition
from halfwave.propagator import _window
from halfwave.quadrature import _STENCILS, derivative
from halfwave.spectral import _CHUNK, resolve
from reference_tables import reference_harmonics

ROBIN = BoundaryCondition.robin(-1.0)
WENTZELL = BoundaryCondition.wentzell_laplace()


def block_allowance(nt, npoints):
    """Bytes one block may hold at once: its family sample (_CHUNK x
    npoints) and its one (nt, _CHUNK) coefficient array, one row panel for
    each of the window's temporaries (four, for every support), one panel
    of the synthesis product, and 256 KB for the ufuncs' own buffers."""
    return (8 * _CHUNK * (npoints + nt) + 4 * quadrature.PANEL_BYTES
            + spectral._PRODUCT_PANEL_BYTES + 2 ** 18)


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
        self.check_applier_holds_one_block(propagator.apply_retarded)

    @pytest.mark.parametrize("applier", ["apply_causal", "apply_advanced"])
    def test_other_appliers_hold_one_block(self, applier):
        # the causal window's integrals come from the same prefix rule
        self.check_applier_holds_one_block(getattr(propagator, applier))

    @staticmethod
    def check_applier_holds_one_block(applier):
        # the `halfwave evolve` grid; the source is made before tracing
        t = np.linspace(0.0, 6.0, 480)
        x = np.linspace(0.0, 30.0, 1024)
        res = resolve(ROBIN, 0.0, x, nodes=spectral.default_nodes(ROBIN, 0.0, span=66.0))
        f = propagator.gaussian_source({"amplitude": 1.0, "t0": 1.6, "sigma_t": 0.25,
                                        "x0": 3.0, "sigma_x": 0.4}, t, x)
        peak = traced_peak(applier, res, f, t)
        assert peak < streaming_bound(t.size, x.size, fields=1)

    def test_verify_bc_check_holds_one_block(self):
        # the check at grid 2048 makes its field; its source is two factors
        run = cli.settings(cli._merge(cli.default_config(), {"model": {"grid": 2048}}))
        peak = traced_peak(verify.run_check, "bc_residual", run)
        assert peak < streaming_bound(320, 2048, fields=1)

    @pytest.mark.parametrize("command,nt", [("evolve", 480), ("verify", 320)])
    def test_command_at_defaults(self, tmp_path, capsys, command, nt):
        # the largest array is the applier's field: evolve's own, and the bc
        # check's inside verify; the source arrives as its two factors
        peak = traced_peak(cli.main, ["--out", str(tmp_path), command])
        bound = streaming_bound(nt, cli.default_config()["model"]["grid"], fields=1)
        with capsys.disabled():
            print(f"\n{command} at its defaults: traced peak {peak / 1e6:.2f} MB, "
                  f"bound {bound / 1e6:.2f} MB")
        assert peak < bound

    def test_verify_at_grid_2048(self, tmp_path, capsys):
        # the benchmark's oracle_check config: the bc check's field is still
        # the largest array, above the energy check's two trajectories
        config = tmp_path / "grid2048.json"
        config.write_text('{"model": {"grid": 2048}}')
        peak = traced_peak(cli.main, ["--config", str(config), "--out",
                                      str(tmp_path / "out"), "verify"])
        bound = streaming_bound(320, 2048, fields=1)
        with capsys.disabled():
            print(f"\nverify at grid 2048: traced peak {peak / 1e6:.2f} MB, "
                  f"bound {bound / 1e6:.2f} MB")
        assert peak < bound

    def test_energy_check_holds_two_trajectories(self, capsys):
        # U and Udot at the kept samples, plus the energy of one row panel:
        # the FD system, leapfrog's state vectors and the density's
        # temporaries, eight panels in all
        run = cli.settings(cli._merge(cli.default_config(), {"model": {"grid": 2048}}))
        sysm = oracle.assemble_fd(run["bc"], 0.0, 2048, 30.0)
        nt = oracle.leapfrog(sysm, np.zeros(2048), np.zeros(2048), 0.4 * sysm.dx,
                             6.0, sample_stride=8)[0].size
        peak = traced_peak(verify.run_check, "energy", run)
        bound = 2 * 8 * nt * 2048 + 8 * quadrature.PANEL_BYTES
        with capsys.disabled():
            print(f"\nenergy check at grid 2048: traced peak {peak / 1e6:.2f} MB, "
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
    # _window as written before it reused its buffers, on the whole-array
    # table formula in place of the harmonics it makes per column panel
    s, c, rate = reference_harmonics(lam, t)
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


def fused_step(sysm, w, w_prev, dt, force=None):
    # leapfrog's step: (2 - dt^2 diag) w - w_prev less the two off-diagonal
    # products, plus dt^2 times the forcing when there is one
    dt2 = dt * dt
    w_next = (2.0 - dt2 * sysm.diag) * w - w_prev
    w_next[..., :-1] -= (dt2 * sysm.off) * w[..., 1:]
    w_next[..., 1:] -= (dt2 * sysm.off) * w[..., :-1]
    if force is not None:
        w_next += dt2 * force
    return w_next


def stacked_leapfrog(sysm, u0, v0, dt, T, sample_stride=1, source=None):
    # oracle.leapfrog's step, with the samples written as before they went
    # straight onto the full grid: a stack of mass-weighted states,
    # converted by from_w at the end
    nsteps = int(round(T / dt))

    def forcing(i):
        if source is None:
            return None
        return sysm.to_w(source(i * dt) if callable(source) else source[i])

    w_prev = sysm.to_w(u0)
    wd0 = sysm.to_w(v0)
    acc = -sysm.act(w_prev)
    if source is not None:
        acc += forcing(0)
    w = w_prev + dt * wd0 + 0.5 * dt * dt * acc
    kept = [i for i in range(1, nsteps + 1) if i % sample_stride == 0 or i == nsteps]
    traj_w = np.empty((len(kept) + 1,) + w.shape)
    vel_w = np.empty_like(traj_w)
    traj_w[0], vel_w[0] = w_prev, wd0
    row = 1
    for i in range(1, nsteps + 1):
        w_next = fused_step(sysm, w, w_prev, dt, forcing(i))
        if i % sample_stride == 0 or i == nsteps:
            traj_w[row] = w
            np.divide(w_next - w_prev, 2.0 * dt, out=vel_w[row])
            row += 1
        w_prev, w = w, w_next
    times = np.array([0.0] + [i * dt for i in kept])
    return times, sysm.from_w(traj_w), sysm.from_w(vel_w)


def whole_array_energy_report(times, U, Udot, dx, bc, k=0.0):
    # verify.energy_report as written before it ran in row panels
    E = verify.energy(U, Udot, dx, k=k)
    Eb = np.array([verify.boundary_energy(bc, u, ud, k=k) for u, ud in zip(U, Udot)])
    E_total = E + Eb
    scale = max(abs(E_total[0]), float(np.max(E)), verify._FLOOR)
    return E, E_total, float(quadrature.max_abs(E_total - E_total[0]) / scale)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


BC_CASES = [(BoundaryCondition.dirichlet(), 0.0), (ROBIN, 0.0),
            (BoundaryCondition.neumann(), 0.0), (WENTZELL, 1.0)]


class TestBitIdentical:
    T = np.linspace(0.0, 5.0, 301)      # not a multiple of any panel below
    X = np.linspace(0.0, 12.0, 1024)

    def applied_field(self, bc, k):
        res = resolve(bc, k, self.X, nodes=600)
        f = propagator.gaussian_source({"amplitude": 1.0, "t0": 2.0, "sigma_t": 0.3,
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

    # the default column panels (34 columns), panels of one column, run as
    # they are, and widths that do not divide _CHUNK: 3 leaves a lone last
    # column (256 = 85 x 3 + 1), 7 a short one
    @pytest.mark.parametrize("support,width", [
        pytest.param(support, width, id=support + (f"-width{width}" if width else ""))
        for width in (None, 1, 3, 7) for support in ("causal", "retarded", "advanced")])
    def test_window(self, monkeypatch, support, width):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 6.0, 480)
        if width is not None:
            monkeypatch.setattr(quadrature, "PANEL_BYTES", 8 * t.size * width)
        coeffs = rng.normal(size=(t.size, _CHUNK))
        lam = rng.uniform(0.0, 50.0, _CHUNK)
        lam[0], lam[-1] = -1.0, 0.0     # in the first panel and the last
        want = whole_array_window(coeffs, t, lam, support)
        kept = coeffs.copy()
        assert same_bits(_window(coeffs, t, lam, support), want)
        assert same_bits(coeffs, kept)
        # the aliased call, the appliers' own, writes over its input
        assert _window(coeffs, t, lam, support, out=coeffs) is coeffs
        assert same_bits(coeffs, want)

    @pytest.mark.parametrize("bc,k", BC_CASES + [(ROBIN, 0.5)])
    @pytest.mark.parametrize("stride,forced", [(1, False), (8, False), (3, True)])
    def test_leapfrog(self, bc, k, stride, forced):
        sysm = oracle.assemble_fd(bc, k, 200, 12.0)
        x = np.linspace(0.0, 12.0, 200)
        dt = 0.4 * sysm.dx
        u0, v0 = np.exp(-(x - 4.0) ** 2), np.sin(x) * np.exp(-x)
        source = None
        if forced:
            source = np.random.default_rng(8).normal(size=(int(round(1.7 / dt)) + 1, 200))
        got = oracle.leapfrog(sysm, u0, v0, dt, 1.7, sample_stride=stride, source=source)
        want = stacked_leapfrog(sysm, u0, v0, dt, 1.7, stride, source)
        for a, b in zip(got, want):
            assert a.shape == b.shape and same_bits(a, b)

    def test_leapfrog_with_a_callable_source(self):
        sysm = oracle.assemble_fd(WENTZELL, 1.0, 64, 8.0)
        x = np.linspace(0.0, 8.0, 64)

        def source(t):
            return np.exp(-(x - 2.0) ** 2 - (t - 0.3) ** 2)

        z = np.zeros(64)
        for a, b in zip(oracle.leapfrog(sysm, z, z, 0.05, 1.0, 4, source),
                        stacked_leapfrog(sysm, z, z, 0.05, 1.0, 4, source)):
            assert same_bits(a, b)

    # the default panel, one row and five rows (33 samples = 6 x 5 + 3)
    @pytest.mark.parametrize("rows", [None, 1, 5])
    @pytest.mark.parametrize("bc,k", BC_CASES + [(ROBIN, 0.5)])
    def test_energy_report(self, monkeypatch, bc, k, rows):
        sysm = oracle.assemble_fd(bc, k, 512, 30.0)
        x = np.linspace(0.0, 30.0, 512)
        u0 = np.exp(-((x - 2.0) ** 2) / 0.5)       # it reaches the wall
        times, U, Udot = oracle.leapfrog(sysm, u0, np.zeros(512), 0.4 * sysm.dx, 3.0,
                                         sample_stride=4)
        assert times.size == 33
        if rows is not None:
            monkeypatch.setattr(quadrature, "PANEL_BYTES", 8 * 512 * rows)
        rep = verify.energy_report(times, U, Udot, sysm.dx, bc, k=k)
        E, E_total, drift = whole_array_energy_report(times, U, Udot, sysm.dx, bc, k)
        assert same_bits(rep.E, E) and same_bits(rep.E_total, E_total)
        assert same_bits(rep.drift, drift)

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
