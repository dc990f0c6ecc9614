import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfwave import cli, oracle, triple, verify
from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, leapfrog
from halfwave.propagator import apply_retarded, build_kernel_grid
from halfwave.quadrature import derivative
from halfwave.spectral import resolve
from halfwave.verify import (EnergyReport, bc_residual, causality_report,
                             cone_energy_ratio, emit_report, energy,
                             energy_report, exact_sequence_residuals,
                             gronwall_check, render_report)

DIR = BoundaryCondition.dirichlet()
ROBIN = BoundaryCondition.robin(-1.0)


def bump(x, center, width):
    return np.exp(-((x - center) ** 2) / (2 * width ** 2))


def gaussian_source(t, x, t0, st, x0, sx):
    return np.exp(-((t[:, None] - t0) ** 2) / (2 * st ** 2)
                  - ((x[None, :] - x0) ** 2) / (2 * sx ** 2))


class TestEnergy:
    X = np.linspace(0.0, 20.0, 1024)

    def test_zero_field(self):
        z = np.zeros_like(self.X)
        assert energy(z, z, self.X[1] - self.X[0]) == 0.0

    def test_quadratic_scaling_exact(self):
        u = bump(self.X, 8.0, 0.7)
        ud = bump(self.X, 9.0, 0.9)
        dx = self.X[1] - self.X[0]
        assert energy(2.0 * u, 2.0 * ud, dx) == 4.0 * energy(u, ud, dx)

    def test_stack_matches_each_snapshot(self):
        rng = np.random.default_rng(4)
        U, Udot = rng.normal(size=(2, 7, self.X.size))
        dx = self.X[1] - self.X[0]
        want = [energy(u, ud, dx, k=0.5) for u, ud in zip(U, Udot)]
        assert_allclose(energy(U, Udot, dx, k=0.5), want,
                        rtol=1e-14, atol=0)

    def test_dirichlet_conservation(self):
        sysm = assemble_fd(DIR, 0.0, 1024, 20.0)
        u0 = bump(self.X, 7.0, 0.6)
        dt = 0.4 * sysm.dx
        times, U, Udot = leapfrog(sysm, u0, np.zeros_like(u0), dt, 8.0,
                                  sample_stride=10)
        report = energy_report(times, U, Udot, sysm.dx, DIR)
        assert report.drift <= 1e-3
        assert np.all(report.E >= 0)

    def test_robin_boundary_term_is_necessary(self):
        sysm = assemble_fd(ROBIN, 0.0, 1024, 20.0)
        u0 = bump(self.X, 4.0, 0.6)
        dt = 0.4 * sysm.dx
        times, U, Udot = leapfrog(sysm, u0, np.zeros_like(u0), dt, 8.0,
                                  sample_stride=10)
        with_term = energy_report(times, U, Udot, sysm.dx, ROBIN)
        without = energy_report(times, U, Udot, sysm.dx, DIR)
        assert with_term.drift <= 1e-3
        assert without.drift >= 10 * with_term.drift


class TestGronwall:
    def test_zero_trajectory_passes(self):
        times = np.linspace(0, 5, 50)
        report = EnergyReport(times=times, E=np.zeros(50),
                              E_total=np.zeros(50), drift=0.0)
        passed, b = gronwall_check(report)
        assert passed and b == 0.0

    def test_bound_state_growth_rate(self):
        # u = cosh(t) e(x) has bulk energy cosh(2t)/2, growth exponent 2
        x = np.linspace(0.0, 30.0, 3000)
        e = np.sqrt(2.0) * np.exp(-x)
        times = np.linspace(0.0, 6.0, 61)
        U = np.cosh(times)[:, None] * e[None, :]
        Udot = np.sinh(times)[:, None] * e[None, :]
        report = energy_report(times, U, Udot, x[1] - x[0], ROBIN)
        passed, b = gronwall_check(report)
        assert passed
        assert b == pytest.approx(2.0, abs=0.1)
        # conserved total stays put while the bulk energy explodes
        assert report.drift <= 1e-3

    def test_energy_from_nothing_fails(self):
        times = np.linspace(0, 1, 11)
        E = np.linspace(0, 1, 11)
        report = EnergyReport(times=times, E=E, E_total=E, drift=1.0)
        passed, b = gronwall_check(report)
        assert not passed and b == float("inf")

    def test_cap_enforced(self):
        times = np.linspace(0, 1, 11)
        E = np.exp(3.0 * times)
        report = EnergyReport(times=times, E=E, E_total=E, drift=0.0)
        passed, b = gronwall_check(report, b_cap=2.0)
        assert not passed and b >= 3.0 - 1e-6

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_fails(self, bad):
        E = np.array([1.0, 1.2, bad, 1.5, 2.0])
        report = EnergyReport(times=np.linspace(0, 1, 5), E=E, E_total=E,
                              drift=0.0)
        assert gronwall_check(report) == (False, float("inf"))

    def test_finite_trajectory_unchanged(self):
        E = np.array([1.0, 1.2, 1.3, 1.5, 2.0])
        report = EnergyReport(times=np.linspace(0, 1, 5), E=E, E_total=E,
                              drift=0.0)
        passed, b = gronwall_check(report)
        assert passed and b == pytest.approx(0.7292862271758184, rel=1e-12)

    def test_single_sample_certifies_zero(self):
        # no later sample bounds the exponent, so none is needed
        report = EnergyReport(times=np.array([0.0]), E=np.array([2.0]),
                              E_total=np.array([2.0]), drift=0.0)
        assert gronwall_check(report) == (True, 0.0)


def test_cone_energy_stays_put():
    grid, L = 1024, 30.0
    sysm = assemble_fd(ROBIN, 0.0, grid, L)
    x = np.linspace(0, L, grid)
    u0 = bump(x, 10.0, 0.5)
    dt = 0.4 * sysm.dx
    times, U, Udot = leapfrog(sysm, u0, np.zeros_like(u0), dt, 6.0,
                              sample_stride=20)
    ratio = cone_energy_ratio(times, U, Udot, x, support=(6.0, 14.0),
                              margin=5 * sysm.dx)
    assert ratio <= 1e-6


def test_cone_energy_matches_snapshot_loop():
    x = np.linspace(0.0, 20.0, 256)
    dx = x[1] - x[0]
    times = np.linspace(0.0, 6.0, 7)
    rng = np.random.default_rng(6)
    U, Udot = rng.normal(size=(2, times.size, x.size))
    peak = max(energy(u, ud, dx) for u, ud in zip(U, Udot))
    want = 0.0
    for tv, u, ud in zip(times, U, Udot):
        outside = (x < 8.0 - tv) | (x > 12.0 + tv)
        dens = 0.5 * (ud ** 2 + derivative(u, dx, 1) ** 2)
        want = max(want, float(np.sum(dens[outside]) * dx) / peak)
    got = cone_energy_ratio(times, U, Udot, x, support=(8.0, 12.0))
    assert got == pytest.approx(want, rel=1e-13)


def test_cone_energy_of_zero_data_is_zero():
    x = np.linspace(0.0, 20.0, 256)
    times = np.linspace(0.0, 2.0, 5)
    zero = np.zeros((times.size, x.size))
    assert cone_energy_ratio(times, zero, zero, x, support=(8.0, 12.0)) == 0.0


class TestCausalityReport:
    def test_zero_time_slice(self):
        res = resolve(DIR, 0.0, np.linspace(0, 12, 64))
        grid = build_kernel_grid(res, np.array([0.0]), np.linspace(0.3, 3, 8),
                                 np.linspace(0.3, 3, 8))
        report = causality_report(grid)
        assert set(report) == {"max_acausal", "points"}     # the table judges
        assert report["max_acausal"] <= 1e-10

    def test_robin_kernel_with_bound_state(self):
        res = resolve(ROBIN, 0.0, np.linspace(0, 12, 64))
        t = np.linspace(0.0, 1.5, 7)
        x = np.linspace(0.3, 3.5, 9)
        report = causality_report(build_kernel_grid(res, t, x, x))
        assert report["max_acausal"] <= 1e-3

    def test_residual_quarters_when_nodes_double(self):
        t = np.linspace(0.0, 1.5, 7)
        x = np.linspace(0.3, 3.5, 9)
        worst = []
        for nodes in (2000, 4000):
            res = resolve(DIR, 0.0, np.linspace(0, 12, 64), nodes=nodes)
            report = causality_report(build_kernel_grid(res, t, x, x))
            worst.append(report["max_acausal"])
        assert worst[1] <= worst[0] / 2


class TestBcResidual:
    X = np.linspace(0.0, 12.0, 1024)
    T = np.linspace(0.0, 5.0, 400)

    def _field(self, bc, k=0.0, t0=2.0):
        res = resolve(bc, k, self.X)
        f = gaussian_source(self.T, self.X, t0, 0.3, 3.0, 0.4)
        from halfwave.propagator import wentzell_apply
        if bc.is_dynamic:
            return wentzell_apply(res, f, self.T)
        return apply_retarded(res, f, self.T)

    def test_dirichlet_trace_vanishes(self):
        u = self._field(DIR)
        assert bc_residual(u, self.T, self.X, DIR) <= 1e-2

    def test_robin_residual_small(self):
        u = self._field(ROBIN)
        assert bc_residual(u, self.T, self.X, ROBIN) <= 1e-2

    def test_wrong_coefficient_detected(self):
        u = self._field(ROBIN)
        assert bc_residual(u, self.T, self.X,
                           BoundaryCondition.robin(1.0)) >= 1e-1

    def test_static_under_time_translation(self):
        r1 = bc_residual(self._field(ROBIN, t0=2.0), self.T, self.X, ROBIN)
        r2 = bc_residual(self._field(ROBIN, t0=2.4), self.T, self.X, ROBIN)
        assert abs(r1 - r2) <= 5e-3

    def test_dynamic_condition_residual(self):
        bc = BoundaryCondition.wentzell_laplace()
        u = self._field(bc, k=1.0)
        assert bc_residual(u, self.T, self.X, bc, k=1.0) <= 1e-2

    def test_dynamic_field_fails_static_test(self):
        # negative control: the dynamical field does not satisfy the static
        # multiplier condition with the same symbol
        bc = BoundaryCondition.wentzell_laplace()
        u = self._field(bc, k=1.0)
        static = BoundaryCondition.multiplier(lambda k: k * k)
        assert bc_residual(u, self.T, self.X, static, k=1.0) >= 1e-1


class TestExactSequence:
    def test_zero_function(self):
        res = resolve(DIR, 0.0, np.linspace(0, 12, 256))
        sysm = assemble_fd(DIR, 0.0, 256, 12.0)
        t = np.linspace(0, 4, 160)
        rs = exact_sequence_residuals(res, sysm, np.zeros((160, 256)), t)
        assert rs == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bc", [DIR, ROBIN])
    def test_gaussian_bump(self, bc):
        x = np.linspace(0, 12, 1024)
        res = resolve(bc, 0.0, x)
        sysm = assemble_fd(bc, 0.0, 1024, 12.0)
        t = np.linspace(0, 6, 480)
        g = gaussian_source(t, x, 3.0, 0.4, 4.0, 0.5)
        r1, r2, r3, r4 = exact_sequence_residuals(res, sysm, g, t)
        assert max(r1, r2, r3, r4) <= 1e-2


def test_report_emission(tmp_path):
    payload = {"passed": False,
               "checks": {"alpha": {"passed": True, "residual": 1.5e-7},
                          "beta": {"passed": False, "residual": 0.2}}}
    path = tmp_path / "report.json"
    emit_report(path, payload)
    back = json.loads(path.read_text())
    assert back["checks"]["alpha"]["passed"] is True
    text = (tmp_path / "report.txt").read_text()
    assert "FAIL" in text and "PASS" in text
    assert render_report(payload).startswith("overall: FAIL")


def test_report_keeps_numpy_scalar_types(tmp_path):
    payload = {"passed": np.bool_(True),
               "checks": {"a": {"passed": np.bool_(False), "count": np.int64(3),
                                "residual": np.float32(0.5)}}}
    path = tmp_path / "report.json"
    emit_report(path, payload)
    back = json.loads(path.read_text())
    assert back["passed"] is True
    assert back["checks"]["a"] == {"passed": False, "count": 3, "residual": 0.5}
    with pytest.raises(TypeError):
        emit_report(tmp_path / "bad.json", {"passed": object()})


def test_unserializable_report_leaves_the_old_one_intact(tmp_path):
    path = tmp_path / "verify.json"
    emit_report(path, {"passed": True, "checks": {"a": {"passed": True}}})
    before = path.read_bytes(), (tmp_path / "verify.txt").read_bytes()
    with pytest.raises(TypeError):
        emit_report(path, {"checks": {"a": {"passed": True}}, "passed": object()})
    assert (path.read_bytes(), (tmp_path / "verify.txt").read_bytes()) == before


# the conditions of the check-table tests, as config sections
BC_SECTIONS = {"dirichlet": {"kind": "dirichlet"}, "neumann": {"kind": "neumann"},
               "robin-1": {"kind": "robin", "alpha": -1.0},
               "robin0.7": {"kind": "robin", "alpha": 0.7},
               "multiplier": {"kind": "multiplier", "poly": [0, 0, 1]},
               "wentzell": {"kind": "wentzell"}}

# the entries each check recorded before the table added bc, k and
# substituted: benchmarks/workloads.py reads the measures and tol and passed
RECORD_KEYS = {
    "greens_identity": {"residual", "tol", "passed"},
    "spectrum": {"bc", "roots", "fd_lowest", "tol", "passed"},
    "kernel_images": {"bc", "max_err", "points", "quadrature", "tol", "passed"},
    "causality": {"bc", "max_acausal", "quadrature", "tol", "passed"},
    "bc_residual": {"residual", "quadrature", "tol", "passed"},
    "energy": {"drift", "tol", "passed"},
}


def check_run(**sections):
    return cli.settings(cli._merge(cli.default_config(), sections))


class TestCheckTable:
    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("name", sorted(BC_SECTIONS))
    def test_substituted_exactly_when_the_pair_differs(self, name, k):
        run = check_run(bc=BC_SECTIONS[name], model={"n": 1, "k": k, "grid": 256})
        configured = (run["bc"].describe(k), k)
        records = {check: verify.run_check(check, run) for check in verify.CHECKS}
        for check, record in records.items():
            assert record["substituted"] == ((record["bc"], record["k"]) != configured)
        if k:
            want = {"spectrum", "kernel_images", "causality"}
        else:
            want = set() if name == "robin-1" else {"spectrum"}
        assert {c for c, r in records.items() if r["substituted"]} == want
        # its measure depends on neither, so it records the configured pair
        assert (records["greens_identity"]["bc"], records["greens_identity"]["k"]) == \
            configured

    def test_substituted_reads_the_multiplier_symbol(self, monkeypatch):
        # multipliers k^2 and 5 differ at k = 1 (Robin 1 against Robin 5),
        # though the two conditions compare equal as dataclasses
        run = check_run(bc={"kind": "multiplier", "poly": [0, 0, 1]},
                        model={"n": 1, "k": 1.0, "grid": 256})
        tested = BoundaryCondition.multiplier(lambda k: 5.0)
        monkeypatch.setitem(verify.CHECKS, "greens_identity",
                            (lambda run: (tested, 1.0, 0.0, {}), 1e-6))
        record = verify.run_check("greens_identity", run)
        assert record["substituted"] is True
        assert record["bc"] == {"kind": "multiplier", "alpha_at_k": 5.0}

    def test_multiplier_minus_one_is_the_spectrum_checks_robin(self, tmp_path):
        # p = -1 selects Robin -1 at every k, the spectrum check's realization
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bc": {"kind": "multiplier", "poly": [-1.0]}}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(config), "--out", str(out), "verify"]) == 0
        checks = json.loads((out / "verify.json").read_text())["checks"]
        assert checks["spectrum"]["bc"] == {"kind": "robin", "alpha": -1.0}
        assert [n for n, r in checks.items() if r["substituted"]] == []

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_record_keys(self, tmp_path, k):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"n": 1, "k": k}}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(config), "--out", str(out), "verify"]) == 0
        checks = json.loads((out / "verify.json").read_text())["checks"]
        assert set(checks) == set(RECORD_KEYS)
        for name, record in checks.items():
            assert set(record) == RECORD_KEYS[name] | {"bc", "k", "substituted"}
            assert record["k"] == (0.0 if record["substituted"] or not k else 1.0)

    @pytest.mark.parametrize("roots,low", [([float("nan")], -1.0),
                                           ([-1.0], float("nan")),
                                           ([], -1.0), ([-1.0, -0.5], -1.0)])
    def test_spectrum_fails_on_nan_or_a_wrong_root_count(self, monkeypatch, roots, low):
        # the measure keeps a NaN in either place, where max(a, nan) drops it
        monkeypatch.setattr(triple, "negative_spectrum_roots", lambda *a: roots)
        monkeypatch.setattr(oracle, "fd_spectrum", lambda *a: np.array([low]))
        record = verify.run_check("spectrum", check_run(model={"grid": 256}))
        assert record["passed"] is False

    def test_spectrum_passes_within_tol(self, monkeypatch):
        monkeypatch.setattr(triple, "negative_spectrum_roots", lambda *a: [-1.0 + 9e-4])
        monkeypatch.setattr(oracle, "fd_spectrum", lambda *a: np.array([-1.0 - 9e-4]))
        assert verify.run_check("spectrum", check_run(model={"grid": 256}))["passed"]
