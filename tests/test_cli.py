import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import halfwave
from halfwave import cli, verify
from halfwave.cli import (EXIT_CHECK_FAILED, EXIT_INTERNAL, EXIT_IO, EXIT_OK,
                          EXIT_USAGE, _write_sidecar, default_config, main,
                          parse_config)
from halfwave.quadrature import TruncationWarning


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def write_config(tmp_path, **sections):
    cfg = default_config()
    for key, value in sections.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg.get(key, {}), **value}
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_round_trip(tmp_path):
    # through the sidecar writer, the one serializer of configs
    cfg = default_config()
    path, again = tmp_path / "cfg.json", tmp_path / "again.json"
    _write_sidecar(path, "spectrum", {"config": cfg}, {})
    assert parse_config(path) == cfg
    _write_sidecar(again, "spectrum", {"config": parse_config(path)}, {})
    assert again.read_text() == path.read_text()


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "spectrum"]) == EXIT_USAGE


class TestSpectrum:
    def test_robin_scan_flags_single_point(self, tmp_path):
        cfg = write_config(tmp_path,
                           model={"grid": 512, "x_max": 20.0},
                           scan={"lambda_min": -3.0, "lambda_max": -1e-3,
                                 "steps": 3000})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_OK
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        hits = [float(r.split(",")[0]) for r in rows if "IN_SPECTRUM" in r
                and "NOT_IN" not in r]
        assert len(hits) >= 1
        assert min(abs(h + 1.0) for h in hits) <= 1e-3

    def test_dirichlet_scan_is_empty(self, tmp_path):
        cfg = write_config(tmp_path, bc={"kind": "dirichlet"},
                           model={"grid": 256})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_OK
        body = (out / "spectrum.csv").read_text()
        assert "IN_SPECTRUM" not in body.replace("NOT_IN_SPECTRUM", "")

    def test_csv_header_and_rows(self, tmp_path):
        cfg = write_config(tmp_path, scan={"lambda_min": -2.0,
                                           "lambda_max": -0.5, "steps": 31},
                           model={"grid": 256})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_OK
        text = (out / "spectrum.csv").read_text().splitlines()
        assert text[0] == "lambda,k,theta_minus_weyl,verdict,fd_eigs_below"
        assert len(text) == 31 + 1

    def test_empty_range(self, tmp_path):
        cfg = write_config(tmp_path, scan={"steps": 0}, model={"grid": 256})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_OK
        assert len((out / "spectrum.csv").read_text().splitlines()) == 1
        # the lowest FD eigenvalue is located even with no lambda to count
        side = json.loads((out / "spectrum.sidecar.json").read_text())
        assert abs(side["fd_lowest"] + 1.0) <= 1e-2

    def test_dirichlet_writes_inf(self, tmp_path):
        # theta = inf is how the Dirichlet condition is encoded, not a fault
        cfg = write_config(tmp_path, bc={"kind": "dirichlet"},
                           scan={"steps": 5}, model={"grid": 256})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_OK
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["inf"] * 5

    def test_k_near_sqrt_dbl_max(self, tmp_path):
        # k^2 is a double, but the Sturm bracket's ends lo + hi overflow
        cfg = write_config(tmp_path, model={"n": 1, "k": 1e154})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_OK
        rows = (out / "spectrum.csv").read_text().splitlines()[1:]
        assert len(rows) == 600
        for row in rows:
            lam, k, value, _, below = row.split(",")
            assert np.all(np.isfinite([float(lam), float(k), float(value)]))
            assert below == "0"
        sidecar = json.loads((out / "spectrum.sidecar.json").read_text())
        assert sidecar["fd_lowest"] == pytest.approx(1e308)

    def test_overflowing_fd_diagonal_writes_nothing(self, tmp_path, capsys):
        # a finite alpha whose boundary row overflows in the FD assembly
        cfg = write_config(tmp_path, bc={"kind": "robin", "alpha": 1e308},
                           model={"grid": 256})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.err == ("internal error: FloatingPointError: the FD "
                                "diagonals has 1 non-finite values; nothing written\n")
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("module,target,what", [
        ("triple", "spectrum_scan", "the theta - Weyl column has 1 NaN"),
        ("oracle", "fd_spectrum", "the FD eigenvalues has 1 non-finite")])
    def test_nan_writes_nothing(self, tmp_path, capsys, monkeypatch, module,
                                target, what):
        owner = getattr(cli, module)
        real = getattr(owner, target)

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            if target == "spectrum_scan":
                lam, k, _, verdict = out[1]
                out[1] = (lam, k, float("nan"), verdict)
            else:
                out[-1] = np.nan
            return out
        monkeypatch.setattr(owner, target, poisoned)
        cfg = write_config(tmp_path, scan={"steps": 5}, model={"grid": 256})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: FloatingPointError: " + what)
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(out.iterdir()) == []


class TestKernel:
    def test_matches_reflection_construction(self, tmp_path):
        cfg = write_config(tmp_path, bc={"kind": "dirichlet"},
                           model={"grid": 256, "x_max": 12.0},
                           grids={"t": [0.0, 2.0, 8], "x": [0.3, 3.0, 8],
                                  "y": [0.3, 3.0, 8]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == EXIT_OK
        from halfwave.oracle import images_kernel
        from halfwave.model import BoundaryCondition
        from halfwave.propagator import KernelGrid
        grid = KernelGrid.from_binary(out / "kernel")
        T, X, Y = np.meshgrid(grid.t, grid.x, grid.y, indexing="ij")
        keep = (np.abs(T - np.abs(X - Y)) > 0.08) & (np.abs(T - (X + Y)) > 0.08)
        rng = np.random.default_rng(2)
        idx = rng.choice(np.flatnonzero(keep), size=100, replace=False)
        want = images_kernel(T, X, Y, BoundaryCondition.dirichlet())
        err = np.abs(grid.values - want).ravel()[idx]
        assert err.max() <= 1e-3

    @pytest.mark.parametrize("alpha", [100.0, 300.0, 1000.0, -100.0, -440.0])
    def test_large_robin_alpha_matches_images(self, tmp_path, capsys, alpha):
        # e^{c |alpha|} E1 overflows in the tail once c |alpha| > 709; the
        # default 20^3 grid at alpha = 100 had 97 non-finite values.  At
        # alpha = -440 sinh(|alpha| t) alone overflows, though the kernel,
        # with the bound state's e^{alpha (x + y)}, stays below DBL_MAX
        from halfwave.oracle import images_kernel
        from halfwave.model import BoundaryCondition
        from halfwave.propagator import KernelGrid
        cfg = write_config(tmp_path, bc={"kind": "robin", "alpha": alpha})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == EXIT_OK
        assert capsys.readouterr().err == ""
        grid = KernelGrid.from_binary(out / "kernel")
        T, X, Y = np.meshgrid(grid.t, grid.x, grid.y, indexing="ij")
        keep = (np.abs(T - np.abs(X - Y)) > 0.05) & (np.abs(T - (X + Y)) > 0.05)
        want = images_kernel(T, X, Y, BoundaryCondition.robin(alpha))[keep]
        err = np.abs(grid.values[keep] - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-7

    def test_zero_time_slice_present(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           grids={"t": [0.0, 1.0, 3], "x": [0.3, 2.0, 4],
                                  "y": [0.3, 2.0, 4]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == EXIT_OK
        from halfwave.propagator import KernelGrid
        grid = KernelGrid.from_binary(out / "kernel")
        assert grid.t[0] == 0.0
        assert np.max(np.abs(grid.values[0])) <= 1e-12

    def test_unwritable_output(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256})
        target = tmp_path / "blocked"
        target.write_text("file, not a directory")
        code = main(["--config", str(cfg), "--out", str(target), "kernel"])
        assert code == EXIT_IO

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           grids={"t": [0.0, 1.0, 4], "x": [0.3, 2.0, 5],
                                  "y": [0.3, 2.0, 5]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(out1), "kernel"]) == EXIT_OK
        assert main(["--config", str(cfg), "--out", str(out2), "kernel"]) == EXIT_OK
        assert (out1 / "kernel.bin").read_bytes() == (out2 / "kernel.bin").read_bytes()

    def test_sidecar_reproduces_run(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           grids={"t": [0.0, 1.0, 4], "x": [0.3, 2.0, 5],
                                  "y": [0.3, 2.0, 5]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(out1), "kernel"]) == EXIT_OK
        sidecar = out1 / "kernel.sidecar.json"
        assert main(["--config", str(sidecar), "--out", str(out2),
                     "kernel"]) == EXIT_OK
        assert (out1 / "kernel.bin").read_bytes() == (out2 / "kernel.bin").read_bytes()


class TestEvolve:
    def test_zero_source(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           source={"amplitude": 0.0},
                           evolve={"t_max": 2.0, "steps": 100})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == EXIT_OK
        field = np.fromfile(out / "field.bin")
        assert np.all(field == 0.0)

    def test_robin_field_against_leapfrog(self, tmp_path):
        cfg = write_config(tmp_path,
                           model={"grid": 512, "x_max": 12.0},
                           source={"t0": 1.6, "sigma_t": 0.25, "x0": 3.0,
                                   "sigma_x": 0.4},
                           evolve={"t_max": 4.0, "steps": 320})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == EXIT_OK
        field = np.fromfile(out / "field.bin").reshape(320, 512)
        from halfwave.model import BoundaryCondition
        from halfwave.oracle import assemble_fd, leapfrog
        t = np.linspace(0, 4.0, 320)
        x = np.linspace(0, 12.0, 512)
        f = np.exp(-((t[:, None] - 1.6) ** 2) / (2 * 0.25 ** 2)
                   - ((x[None, :] - 3.0) ** 2) / (2 * 0.4 ** 2))
        sysm = assemble_fd(BoundaryCondition.robin(-1.0), 0.0, 512, 12.0)
        dt = t[1] - t[0]
        # CLI time grid is coarser than the CFL step; oracle runs at its own
        # step and is compared on shared sample times
        steps_per = int(np.ceil(dt / (0.4 * sysm.dx)))
        fine_dt = dt / steps_per
        src = lambda tv: (np.exp(-((tv - 1.6) ** 2) / (2 * 0.25 ** 2))
                          * np.exp(-((x - 3.0) ** 2) / (2 * 0.4 ** 2)))
        times, U, _ = leapfrog(sysm, np.zeros(512), np.zeros(512), fine_dt,
                               4.0, sample_stride=steps_per, source=src)
        n = min(len(times), field.shape[0])
        err = np.sqrt(np.sum((field[:n] - U[:n]) ** 2) / np.sum(U[:n] ** 2))
        assert err <= 1e-2

    def test_wentzell_residual_recorded(self, tmp_path):
        cfg = write_config(tmp_path, bc={"kind": "wentzell"},
                           model={"n": 1, "k": 1.0, "grid": 512,
                                  "x_max": 12.0},
                           source={"t0": 1.6, "sigma_t": 0.25, "x0": 3.0,
                                   "sigma_x": 0.4},
                           evolve={"t_max": 4.0, "steps": 320})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == EXIT_OK
        sidecar = json.loads((out / "field.sidecar.json").read_text())
        assert sidecar["bc_residual"] <= 1e-2


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 512, "x_max": 15.0},
                           quadrature={"nodes": 2000})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert (out / "verify.txt").exists()

    def test_passed_fields_are_json_booleans(self, tmp_path):
        # the default config, whose greens_identity verdict is a numpy bool
        out = tmp_path / "out"
        assert main(["--out", str(out), "verify"]) == EXIT_OK
        text = (out / "verify.json").read_text()
        report = json.loads(text)
        assert report["passed"] is True
        assert all(c["passed"] is True for c in report["checks"].values())
        assert '"passed": 1.0' not in text

    def test_report_replays(self, tmp_path):
        # verify.json records its config as a sidecar does, and replays it
        cfg = write_config(tmp_path, bc={"kind": "neumann"}, model={"grid": 512},
                           verify={"checks": ["kernel_images", "bc_residual"]})
        out, replay = tmp_path / "out", tmp_path / "replay"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
        assert main(["--config", str(out / "verify.json"), "--out", str(replay),
                     "verify"]) == EXIT_OK
        for name in ("verify.json", "verify.txt"):
            assert (out / name).read_bytes() == (replay / name).read_bytes()

    @pytest.mark.parametrize("bc,model,recorded", [
        ({"kind": "robin", "alpha": 0.7}, {}, {"kind": "robin", "alpha": 0.7}),
        ({"kind": "neumann"}, {}, {"kind": "neumann"}),
        ({"kind": "multiplier", "poly": [-0.5, 0.0, 1.0]}, {},
         {"kind": "multiplier", "alpha_at_k": -0.5}),
        ({"kind": "wentzell"}, {"n": 1, "k": 1.0}, {"kind": "dirichlet"}),
        ({"kind": "wentzell"}, {}, {"kind": "wentzell"}),
    ])
    def test_kernel_images_uses_static_bc(self, tmp_path, bc, model, recorded):
        cfg = write_config(tmp_path, bc=bc, model={"grid": 256, **model},
                           verify={"checks": ["kernel_images"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
        entry = json.loads((out / "verify.json").read_text())["checks"]["kernel_images"]
        assert entry["bc"] == recorded
        assert entry["max_err"] <= 1e-5

    @pytest.mark.parametrize("bc,model,recorded", [
        ({"kind": "robin", "alpha": 0.7}, {}, {"kind": "robin", "alpha": 0.7}),
        ({"kind": "wentzell"}, {}, {"kind": "wentzell"}),
        ({"kind": "wentzell"}, {"n": 1, "k": 1.0},
         {"kind": "robin", "alpha": -1.0}),
    ])
    def test_causality_records_its_bc(self, tmp_path, bc, model, recorded):
        cfg = write_config(tmp_path, bc=bc, model={"grid": 256, **model},
                           verify={"checks": ["causality"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
        entry = json.loads((out / "verify.json").read_text())["checks"]["causality"]
        assert entry["bc"] == recorded
        assert entry["max_acausal"] <= 1e-6

    @pytest.mark.parametrize("bc", [{"kind": "dirichlet"}, {"kind": "wentzell"}])
    def test_spectrum_records_its_bc(self, tmp_path, bc):
        # the check tests Robin -1 at k = 0 whatever the configured condition
        cfg = write_config(tmp_path, bc=bc, model={"grid": 256},
                           verify={"checks": ["spectrum"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
        entry = json.loads((out / "verify.json").read_text())["checks"]["spectrum"]
        assert entry["bc"] == {"kind": "robin", "alpha": -1.0}

    def test_unknown_check_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, verify={"checks": ["no_such_check"]})
        assert main(["--config", str(cfg), "verify",
                     ]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_crash_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        def crash(run):
            raise RuntimeError("boom")
        monkeypatch.setitem(verify.CHECKS, "greens_identity", (crash, 1e-6))
        cfg = write_config(tmp_path, model={"grid": 256},
                           verify={"checks": ["greens_identity"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert list(out.iterdir()) == []

    @staticmethod
    def at_mode(k):
        return cli.settings(cli._merge(cli.default_config(), {"model": {"n": 1, "k": k}}))

    @pytest.mark.parametrize("k", [1e3, 1e5, 1e150])
    def test_greens_identity_is_the_same_at_every_k(self, k):
        # the k^2 terms cancel identically and are not formed; forming them
        # read 4.4e-6 > 1e-6 at k = 1e5 and 3e284 at k = 1e150
        got = verify.run_check("greens_identity", self.at_mode(k))
        assert got == {**verify.run_check("greens_identity", self.at_mode(0.0)), "k": k}
        assert got["passed"]

    @pytest.mark.xfail(strict=True, reason=(
        "leapfrog's step 0.4 dx ignores k: its conserved quantity differs from "
        "the measured energy by O((k dt)^2), a drift of 3.5e-3 > 1e-3 at k = 10, "
        "and dt^2 (4/dx^2 + k^2) > 4 is unstable (ROADMAP item 5)"))
    def test_energy_check_at_k_10(self):
        assert verify.run_check("energy", self.at_mode(10.0))["passed"]

    @pytest.mark.xfail(strict=True, reason=(
        "leapfrog's drift falls like dx^2 and reads 1.93e-3 > 1e-3 on a correct "
        "field at grid 512 (x_max 30); a spectral energy check would take the "
        "grid out of the verdict (ROADMAP item 5)"))
    def test_energy_check_at_grid_512(self):
        run = cli.settings(cli._merge(cli.default_config(), {"model": {"grid": 512}}))
        assert verify.run_check("energy", run)["passed"]

    def test_nan_greens_residual_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.triple, "greens_identity_residual",
                            lambda *args: float("nan"))
        cfg = write_config(tmp_path, model={"grid": 256},
                           verify={"checks": ["greens_identity"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_CHECK_FAILED
        report = json.loads((out / "verify.json").read_text(),
                            parse_constant=reject_constant)
        assert report["checks"]["greens_identity"]["passed"] is False
        assert report["checks"]["greens_identity"]["residual"] is None

    # a kernel 1e-3 too large is off by about 4.7e-3 at Robin -1, max|G| 4.71
    @pytest.mark.parametrize("scale", [1.5, 1.001])
    def test_scaled_kernel_grid_fails_kernel_images(self, tmp_path, monkeypatch, scale):
        build = cli.propagator.build_kernel_grid

        def scaled(*args):
            grid = build(*args)
            grid.values *= scale
            return grid

        monkeypatch.setattr(cli.propagator, "build_kernel_grid", scaled)
        out = tmp_path / "out"
        assert main(["--out", str(out), "verify"]) == EXIT_CHECK_FAILED
        report = json.loads((out / "verify.json").read_text())
        assert report["checks"]["kernel_images"]["passed"] is False


def test_quadrature_keys_reach_the_sidecar(tmp_path):
    cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                       quadrature={"nodes": 512, "xi_max": 25.0},
                       grids={"t": [0.0, 1.0, 3], "x": [0.3, 2.0, 4],
                              "y": [0.3, 2.0, 4]})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == EXIT_OK
    sidecar = json.loads((out / "kernel.sidecar.json").read_text())
    assert sidecar["config"]["quadrature"] == {"nodes": 512, "xi_max": 25.0}
    assert sidecar["kernel_meta"]["quadrature"] == {"nodes": 512,
                                                    "xi_max": 25.0}


@pytest.mark.parametrize("flag,value", [("--tol", "1e6"), ("--nodes", "512"),
                                        ("--xi-max", "25.0")])
def test_config_keys_have_no_flags(tmp_path, capsys, flag, value):
    # quadrature.nodes and quadrature.xi_max are set in the config only, and
    # verify's tolerances not at all
    out = tmp_path / "out"
    assert main(["--out", str(out), flag, value, "kernel"]) == EXIT_USAGE
    assert "halfwave: error:" in capsys.readouterr().err
    assert not out.exists()


class TestEvolveInputs:
    @pytest.mark.parametrize("sections", [
        {"evolve": {"steps": 1}},
        {"evolve": {"steps": 0}},
        {"source": {"sigma_t": 0.0}},
        {"source": {"sigma_t": -0.25}},
        {"source": {"sigma_t": float("nan")}},
        {"source": {"sigma_x": 0.0}},
        {"source": {"sigma_x": float("inf")}},
        {"source": {"sigma_x": float("nan")}},
        {"evolve": {"t_max": float("nan")}},
        {"evolve": {"t_max": 0.0}},
        {"evolve": {"steps": "many"}},
        {"source": {"amplitude": "loud"}},
        # the dynamical condition's bc check takes second time differences
        {"bc": {"kind": "wentzell"}, "evolve": {"steps": 2}},
        # and divides them by dt^2, which underflows to 0 here
        {"bc": {"kind": "wentzell"}, "evolve": {"t_max": 1e-160}},
    ])
    def test_rejected_before_any_work(self, tmp_path, capsys, sections):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           **sections)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::halfwave.quadrature.TruncationWarning")
    def test_two_steps_is_enough(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           evolve={"t_max": 2.0, "steps": 2})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == EXIT_OK
        assert len((out / "field.csv").read_text().splitlines()) == 1 + 2 * 256

    @pytest.mark.filterwarnings("ignore::halfwave.quadrature.TruncationWarning")
    def test_dynamical_condition_takes_three_steps(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           bc={"kind": "wentzell"}, evolve={"t_max": 2.0, "steps": 3})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                     "evolve"]) == EXIT_OK

    def test_non_finite_sidecar_value_is_null_and_replays(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(cli.verify, "bc_residual",
                            lambda *args, **kwargs: float("nan"))
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           bc={"kind": "wentzell"}, evolve={"steps": 40})
        out, replay = tmp_path / "out", tmp_path / "replay"
        assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == EXIT_OK
        sidecar = out / "field.sidecar.json"
        doc = json.loads(sidecar.read_text(), parse_constant=reject_constant)
        assert doc["bc_residual"] is None
        assert main(["--config", str(sidecar), "--out", str(replay), "evolve"]) == EXIT_OK
        assert (out / "field.bin").read_bytes() == (replay / "field.bin").read_bytes()


class TestConfigInputs:
    @pytest.mark.parametrize("command,sections", [
        ("kernel", {"bc": {"kind": "robin", "alpha": "nan"}}),
        ("spectrum", {"bc": {"kind": "robin", "alpha": "nan"}}),
        ("evolve", {"bc": {"kind": "robin", "alpha": float("-inf")}}),
        ("kernel", {"bc": {"kind": "robin", "alpha": "steep"}}),
        ("kernel", {"bc": {"kind": "multiplier", "poly": [0.0, float("nan")]}}),
        ("spectrum", {"bc": {"kind": "multiplier", "poly": [1.0, "inf"]}}),
        ("kernel", {"grids": {"t": 5}}),
        ("kernel", {"grids": {"x": [0.2, 3.0]}}),
        ("kernel", {"grids": {"y": [0.2, "nan", 20]}}),
        ("kernel", {"quadrature": {"nodes": 10}}),
        ("evolve", {"quadrature": {"nodes": 63}}),
        ("kernel", {"quadrature": {"xi_max": float("inf")}}),
        ("spectrum", {"scan": {"lambda_min": float("nan")}}),
        ("spectrum", {"scan": {"steps": "many"}}),
        ("verify", {"quadrature": {"nodes": 10}}),
        ("verify", {"verify": {"tol_scale": "x"}}),
        ("verify", {"verify": {"tol_scale": float("nan")}}),
        ("verify", {"verify": {"tol_scale": -1.0}}),
        ("verify", {"verify": {"tol_scale": 0.0}}),
        ("verify", {"verify": {"bc_check_alpha_override": "steep"}}),
        ("verify", {"bc": {"kind": "robin", "alpha": "nan"}}),
        ("verify", {"source": {"amplitude": "loud"}}),
        ("spectrum", {"scan": {"k_max": float("nan")}}),
        ("spectrum", {"scan": {"k_max": float("inf")}}),
        ("spectrum", {"scan": {"k_max": 0.0}}),
        ("spectrum", {"scan": {"k_max": -2.0}}),
        ("spectrum", {"scan": {"k_max": "abc"}}),
        ("kernel", {"quadrature": {"nodes": "many"}}),
        ("spectrum", {"scan": {"steps": -5}}),
        ("kernel", {"outputs": {"formats": ["bin"]}}),
        ("evolve", {"evolve": {"steps": 480.5}}),
        ("kernel", {"quadrature": {"nodes": True}}),
        ("verify", {"verify": {"checks": "some"}}),
        ("verify", {"verify": {"tol_scale": True}}),
        ("spectrum", {"scan": {"lambda_min": 20.0, "lambda_max": 30.0, "steps": 5}}),
        ("kernel", {"scan": {"lambda_min": 0.0}}),
    ])
    def test_rejected_with_one_line(self, tmp_path, capsys, command, sections):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           **sections)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(out.iterdir()) == []

    # each is the whole config file, merged over the defaults; most name a
    # section that some of the commands never read
    @pytest.mark.parametrize("command", ["spectrum", "kernel", "evolve", "verify"])
    @pytest.mark.parametrize("config", [
        {"model": {"n": 1, "k": float("nan")}},
        {"model": {"n": None}},
        {"model": None},
        {"model": {"x_max": float("inf")}},
        {"model": {"grid": 2.7}},
        {"outputs": {"formats": ["bin"]}},
        {"scan": {"steps": -5}},
        {"scan": {"k_max": -2}},
        {"evolve": {"steps": 480.5}},
        {"bc": {"kind": "multiplier"}},
        {"source": {"profile": "box"}},
        # an axis whose span overflows a double samples [nan, inf, ..., 1e308]
        {"grids": {"t": [-1e308, 1e308, 5]}},
        # 2 sigma^2 underflows to 0 (0/0 at the centre) or overflows
        {"source": {"sigma_t": 1e-200}},
        {"source": {"sigma_x": 1e-200}},
        {"source": {"sigma_t": 1e200}},
        # finite axes and lengths whose window span overflows: the xi grid
        # is sized from pi/span
        {"grids": {"t": [1e308, 1e308, 1], "x": [1e308, 1e308, 1],
                   "y": [1.0, 2.0, 2]}},
        {"model": {"x_max": 1e308}},
        {"evolve": {"t_max": 1.79e308}, "model": {"x_max": 1e306}},
        # finite spans whose largest phase xi_max * span overflows
        {"grids": {"t": [1e308, 1e308, 1]}},
        {"evolve": {"t_max": 1e308}},
        {"quadrature": {"xi_max": 1e308}},
        # NaN and Infinity tokens, which JSON has not, even in unread keys
        {"extra": float("nan"), "bc": {"kind": "dirichlet", "alpha": float("inf")}},
        # k^2 overflows a double
        {"model": {"n": 1, "k": 1e200}},
        # the symbol's bound sum |c_j| K^j overflows at K = scan.k_max = 8
        {"bc": {"kind": "multiplier", "poly": [1e308, 1e308]},
         "model": {"n": 1, "k": 2.0}},
        # a section or key the schema does not name, which would otherwise
        # run its default
        {"modle": {"grid": 99}},
        {"bc": {"kind": "robin", "alfa": 2.0}},
        {"verify": {"tol_scale": 1e6}},
    ])
    def test_every_command_validates_every_section(self, tmp_path, capsys,
                                                   command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), command]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::halfwave.quadrature.TruncationWarning")
    @pytest.mark.parametrize("command,target", [
        ("kernel", "build_kernel_grid"), ("evolve", "apply_retarded")])
    def test_non_finite_output_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                              command, target):
        real = getattr(cli.propagator, target)

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            values = out.values if command == "kernel" else out
            values.flat[[1, values.size - 1]] = [np.nan, np.inf]
            return out
        monkeypatch.setattr(cli.propagator, target, poisoned)
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           evolve={"t_max": 2.0, "steps": 40},
                           grids={"t": [0.5, 1.0, 3], "x": [1.0, 2.0, 3],
                                  "y": [1.0, 2.0, 3]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), command]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: FloatingPointError:")
        assert "2 non-finite values" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_overflow_in_the_numerics_is_one_line(self, tmp_path, capsys):
        # a valid amplitude whose field overflows: numpy stays silent and the
        # non-finite backstop reports it, writing nothing
        cfg = write_config(tmp_path, source={"amplitude": 1e308},
                           model={"grid": 256})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", str(cfg), "--out", str(out), "evolve"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert [str(w.message) for w in caught] == []
        assert captured.err.startswith("internal error: FloatingPointError:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("alpha", [1e-310, 5e-324])
    def test_subnormal_alpha_takes_the_node_cap(self, tmp_path, alpha):
        # xi_max / h overflows, or h = |alpha|/10 is 0: the ratio is clamped
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           bc={"kind": "robin", "alpha": alpha},
                           grids={"t": [0.5, 1.0, 2], "x": [1.0, 2.0, 2],
                                  "y": [1.0, 2.0, 2]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == EXIT_OK
        meta = json.loads((out / "kernel.sidecar.json").read_text())["kernel_meta"]
        assert meta["quadrature"] == {"xi_max": 40.0, "nodes": 4000}

    def test_nodes_floor_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                           quadrature={"nodes": 64},
                           grids={"t": [0.5, 1.0, 2], "x": [1.0, 2.0, 2],
                                  "y": [1.0, 2.0, 2]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == EXIT_OK


class TestQuadratureDefault:
    # the default evolve window, span t_max + 2 x_max = 66, on a coarse grid
    EVOLVE = {"model": {"grid": 256, "x_max": 30.0},
              "evolve": {"t_max": 6.0, "steps": 120}}

    def _evolve(self, tmp_path, nodes=None, config=None, name="out"):
        cfg = config or write_config(tmp_path, **self.EVOLVE,
                                     quadrature={"nodes": nodes})
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == EXIT_OK
        return out, json.loads((out / "field.sidecar.json").read_text())

    def test_default_is_null_and_derived(self, tmp_path):
        assert default_config()["quadrature"] == {"xi_max": 40.0, "nodes": None}
        _, sidecar = self._evolve(tmp_path)
        assert sidecar["config"]["quadrature"]["nodes"] is None
        assert sidecar["quadrature"] == {"xi_max": 40.0, "nodes": 842}

    def test_explicit_nodes_honoured(self, tmp_path):
        _, sidecar = self._evolve(tmp_path, nodes=4000)
        assert sidecar["config"]["quadrature"]["nodes"] == 4000
        assert sidecar["quadrature"] == {"xi_max": 40.0, "nodes": 4000}

    def test_null_nodes_sidecar_replays_bit_for_bit(self, tmp_path):
        first, _ = self._evolve(tmp_path, name="a")
        second, _ = self._evolve(tmp_path, config=first / "field.sidecar.json",
                                 name="b")
        for name in ("field.bin", "field.csv", "field.sidecar.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_aliasing_guard_on_the_evolve_window(self, tmp_path):
        with pytest.warns(TruncationWarning, match="aliases"):
            self._evolve(tmp_path, nodes=400, name="coarse")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._evolve(tmp_path, name="default")

    def test_kernel_and_verify_record_their_grids(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 256},
                           verify={"checks": ["kernel_images", "causality",
                                              "bc_residual"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "kernel"]) == EXIT_OK
        meta = json.loads((out / "kernel.sidecar.json").read_text())["kernel_meta"]
        assert meta["quadrature"] == {"xi_max": 40.0, "nodes": 801}
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
        checks = json.loads((out / "verify.json").read_text())["checks"]
        assert checks["kernel_images"]["quadrature"]["nodes"] == 801
        assert checks["causality"]["quadrature"]["nodes"] == 801
        assert checks["bc_residual"]["quadrature"]["nodes"] == 816
        assert checks["kernel_images"]["max_err"] <= 1e-7
        assert checks["causality"]["max_acausal"] <= 1e-7


def test_verify_check_order(tmp_path, capsys):
    assert list(verify.CHECKS) == ["greens_identity", "spectrum", "kernel_images",
                                   "causality", "bc_residual", "energy"]
    cfg = write_config(tmp_path, model={"grid": 256},
                       verify={"checks": ["kernel_images", "greens_identity"]})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "verify"]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["PASS", "kernel_images",
                                               "PASS", "greens_identity"]


def test_cli_import_leaves_scipy_integrate_unloaded():
    # a fresh interpreter: this test process may have loaded it already
    src = str(Path(halfwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, halfwave.cli; "
            "assert 'scipy.integrate' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _fresh(code, *args):
    # a fresh interpreter: this test process has loaded scipy already
    src = str(Path(halfwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)


SCIPY_LOADED = "[m for m in sys.modules if m.startswith('scipy')]"


def test_no_module_imports_scipy():
    src = Path(halfwave.__file__).resolve().parent
    for path in src.glob("*.py"):
        imports = re.findall(r"^\s*(?:import|from)\s+scipy\b", path.read_text(),
                             flags=re.MULTILINE)
        assert not imports, path.name


@pytest.mark.parametrize("module", ["halfwave", "halfwave.cli"])
def test_import_loads_no_scipy(module):
    _fresh(f"import sys, {module}; loaded = {SCIPY_LOADED}; "
           "assert not loaded, loaded")


# a command's exit code and the scipy modules loaded when its handler starts
# and when main returns
_RUN_COMMAND = f"""
import json, sys
from halfwave import cli
name = cli._COMMANDS[sys.argv[-1]]
handler, start = getattr(cli, name), []

def wrapped(run, outdir):
    start.extend({SCIPY_LOADED})
    return handler(run, outdir)
setattr(cli, name, wrapped)
code = cli.main(sys.argv[1:])
print(json.dumps({{"code": code, "start": start, "end": {SCIPY_LOADED}}}))
"""


@pytest.mark.parametrize("command", ["evolve", "kernel", "spectrum", "verify"])
def test_command_loads_no_scipy(tmp_path, command):
    # verify's energy check needs the finer grid; evolve takes 8 steps
    cfg = write_config(tmp_path, model={"grid": 512, "x_max": 15.0},
                       evolve={"steps": 8}, scan={"steps": 5},
                       grids={"t": [0.5, 1.0, 3], "x": [1.0, 2.0, 3],
                              "y": [1.0, 2.0, 3]})
    done = _fresh(_RUN_COMMAND, "--config", str(cfg), "--out",
                  str(tmp_path / "out"), command)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == EXIT_OK, done.stdout + done.stderr
    assert result["start"] == [] and result["end"] == [], result


def test_command_table_is_the_parser_choices():
    action = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert action.choices == list(cli._COMMANDS)
    for handler in cli._COMMANDS.values():
        assert callable(getattr(cli, handler)) and handler.startswith("cmd_")


def test_main_calls_the_module_attribute(tmp_path, monkeypatch):
    # a wrapped cmd_* attribute (a tracer, a test's stub) is what main runs
    seen = []
    monkeypatch.setattr(cli, "cmd_evolve",
                        lambda run, outdir: seen.append(outdir) or EXIT_CHECK_FAILED)
    assert main(["--out", str(tmp_path / "out"), "evolve"]) == EXIT_CHECK_FAILED
    assert seen == [tmp_path / "out"]
