import json
import os
import warnings

import numpy as np
import pytest

from halfwave import cli
from halfwave.cli import (EXIT_CHECK_FAILED, EXIT_INTERNAL, EXIT_IO, EXIT_OK,
                          EXIT_USAGE, default_config, emit_config, main,
                          parse_config)
from halfwave.quadrature import TruncationWarning


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
    cfg = default_config()
    text = emit_config(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert parse_config(path) == cfg
    assert emit_config(parse_config(path)) == text


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

    def test_tampered_coefficient_fails(self, tmp_path):
        cfg = write_config(tmp_path, model={"grid": 512, "x_max": 15.0},
                           verify={"checks": ["bc_residual"],
                                   "bc_check_alpha_override": 1.0})
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out), "verify"])
        assert code == EXIT_CHECK_FAILED
        report = json.loads((out / "verify.json").read_text())
        assert report["checks"]["bc_residual"]["passed"] is False

    @pytest.mark.parametrize("bc,model,recorded", [
        ({"kind": "robin", "alpha": 0.7}, {}, {"kind": "robin", "alpha": 0.7}),
        ({"kind": "neumann"}, {}, {"kind": "neumann"}),
        ({"kind": "multiplier", "poly": [-0.5, 0.0, 1.0]}, {},
         {"kind": "multiplier", "alpha_at_k": -0.5}),
        ({"kind": "wentzell"}, {"n": 1, "k": 1.0}, {"kind": "dirichlet"}),
    ])
    def test_kernel_images_uses_static_bc(self, tmp_path, bc, model, recorded):
        cfg = write_config(tmp_path, bc=bc, model={"grid": 256, **model},
                           verify={"checks": ["kernel_images"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
        entry = json.loads((out / "verify.json").read_text())["checks"]["kernel_images"]
        assert entry["bc"] == recorded
        assert entry["max_err"] <= 1e-5

    def test_unknown_check_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, verify={"checks": ["no_such_check"]})
        assert main(["--config", str(cfg), "verify",
                     ]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_crash_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        def crash(run, tol):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._VERIFY_CHECKS, "greens_identity", (crash, 1e-6))
        cfg = write_config(tmp_path, model={"grid": 256},
                           verify={"checks": ["greens_identity"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: boom\n"
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert list(out.iterdir()) == []

    def test_nan_greens_residual_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.triple, "greens_identity_residual",
                            lambda *args: float("nan"))
        cfg = write_config(tmp_path, model={"grid": 256},
                           verify={"checks": ["greens_identity"]})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_CHECK_FAILED
        report = json.loads((out / "verify.json").read_text())
        assert report["checks"]["greens_identity"]["passed"] is False


def test_flag_overrides_reach_the_sidecar(tmp_path):
    cfg = write_config(tmp_path, model={"grid": 256, "x_max": 12.0},
                       grids={"t": [0.0, 1.0, 3], "x": [0.3, 2.0, 4],
                              "y": [0.3, 2.0, 4]})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--nodes", "512",
                 "--xi-max", "25.0", "kernel"]) == EXIT_OK
    sidecar = json.loads((out / "kernel.sidecar.json").read_text())
    assert sidecar["config"]["quadrature"] == {"nodes": 512, "xi_max": 25.0}
    assert sidecar["kernel_meta"]["quadrature"] == {"nodes": 512,
                                                    "xi_max": 25.0}


def test_tolerance_scale_flag(tmp_path):
    # a generous scale factor lets the tampered control pass, proving the
    # flag reaches the checks
    cfg = write_config(tmp_path, model={"grid": 512, "x_max": 15.0},
                       verify={"checks": ["bc_residual"],
                               "bc_check_alpha_override": 1.0})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--tol", "1e6",
                 "verify"]) == EXIT_OK


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

    def _evolve(self, tmp_path, *flags, config=None, name="out"):
        cfg = config or write_config(tmp_path, **self.EVOLVE)
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), *flags,
                     "evolve"]) == EXIT_OK
        return out, json.loads((out / "field.sidecar.json").read_text())

    def test_default_is_null_and_derived(self, tmp_path):
        assert default_config()["quadrature"] == {"xi_max": 40.0, "nodes": None}
        _, sidecar = self._evolve(tmp_path)
        assert sidecar["config"]["quadrature"]["nodes"] is None
        assert sidecar["quadrature"] == {"xi_max": 40.0, "nodes": 842}

    def test_explicit_nodes_honoured(self, tmp_path):
        _, sidecar = self._evolve(tmp_path, "--nodes", "4000")
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
            self._evolve(tmp_path, "--nodes", "400", name="coarse")
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
    from halfwave.cli import _VERIFY_CHECKS
    assert list(_VERIFY_CHECKS) == ["greens_identity", "spectrum", "kernel_images",
                                    "causality", "bc_residual", "energy"]
    cfg = write_config(tmp_path, model={"grid": 256},
                       verify={"checks": ["kernel_images", "greens_identity"]})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "verify"]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["PASS", "kernel_images",
                                               "PASS", "greens_identity"]
