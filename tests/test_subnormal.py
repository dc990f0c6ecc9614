"""No subnormal value reaches the retarded applier's arithmetic: the CLI's
Gaussian source writes 0 where exp would underflow, and the projector of
``analyze`` and ``transform`` flushes its input to 0 below DBL_MIN, both
without changing a result bit."""

import warnings

import numpy as np
import pytest

from halfwave import cli, propagator, spectral

TINY = np.finfo(float).tiny


def subnormals(a):
    return int(np.count_nonzero((a != 0.0) & (np.abs(a) < TINY)))


def evolve_case():
    # the default `halfwave evolve` source and resolution
    run = cli.settings(cli.default_config())
    model = run["model"]
    x = model.x()
    t = np.linspace(0.0, run["evolve"]["t_max"], run["evolve"]["steps"])
    res = cli._resolution(run, run["bc"], model.k, x,
                          run["evolve"]["t_max"] + 2.0 * model.x_max)
    return res, run["source"], t


def verify_bc_case():
    # the source and resolution of `halfwave verify`'s bc_residual check
    run = cli.settings(cli.default_config())
    model = run["model"]
    x = model.x()
    t = np.linspace(0.0, 4.0, 320)
    res = cli._resolution(run, run["bc"], model.k, x, 4.0 + 2.0 * model.x_max)
    src = {**run["source"], "t0": 1.6, "sigma_t": 0.25, "x0": 2.5, "sigma_x": 0.4}
    return res, src, t


# each returns (resolution, source parameters, t)
CASES = {"evolve": evolve_case, "verify_bc": verify_bc_case}


def old_source(src, t, x):
    # the source as written before exp was kept off its underflow path
    return src["amplitude"] * np.exp(
        -((t[:, None] - src["t0"]) ** 2) / (2 * src["sigma_t"] ** 2)
        - ((x[None, :] - src["x0"]) ** 2) / (2 * src["sigma_x"] ** 2))


class TestGaussianSource:
    SOURCES = [
        {"amplitude": 1.0, "t0": 1.6, "sigma_t": 0.25, "x0": 3.0, "sigma_x": 0.4},
        {"amplitude": 1.0, "t0": 1.6, "sigma_t": 0.25, "x0": 2.5, "sigma_x": 0.4},
        {"amplitude": -2.5, "t0": 0.3, "sigma_t": 0.05, "x0": 9.0, "sigma_x": 0.2},
    ]

    @pytest.mark.parametrize("src", SOURCES)
    def test_is_exp_with_subnormals_zeroed(self, src):
        t = np.linspace(0.0, 6.0, 480)
        x = np.linspace(0.0, 30.0, 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cli._gaussian_source(src, t, x)
        want = old_source({**src, "amplitude": 1.0}, t, x)
        assert subnormals(want) > 0          # the grids reach the underflow
        want[np.abs(want) < TINY] = 0.0
        want *= src["amplitude"]
        assert got.tobytes() == want.tobytes()
        assert subnormals(got) == 0

    def test_bound_is_the_least_normal_exponent(self):
        assert np.exp(cli._LOG_TINY) >= TINY
        assert np.exp(np.nextafter(cli._LOG_TINY, -np.inf)) < TINY

    def test_zero_amplitude(self):
        got = cli._gaussian_source({"amplitude": 0.0, "t0": 1.0, "sigma_t": 0.2,
                                    "x0": 1.0, "sigma_x": 0.2},
                                   np.linspace(0, 2, 5), np.linspace(0, 3, 7))
        assert got.shape == (5, 7) and not np.any(got)


class TestAnalysisFlush:
    # the sources as a plain exp writes them, subnormals and all, so that the
    # projector has values to flush

    def case(self, name):
        res, src, t = CASES[name]()
        f = old_source(src, t, res.x)
        assert subnormals(f) > 0
        return res, f, t

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_input_has_no_subnormal(self, monkeypatch, case):
        res, f, t = self.case(case)
        seen = []
        flushed = spectral._flushed

        def spy(a):
            seen.append(flushed(a))
            return seen[-1]

        monkeypatch.setattr(spectral, "_flushed", spy)
        propagator.apply_retarded(res, f, t)
        assert seen and all(subnormals(a) == 0 for a in seen)
        seen.clear()
        monkeypatch.setattr(spectral, "_TINY", 0.0)     # no flush
        propagator.apply_retarded(res, f, t)
        assert any(subnormals(a) > 0 for a in seen)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_without_flush(self, monkeypatch, case):
        res, f, t = self.case(case)
        flushed = res.analyze(f)
        field = propagator.apply_retarded(res, f, t)
        monkeypatch.setattr(spectral, "_TINY", 0.0)
        plain = res.analyze(f)
        assert flushed[0].tobytes() == plain[0].tobytes()
        assert flushed[1].tobytes() == plain[1].tobytes()     # the bound state
        assert propagator.apply_retarded(res, f, t).tobytes() == field.tobytes()

    def test_flush_keeps_normal_values(self):
        f = np.zeros((3, 1024))
        f[0, 1:6] = [TINY, -TINY, TINY / 2, -5e-324, 1.0]
        f[2, -1] = -TINY / 4
        before = f.copy()
        got = spectral._flushed(f)
        assert f.tobytes() == before.tobytes()      # the input is untouched
        keep = np.abs(f) >= TINY
        assert got[keep].tobytes() == f[keep].tobytes()
        assert np.all(got[~keep] == 0.0)
        # nothing to flush: the input itself, no copy
        assert spectral._flushed(got) is got
