"""No subnormal value reaches the retarded applier's arithmetic: each factor
of the CLI's Gaussian source writes 0 where exp would underflow, the
projector of ``analyze`` and ``transform`` flushes a dense input to 0 below
DBL_MIN, and a factored input's block coefficients likewise, all without
changing a result bit."""

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
    res = spectral.resolve(run["bc"], model.k, x,
                           span=run["evolve"]["t_max"] + 2.0 * model.x_max,
                           **run["quadrature"])
    return res, run["source"], t


def verify_bc_case():
    # the source and resolution of `halfwave verify`'s bc_residual check
    run = cli.settings(cli.default_config())
    model = run["model"]
    x = model.x()
    t = np.linspace(0.0, 4.0, 320)
    res = spectral.resolve(run["bc"], model.k, x, span=4.0 + 2.0 * model.x_max,
                           **run["quadrature"])
    src = {**run["source"], "t0": 1.6, "sigma_t": 0.25, "x0": 2.5, "sigma_x": 0.4}
    return res, src, t


def narrow_pulse_case():
    # the evolve grid with a pulse narrow in t: its time factor falls to
    # DBL_MIN inside the window, so the outer product of the two factors
    # makes subnormal coefficients
    res, src, t = evolve_case()
    return res, {**src, "t0": 3.0, "sigma_t": 0.08}, t


# each returns (resolution, source parameters, t)
CASES = {"evolve": evolve_case, "verify_bc": verify_bc_case}


def old_source(src, t, x):
    # the source as written before exp was kept off its underflow path
    return src["amplitude"] * np.exp(
        -((t[:, None] - src["t0"]) ** 2) / (2 * src["sigma_t"] ** 2)
        - ((x[None, :] - src["x0"]) ** 2) / (2 * src["sigma_x"] ** 2))


def old_factor(s, centre, width):
    # one factor of the source by a plain exp, subnormals and all
    return np.exp(-((s - centre) ** 2) / (2 * width ** 2))


class TestGaussianSource:
    SOURCES = [
        {"amplitude": 1.0, "t0": 1.6, "sigma_t": 0.25, "x0": 3.0, "sigma_x": 0.4},
        {"amplitude": 1.0, "t0": 1.6, "sigma_t": 0.25, "x0": 2.5, "sigma_x": 0.4},
        {"amplitude": -2.5, "t0": 0.3, "sigma_t": 0.05, "x0": 9.0, "sigma_x": 0.2},
    ]

    @pytest.mark.parametrize("src", SOURCES)
    def test_is_exp_with_subnormals_zeroed(self, src):
        # each factor; the amplitude is on the time factor
        t = np.linspace(0.0, 6.0, 480)
        x = np.linspace(0.0, 30.0, 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = propagator.gaussian_source(src, t, x)
        wants = (old_factor(t, src["t0"], src["sigma_t"]),
                 old_factor(x, src["x0"], src["sigma_x"]))
        assert subnormals(wants[1]) > 0      # the x grid reaches the underflow
        for factor, want, amplitude in zip(got, wants, (src["amplitude"], 1.0)):
            want[np.abs(want) < TINY] = 0.0
            want *= amplitude
            assert factor.tobytes() == want.tobytes()
            assert subnormals(factor) == 0
        # the product is the dense source to rounding, where that is normal
        dense = old_source(src, t, x)
        normal = np.abs(dense) >= TINY
        np.testing.assert_allclose(np.multiply.outer(*got)[normal], dense[normal],
                                   rtol=1e-12, atol=0.0)

    def test_bound_is_the_least_normal_exponent(self):
        assert np.exp(propagator._LOG_TINY) >= TINY
        assert np.exp(np.nextafter(propagator._LOG_TINY, -np.inf)) < TINY

    def test_zero_amplitude(self):
        g, h = propagator.gaussian_source({"amplitude": 0.0, "t0": 1.0,
                                           "sigma_t": 0.2, "x0": 1.0, "sigma_x": 0.2},
                                          np.linspace(0, 2, 5), np.linspace(0, 3, 7))
        assert g.shape == (5,) and h.shape == (7,) and not np.any(g)


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

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_factored_bit_identical_without_flush(self, monkeypatch, case):
        # the CLI's factored source: no coefficient to flush at its defaults
        res, src, t = CASES[case]()
        gh = propagator.gaussian_source(src, t, res.x)
        flushed = res.analyze(gh)
        field = propagator.apply_retarded(res, gh, t)
        monkeypatch.setattr(spectral, "_TINY", 0.0)
        plain = res.analyze(gh)
        assert flushed[0].tobytes() == plain[0].tobytes()
        assert flushed[1].tobytes() == plain[1].tobytes()
        assert propagator.apply_retarded(res, gh, t).tobytes() == field.tobytes()

    def test_factored_coefficients_have_no_subnormal(self, monkeypatch):
        res, src, t = narrow_pulse_case()
        gh = propagator.gaussian_source(src, t, res.x)
        seen = []
        flush = spectral._flush

        def spy(a):
            flush(a)
            seen.append(subnormals(a))

        monkeypatch.setattr(spectral, "_flush", spy)
        field = propagator.apply_retarded(res, gh, t)
        assert seen and not any(seen)
        seen.clear()
        monkeypatch.setattr(spectral, "_TINY", 0.0)     # no flush
        plain = propagator.apply_retarded(res, gh, t)
        assert sum(seen) > 0
        # the flush moves no field value above 2^53 DBL_MIN
        moved = field != plain
        assert np.any(moved) and np.all(np.abs(plain[moved]) < 2.0 ** 53 * TINY)

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
