import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfwave.model import (BoundaryCondition, HalfSpaceModel, WarpedProfile,
                            assemble_potential, conformal_factors)


def profile_const(value, m, n=64):
    x = np.linspace(0.0, 1.0, n)
    return WarpedProfile(x=x, beta=np.full(n, value), m=m)


class TestConformalFactors:
    def test_unit_beta_is_identity(self):
        pre, post = conformal_factors(profile_const(1.0, m=3))
        assert_allclose(pre, 1.0)
        assert_allclose(post, 1.0)

    def test_exponents_at_m1(self):
        # (1-m)/4 = 0 and (3+m)/4 = 1 at m = 1
        pre, post = conformal_factors(profile_const(4.0, m=1))
        assert_allclose(pre, 1.0)
        assert_allclose(post, 4.0)

    def test_exponential_profile(self):
        x = np.array([0.0, 0.5, 1.0])
        prof = WarpedProfile(x=x, beta=np.exp(x), m=3)
        pre, post = conformal_factors(prof)
        assert_allclose(pre, np.exp(-x / 2), rtol=1e-14)
        assert_allclose(post, np.exp(3 * x / 2), rtol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 9])
    def test_product_recovers_beta(self, m):
        x = np.linspace(0.0, 2.0, 41)
        beta = 1.0 + 0.3 * np.sin(x) ** 2
        pre, post = conformal_factors(WarpedProfile(x=x, beta=beta, m=m))
        assert_allclose(pre * post, beta, rtol=1e-13)


class TestAssemblePotential:
    def test_unit_beta_vanishes(self):
        assert_allclose(assemble_potential(profile_const(1.0, m=3)), 0.0)

    def test_constant_beta_vanishes(self):
        # both correction terms carry derivatives of beta; the boundary
        # stencil leaves rounding residue amplified by 1/dx^2
        assert_allclose(assemble_potential(profile_const(7.0, m=5)), 0.0,
                        atol=1e-9)

    def test_against_symbolic_oracle(self):
        sympy = pytest.importorskip("sympy")
        X = sympy.symbols("x", positive=True)
        beta_s = 1 + sympy.Rational(1, 10) * X ** 2
        m = 3

        def lap_conf(u):
            return -beta_s ** sympy.Rational(m, 2) * sympy.diff(
                beta_s ** (1 - sympy.Rational(m, 2)) * sympy.diff(u, X), X)

        C = (sympy.Rational(1 - m, 2) * beta_s ** sympy.Rational(-1, 2)
             * lap_conf(sympy.sqrt(beta_s))
             - sympy.Rational((1 - m) * (m - 3), 4) * sympy.diff(beta_s, X) ** 2)
        C_fn = sympy.lambdify(X, sympy.simplify(C), "numpy")

        x = np.linspace(0.0, 1.0, 101)
        prof = WarpedProfile(x=x, beta=1 + 0.1 * x ** 2, m=m)
        got = assemble_potential(prof)
        assert np.max(np.abs(got - C_fn(x))) <= 1e-4

    def test_grid_too_coarse(self):
        prof = WarpedProfile(x=np.linspace(0, 1, 4), beta=np.ones(4), m=3)
        with pytest.raises(ValueError, match="at least 5"):
            assemble_potential(prof)


class TestEffectiveAlpha:
    def test_dirichlet(self):
        assert BoundaryCondition.dirichlet().effective_alpha(0.0) is None

    def test_robin(self):
        assert BoundaryCondition.robin(-1.0).effective_alpha(2.0) == -1.0

    def test_multiplier_reduces_to_robin(self):
        bc = BoundaryCondition.multiplier(lambda k: k * k - 5.0)
        assert bc.effective_alpha(3.0) == 4.0

    def test_robin_zero_equals_neumann(self):
        assert (BoundaryCondition.robin(0.0).effective_alpha(1.5)
                == BoundaryCondition.neumann().effective_alpha(1.5))

    def test_dynamic_mode(self):
        assert BoundaryCondition.wentzell_laplace().effective_alpha(2.0) == 4.0


class TestValidation:
    def test_halfspace_invariants(self):
        with pytest.raises(ValueError):
            HalfSpaceModel(n=-1)
        with pytest.raises(ValueError):
            HalfSpaceModel(n=0, k=1.0)
        with pytest.raises(ValueError):
            HalfSpaceModel(x_max=0.0)
        with pytest.raises(ValueError):
            HalfSpaceModel(grid=8)
        m = HalfSpaceModel(n=1, k=2.0, x_max=10.0, grid=101)
        assert m.dx == pytest.approx(0.1)

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="positive"):
            WarpedProfile(x=np.linspace(0, 1, 8), beta=np.linspace(-1, 1, 8))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            WarpedProfile(x=np.array([0.0, 0.1, 0.3]), beta=np.ones(3))

    def test_multiplier_needs_symbol(self):
        with pytest.raises(ValueError):
            BoundaryCondition("multiplier")

    def test_complex_symbol_rejected(self):
        bc = BoundaryCondition.multiplier(lambda k: 1j * k)
        with pytest.raises(ValueError, match="real"):
            bc.effective_alpha(2.0)


def test_profile_csv_round_trip(tmp_path):
    x = np.linspace(0.0, 3.0, 50)
    prof = WarpedProfile(x=x, beta=1 + 0.25 * x, m=4)
    path = tmp_path / "beta.csv"
    prof.to_csv(path)
    back = WarpedProfile.from_csv(path, m=4)
    assert_allclose(back.x, prof.x, rtol=0, atol=0)
    assert_allclose(back.beta, prof.beta, rtol=0, atol=0)
    assert back.m == 4
