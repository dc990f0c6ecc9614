import pytest

from halfwave.model import BoundaryCondition, HalfSpaceModel


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

    def test_multiplier_needs_symbol(self):
        with pytest.raises(ValueError):
            BoundaryCondition("multiplier")

    def test_complex_symbol_rejected(self):
        bc = BoundaryCondition.multiplier(lambda k: 1j * k)
        with pytest.raises(ValueError, match="real"):
            bc.effective_alpha(2.0)

