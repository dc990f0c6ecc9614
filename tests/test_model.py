import numpy as np
import pytest

from halfwave.model import BoundaryCondition, HalfSpaceModel
from halfwave.oracle import assemble_fd
from halfwave.spectral import resolve

# each condition with the realization it selects at mode k, written out
REALIZATIONS = {
    "dirichlet": (BoundaryCondition.dirichlet(), lambda k: ("dirichlet", None)),
    "neumann": (BoundaryCondition.neumann(), lambda k: ("robin", 0.0)),
    "robin+1": (BoundaryCondition.robin(1.0), lambda k: ("robin", 1.0)),
    "robin-1": (BoundaryCondition.robin(-1.0), lambda k: ("robin", -1.0)),
    "multiplier[0,0,1]": (BoundaryCondition.multiplier(lambda k: k * k),
                          lambda k: ("robin", k * k)),
    "multiplier[-1]": (BoundaryCondition.multiplier(lambda k: -1.0),
                       lambda k: ("robin", -1.0)),
    "wentzell": (BoundaryCondition.wentzell_laplace(), lambda k: ("wentzell", None)),
}


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


@pytest.mark.parametrize("k", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("name", sorted(REALIZATIONS))
def test_realization_is_what_resolve_and_assemble_fd_build(name, k):
    bc, want = REALIZATIONS[name]
    kind, alpha = bc.realization(k)
    assert (kind, alpha) == want(k)
    res = resolve(bc, k, np.linspace(0.0, 6.0, 64), nodes=64)
    assert (res.kind, res.alpha) == (kind, alpha)
    if kind == "robin" and alpha < 0:
        assert (res.bound.kappa, res.bound.lam) == (-alpha, k * k - alpha * alpha)
    else:
        assert res.bound is None
    # the first row of the lumped-mass system: stiffness over mass, plus k^2
    sysm = assemble_fd(bc, k, 64, 6.0)
    dx = sysm.dx
    if kind == "dirichlet":
        first = 2.0 / dx / dx
    elif kind == "robin":
        first = (1.0 / dx + alpha) / (dx / 2.0)
    else:
        first = (1.0 / dx) / (dx / 2.0 + 1.0)
    assert sysm.diag[0] == pytest.approx(first + k * k, rel=1e-14)
    assert sysm.offset == (1 if kind == "dirichlet" else 0)


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

