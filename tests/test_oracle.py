import numpy as np
import pytest
from numpy.testing import assert_allclose

from halfwave.model import BoundaryCondition
from halfwave.oracle import (assemble_fd, fd_modes, fd_spectrum,
                             free_space_solution, images_kernel, leapfrog)

DIR = BoundaryCondition.dirichlet()


class TestAssembly:
    @pytest.mark.parametrize("bc,k", [
        (DIR, 0.0),
        (BoundaryCondition.neumann(), 0.0),
        (BoundaryCondition.robin(-1.0), 0.0),
        (BoundaryCondition.robin(2.0), 1.5),
        (BoundaryCondition.wentzell_laplace(), 1.0),
    ])
    def test_exact_symmetry(self, bc, k):
        sysm = assemble_fd(bc, k, 128, 10.0)
        assert np.max(np.abs(sysm.matrix - sysm.matrix.T)) == 0.0

    def test_interior_stencil(self):
        k = 1.5
        sysm = assemble_fd(BoundaryCondition.robin(-1.0), k, 64, 10.0)
        S = sysm.matrix
        dx = sysm.dx
        i = 10
        assert S[i, i] == pytest.approx(2.0 / dx ** 2 + k ** 2, rel=1e-13)
        assert S[i, i + 1] == pytest.approx(-1.0 / dx ** 2, rel=1e-13)
        assert S[i, i - 1] == pytest.approx(-1.0 / dx ** 2, rel=1e-13)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            assemble_fd(DIR, 0.0, 8, 10.0)

    def test_dirichlet_positive_spectrum(self):
        sysm = assemble_fd(DIR, 0.0, 16, 30.0)
        eigs = fd_spectrum(sysm)
        assert eigs[0] > 0
        # ground level of the truncated window scales like (pi/x_max)^2
        assert eigs[0] == pytest.approx((np.pi / 30.0) ** 2, rel=0.05)

    def test_robin_bound_state_eigenvalue(self):
        sysm = assemble_fd(BoundaryCondition.robin(-1.0), 0.0, 2048, 20.0)
        assert abs(float(fd_spectrum(sysm, 1)[0]) + 1.0) <= 1e-3

    def test_second_order_eigenvalue_convergence(self):
        errs = []
        for grid in (512, 1024):
            sysm = assemble_fd(BoundaryCondition.robin(-1.0), 0.0, grid, 15.0)
            errs.append(abs(float(fd_spectrum(sysm, 1)[0]) + 1.0))
        assert errs[0] / errs[1] >= 3.0

    def test_wentzell_spectrum_floor(self):
        k = 1.0
        sysm = assemble_fd(BoundaryCondition.wentzell_laplace(), k, 512, 20.0)
        assert float(fd_spectrum(sysm, 1)[0]) >= k ** 2

    def test_fd_modes_normalized(self):
        sysm = assemble_fd(BoundaryCondition.robin(-1.0), 0.0, 512, 20.0)
        vals, modes = fd_modes(sysm, 3)
        x = np.linspace(0, 20.0, 512)
        e = modes[0]
        norm = np.trapezoid(e * e, x) + 0.5 * sysm.dx * 0  # lumped measure
        assert norm == pytest.approx(1.0, abs=2e-2)
        assert vals[0] == pytest.approx(-1.0, abs=1e-2)

    def test_apply_matches_matrix_action(self):
        sysm = assemble_fd(DIR, 0.0, 256, 10.0)
        x = np.linspace(0, 10, 256)
        u = np.sin(np.pi * x / 10.0)
        got = sysm.apply_grid(u)
        # interior rows act like the plain second difference
        dx = sysm.dx
        want = (np.pi / 10.0) ** 2 * u
        inner = slice(10, 246)
        assert np.max(np.abs(got[inner] - want[inner])) <= 1e-3


class TestLeapfrog:
    def test_zero_data_stays_zero(self):
        sysm = assemble_fd(DIR, 0.0, 128, 10.0)
        z = np.zeros(128)
        _, U, Udot = leapfrog(sysm, z, z, 0.4 * sysm.dx, 1.0)
        assert np.all(U == 0) and np.all(Udot == 0)

    def test_free_pulse_follows_dalembert(self):
        grid, L = 2048, 30.0
        sysm = assemble_fd(DIR, 0.0, grid, L)
        x = np.linspace(0, L, grid)

        def pulse(z):
            return np.exp(-((z - 15.0) ** 2) / (2 * 0.5 ** 2))

        dt = 0.4 * sysm.dx
        T = 5.0
        times, U, _ = leapfrog(sysm, pulse(x), np.zeros(grid), dt, T,
                               sample_stride=200)
        want = free_space_solution(pulse, x, times[-1])
        err = np.sqrt(np.sum((U[-1] - want) ** 2) / np.sum(want ** 2))
        assert err <= 1e-2

    def test_time_reversibility(self):
        sysm = assemble_fd(BoundaryCondition.robin(-1.0), 0.0, 512, 15.0)
        x = np.linspace(0, 15, 512)
        u0 = np.exp(-((x - 5.0) ** 2) / (2 * 0.6 ** 2))
        v0 = np.zeros_like(u0)
        dt = 0.4 * sysm.dx
        T = 2.0
        _, U, Udot = leapfrog(sysm, u0, v0, dt, T)
        _, Ub, _ = leapfrog(sysm, U[-1], -Udot[-1], dt, T)
        assert np.max(np.abs(Ub[-1] - u0)) <= 1e-8

    def test_cfl_guard(self):
        sysm = assemble_fd(DIR, 0.0, 128, 10.0)
        z = np.zeros(128)
        with pytest.raises(ValueError, match="unstable"):
            leapfrog(sysm, z, z, sysm.dx, 1.0)

    def test_forced_linearity(self):
        sysm = assemble_fd(DIR, 0.0, 128, 10.0)
        x = np.linspace(0, 10, 128)
        dt = 0.4 * sysm.dx
        nsteps = int(round(1.0 / dt))
        f = np.exp(-((np.arange(nsteps + 2)[:, None] * dt - 0.5) ** 2) / 0.02
                   - ((x[None, :] - 5.0) ** 2) / 0.5)
        z = np.zeros(128)
        _, U1, _ = leapfrog(sysm, z, z, dt, 1.0, source=f)
        _, U2, _ = leapfrog(sysm, z, z, dt, 1.0, source=2.0 * f)
        assert_allclose(U2, 2.0 * U1, rtol=1e-12, atol=1e-300)


class TestImagesKernel:
    def test_equal_time_vanishes(self):
        assert images_kernel(0.0, 0.4, 0.5, DIR) == 0.0

    def test_direct_cone_only(self):
        assert images_kernel(0.3, 0.4, 0.5, DIR) == 0.5

    def test_neumann_reflection_doubles(self):
        bc = BoundaryCondition.neumann()
        assert images_kernel(1.0, 0.4, 0.5, bc) == 1.0

    def test_dirichlet_reflection_cancels(self):
        assert images_kernel(1.0, 0.4, 0.5, DIR) == 0.0

    def test_invariants(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-2, 2, 200)
        x = rng.uniform(0.1, 3, 200)
        y = rng.uniform(0.1, 3, 200)
        for bc in (DIR, BoundaryCondition.neumann(), BoundaryCondition.robin(-1.0),
                   BoundaryCondition.robin(0.7)):
            assert_allclose(images_kernel(-t, x, y, bc),
                            -images_kernel(t, x, y, bc), rtol=0, atol=0)
            assert_allclose(images_kernel(t, y, x, bc),
                            images_kernel(t, x, y, bc), rtol=0, atol=0)

    def test_robin_reflection(self):
        # behind the reflected characteristic by s = t - x - y the image is
        # exp(-alpha s) - 1/2; alpha = 0 is Neumann, large alpha Dirichlet
        t, x, y = 1.5, 0.4, 0.5
        for alpha in (-1.0, 0.7, 2.0):
            got = images_kernel(t, x, y, BoundaryCondition.robin(alpha))
            assert got == pytest.approx(np.exp(-alpha * 0.6), rel=1e-15)
        assert images_kernel(t, x, y, BoundaryCondition.robin(0.0)) == \
            images_kernel(t, x, y, BoundaryCondition.neumann())
        assert images_kernel(t, x, y, BoundaryCondition.robin(1e3)) == \
            pytest.approx(images_kernel(t, x, y, DIR), abs=1e-200)

    def test_unsupported_bc(self):
        for bc in (BoundaryCondition.multiplier(lambda k: k * k),
                   BoundaryCondition.wentzell_laplace()):
            with pytest.raises(ValueError):
                images_kernel(0.5, 1.0, 1.0, bc)


def test_fd_spectrum_ordering_on_trivial_system():
    # deterministic ascending order, independent of assembly
    from halfwave.oracle import FdSystem
    sysm = FdSystem(matrix=np.diag([2.0, 1.0]), mass=np.ones(2), dx=1.0,
                    k=0.0, kind="dirichlet", offset=1, n=4)
    assert_allclose(fd_spectrum(sysm), [1.0, 2.0], rtol=0, atol=0)
    assert_allclose(fd_spectrum(sysm, 1), [1.0], rtol=0, atol=0)
