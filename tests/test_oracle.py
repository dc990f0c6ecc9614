import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis.strategies import floats, integers, sampled_from
from numpy.testing import assert_allclose

from halfwave.model import BoundaryCondition
from halfwave.oracle import (assemble_fd, fd_count_below, fd_spectrum,
                             images_kernel, leapfrog)

DIR = BoundaryCondition.dirichlet()


def free_space_solution(u0_fn, x, t):
    """d'Alembert solution from (u0, 0): the average of the two translates,
    valid before any boundary influence arrives."""
    return 0.5 * (u0_fn(x - t) + u0_fn(x + t))


ASSEMBLY_CASES = [
    (DIR, 0.0),
    (BoundaryCondition.neumann(), 0.0),
    (BoundaryCondition.robin(-1.0), 0.0),
    (BoundaryCondition.robin(2.0), 1.5),
    (BoundaryCondition.wentzell_laplace(), 1.0),
]


class TestAssembly:
    @pytest.mark.parametrize("bc,k", ASSEMBLY_CASES)
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


def list_leapfrog(sysm, u0, v0, dt, T, sample_stride, source):
    # the sample loop with Python lists of rows, stacked at the end
    nsteps = int(round(T / dt))
    w_prev, wd0 = sysm.to_w(u0), sysm.to_w(v0)
    acc = -sysm.act(w_prev) + sysm.to_w(source[0])
    w = w_prev + dt * wd0 + 0.5 * dt * dt * acc
    times, traj, vel = [0.0], [w_prev], [wd0]
    dt2 = dt * dt
    for i in range(1, nsteps + 1):
        # leapfrog's step: the diagonal term, less the off-diagonal products
        w_next = (2.0 - dt2 * sysm.diag) * w - w_prev
        w_next[:-1] -= (dt2 * sysm.off) * w[1:]
        w_next[1:] -= (dt2 * sysm.off) * w[:-1]
        w_next += dt2 * sysm.to_w(source[i])
        if i % sample_stride == 0 or i == nsteps:
            times.append(i * dt)
            traj.append(w)
            vel.append((w_next - w_prev) / (2.0 * dt))
        w_prev, w = w, w_next
    return (np.array(times), sysm.from_w(np.array(traj)),
            sysm.from_w(np.array(vel)))


@pytest.mark.parametrize("bc,k", ASSEMBLY_CASES)
@pytest.mark.parametrize("stride", [1, 3, 8])
def test_leapfrog_samples_match_the_list_loop(bc, k, stride):
    # leapfrog writes its samples into preallocated rows: same bits
    sysm = assemble_fd(bc, k, 96, 8.0)
    x = np.linspace(0.0, 8.0, 96)
    dt = 0.4 * sysm.dx
    f = np.random.default_rng(3).normal(size=(int(round(1.3 / dt)) + 1, 96))
    u0, v0 = np.exp(-(x - 3.0) ** 2), np.sin(x) * np.exp(-x)
    got = leapfrog(sysm, u0, v0, dt, 1.3, sample_stride=stride, source=f)
    want = list_leapfrog(sysm, u0, v0, dt, 1.3, stride, f)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def dense_assembly(bc, k, grid, x_max):
    # stiffness and lumped mass as full matrices, scaled and symmetrized
    dx = x_max / (grid - 1)
    m = grid - 2 if bc.kind == "dirichlet" else grid - 1
    K = (np.diag(np.full(m, 2.0 / dx)) + np.diag(np.full(m - 1, -1.0 / dx), 1)
         + np.diag(np.full(m - 1, -1.0 / dx), -1))
    b = np.full(m, dx)
    if bc.is_dynamic:
        K[0, 0], b[0] = 1.0 / dx, dx / 2.0 + 1.0
    elif bc.kind != "dirichlet":
        K[0, 0], b[0] = 1.0 / dx + bc.effective_alpha(k), dx / 2.0
    sb = np.sqrt(b)
    S = K / sb[:, None] / sb[None, :] + (k * k) * np.eye(m)
    return 0.5 * (S + S.T)


class TestDenseReference:
    """The tridiagonal solvers and stencil against dense linear algebra on
    the matrix the system describes."""

    # the two triangles of the boundary entry round differently at these
    # grids, and their average equals the lower one at 16, the upper at 23
    @pytest.mark.parametrize("bc", [case[0] for case in ASSEMBLY_CASES])
    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("grid", [16, 23])
    def test_assembly_bit_identical(self, bc, k, grid):
        sysm = assemble_fd(bc, k, grid, 10.0)
        assert np.array_equal(sysm.matrix, dense_assembly(bc, k, grid, 10.0))

    @pytest.mark.parametrize("bc,k", ASSEMBLY_CASES)
    def test_spectrum(self, bc, k):
        sysm = assemble_fd(bc, k, 128, 10.0)
        dense = scipy.linalg.eigvalsh(sysm.matrix)
        assert np.max(np.abs(fd_spectrum(sysm) - dense)) <= 1e-13
        # a count selects by bisection, as the dense subset solver does
        lowest = scipy.linalg.eigvalsh(sysm.matrix, subset_by_index=[0, 4])
        assert np.max(np.abs(fd_spectrum(sysm, 5) - lowest)) <= 1e-13

    @pytest.mark.parametrize("bc,k", ASSEMBLY_CASES)
    def test_leapfrog(self, bc, k):
        sysm = assemble_fd(bc, k, 128, 10.0)
        x = np.linspace(0, 10, 128)
        u0 = np.exp(-((x - 4.0) ** 2) / 0.5)
        dt = 0.4 * sysm.dx
        _, U, Udot = leapfrog(sysm, u0, np.zeros(128), dt, 2.0, sample_stride=4)
        S = sysm.matrix
        w_prev = sysm.to_w(u0)
        w = w_prev - 0.5 * dt * dt * (S @ w_prev)
        want, want_dot = [w_prev], [0.0 * w_prev]
        nsteps = int(round(2.0 / dt))
        for i in range(1, nsteps + 1):
            w_next = 2.0 * w - w_prev - dt * dt * (S @ w)
            if i % 4 == 0 or i == nsteps:
                want.append(w)
                want_dot.append((w_next - w_prev) / (2.0 * dt))
            w_prev, w = w, w_next
        for got, ref in ((U, want), (Udot, want_dot)):
            ref = sysm.from_w(np.array(ref))
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bc,k", ASSEMBLY_CASES)
    def test_apply_grid(self, bc, k):
        sysm = assemble_fd(bc, k, 128, 10.0)
        x = np.linspace(0, 10, 128)
        u = np.sin(np.outer([0.5, 1.0, 2.0], x)) * np.exp(-x / 3.0)
        want = sysm.from_w(sysm.to_w(u) @ sysm.matrix.T)
        got = sysm.apply_grid(u)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


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

    def test_dynamical_image_is_minus_robin_one(self):
        # the dynamical condition reflects with r = -r_Robin(alpha = 1): behind
        # the reflected characteristic its image is 1/2 - exp(-(t - x - y))
        rng = np.random.default_rng(5)
        t = rng.uniform(-2, 2, 200)
        x = rng.uniform(0.1, 3, 200)
        y = rng.uniform(0.1, 3, 200)
        direct = np.sign(t) * 0.5 * (np.abs(x - y) < np.abs(t))
        dyn = images_kernel(t, x, y, BoundaryCondition.wentzell_laplace())
        robin = images_kernel(t, x, y, BoundaryCondition.robin(1.0))
        assert np.any(np.abs(t) > x + y)
        assert_allclose(dyn - direct, -(robin - direct), rtol=0, atol=1e-15)
        got = images_kernel(1.5, 0.4, 0.5, BoundaryCondition.wentzell_laplace())
        assert got == pytest.approx(1.0 - np.exp(-0.6), rel=1e-15)

    def test_static_conditions_enter_as_their_robin_realization(self):
        # a multiplier p is Robin p(0) at k = 0, and Neumann is Robin 0,
        # bit for bit, on both sides of the reflected characteristic
        rng = np.random.default_rng(5)
        t = rng.uniform(-2, 2, 200)
        x = rng.uniform(0.1, 3, 200)
        y = rng.uniform(0.1, 3, 200)
        assert np.any(np.abs(t) > x + y) and np.any(np.abs(t) < x + y)
        for poly, robin in (((lambda k: k * k + 0.7), 0.7), ((lambda k: -1.0), -1.0),
                            ((lambda k: 2.0 * k), 0.0)):
            assert_allclose(images_kernel(t, x, y, BoundaryCondition.multiplier(poly)),
                            images_kernel(t, x, y, BoundaryCondition.robin(robin)),
                            rtol=0, atol=0)
        assert_allclose(images_kernel(t, x, y, BoundaryCondition.neumann()),
                        images_kernel(t, x, y, BoundaryCondition.robin(0.0)),
                        rtol=0, atol=0)


def test_fd_spectrum_ordering_on_trivial_system():
    # deterministic ascending order, independent of assembly
    from halfwave.oracle import FdSystem
    sysm = FdSystem(diag=np.array([2.0, 1.0]), off=np.zeros(1), mass=np.ones(2),
                    dx=1.0, offset=1, n=4)
    assert_allclose(fd_spectrum(sysm), [1.0, 2.0], rtol=0, atol=0)
    assert_allclose(fd_spectrum(sysm, 1), [1.0], rtol=0, atol=0)


def bisection_reference(sysm, count):
    # plain bisection to adjacent doubles on the same counts, each eigenvalue
    # from the whole Gerschgorin bracket
    from halfwave import oracle
    d, e2, pivmin, lo, hi = oracle._sturm(sysm)
    eigs = []
    for i in range(count):
        a, b = lo, hi
        while a < 0.5 * (a + b) < b:
            mid = 0.5 * (a + b)
            if oracle._count(d, e2, pivmin, mid) > i:
                b = mid
            else:
                a = mid
        eigs.append(b)
    return np.array(eigs)


@settings(max_examples=30, deadline=None)
@given(kind=sampled_from(["robin", "neumann", "dirichlet", "wentzell"]),
       alpha=floats(-1.5, -0.5), k=floats(0.0, 3.0), count=integers(1, 3))
def test_located_eigenvalues_are_the_bisection_reference(kind, alpha, k, count):
    # the Robin alpha of the oracle_check draws; continuing each search from
    # the last lower end lands on the same doubles
    bc = {"robin": lambda: BoundaryCondition.robin(alpha),
          "neumann": BoundaryCondition.neumann, "dirichlet": BoundaryCondition.dirichlet,
          "wentzell": BoundaryCondition.wentzell_laplace}[kind]()
    sysm = assemble_fd(bc, k, 2048, 30.0)
    assert np.array_equal(fd_spectrum(sysm, count), bisection_reference(sysm, count))


def exact_count(sysm, lam) -> int:
    # the count of eigenvalues below lam of the stored double matrix, from
    # its Sturm sequence in 40-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        count, q = 0, mpmath.mpf(1)
        for a, b in zip(sysm.diag.tolist(), [0.0] + sysm.off.tolist()):
            q = mpmath.mpf(a) - mpmath.mpf(b) ** 2 / q - lam
            count += q < 0
    return count


# the systems of the spectrum command at grid 2048 and of the verify
# spectrum check, then the other kinds at grid 2048
CLI_SYSTEMS = [
    (BoundaryCondition.robin(-1.0), 0.0, 2048, 30.0),
    (BoundaryCondition.robin(-1.0), 0.0, 1024, 20.0),
    (DIR, 0.0, 2048, 30.0),
    (BoundaryCondition.neumann(), 0.0, 2048, 30.0),
    (BoundaryCondition.wentzell_laplace(), 0.0, 2048, 30.0),
]


class TestSturm:
    def test_zero_pivot_counts(self):
        # the Dirichlet rows at lam = diag/2 give an exact zero pivot at every
        # third row; without dlaebz's guard the count reads 0
        sysm = assemble_fd(DIR, 0.0, 2048, 30.0)
        lam = sysm.diag[0] / 2.0
        q1 = sysm.diag[1] - sysm.off[0] ** 2 / (sysm.diag[0] - lam) - lam
        assert q1 == 0.0
        dense = int(np.sum(np.linalg.eigvalsh(sysm.matrix) < lam))
        assert dense == 682
        assert fd_count_below(sysm, lam) == dense

    @pytest.mark.parametrize("bc,k", ASSEMBLY_CASES)
    def test_counts_match_dense_at_diagonal_shifts(self, bc, k):
        # lam = diag[0] makes the first pivot exactly 0, and diag[1]/2 the
        # second one on Dirichlet rows.  Neumann's diag[0], 2/dx^2, is also
        # the band's centre eigenvalue, whose count rounding decides
        sysm = assemble_fd(bc, k, 128, 10.0)
        dense = np.linalg.eigvalsh(sysm.matrix)
        shifts = [sysm.diag[1] / 2.0] + ([] if bc.kind == "neumann" else [sysm.diag[0]])
        for lam in shifts:
            assert np.min(np.abs(dense - lam)) > 1e-6
            assert fd_count_below(sysm, lam) == int(np.sum(dense < lam))

    def test_counts_at_the_trivial_system_eigenvalues(self):
        from halfwave.oracle import FdSystem
        sysm = FdSystem(diag=np.array([2.0, 1.0]), off=np.zeros(1),
                        mass=np.ones(2), dx=1.0, offset=1, n=4)
        # an eigenvalue equal to lam counts
        assert [fd_count_below(sysm, lam) for lam in (0.5, 1.0, 1.5, 2.0)] == [0, 1, 1, 2]

    @pytest.mark.parametrize("bc,k,grid,x_max", CLI_SYSTEMS)
    def test_within_eps_norm_of_the_exact_eigenvalues(self, bc, k, grid, x_max):
        sysm = assemble_fd(bc, k, grid, x_max)
        radius = np.abs(np.concatenate(([0.0], sysm.off))) + \
            np.abs(np.concatenate((sysm.off, [0.0])))
        tol = np.finfo(float).eps * np.max(np.abs(sysm.diag) + radius)
        for i, lam in enumerate(fd_spectrum(sysm, 2)):
            assert exact_count(sysm, lam - tol) <= i < exact_count(sysm, lam + tol)

    @pytest.mark.parametrize("bc,k,grid,x_max", CLI_SYSTEMS + [
        (BoundaryCondition.robin(-5.0), 1.0, 2048, 30.0),
        (BoundaryCondition.robin(2.0), 1.5, 128, 10.0)])
    def test_located_is_the_bisection_reference(self, bc, k, grid, x_max):
        sysm = assemble_fd(bc, k, grid, x_max)
        assert np.array_equal(fd_spectrum(sysm, 3), bisection_reference(sysm, 3))

    def test_spectrum_command_system_takes_at_most_70_counts(self, monkeypatch):
        # one count per halving of the Gerschgorin bracket down to adjacent
        # doubles: the cost of the spectrum command's eigenvalue
        from halfwave import oracle
        calls = []
        real = oracle._count

        def counted(*args):
            calls.append(args[-1])
            return real(*args)
        monkeypatch.setattr(oracle, "_count", counted)
        fd_spectrum(assemble_fd(BoundaryCondition.robin(-1.0), 0.0, 2048, 30.0), 1)
        assert len(calls) <= 70

    def test_overflowing_matrix_is_refused(self):
        # finite entries whose squares overflow
        sysm = assemble_fd(DIR, 0.0, 64, 1e-80)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            fd_spectrum(sysm, 1)
