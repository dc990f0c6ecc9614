"""Acceptance suite: one test per headline guarantee, at its stated
tolerance, each printing a PASS/FAIL line (run with ``pytest -s`` to see
them).  Every check pits the spectral construction against an independent
route: closed-form reflection kernels, tridiagonal FD eigensolvers,
leapfrog time stepping, or conserved functionals.
"""

import numpy as np
import pytest

from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, fd_spectrum, images_kernel, leapfrog
from halfwave.propagator import (apply_advanced, apply_causal, apply_retarded,
                                 build_kernel_grid, causal_kernel,
                                 wentzell_apply)
from halfwave.spectral import SpectralResolution, resolve
from halfwave.triple import (greens_identity_residual, lower_bound_estimate,
                             negative_spectrum_roots)
from halfwave.quadrature import boundary_derivative, derivative
from halfwave.verify import (bc_residual, causality_report, cone_energy_ratio,
                             energy_report, exact_sequence_residuals,
                             gronwall_check, wave_operator)

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()
ROBIN = BoundaryCondition.robin(-1.0)


def report(num, name, detail, passed):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {name}: {detail}")


def bump(x, center, width):
    return np.exp(-((x - center) ** 2) / (2 * width ** 2))


def gaussian_source(t, x, t0, st, x0, sx):
    return np.exp(-((t[:, None] - t0) ** 2) / (2 * st ** 2)
                  - ((x[None, :] - x0) ** 2) / (2 * sx ** 2))


def norm_ratio(a, b):
    return float(np.sqrt(np.sum(np.asarray(a) ** 2)
                         / np.sum(np.asarray(b) ** 2)))


def test_criterion_01_robin_negative_spectrum():
    """Scan root at -alpha^2 within the 1e-3 step; FD agrees within 1e-3."""
    worst_scan, worst_fd = 0.0, 0.0
    for alpha in (-2.0, -1.0, -0.5):
        bc = BoundaryCondition.robin(alpha)
        roots = negative_spectrum_roots(bc, lam_min=-5.0, step=1e-3)
        assert len(roots) == 1
        worst_scan = max(worst_scan, abs(roots[0] + alpha ** 2))
        sysm = assemble_fd(bc, 0.0, 2048, 20.0)
        low = float(fd_spectrum(sysm, 1)[0])
        worst_fd = max(worst_fd, abs(low + alpha ** 2))
    passed = worst_scan <= 1e-3 and worst_fd <= 1e-3
    report(1, "Robin negative spectrum",
           f"scan err {worst_scan:.2e}, FD err {worst_fd:.2e} (tol 1e-3)", passed)
    assert passed


def test_criterion_02_nonnegative_coupling_has_no_negative_spectrum():
    """alpha >= 0: no scan roots and exactly zero negative FD eigenvalues."""
    ok = True
    for alpha in (0.0, 0.5, 1.0, 2.0):
        bc = BoundaryCondition.robin(alpha)
        roots = negative_spectrum_roots(bc, lam_min=-5.0, step=1e-3)
        negatives = int(np.sum(fd_spectrum(assemble_fd(bc, 0.0, 2048, 20.0),
                                           16) < 0))
        ok = ok and not roots and negatives == 0
    report(2, "nonnegative coupling", "0 roots, 0 negative FD eigenvalues", ok)
    assert ok


@pytest.mark.parametrize("bc", [DIR, NEU], ids=["dirichlet", "neumann"])
def test_criterion_03_kernel_matches_images(bc):
    """Spectral kernel vs reflection formula, 20^3 grid, off-cone, 1e-3."""
    res = resolve(bc, 0.0, np.linspace(0.0, 12.0, 64), xi_max=40.0, nodes=4000)
    t = np.linspace(0.0, 2.0, 20)
    x = np.linspace(0.2, 3.0, 20)
    T, X, Y = np.meshgrid(t, x, x, indexing="ij")
    cell = max(t[1] - t[0], x[1] - x[0])
    off_cone = ((np.abs(T - np.abs(X - Y)) > cell)
                & (np.abs(T - (X + Y)) > cell))
    got = causal_kernel(res, T, X, Y)
    want = images_kernel(T, X, Y, bc)
    worst = float(np.max(np.abs(got - want)[off_cone]))
    passed = worst <= 1e-3
    report(3, f"kernel vs images ({bc.kind})",
           f"max err {worst:.2e} over {int(off_cone.sum())} pts (tol 1e-3)",
           passed)
    assert passed


def test_criterion_04_robin_propagator_vs_leapfrog():
    """Retarded field vs forced leapfrog, grid 1024, dt = 0.4 dx, 1e-2."""
    x = np.linspace(0.0, 12.0, 1024)
    res = resolve(ROBIN, 0.0, x)
    dx = x[1] - x[0]
    dt = 0.4 * dx
    nt = int(round(6.0 / dt)) + 1
    t = np.arange(nt) * dt
    f = gaussian_source(t, x, 1.6, 0.25, 3.0, 0.4)
    u = apply_retarded(res, f, t)
    sysm = assemble_fd(ROBIN, 0.0, 1024, 12.0)
    times, U, _ = leapfrog(sysm, np.zeros(1024), np.zeros(1024), dt, 6.0,
                           sample_stride=1, source=f)
    err = norm_ratio(u[: times.size] - U, U)
    passed = err <= 1e-2
    report(4, "Robin propagator vs leapfrog",
           f"rel L2 {err:.2e} (tol 1e-2)", passed)
    assert passed


def test_criterion_05_causality_with_bound_state():
    """Acausal max of the Robin(-1) kernel <= 1e-3, halving on refinement."""
    t = np.linspace(0.0, 1.8, 10)
    x = np.linspace(0.25, 3.8, 12)
    worst = {}
    for nodes in (4000, 8000):
        res = resolve(ROBIN, 0.0, np.linspace(0.0, 12.0, 64), nodes=nodes)
        rep = causality_report(build_kernel_grid(res, t, x, x))
        worst[nodes] = rep["max_acausal"]
    passed = worst[4000] <= 1e-3 and worst[8000] <= worst[4000] / 2
    report(5, "causality with bound state",
           f"max {worst[4000]:.2e} -> {worst[8000]:.2e} on doubling "
           "(tol 1e-3, factor >= 2)", passed)
    assert passed


@pytest.mark.parametrize("bc", [DIR, ROBIN], ids=["dirichlet", "robin"])
def test_criterion_06_green_operator_identities(bc):
    """box(G f) = f and G(box f) = f for retarded and advanced, 1e-2."""
    x = np.linspace(0.0, 12.0, 1024)
    res = resolve(bc, 0.0, x)
    t = np.linspace(0.0, 6.0, 480)
    f = gaussian_source(t, x, 3.0, 0.4, 4.0, 0.5)
    sysm = assemble_fd(bc, 0.0, 1024, 12.0)
    box_f = wave_operator(f, t, sysm)
    worst = 0.0
    for applier in (apply_retarded, apply_advanced):
        u = applier(res, f, t)
        worst = max(worst, norm_ratio((wave_operator(u, t, sysm) - f)[1:-1],
                                  f[1:-1]))
        v = applier(res, box_f, t)
        worst = max(worst, norm_ratio((v - f)[1:-1], f[1:-1]))
    passed = worst <= 1e-2
    report(6, f"Green operator identities ({bc.kind})",
           f"worst rel residual {worst:.2e} (tol 1e-2)", passed)
    assert passed


def test_criterion_07_boundary_condition_of_fields():
    """Trace residual of retarded fields <= 1e-2; wrong coefficient >= 1e-1."""
    t = np.linspace(0.0, 5.0, 400)
    cases = [(DIR, 0.0), (NEU, 0.0), (ROBIN, 0.0),
             (BoundaryCondition.multiplier(lambda k: k * k), 1.0)]
    worst = 0.0
    for bc, k in cases:
        x = np.linspace(0.0, 12.0, 1024)
        res = resolve(bc, k, x)
        f = gaussian_source(t, x, 1.6, 0.25, 3.0, 0.4)
        u = apply_retarded(res, f, t)
        worst = max(worst, bc_residual(u, t, x, bc, k=k))
    # negative control: judge the Robin(-1) field against alpha = +1
    x = np.linspace(0.0, 12.0, 1024)
    u = apply_retarded(resolve(ROBIN, 0.0, x),
                       gaussian_source(t, x, 1.6, 0.25, 3.0, 0.4), t)
    control = bc_residual(u, t, x, BoundaryCondition.robin(1.0))
    passed = worst <= 1e-2 and control >= 1e-1
    report(7, "boundary condition of fields",
           f"worst residual {worst:.2e} (tol 1e-2), "
           f"tampered control {control:.2e} (>= 1e-1)", passed)
    assert passed


def test_criterion_08_dynamical_condition_suite():
    """Extended system: exact symmetry, mode residuals 1e-6, field checks 1e-2."""
    k = 1.0
    wbc = BoundaryCondition.wentzell_laplace()
    sysm = assemble_fd(wbc, k, 1024, 12.0)
    sym = float(np.max(np.abs(sysm.matrix - sysm.matrix.T)))

    xloc = np.linspace(0.0, 0.004, 8)
    xfine = np.linspace(0.0, 12.0, 4800)
    xis = np.array([0.5, 2.0, 7.0])
    modes = SpectralResolution(kind="wentzell", alpha=None, k=k, x=xfine, xi=xis)
    fine, v = modes.family_block(slice(None))
    local, _ = modes.family_block(slice(None), points=xloc)
    mode_res = 0.0
    for xi, bulk, bulk_loc, v_j in zip(xis, fine, local, v):
        compat = abs(bulk[0] - v_j)
        eig = np.max(np.abs((-derivative(bulk, xfine[1] - xfine[0], 2)
                             + k * k * bulk
                             - (xi ** 2 + k * k) * bulk)[: 2400]))
        dyn = abs(boundary_derivative(bulk_loc, xloc[1] - xloc[0])
                  + xi ** 2 * v_j)
        mode_res = max(mode_res, compat, eig, dyn)

    x = np.linspace(0.0, 12.0, 1024)
    res = resolve(wbc, k, x)
    dx = x[1] - x[0]
    dt = 0.4 * dx
    nt = int(round(5.0 / dt)) + 1
    t = np.arange(nt) * dt
    f = gaussian_source(t, x, 1.6, 0.25, 3.0, 0.4)
    u = wentzell_apply(res, f, t)
    times, U, _ = leapfrog(sysm, np.zeros(1024), np.zeros(1024), dt, 5.0,
                           sample_stride=1, source=f)
    field_err = norm_ratio(u[: times.size] - U, U)
    dyn_resid = bc_residual(u, t, x, wbc, k=k)
    static = BoundaryCondition.multiplier(lambda kk: kk * kk)
    control = bc_residual(u, t, x, static, k=k)

    passed = (sym == 0.0 and mode_res <= 1e-6 and field_err <= 1e-2
              and dyn_resid <= 1e-2 and control >= 1e-1)
    report(8, "dynamical condition suite",
           f"symmetry {sym:.1e}, mode residuals {mode_res:.2e} (tol 1e-6), "
           f"field vs leapfrog {field_err:.2e}, trace residual {dyn_resid:.2e} "
           f"(tol 1e-2), static control {control:.2e} (>= 1e-1)", passed)
    assert passed


@pytest.mark.parametrize("bc", [DIR, ROBIN], ids=["dirichlet", "robin"])
def test_criterion_09_operator_identity_chain(bc):
    """All four chain residuals <= 1e-2 for a Gaussian test function."""
    x = np.linspace(0.0, 12.0, 1024)
    res = resolve(bc, 0.0, x)
    sysm = assemble_fd(bc, 0.0, 1024, 12.0)
    t = np.linspace(0.0, 6.0, 480)
    g = gaussian_source(t, x, 3.0, 0.4, 4.0, 0.5)
    rs = exact_sequence_residuals(res, sysm, g, t)
    worst = max(rs)
    passed = worst <= 1e-2
    report(9, f"operator identity chain ({bc.kind})",
           "residuals " + ", ".join(f"{r:.1e}" for r in rs) + " (tol 1e-2)",
           passed)
    assert passed


def test_criterion_10_boundary_green_identity():
    """Residual <= 1e-6 over 100 random smooth decaying pairs, grid 3000."""
    x = np.linspace(0.0, 30.0, 3000)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        f = (rng.uniform(0.5, 2.0) * bump(x, rng.uniform(2, 9), rng.uniform(0.6, 1.6))
             + rng.uniform(0, 1) * np.exp(-rng.uniform(0.8, 1.6) * x))
        g = (rng.uniform(0.5, 2.0) * bump(x, rng.uniform(2, 9), rng.uniform(0.6, 1.6))
             + rng.uniform(0, 1) * x * np.exp(-rng.uniform(0.8, 1.6) * x))
        rng.uniform(0, 2)   # the stream once drew k here; the pairs stay as drawn
        worst = max(worst, greens_identity_residual(f, g, x))
    passed = worst <= 1e-6
    report(10, "boundary Green identity",
           f"worst residual {worst:.2e} over 100 pairs (tol 1e-6)", passed)
    assert passed


def test_criterion_11_energy_conservation_and_growth_bound():
    """Total-energy drift <= 1e-3 over T = 10; cone leakage <= 1e-6."""
    L, grid = 30.0, 1024
    x = np.linspace(0.0, L, grid)
    drifts = {}
    for bc in (DIR, ROBIN):
        sysm = assemble_fd(bc, 0.0, grid, L)
        u0 = bump(x, 10.0, 0.6)
        dt = 0.4 * sysm.dx
        times, U, Udot = leapfrog(sysm, u0, np.zeros(grid), dt, 10.0,
                                  sample_stride=10)
        rep = energy_report(times, U, Udot, sysm.dx, bc)
        ok_growth, b_hat = gronwall_check(rep)
        drifts[bc.kind] = rep.drift
        assert ok_growth and np.isfinite(b_hat)
    sysm = assemble_fd(ROBIN, 0.0, grid, L)
    times, U, Udot = leapfrog(sysm, bump(x, 10.0, 0.5), np.zeros(grid),
                              0.4 * sysm.dx, 6.0, sample_stride=20)
    cone = cone_energy_ratio(times, U, Udot, x, support=(6.0, 14.0),
                             margin=5 * sysm.dx)
    passed = max(drifts.values()) <= 1e-3 and cone <= 1e-6
    report(11, "energy conservation",
           f"drift dirichlet {drifts['dirichlet']:.2e}, "
           f"robin {drifts['robin']:.2e} (tol 1e-3); "
           f"cone leakage {cone:.2e} (tol 1e-6)", passed)
    assert passed


def test_criterion_12_lower_bound_formula():
    """FD minimum eigenvalue respects m_t m_a / (m_t + m_a) in every case."""
    ok = True
    details = []
    for m_theta, m_a0 in ((2.0, 3.0), (1.0, 1.0), (4.0, 2.0)):
        L = np.pi / np.sqrt(m_a0)   # window whose Dirichlet ground level is m_a0
        grid = 800
        ground = float(fd_spectrum(assemble_fd(DIR, 0.0, grid, L), 1)[0])
        assert abs(ground - m_a0) <= 5e-3 * m_a0
        bound = lower_bound_estimate(m_theta, m_a0)
        low = float(fd_spectrum(
            assemble_fd(BoundaryCondition.robin(m_theta), 0.0, grid, L), 1)[0])
        details.append(f"({m_theta:g},{m_a0:g}): {low:.3f} >= {bound:.3f}")
        ok = ok and low >= bound
    report(12, "lower bound formula", "; ".join(details), ok)
    assert ok
