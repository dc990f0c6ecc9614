"""How the boundary coefficient selects the spectrum.

The mode operator -d^2/dx^2 + k^2 on the half line becomes self-adjoint only
after a boundary condition at x = 0 is chosen.  For Robin conditions
u'(0) = alpha u(0) the whole effect sits in one number: alpha >= 0 leaves
the continuum [k^2, inf) alone, alpha < 0 adds a single bound state at
k^2 - alpha^2.  The membership test locates that point by root finding on
alpha + sqrt(k^2 - lambda), and a tridiagonal FD eigensolver confirms it blind.

Run:  python demos/01_boundary_selection_and_spectra.py
"""

import numpy as np

from halfwave import (BoundaryCondition, assemble_fd, fd_spectrum,
                      negative_spectrum_roots, spectrum_scan, weyl_function)

print("Weyl function at k = 0:  M(lambda) = -sqrt(-lambda)")
for lam in (-4.0, -1.0, -0.25):
    print(f"  M({lam:5.2f}) = {weyl_function(lam, 0.0).value:7.4f}")

print("\nnegative spectral points by membership scan vs FD eigensolver")
print(f"{'alpha':>7} | {'scan roots':>18} | {'FD lowest':>10} | verdict at -alpha^2")
for alpha in (-2.0, -1.0, -0.5, 0.0, 1.0):
    bc = BoundaryCondition.robin(alpha)
    roots = negative_spectrum_roots(bc, lam_min=-6.0, step=1e-3)
    sysm = assemble_fd(bc, 0.0, 1024, 20.0)
    lowest = fd_spectrum(sysm, 1)[0]
    verdict = "-" if alpha >= 0 else spectrum_scan(bc, [-alpha ** 2], 0.0)[0][3]
    root_str = ", ".join(f"{r:.4f}" for r in roots) if roots else "none"
    print(f"{alpha:7.2f} | {root_str:>18} | {lowest:10.5f} | {verdict}")

print("\nwith transverse modes (k ranging over an interval) the bound state")
print("smears into a band: Robin(-2) fills (-4, 0)")
bc = BoundaryCondition.robin(-2.0)
for lam in (-5.0, -3.0, -1.0):
    print(f"  lambda = {lam:5.2f}: {spectrum_scan(bc, [lam], (0.0, 8.0))[0][3]}")
