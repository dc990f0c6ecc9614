"""Dynamical (Wentzell-type) boundary conditions on the extended space.

When the boundary carries its own dynamics, u'(0) = (d_tt + k^2) u(0), no
static coefficient realizes the condition.  The fix is one extra degree of
freedom: states become pairs (bulk, boundary value), the extended operator
is symmetric on the constrained pairs, and its continuum family
(cos(xi x) - xi sin(xi x), 1) / sqrt(1 + xi^2) resolves the extended space
exactly.  Fields built this way ring at sqrt(xi^2 + k^2) and satisfy the
dynamical condition; fields built with the static surrogate k^2 do not.

Run:  python demos/05_dynamical_boundary.py
"""

import numpy as np

from halfwave import (BoundaryCondition, apply_retarded, assemble_fd,
                      bc_residual, fd_spectrum, resolve, wentzell_apply,
                      wentzell_mode)

k = 1.0
wbc = BoundaryCondition.wentzell_laplace()

print("extended modes carry their boundary value along:")
x = np.linspace(0.0, 12.0, 1024)
for xi in (0.5, 2.0):
    mode = wentzell_mode(x, xi, k)
    print(f"  xi = {xi}: bulk(0) = {mode.bulk[0]:.6f} = boundary value "
          f"{mode.boundary_value:.6f}; rings at sqrt(xi^2+k^2) = "
          f"{np.sqrt(xi ** 2 + k ** 2):.4f}")

sysm = assemble_fd(wbc, k, 1024, 12.0)
print(f"\nextended FD matrix symmetry defect: "
      f"{np.max(np.abs(sysm.matrix - sysm.matrix.T)):.1e} (exact)")
print(f"lowest extended eigenvalue {fd_spectrum(sysm, 1)[0]:.4f} "
      f">= k^2 = {k ** 2}")

t = np.linspace(0.0, 5.0, 400)
f = np.exp(-((t[:, None] - 1.6) ** 2) / (2 * 0.25 ** 2)
           - ((x[None, :] - 3.0) ** 2) / (2 * 0.4 ** 2))
res_w = resolve(wbc, k, x)
u_dyn = wentzell_apply(res_w, f, t)

static = BoundaryCondition.multiplier(lambda kk: kk * kk)
u_static = apply_retarded(resolve(static, k, x), f, t)

print("\ntrace residual of the dynamical condition u'(0) = (d_tt + k^2) u(0):")
print(f"  extended-space field: {bc_residual(u_dyn, t, x, wbc, k=k):.2e}")
print(f"  static-surrogate field: {bc_residual(u_static, t, x, wbc, k=k):.2e}"
      "   <- fails, the surrogate is not the same physics")
