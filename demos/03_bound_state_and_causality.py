"""The attractive Robin wall: bound state, growth, and intact causality.

Robin(-1) carries a negative eigenvalue, so its kernel contains a
hyperbolically growing sinh term.  Two things make this sector honest
rather than pathological: the growing term cancels exactly outside the
light cones, and dropping it breaks completeness visibly.

Run:  python demos/03_bound_state_and_causality.py
"""

import numpy as np

from halfwave import (BoundaryCondition, bound_state, build_kernel_grid,
                      causality_report, completeness_residual, evolve_cauchy,
                      resolve)

bc = BoundaryCondition.robin(-1.0)
x = np.linspace(0.0, 30.0, 3000)
res = resolve(bc, 0.0, x)

st = bound_state(-1.0, 0.0)
print(f"bound state: eigenvalue {st.lam}, decay rate {st.kappa}, "
      f"profile sqrt(2) exp(-x)")

f = np.exp(-((x - 2.0) ** 2) / (2 * 0.5 ** 2))
with_state = completeness_residual(res, f)
without = completeness_residual(res, f, include_bound=False)
print("completeness of a bump near the wall:")
print(f"  with the bound state    {with_state:.2e}")
print(f"  without  (ablated)      {without:.2e}   <- the state is not optional")

print("\nevolving the bound state itself: u(t) = cosh(t) e(x)")
e = st.profile(x)
times = np.array([0.0, 0.5, 1.0, 2.0])
traj = evolve_cauchy(res, e, np.zeros_like(e), times)
for tv, row in zip(times, traj):
    print(f"  t = {tv:3.1f}: u(t,0)/e(0) = {row[0] / e[0]:8.4f}   "
          f"cosh(t) = {np.cosh(tv):8.4f}")

print("\nand yet nothing leaks out of the light cones:")
res_small = resolve(bc, 0.0, np.linspace(0, 12, 64))
grid = build_kernel_grid(res_small, np.linspace(0.0, 1.8, 10),
                         np.linspace(0.25, 3.8, 12), np.linspace(0.25, 3.8, 12))
report = causality_report(grid)
print(f"  max |kernel| in the acausal region: {report['max_acausal']:.2e} "
      f"over {report['points']} points (tol 0.001)")
assert report["max_acausal"] <= 1e-3
