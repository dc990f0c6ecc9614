"""Property-based checks of the causal kernel on random tensor grids and of
the tridiagonal FD oracle against dense linear algebra."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from halfwave.model import BoundaryCondition
from halfwave.oracle import assemble_fd, fd_spectrum
from halfwave.propagator import build_kernel_grid, causal_kernel
from halfwave.spectral import resolve

X_GRID = np.linspace(0.0, 12.0, 64)


def axis(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=6).map(np.array)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-2.0, 2.0), t=axis(-2.0, 2.0), x=axis(0.05, 4.0),
       y=axis(0.05, 4.0))
def test_robin_kernel_grid(alpha, t, x, y):
    res = resolve(BoundaryCondition.robin(alpha), 0.0, X_GRID, nodes=400)
    grid = build_kernel_grid(res, t, x, y).values
    pointwise = causal_kernel(res, *np.meshgrid(t, x, y, indexing="ij"))
    assert np.max(np.abs(grid - pointwise)) <= 1e-12
    mirrored = build_kernel_grid(res, -t, x, y).values
    assert np.max(np.abs(mirrored + grid)) <= 1e-12
    swapped = build_kernel_grid(res, t, y, x).values
    assert np.max(np.abs(swapped - np.swapaxes(grid, 1, 2))) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(alpha=st.floats(-2.0, 2.0), k=st.floats(0.0, 2.0),
       grid=st.integers(16, 64))
def test_robin_fd_spectrum_matches_dense(alpha, k, grid):
    sysm = assemble_fd(BoundaryCondition.robin(alpha), k, grid, 10.0)
    dense = scipy.linalg.eigvalsh(sysm.matrix)
    assert np.max(np.abs(fd_spectrum(sysm) - dense)) <= 1e-13
