"""Green operators for the wave equation on the half line.

Each transverse wavenumber of the half-space problem reduces to a 1-D
operator -d^2/dx^2 + k^2 whose self-adjoint realization is selected by a
boundary operator at x = 0 (Dirichlet, Neumann, Robin, real multiplier
symbols, or the dynamical condition on an extended bulk + boundary space).
The package builds the explicit spectral resolution of each realization,
constructs causal/retarded/advanced propagators by functional calculus, and
ships the independent finite-difference, time-stepping and reflection
oracles plus the verification instruments used to cross-check everything.
"""

from .model import BoundaryCondition, HalfSpaceModel
from .oracle import (FdSystem, assemble_fd, fd_count_below, fd_spectrum,
                     images_kernel, leapfrog)
from .propagator import (KernelGrid, apply_advanced, apply_causal,
                         apply_retarded, build_kernel_grid, causal_kernel,
                         evolve_cauchy, sin_propagator, wentzell_apply)
from .quadrature import TruncationWarning
from .spectral import (BoundState, ExtendedState, SpectralResolution,
                       bound_state, completeness_residual, resolve)
from .triple import (IN_SPECTRUM, NOT_IN_SPECTRUM, TraceMaps, WeylValue,
                     greens_identity_residual, lower_bound_estimate,
                     negative_spectrum_roots, spectrum_scan, weyl_function)
from .verify import (EnergyReport, bc_residual, boundary_energy,
                     causality_report, cone_energy_ratio, energy,
                     energy_report, exact_sequence_residuals, gronwall_check,
                     wave_operator)

__version__ = "0.1.0"
