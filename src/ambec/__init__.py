"""Exact droplet and cat solutions of coupled atomic-molecular condensates.

Closed-form localized solutions of the coupled mean-field equations, the
algebraic consistency conditions that pin their parameters, self-consistent
potentials, split-step propagation, and Wigner phase-space diagnostics.
"""
from ._kernels import kernel_backend
from .ansatz import (half_width_99, mu_critical, petrov_profile,
                     PetrovParams, rational_profile, sample_fields,
                     superposed_profile)
from .consistency import (check_consistency, default_tol, grid_scan_seed,
                          normalized_residuals, solve_family_I,
                          solve_family_II, solve_family_III, solve_from_scan)
from .core import (CouplingParams, Diagnostics, FieldPair, Grid,
                   SolutionRecord, validate_params)
from .dynamics import (PropagatorConfig, conserved_number, default_grid,
                       evolve, make_grid, mean_field_energy)
from .errors import (AmbecError, BlowUpError, ConfigurationError,
                     ConvergenceError, InconsistentRootError,
                     InstabilityError, NoDropletError, NoRootFoundError,
                     OutOfScopeRegimeError, OutOfScopeRootError,
                     SingularParameterError, TruncationError,
                     TruncationWarning)
from .manifest import TOOL_VERSION, RunManifest, read_csv, write_csv
from .potentials import (eigen_residuals, flatness_metric,
                         self_consistent_potentials, well_shape)
from .wigner import (CONVENTION, PhaseSpaceMetrics, WignerGrid,
                     fringe_spacing, phase_space_metrics, wigner_transform)

__version__ = TOOL_VERSION
