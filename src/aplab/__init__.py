"""Numerical laboratory for time discretizations of stiff anisotropic
transport: four schemes for the field-aligned toy model, two for the
rigid-rotation toy model, with exact references, stability and conditioning
diagnostics, and a reproducible CSV experiment runner."""

__version__ = "0.1.0"

from .grid import Field2D, Grid2D, make_grid2d, sample
from .linalg import (ConvergenceError, CyclicTridiag, SingularMatrixError,
                     SolveStats, assemble, cond2, solve_cyclic)
from .aligned import AlignedModel, exact_aligned, ic_two_mode, limit_aligned, y_average
from .aligned_schemes import (AlignedScheme, AlignedSchemeConfig, MicroMacroState,
                              run_aligned, upwind_x)
from .rotating import (RotatingModel, circle_average, exact_rotating,
                       ic_gaussian, rotate)
from .rotating_schemes import (RotatingScheme, RotatingSchemeConfig, assemble_imp,
                               assemble_lagrange_rot, run_rotating, upwind_rotation_matrix)
from .analysis import (cond_sweep, error_eta, error_gamma, fit_loglog_slope,
                       measure_xi, xi_imex)
from .results import RunResult
from .experiments import ExperimentConfig, run_experiment

__all__ = [
    "__version__",
    "Grid2D", "Field2D", "make_grid2d", "sample",
    "CyclicTridiag", "SolveStats", "solve_cyclic", "assemble",
    "cond2",
    "SingularMatrixError", "ConvergenceError",
    "AlignedModel", "exact_aligned", "y_average", "limit_aligned",
    "ic_two_mode",
    "AlignedScheme", "AlignedSchemeConfig", "MicroMacroState",
    "run_aligned", "upwind_x",
    "RotatingModel", "rotate", "exact_rotating", "circle_average", "ic_gaussian",
    "RotatingScheme", "RotatingSchemeConfig",
    "upwind_rotation_matrix", "assemble_imp",
    "assemble_lagrange_rot", "run_rotating",
    "error_eta", "error_gamma",
    "fit_loglog_slope", "xi_imex", "measure_xi", "cond_sweep",
    "RunResult",
    "ExperimentConfig", "run_experiment",
]
