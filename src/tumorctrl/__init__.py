"""Simulation and optimal control of a coupled tumor growth model.

The package couples four fields on a structured rectangle: tumor volume
fraction, lactate concentration, viscoelastic displacement and a damage
phase variable.  On top of the forward solver it provides the linearized
and adjoint solvers, a reduced cost gradient with finite-difference
cross-checks, and a projected gradient optimizer for distributed
therapy controls.
"""

from .adjoint import (
    CostWeights,
    Targets,
    duality_residual,
    eval_cost,
    march_adjoint,
    solve_adjoint,
)
from .config import RunConfig, load_config
from .control import (
    AdmissibleSet,
    OptimizeResult,
    VIReport,
    control_inner,
    control_norm,
    optimize,
    project_admissible,
    reduced_gradient,
    vi_residual,
)
from .errors import ConfigError, DomainError, SeparationError, SolverError
from .grid import Grid, stress_from_strain, tensor_dot, trapezoid_weights
from .linearized import solve_linearized, taylor_test
from .model import (
    DefaultLogisticFamily,
    ModelSpec,
    check_hypotheses,
    separation_bounds,
)
from .state import Control, Diagnostics, StateTrajectory, march, solve_state

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "ConfigError",
    "Control",
    "CostWeights",
    "DefaultLogisticFamily",
    "Diagnostics",
    "DomainError",
    "Grid",
    "ModelSpec",
    "OptimizeResult",
    "RunConfig",
    "SeparationError",
    "SolverError",
    "StateTrajectory",
    "Targets",
    "VIReport",
    "check_hypotheses",
    "control_inner",
    "control_norm",
    "duality_residual",
    "eval_cost",
    "load_config",
    "march",
    "march_adjoint",
    "optimize",
    "project_admissible",
    "reduced_gradient",
    "separation_bounds",
    "solve_adjoint",
    "solve_linearized",
    "solve_state",
    "stress_from_strain",
    "taylor_test",
    "tensor_dot",
    "trapezoid_weights",
    "vi_residual",
    "__version__",
]
