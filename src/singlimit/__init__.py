"""Numerical laboratory for two-population competition-diffusion systems and
their reduction to a single bistable frequency equation."""

from .model import (
    AssumptionCheck,
    AssumptionReport,
    BistabilityError,
    Equilibrium,
    EquilibriumKind,
    FieldError,
    ScaledModel,
    Stability,
    StabilityResult,
    Variant,
    WolbachiaParams,
    check_assumptions,
    classify_stability,
    drift_slope_bound,
    equilibria,
    invasion_frequency,
    invasion_threshold,
    limit_reaction,
    reaction_rates,
    reduced_drift,
    slow_manifold,
    slow_manifold_max,
)
from .solver import (
    BoundaryCondition,
    Field,
    Grid1D,
    MAX_NODES,
    PopulationState,
    SolverConfig,
    SolverError,
    TridiagonalSystem,
    assemble_diffusion,
    check_reaction_step,
    gradient_l2,
    l2_space,
    l2_spacetime,
    run_scalar,
    run_system,
    tridiagonal_solve,
)
from .reduction import ReducedFields, error_norms, reduced_to_state, to_reduced
from .experiments import (
    ConvergenceReport,
    InitialDataSpec,
    Verdict,
    estimate_wave_speed,
    extinction_check,
    frequency_run,
    make_initial_data,
    run_convergence_sweep,
    track_front,
)
from .config import ConfigError, RunConfig, default_config, format_config, parse_config

__version__ = "0.1.0"
