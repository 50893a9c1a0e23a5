import os
import subprocess
import sys
from pathlib import Path

import singlimit as sl

# the public names of a freshly imported package: the five modules' __all__
# lists plus the modules themselves; a change to this set is a change to the API
PUBLIC_NAMES = [
    "AssumptionCheck", "AssumptionReport", "BistabilityError", "BoundaryCondition",
    "ConfigError", "ConvergenceReport", "Equilibrium", "EquilibriumKind", "Field",
    "FieldError", "FrontTrack", "Grid1D", "InitialDataSpec", "MAX_NODES", "MAX_STEPS",
    "PopulationState", "ReducedFields", "RunConfig", "ScaledModel", "SolverConfig",
    "SolverError", "Stability", "StabilityResult", "Variant", "Verdict",
    "WolbachiaParams", "assemble_diffusion", "check_assumptions", "check_reaction_step",
    "classify_stability", "config", "default_config", "drift_slope_bound", "equilibria",
    "error_norms", "estimate_wave_speed", "experiments", "extinction_check",
    "format_config", "frequency_run", "gradient_l2", "invasion_frequency",
    "invasion_threshold", "l2_space", "l2_spacetime", "limit_reaction",
    "make_initial_data", "model", "parse_config", "reaction_rates", "reduced_drift",
    "reduced_to_state", "reduction", "run_convergence_sweep", "run_scalar", "run_system",
    "slow_manifold", "slow_manifold_max", "solver", "to_reduced",
]


def test_public_namespace_is_pinned():
    # a fresh interpreter: importing singlimit.output or singlimit.cli in this
    # process adds those submodules to the package namespace
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import singlimit; print(*sorted(n for n in dir(singlimit) if n[0] != '_'))"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC_NAMES


def test_exports_are_the_modules_all_lists():
    modules = (sl.model, sl.solver, sl.reduction, sl.experiments, sl.config)
    exported = [name for module in modules for name in module.__all__]
    assert len(exported) == len(set(exported)) == 55
    assert all(getattr(sl, name) is getattr(module, name)
               for module in modules for name in module.__all__)
