"""Reproducible experiments: initial data, eps sweeps, wave speeds, extinction.

The initial condition is a local introduction into a resident population at
equilibrium: a plateau bump of frequency p_init (flat top, linear ramps,
compact support), converted to densities through phi = p_init/(1 - p_init)
so that the reduced population starts exactly on h(0) at every node, with
bounds that do not depend on eps.

frequency_run is the one path from a model to its frequency series: it
seeds the bump and runs either the system or the limit equation.  The
convergence sweep integrates the scalar limit equation once and the
two-population system for the whole eps ladder as one stacked run on the
shared grid and cadence, then tabulates the space-time errors |p_eps - p0|
and |m| per eps.  Wave speeds are least-squares slopes of tracked
level-crossing positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import (
    ScaledModel,
    Variant,
    WolbachiaParams,
    check_assumptions,
    limit_reaction,
    slow_manifold,
    slow_manifold_max,
)
from .reduction import ReducedFields, error_norms, to_reduced
from .solver import (Field, Grid1D, PopulationState, SolverConfig, check_reaction_step,
                     run_scalar, run_system)

__all__ = [
    "InitialDataSpec",
    "ConvergenceReport",
    "Verdict",
    "make_initial_data",
    "frequency_run",
    "run_convergence_sweep",
    "track_front",
    "estimate_wave_speed",
    "extinction_check",
]

EXTINCT_BELOW = 0.1
INVADED_ABOVE = 0.9


@dataclass(frozen=True)
class InitialDataSpec:
    """Plateau bump of frequency centered at x = 0.

    amplitude  peak frequency on the plateau, in (0, 1)
    radius     half-width of the flat top
    smoothing  width of the linear ramp down to zero on each side

    The defaults sit just above the scalar equation's invasion threshold:
    the limit equation invades from this bump while the two-population
    system at eps = 0.6 collapses, reproducing the qualitative gap between
    the system and its reduction.
    """

    amplitude: float = 0.4
    radius: float = 1.6
    smoothing: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.amplitude < 1.0:
            raise ValueError("amplitude must lie strictly inside (0, 1)")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.smoothing < 0.0:
            raise ValueError("smoothing must be non-negative")

    def profile(self, x: np.ndarray) -> np.ndarray:
        r = np.abs(x)
        if self.smoothing == 0.0:
            return np.where(r <= self.radius, self.amplitude, 0.0)
        ramp = 1.0 - (r - self.radius) / self.smoothing
        return self.amplitude * np.clip(np.where(r <= self.radius, 1.0, ramp), 0.0, 1.0)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eps error norms and front speeds from one sweep."""

    epsilons: tuple[float, ...]
    err_p: tuple[float, ...]
    err_m: tuple[float, ...]
    speeds: tuple[float, ...]
    limit_speed: float

    def __post_init__(self):
        k = len(self.epsilons)
        if not (len(self.err_p) == len(self.err_m) == len(self.speeds) == k):
            raise ValueError("report columns must align with the eps ladder")
        if np.any(np.diff(self.epsilons) >= 0):
            raise ValueError("eps ladder must be strictly decreasing")


class Verdict(Enum):
    INVADED = "invaded"
    EXTINCT = "extinct"
    UNDECIDED = "undecided"


def make_initial_data(model: ScaledModel, spec: InitialDataSpec,
                      grid: Grid1D) -> tuple[PopulationState, Field]:
    """Initial densities for a local introduction, plus the frequency bump.

    Outside the bump the state is the resident-only equilibrium; inside, the
    total is partitioned so the derived frequency equals the bump exactly and
    the reduced population is spatially uniform.
    """
    half_width = min(-grid.xmin, grid.xmax)
    if spec.radius + spec.smoothing >= half_width:
        raise ValueError("bump support must sit strictly inside the domain")
    p_init = spec.profile(grid.x)
    prm = model.params

    if model.variant is Variant.ALTERNATIVE:
        if prm.du >= prm.fu:
            raise ValueError("resident equilibrium needs du < fu")
        total = np.full(grid.nx, (1.0 - prm.du / prm.fu) / (model.epsilon * prm.sigma))
        ni = p_init * total
        nu = total - ni
    else:
        resident = model.carrying_total - slow_manifold(model, 0.0)
        if resident <= 0.0:
            raise ValueError(
                f"eps={model.epsilon:g} exceeds the resident-equilibrium range eps < fu/du"
            )
        phi = p_init / (1.0 - p_init)
        nu = resident / (1.0 + phi)
        ni = phi * nu
    state = PopulationState(Field(ni, grid), Field(nu, grid), 0.0)
    return state, Field(p_init, grid)


def frequency_run(model: ScaledModel, spec: InitialDataSpec, config: SolverConfig,
                  equation: str = "system") -> tuple[list, list | None]:
    """Frequency series of one model started from the seeded bump.

    equation "system" runs the two-population system and reduces every frame;
    "limit" runs the scalar limit equation.  Returns (p_series, states), where
    p_series holds (time, p Field) pairs and states is the system's raw
    series, or None for the limit equation.
    """
    if equation not in ("system", "limit"):
        raise ValueError(f"equation must be 'system' or 'limit', got {equation!r}")
    state0, p_init = make_initial_data(model, spec, config.grid)
    if equation == "limit":
        return run_scalar(lambda v: limit_reaction(model, v), p_init, config), None
    states = run_system([model], [state0], config)[0]
    return [(s.time, to_reduced(model, s).p) for s in states], states


# ---------------------------------------------------------------------------
# wave-speed estimation


def track_front(series: Sequence[tuple[float, Field]], level: float = 0.5,
                window: tuple[float, float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rightmost positions where the profile crosses `level`, per snapshot.

    Crossings are located by linear interpolation between adjacent nodes.
    Raises when a snapshot in the window has no crossing or its crossing
    sits within 2*dx of a boundary, naming the first bad snapshot.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    times, positions = [], []
    for k, (t, field) in enumerate(series):
        if window is not None and not (window[0] - 1e-9 <= t <= window[1] + 1e-9):
            continue
        v = field.values
        signs = (v[:-1] - level) * (v[1:] - level)
        hits = np.nonzero(signs <= 0.0)[0]
        hits = hits[(v[hits] != level) | (v[hits + 1] != level)]
        if len(hits) == 0:
            raise ValueError(f"snapshot {k} (t={t:g}) has no {level:g}-level crossing")
        i = int(hits[-1])
        x = field.grid.x
        if v[i + 1] == v[i]:
            pos = x[i]
        else:
            pos = x[i] + (level - v[i]) / (v[i + 1] - v[i]) * field.grid.dx
        dx = field.grid.dx
        if pos < field.grid.xmin + 2.0 * dx or pos > field.grid.xmax - 2.0 * dx:
            raise ValueError(
                f"snapshot {k} (t={t:g}): crossing at x={pos:.4g} is within 2*dx of a boundary"
            )
        times.append(t)
        positions.append(pos)
    return np.array(times), np.array(positions)


def estimate_wave_speed(series: Sequence[tuple[float, Field]],
                        window: tuple[float, float],
                        level: float = 0.5) -> float:
    """Front speed: least-squares slope of crossing position against time
    over the window."""
    times, positions = track_front(series, level, window)
    if len(times) < 2:
        raise ValueError("window contains fewer than two usable snapshots")
    return float(np.polyfit(times, positions, 1)[0])


# ---------------------------------------------------------------------------
# convergence sweep


def run_convergence_sweep(params: WolbachiaParams, variant: Variant,
                          epsilons: Sequence[float], spec: InitialDataSpec,
                          config: SolverConfig, *,
                          speed_window: tuple[float, float] | None = None,
                          speed_level: float = 0.5
                          ) -> tuple[ConvergenceReport, list, list[list[ReducedFields]]]:
    """Solve the limit equation once and the system for the whole ladder in
    one stacked run; tabulate errors per eps.

    The eps ladder must be strictly decreasing and admissible: below the
    range where the resident state exists and the structural assumptions all
    audit clean.  Returns (report, limit_series, reduced_series), with one
    reduced series per rung in ladder order.
    """
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) == 0:
        raise ValueError("empty eps ladder")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("eps ladder must be strictly decreasing")

    models = [ScaledModel(params, eps, variant) for eps in epsilons]
    eps_cap = 1.0 / slow_manifold_max(models[0])
    for model in models:
        if model.epsilon >= eps_cap:
            raise ValueError(
                f"eps={model.epsilon:g} is outside the admissible range (< {eps_cap:.4g})"
            )
        check_reaction_step(model, config.dt)
        report = check_assumptions(model, samples=60)
        if not report.passed:
            failed = ", ".join(c.name for c in report.checks if not c.passed)
            raise ValueError(f"eps={model.epsilon:g}: assumption audit failed ({failed})")

    initial = [make_initial_data(model, spec, config.grid) for model in models]
    p_init = initial[0][1]
    limit_series = run_scalar(lambda v: limit_reaction(models[0], v), p_init, config)
    limit_speed = math.nan
    if speed_window is not None:
        limit_speed = estimate_wave_speed(limit_series, speed_window, speed_level)

    rows, reduced_series = [], []
    for model, series in zip(models, run_system(models, [s for s, _ in initial], config)):
        reduced = [to_reduced(model, s) for s in series]
        reduced_series.append(reduced)
        speed = math.nan
        if speed_window is not None:
            speed = estimate_wave_speed([(r.time, r.p) for r in reduced],
                                        speed_window, speed_level)
        rows.append((*error_norms(reduced, limit_series), speed))
    err_p, err_m, speeds = zip(*rows)

    report = ConvergenceReport(
        epsilons=tuple(epsilons),
        err_p=err_p,
        err_m=err_m,
        speeds=speeds,
        limit_speed=limit_speed,
    )
    return report, limit_series, reduced_series


# ---------------------------------------------------------------------------
# extinction check


def extinction_check(model: ScaledModel, spec: InitialDataSpec, config: SolverConfig,
                     equation: str = "system") -> Verdict:
    """Qualitative fate of the introduction at t_end.

    Extinct when the frequency peaks below 0.1 everywhere; invaded when it
    exceeds 0.9 across the initial bump support; undecided otherwise.
    """
    final = frequency_run(model, spec, config, equation)[0][-1][1].values
    if final.max() < EXTINCT_BELOW:
        return Verdict.EXTINCT
    support = spec.profile(config.grid.x) > 0.0
    if final[support].min() > INVADED_ABOVE:
        return Verdict.INVADED
    return Verdict.UNDECIDED
