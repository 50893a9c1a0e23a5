"""Reproducible experiments: initial data, eps sweeps, wave speeds, extinction.

The initial condition is a local introduction into a resident population at
equilibrium: a plateau bump of frequency p_init (flat top, linear ramps,
compact support) splits the resident total N = model.resident_total into
n_i = p_init N and n_u = N - n_i at every node, so the reduced population
starts on h(0) everywhere, with bounds that do not depend on eps.

frequency_run is the one path from a model to its frequency series: it
seeds the bump and runs either the system or the limit equation.  The
convergence sweep first runs the limit equation once through frequency_run
as the reference, then the whole eps ladder as one stacked system run on the
shared grid and cadence, measuring each rung's frame against the reference
as it settles, and tabulates the space-time errors |p_eps - p0| and |m|.
Wave speeds are least-squares slopes of level crossings tracked frame by frame.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .model import (
    ScaledModel,
    Variant,
    WolbachiaParams,
    check_assumptions,
    drift_slope_bound,
    limit_reaction,
    require,
    require_reducible,
    slow_manifold_max,
)
from .reduction import ReducedFields, error_norms, to_reduced
from .solver import (Field, Grid1D, PopulationState, SolverConfig, SolverError,
                     check_reaction_step, l2_spacetime, run_scalar, run_system)

__all__ = [
    "InitialDataSpec",
    "ConvergenceReport",
    "Verdict",
    "make_initial_data",
    "frequency_run",
    "run_convergence_sweep",
    "FrontTrack",
    "estimate_wave_speed",
    "extinction_check",
]

EXTINCT_BELOW = 0.1
INVADED_ABOVE = 0.9


def require_eps_ladder(epsilons: Sequence[float]) -> None:
    """Raise FieldError("epsilons", ...) unless the ladder is non-empty,
    positive and strictly decreasing, with distinct %g labels (they name
    the rung in output files and messages)."""
    require(len(epsilons) > 0, "epsilons", "empty eps ladder")
    require(all(e > 0 for e in epsilons), "epsilons", "eps values must be positive")
    require(all(b < a for a, b in zip(epsilons, epsilons[1:])), "epsilons",
            "eps ladder must be strictly decreasing")
    require(len({f"{e:g}" for e in epsilons}) == len(epsilons), "epsilons",
            "eps values must differ in their first 6 significant digits")


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
        require(0.0 < self.amplitude < 1.0, "amplitude",
                "amplitude must lie strictly inside (0, 1)")
        require(self.radius > 0.0, "radius", "radius must be positive")
        require(self.smoothing >= 0.0, "smoothing", "smoothing must be non-negative")

    def check_inside(self, grid: Grid1D) -> None:
        """Reject a bump whose support reaches the domain boundary."""
        require(self.radius + self.smoothing < min(-grid.xmin, grid.xmax),
                ("radius", "smoothing", "xmin", "xmax"),
                "bump support must sit strictly inside the domain")

    @np.errstate(all="ignore")  # smoothing 0 or subnormal: the ramp's +-inf clips to 1 or 0
    def profile(self, x: np.ndarray) -> np.ndarray:
        r = np.abs(x)
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
        require_eps_ladder(self.epsilons)


class Verdict(Enum):
    INVADED = "invaded"
    EXTINCT = "extinct"
    UNDECIDED = "undecided"


def make_initial_data(model: ScaledModel, spec: InitialDataSpec,
                      grid: Grid1D) -> tuple[PopulationState, Field]:
    """Initial densities for a local introduction, plus the frequency bump.

    Every node splits the resident total N = model.resident_total as
    n_i = p N and n_u = N - n_i, p the bump: outside it the state is the
    resident-only equilibrium, inside it the derived frequency is the bump
    and the reduced population is uniform, both up to round-off.
    """
    spec.check_inside(grid)
    p_init = spec.profile(grid.x)
    resident = model.resident_total
    ni = p_init * resident
    nu = resident - ni
    state = PopulationState(Field(ni, grid), Field(nu, grid), 0.0)
    return state, Field(p_init, grid)


def frequency_run(model: ScaledModel, spec: InitialDataSpec, config: SolverConfig,
                  equation: str = "system", *,
                  on_frame: Callable[[float, Field, PopulationState | None], None]) -> None:
    """Frequency series of one model started from the seeded bump.

    equation "system" runs the two-population system and reduces every frame;
    "limit" runs the scalar limit equation, which the alternative variant
    does not have and which divides by Q(p), so drift_slope_bound must be
    positive.  Each frame goes to on_frame(time, p, state) as soon as it settles,
    with p the frequency Field and state the system's raw state, or None for
    the limit equation; the run keeps none of them.
    """
    if equation not in ("system", "limit"):
        raise ValueError(f"equation must be 'system' or 'limit', got {equation!r}")
    state0, p_init = make_initial_data(model, spec, config.grid)
    if equation == "limit":
        require_reducible(model, "the limit equation")
        drift_slope_bound(model)
        run_scalar(lambda v: limit_reaction(model, v), p_init, config,
                   on_frame=lambda frame: on_frame(*frame, None))
    else:
        run_system([model], [state0], config,
                   on_frame=lambda frame: on_frame(frame[0].time,
                                                   to_reduced(model, frame[0]).p, frame[0]))


# ---------------------------------------------------------------------------
# wave-speed estimation


class FrontTrack:
    """Rightmost `level` crossing of each frame in the window, interpolated
    between adjacent nodes as the frame settles.  add raises when a frame in
    the window has no crossing or one within 2*dx of a boundary, naming the
    frame by its index among all frames added.  The constructor owns the
    rules FieldError("speed_level", ...) unless 0 < level < 1, then
    FieldError("speed_window", ...) unless 0 <= window[0] < window[1]."""

    def __init__(self, window: tuple[float, float], level: float):
        require(0.0 < level < 1.0, "speed_level", "speed_level must lie in (0, 1)")
        require(0.0 <= window[0] < window[1], "speed_window",
                "speed_window must be an increasing pair of times")
        self.window, self.level = window, level
        self.points: list[tuple[float, float]] = []  # (t, crossing position)
        self._frames = 0

    def add(self, t: float, field: Field) -> None:
        k, level = self._frames, self.level
        self._frames += 1
        if not (self.window[0] - 1e-9 <= t <= self.window[1] + 1e-9):
            return
        v = field.values
        # signs, not differences: a product of two tiny differences can underflow to 0
        signs = np.sign(v[:-1] - level) * np.sign(v[1:] - level)
        hits = np.nonzero(signs <= 0.0)[0]
        hits = hits[(v[hits] != level) | (v[hits + 1] != level)]
        if len(hits) == 0:
            raise ValueError(f"snapshot {k} (t={t:g}) has no {level:g}-level crossing")
        i = int(hits[-1])
        dx = field.grid.dx
        # equal neighbours both sit at the level, which the filter above drops
        pos = field.grid.x[i] + (level - v[i]) / (v[i + 1] - v[i]) * dx
        if pos < field.grid.xmin + 2.0 * dx or pos > field.grid.xmax - 2.0 * dx:
            raise ValueError(
                f"snapshot {k} (t={t:g}): crossing at x={pos:.4g} is within 2*dx of a boundary"
            )
        self.points.append((t, pos))

    def speed(self) -> float:
        return estimate_wave_speed(self.points)


def estimate_wave_speed(points: Sequence[tuple[float, float]]) -> float:
    """Front speed: least-squares slope of a FrontTrack's (t, position) points."""
    if len(points) < 2:
        raise ValueError("window contains fewer than two usable snapshots")
    times, positions = np.array(points).T
    return float(np.polyfit(times, positions, 1)[0])


# ---------------------------------------------------------------------------
# convergence sweep


def run_convergence_sweep(params: WolbachiaParams, variant: Variant,
                          epsilons: Sequence[float], spec: InitialDataSpec,
                          config: SolverConfig, *,
                          on_frame: Callable[[list[ReducedFields]], None],
                          speed: tuple[tuple[float, float], float] | None = None
                          ) -> tuple[ConvergenceReport, list[tuple[float, Field]]]:
    """Solve the limit equation once, then the system for the whole ladder in
    one stacked run, measuring each frame against the limit as it settles;
    tabulate errors per eps.

    The variant must be perfect or imperfect, and the eps ladder strictly
    decreasing and admissible: a clean assumption audit, and below the cap
    where the slow manifold stays under the carrying total.  Each frame's
    K reduced rungs go to on_frame; the sweep keeps two norms per rung frame
    and, with speed = (window, level), its front crossing.  Returns (report, limit_series).
    """
    epsilons = [float(e) for e in epsilons]
    require_eps_ladder(epsilons)
    models = [ScaledModel(params, eps, variant) for eps in epsilons]
    require_reducible(models[0], "the convergence sweep")
    # no audit verdict depends on eps and the ladder decreases, so the first
    # rung admits them all; the audit, which keeps min Q > 0, goes first
    report = check_assumptions(models[0])
    if not report.passed:
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        raise ValueError(f"eps={epsilons[0]:g}: assumption audit failed ({failed})")
    # the cap 1/(sigma*max h) keeps the slow manifold below the carrying total
    eps_cap = 1.0 / (params.sigma * slow_manifold_max(models[0]))
    if epsilons[0] >= eps_cap:
        raise ValueError(f"eps={epsilons[0]:g} is outside the admissible range (< {eps_cap:.4g})")
    # 2*eps/fu shrinks with eps: the last rung admits the step before either run
    check_reaction_step(models[-1], config.dt)

    labels = ["limit equation", *(f"eps={eps:g}" for eps in epsilons)]
    tracks = [FrontTrack(*speed) if speed else None for _ in labels]

    def follow(k, method, *args):  # a failure names the series; no track fits NaN
        try:
            return getattr(tracks[k], method)(*args) if tracks[k] else math.nan
        except ValueError as exc:
            raise ValueError(f"{labels[k]}: {exc}") from None

    def reference(t, p, _):
        limit_series.append((t, p))
        follow(0, "add", t, p)

    limit_series = []
    try:
        frequency_run(models[0], spec, config, "limit", on_frame=reference)
    except SolverError as exc:  # name the series, as a failing rung does
        exc.args = (f"{labels[0]}: {exc}",)
        raise
    limit_speed = follow(0, "speed")
    norms = [[] for _ in models]  # (t, |p - p0|, |m|) per rung frame

    def measure(frame):
        reduced = [to_reduced(model, state) for model, state in zip(models, frame)]
        limit = limit_series[len(norms[0])]
        for k, (r, rung) in enumerate(zip(reduced, norms), 1):
            rung.append((limit[0], *error_norms(r, limit)))
            follow(k, "add", r.time, r.p)
        on_frame(reduced)

    states = [make_initial_data(model, spec, config.grid)[0] for model in models]
    run_system(models, states, config, on_frame=measure)
    err_p = [l2_spacetime([(t, e) for t, e, _ in rung], config.t_end) for rung in norms]
    err_m = [l2_spacetime([(t, e) for t, _, e in rung], config.t_end) for rung in norms]
    for label, ep, em in zip(labels[1:], err_p, err_m):
        if not (math.isfinite(ep) and math.isfinite(em)):
            raise SolverError(f"error norms err_p={ep:g}, err_m={em:g} are not finite", rung=label)
    speeds = tuple(follow(k, "speed") for k in range(1, len(labels)))
    return ConvergenceReport(epsilons=tuple(epsilons), err_p=tuple(err_p), err_m=tuple(err_m),
                             speeds=speeds, limit_speed=limit_speed), limit_series


# ---------------------------------------------------------------------------
# extinction check


def extinction_check(model: ScaledModel, spec: InitialDataSpec, config: SolverConfig,
                     equation: str = "system") -> Verdict:
    """Qualitative fate of the introduction at t_end.

    Extinct when the frequency peaks below 0.1 everywhere; invaded when it
    exceeds 0.9 across the initial bump support; undecided otherwise.
    """
    last = deque(maxlen=1)
    frequency_run(model, spec, config, equation, on_frame=lambda t, p, _: last.append(p))
    final = last[0].values
    if final.max() < EXTINCT_BELOW:
        return Verdict.EXTINCT
    support = spec.profile(config.grid.x) > 0.0
    if final[support].min() > INVADED_ABOVE:
        return Verdict.INVADED
    return Verdict.UNDECIDED
