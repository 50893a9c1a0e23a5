"""1-D semi-implicit finite differences on a uniform node-centered grid.

Each time step treats the reaction explicitly at the beginning-of-step state
and the diffusion implicitly:

    u* = u + dt * reaction(u)
    (I - dt * L) u_new = u*

where L is the conservative second-order stencil for d/dx (a(x) du/dx) with
arithmetic-mean face diffusivities.  The implicit matrix is tridiagonal,
strictly diagonally dominant, and constant throughout a run, so the system
is assembled once; the hot path solves it with LAPACK's banded solver while
`tridiagonal_solve` provides the plain Thomas elimination for verification
and small systems.

Homogeneous Neumann boundaries (zero flux through the boundary faces) are
the default; they preserve constants and spatially uniform equilibria.  A
Dirichlet mode that pins the boundary values is available for sensitivity
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .model import NEGATIVE_TOL, ScaledModel, Variant, _check_frequency, reaction_rates

__all__ = [
    "Grid1D",
    "Field",
    "PopulationState",
    "BoundaryCondition",
    "SolverConfig",
    "TridiagonalSystem",
    "SolverError",
    "check_reaction_step",
    "assemble_diffusion",
    "tridiagonal_solve",
    "run_system",
    "run_scalar",
    "l2_space",
    "l2_spacetime",
    "gradient_l2",
]


class SolverError(RuntimeError):
    """Time integration failed; carries the offending step index, and the
    message names the offending rung of a run_system call."""

    def __init__(self, message: str, step: int | None = None, rung: str | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        if rung is not None:
            message = f"{rung}: {message}"
        super().__init__(message)
        self.step = step


class _RungError(ValueError):
    """A rejected state of one rung of a stacked run; rung is its label."""

    def __init__(self, rung: str | None, message: str):
        super().__init__(message)
        self.rung = rung


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of nx nodes spanning [xmin, xmax], endpoints included."""

    xmin: float
    xmax: float
    nx: int

    def __post_init__(self):
        if not (math.isfinite(self.xmin) and math.isfinite(self.xmax)):
            raise ValueError("grid bounds must be finite")
        if self.xmax <= self.xmin:
            raise ValueError("xmax must exceed xmin")
        if self.nx < 3:
            raise ValueError("need at least 3 grid nodes")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    @classmethod
    def from_spacing(cls, xmin: float, xmax: float, dx: float) -> "Grid1D":
        """Grid with the requested spacing; dx must tile the domain exactly."""
        if dx <= 0:
            raise ValueError("dx must be positive")
        intervals = (xmax - xmin) / dx
        if not math.isfinite(intervals):
            raise ValueError(f"dx={dx} gives no finite interval count on [{xmin}, {xmax}]")
        n = round(intervals)
        if n < 2 or abs(intervals - n) > 1e-9 * max(1.0, abs(intervals)):
            raise ValueError(f"dx={dx} does not tile [{xmin}, {xmax}] evenly")
        return cls(xmin, xmax, n + 1)


@dataclass(frozen=True)
class Field:
    """One real value per grid node."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.nx,):
            raise ValueError(
                f"field has {values.shape} values for a grid of {self.grid.nx} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: float, grid: Grid1D) -> "Field":
        return cls(np.full(grid.nx, float(value)), grid)


@dataclass(frozen=True)
class PopulationState:
    """Infected and uninfected density fields at one time."""

    ni: Field
    nu: Field
    time: float = 0.0

    def __post_init__(self):
        if self.ni.grid != self.nu.grid:
            raise ValueError("population fields must share one grid")
        low = min(self.ni.values.min(), self.nu.values.min())
        if low < -NEGATIVE_TOL:
            raise ValueError(f"negative density {low:.3e} beyond round-off")

    @property
    def grid(self) -> Grid1D:
        return self.ni.grid


class BoundaryCondition(Enum):
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class SolverConfig:
    """Grid, time step, diffusivity profile, output cadence and boundary.

    diffusivity may be a constant, a callable sampled on the grid nodes, or
    an array of per-node values; it must stay strictly positive.
    """

    grid: Grid1D
    dt: float
    t_end: float
    diffusivity: float | Callable[[np.ndarray], np.ndarray] | Sequence[float] = 0.1
    output_every: int = 200
    bc: BoundaryCondition = BoundaryCondition.NEUMANN

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError("t_end/dt is not a finite step count")
        steps = round(self.t_end / self.dt)
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer number of steps")
        if int(self.output_every) != self.output_every or self.output_every < 1:
            raise ValueError("output_every must be a positive integer")
        a = self.diffusivity_values
        if a.min() <= 0.0:
            raise ValueError("diffusivity must be strictly positive everywhere")

    @cached_property
    def diffusivity_values(self) -> np.ndarray:
        if callable(self.diffusivity):
            a = np.asarray(self.diffusivity(self.grid.x), dtype=float)
        elif np.ndim(self.diffusivity) == 0:
            a = np.full(self.grid.nx, float(self.diffusivity))
        else:
            a = np.asarray(self.diffusivity, dtype=float)
        if a.shape != (self.grid.nx,):
            raise ValueError("diffusivity profile does not match the grid")
        if not np.all(np.isfinite(a)):
            raise ValueError("diffusivity contains non-finite values")
        return a

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class TridiagonalSystem:
    """Tridiagonal linear system; lower/upper have one entry fewer than diag."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        n = len(self.diag)
        if len(self.lower) != n - 1 or len(self.upper) != n - 1 or len(self.rhs) != n:
            raise ValueError("inconsistent tridiagonal band lengths")

    def with_rhs(self, rhs: np.ndarray) -> "TridiagonalSystem":
        return TridiagonalSystem(self.lower, self.diag, self.upper, np.asarray(rhs, dtype=float))

    def is_diagonally_dominant(self) -> bool:
        n = len(self.diag)
        off = np.zeros(n)
        off[:-1] += np.abs(self.upper)
        off[1:] += np.abs(self.lower)
        return bool(np.all(np.abs(self.diag) >= off))

    def dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.upper, 1)
            + np.diag(self.lower, -1)
        )


def assemble_diffusion(config: SolverConfig) -> TridiagonalSystem:
    """Implicit-diffusion matrix I - dt*L as a tridiagonal template (rhs 0).

    Face diffusivities are arithmetic means of the neighbouring nodes.  Under
    Neumann boundaries the ghost faces carry zero flux, so a boundary row is
    1 + r*a_face on the diagonal with a single off-diagonal -r*a_face,
    r = dt/dx^2; row sums of L vanish and constants are invariant.  Under
    Dirichlet boundaries the first and last rows are identity rows and the
    stepper pins their rhs to the pre-step boundary values.
    """
    a = config.diffusivity_values
    nx = config.grid.nx
    r = config.dt / config.grid.dx ** 2
    face = 0.5 * (a[:-1] + a[1:]) * r  # nx-1 faces

    lower = -face.copy()
    upper = -face.copy()
    diag = np.ones(nx)
    diag[:-1] += face
    diag[1:] += face

    if config.bc is BoundaryCondition.DIRICHLET:
        diag[0] = 1.0
        diag[-1] = 1.0
        upper[0] = 0.0
        lower[-1] = 0.0
    return TridiagonalSystem(lower, diag, upper, np.zeros(nx))


def tridiagonal_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve by Thomas forward elimination / back substitution, O(n).

    A vanishing pivot raises SolverError; it cannot occur for diagonally
    dominant assemblies.
    """
    lower, diag, upper, rhs = system.lower, system.diag, system.upper, system.rhs
    n = len(diag)
    scratch = np.empty(n - 1)
    out = np.empty(n)

    pivot = diag[0]
    if pivot == 0.0:
        raise SolverError("zero pivot in tridiagonal elimination at row 0")
    scratch[0] = upper[0] / pivot
    out[0] = rhs[0] / pivot
    for i in range(1, n):
        pivot = diag[i] - lower[i - 1] * scratch[i - 1]
        if pivot == 0.0:
            raise SolverError(f"zero pivot in tridiagonal elimination at row {i}")
        if i < n - 1:
            scratch[i] = upper[i] / pivot
        out[i] = (rhs[i] - lower[i - 1] * out[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        out[i] -= scratch[i] * out[i + 1]
    return out


def _banded(config: SolverConfig) -> np.ndarray:
    """The assembled system as the (3, nx) band array of LAPACK's solver."""
    system = assemble_diffusion(config)
    ab = np.zeros((3, config.grid.nx))
    ab[0, 1:] = system.upper
    ab[1, :] = system.diag
    ab[2, :-1] = system.lower
    return ab


_DENSITY_NAMES = ("infected density", "uninfected density")


def _settle_density(values: np.ndarray, rungs: Sequence[str | None] = (None,)) -> np.ndarray:
    """Reject non-finite densities and negatives beyond NEGATIVE_TOL; clamp
    round-off negatives to zero.

    values stacks one (n_i, n_u) column pair per rung; a rejection names the
    density and carries the label of its rung from rungs.
    """
    finite = np.isfinite(values).all(axis=0)
    lows = values.min(axis=0)
    if not finite.all() or lows.min() < -NEGATIVE_TOL:
        for column, (ok, low) in enumerate(zip(finite, lows)):
            rung, name = rungs[column // 2], _DENSITY_NAMES[column % 2]
            if not ok:
                raise _RungError(rung, f"{name} became non-finite")
            if low < -NEGATIVE_TOL:
                raise _RungError(rung, f"{name} fell to {low:.3e}, beyond round-off")
    if lows.min() < 0.0:
        values = np.where(values < 0.0, 0.0, values)
    return values


def _settle_frequency(values: np.ndarray) -> np.ndarray:
    return np.clip(_check_frequency(values), 0.0, 1.0)


def _integrate(config: SolverConfig, values: np.ndarray,
               rate: Callable[[np.ndarray], np.ndarray],
               settle: Callable[[np.ndarray], np.ndarray]):
    """The time loop shared by every run: yields (step, values) at step 0,
    every output_every steps and the final step.

    values holds one column per field, (nx,) or (nx, k); all columns share
    the one banded solve per step.  A ValueError from rate or settle (a
    rejected state) becomes a SolverError carrying its step, and the rung
    label of a _RungError.
    """
    ab = _banded(config)
    dt, last = config.dt, config.n_steps
    pin = config.bc is BoundaryCondition.DIRICHLET
    yield 0, values
    for step in range(1, last + 1):
        try:
            star = values + dt * rate(values)
            if pin:
                star[[0, -1]] = values[[0, -1]]
            values = settle(solve_banded((1, 1), ab, star, check_finite=False))
        except ValueError as exc:
            raise SolverError(str(exc), step, getattr(exc, "rung", None)) from exc
        if step % config.output_every == 0 or step == last:
            yield step, values


def check_reaction_step(model: ScaledModel, dt: float) -> None:
    """Reject a time step at which the explicit reaction step is unstable.

    Near the slow manifold the reduced population relaxes at the rate
    fu*Q(p)/eps with max Q = Q(0) = 1, so explicit Euler stays stable only
    while dt < 2*eps/fu.  The alternative scaling's logistic factor is O(1)
    and sets no eps-dependent limit.
    """
    if model.variant is Variant.ALTERNATIVE:
        return
    dt_max = 2.0 * model.epsilon / model.params.fu
    if dt >= dt_max:
        raise ValueError(
            f"eps={model.epsilon:g}: dt={dt:g} makes the explicit reaction step unstable; "
            f"dt must stay below 2*eps/fu = {dt_max:.6g}"
        )


def run_system(models: Sequence[ScaledModel], states: Sequence[PopulationState],
               config: SolverConfig) -> list[list[PopulationState]]:
    """Integrate the two-population system of every rung to t_end.

    Rung k is models[k] started from states[k]; all rungs share the grid, the
    clock and the implicit matrix of config, so their (n_i, n_u) column pairs
    advance as one (nx, 2K) stack with one banded solve per step.  Returns
    one series per rung: snapshots at step 0, every output_every steps, and
    the final step, with times measured from the common initial time.  A
    failure names the rung by its eps and the step.
    """
    models, states = list(models), list(states)
    if not models:
        raise ValueError("need at least one rung")
    if len(models) != len(states):
        raise ValueError(f"{len(models)} models for {len(states)} initial states")
    if any(state.grid != config.grid for state in states):
        raise ValueError("initial state lives on a different grid")
    t0 = states[0].time
    if any(state.time != t0 for state in states):
        raise ValueError("rungs must start at one time")
    for model in models:
        check_reaction_step(model, config.dt)
    grid = config.grid
    rungs = [f"eps={model.epsilon:g}" for model in models]

    def rate(values):
        rates = np.empty_like(values)
        for k, model in enumerate(models):
            try:
                rates[:, 2 * k], rates[:, 2 * k + 1] = reaction_rates(
                    model, values[:, 2 * k], values[:, 2 * k + 1])
            except ValueError as exc:
                raise _RungError(rungs[k], str(exc)) from exc
        return rates

    stack = np.column_stack([v for s in states for v in (s.ni.values, s.nu.values)])
    frames = _integrate(config, stack, rate, lambda values: _settle_density(values, rungs))
    series: list[list[PopulationState]] = [[] for _ in models]
    for step, v in frames:
        t = t0 + step * config.dt
        for k, rung_series in enumerate(series):
            rung_series.append(PopulationState(Field(v[:, 2 * k], grid),
                                               Field(v[:, 2 * k + 1], grid), t))
    return series


def run_scalar(reaction: Callable[[np.ndarray], np.ndarray], p0: Field,
               config: SolverConfig) -> list[tuple[float, Field]]:
    """Integrate the scalar frequency equation to t_end; snapshot cadence as
    in run_system.  Returns (time, field) pairs.

    Round-off excursions of p outside [0, 1] (up to FREQUENCY_TOL), p0's
    included, are clamped; larger excursions abort the run.
    """
    if p0.grid != config.grid:
        raise ValueError("initial field lives on a different grid")
    frames = _integrate(config, _settle_frequency(p0.values),
                        lambda values: np.asarray(reaction(values), dtype=float),
                        _settle_frequency)
    return [(step * config.dt, Field(v, config.grid)) for step, v in frames]


# ---------------------------------------------------------------------------
# discrete norms


def l2_space(field: Field) -> float:
    """Composite-trapezoid approximation of the spatial L2 norm."""
    sq = field.values ** 2
    dx = field.grid.dx
    return math.sqrt(dx * (sq.sum() - 0.5 * (sq[0] + sq[-1])))


def gradient_l2(field: Field) -> float:
    """Spatial L2 norm of the finite-difference gradient.

    Informational diagnostic only: gradient norms carry no quantitative
    convergence claim and are never asserted against.
    """
    return l2_space(Field(np.gradient(field.values, field.grid.dx), field.grid))


def l2_spacetime(series: Sequence[tuple[float, Field]], t_end: float) -> float:
    """Rectangle rule in time over squared spatial norms, then sqrt.

    Rectangles take their value at the right endpoint, so the quadrature
    samples (0, t_end]: the initial snapshot anchors the first interval but
    does not contribute its own value.  (With left endpoints, an initial
    layer shorter than the output cadence would freeze the t = 0 norm into
    the result forever.)  The series must hold at least two time-ordered
    snapshots starting at 0 and ending at t_end.
    """
    if len(series) < 2:
        raise ValueError("need at least two snapshots to integrate in time")
    times = np.array([t for t, _ in series], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshot times must be strictly increasing")
    tol = 1e-9 * max(1.0, abs(t_end))
    if abs(times[0]) > tol or abs(times[-1] - t_end) > tol:
        raise ValueError(f"series must cover [0, {t_end}]")
    squares = np.array([l2_space(f) ** 2 for _, f in series])
    return math.sqrt(float(np.sum(np.diff(times) * squares[1:])))
