"""1-D semi-implicit finite differences on a uniform node-centered grid.

Each time step treats the reaction explicitly at the beginning-of-step state
and the diffusion implicitly:

    u* = u + dt * reaction(u)
    (I - dt * L) u_new = u*

where L is the conservative second-order stencil for d/dx (a(x) du/dx) with
arithmetic-mean face diffusivities.  The implicit matrix is tridiagonal,
strictly diagonally dominant, and constant throughout a run, so it is
assembled and LDL^T-factored once per run (LAPACK's dpttrf) and each step only
solves with the factors (dpttrs), every field of the run as one column of a
single Fortran-ordered right-hand side, which dpttrs overwrites with the
solution.  A system run of K rungs keeps its densities as one (nx, 2K) block
[n_i of every rung | n_u of every rung], and each step writes u* into a
fresh block of that layout.  Under Dirichlet boundaries the couplings of the
two pinned rows are folded into the right-hand side first, which leaves a
symmetric positive-definite matrix.

dpttrf and dpttrs are the f2py wrappers of scipy's `linalg/_flapack`
extension, loaded from that file without running `scipy.linalg`'s package
init.  That init costs about 0.36 s of start-up: `singlimit converge --out DIR
--show-config` takes 0.28 s without it and 0.64 s with it (medians on a
shared 2-core machine).

Homogeneous Neumann boundaries (zero flux through the boundary faces) are
the default; they preserve constants and spatially uniform equilibria.  A
Dirichlet mode that pins the boundary values is available for sensitivity
checks.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .model import (NEGATIVE_TOL, FieldError, ScaledModel, Variant, _frequency_range,
                    reaction_rates, require)

__all__ = [
    "Grid1D",
    "Field",
    "PopulationState",
    "BoundaryCondition",
    "SolverConfig",
    "SolverError",
    "MAX_NODES",
    "MAX_STEPS",
    "check_reaction_step",
    "assemble_diffusion",
    "run_system",
    "run_scalar",
    "l2_space",
    "l2_spacetime",
    "gradient_l2",
]


def _load_flapack():
    """scipy's `linalg/_flapack` extension module, executed without importing
    the scipy or scipy.linalg packages; find_spec("scipy") imports nothing."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    where = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", where)
    if spec is None:
        looked = " or ".join(os.path.join(d, "_flapack.*") for d in where)
        raise ImportError(f"scipy's LAPACK extension not found: no {looked}",
                          name="scipy.linalg._flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs


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


# Largest grid the solver accepts: a few float arrays of this length stay in
# the hundreds of MB, and a finer grid is a typo, not an experiment.
MAX_NODES = 10 ** 7
# Longest run the solver accepts: over 60 times the 160 000 steps of a
# front-speed run to t = 400 at dt = 0.0025; more steps are a dt typo that
# would run for days.
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of nx nodes spanning [xmin, xmax], endpoints included."""

    xmin: float
    xmax: float
    nx: int

    def __post_init__(self):
        self._check_bounds(self.xmin, self.xmax)
        require(self.nx >= 3, "nx", "need at least 3 grid nodes")
        require(self.nx <= MAX_NODES, "nx",
                f"{self.nx:.3g} grid nodes exceed the limit of {MAX_NODES:.0e}")

    @staticmethod
    def _check_bounds(xmin: float, xmax: float) -> None:
        require(math.isfinite(xmin), "xmin", "xmin must be finite")
        require(math.isfinite(xmax), "xmax", "xmax must be finite")
        require(xmax > xmin, "xmax", "xmax must exceed xmin")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    @classmethod
    def from_spacing(cls, xmin: float, xmax: float, dx: float) -> "Grid1D":
        """Grid with the requested spacing; dx must tile the domain exactly.
        A rejected node count is reported for dx, which sets it."""
        cls._check_bounds(xmin, xmax)
        require(dx > 0, "dx", "dx must be positive")
        intervals = (xmax - xmin) / dx
        require(math.isfinite(intervals), "dx",
                f"dx={dx} gives no finite interval count on [{xmin}, {xmax}]")
        n = round(intervals)
        require(abs(intervals - n) <= 1e-9 * max(1.0, intervals), "dx",
                f"dx={dx} does not tile [{xmin}, {xmax}] evenly")
        try:
            return cls(xmin, xmax, n + 1)
        except FieldError as exc:
            raise FieldError("dx", str(exc)) from None


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

    diffusivity is a constant or a sequence of per-node values (a config's
    tabulated profile arrives as a tuple of floats); it must stay strictly
    positive.
    """

    grid: Grid1D
    dt: float
    t_end: float
    diffusivity: float | Sequence[float] = 0.1
    output_every: int = 200
    bc: BoundaryCondition = BoundaryCondition.NEUMANN

    def __post_init__(self):
        require(math.isfinite(self.dt) and self.dt > 0, "dt", "dt must be positive")
        require(self.t_end >= self.dt, "t_end", "t_end must cover at least one step")
        require(math.isfinite(self.t_end / self.dt), "dt", "t_end/dt is not a finite step count")
        steps = round(self.t_end / self.dt)
        require(steps <= MAX_STEPS, "dt",
                f"t_end/dt = {steps} steps exceed the limit of {MAX_STEPS}")
        require(abs(steps * self.dt - self.t_end) <= 1e-9 * max(1.0, self.t_end), "dt",
                "t_end must be an integer number of steps")
        require(float(self.output_every).is_integer() and self.output_every >= 1,
                "output_every", "output_every must be a positive integer")
        require(self.diffusivity_values.min() > 0.0, "diffusivity",
                "diffusivity must be strictly positive everywhere")

    @cached_property
    def diffusivity_values(self) -> np.ndarray:
        if np.ndim(self.diffusivity) == 0:
            a = np.full(self.grid.nx, float(self.diffusivity))
        else:
            a = np.asarray(self.diffusivity, dtype=float)
        require(a.shape == (self.grid.nx,), "diffusivity",
                "diffusivity profile does not match the grid")
        require(np.all(np.isfinite(a)), "diffusivity", "diffusivity contains non-finite values")
        return a

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def n_frames(self) -> int:
        """Frames a run hands over: step 0, every output_every steps and the
        final step."""
        return -(-self.n_steps // int(self.output_every)) + 1


def assemble_diffusion(config: SolverConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Implicit-diffusion matrix I - dt*L as its bands (lower, diag, upper);
    lower and upper have nx-1 entries.

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

    lower = -face
    upper = -face
    diag = np.ones(nx)
    diag[:-1] += face
    diag[1:] += face

    if config.bc is BoundaryCondition.DIRICHLET:
        diag[0] = 1.0
        diag[-1] = 1.0
        upper[0] = 0.0
        lower[-1] = 0.0
    return lower, diag, upper


def _factor(config: SolverConfig) -> tuple[np.ndarray, np.ndarray, float, float]:
    """LDL^T factors (d, e) of the assembled I - dt*L, as LAPACK's dpttrf
    returns them, and the couplings (c0, c1) of rows 1 and nx-2 to the
    boundary values.

    The Neumann assembly is symmetric and its couplings are 0.  Under
    Dirichlet boundaries rows 0 and nx-1 are identity rows, so x there equals
    the rhs; moving their couplings into the rhs of rows 1 and nx-2 leaves a
    symmetric positive-definite matrix with the same solution.
    """
    lower, diag, upper = assemble_diffusion(config)
    c0 = c1 = 0.0
    if config.bc is BoundaryCondition.DIRICHLET:
        c0, c1 = -lower[0], -upper[-1]
        upper[-1] = 0.0
    d, e, info = dpttrf(diag, upper)
    if info != 0:
        raise SolverError(f"implicit diffusion matrix could not be factored (dpttrf info {info})")
    return d, e, c0, c1


def solve_banded(factors: tuple[np.ndarray, np.ndarray, float, float],
                 rhs: np.ndarray) -> np.ndarray:
    """The per-step solve layer: x with (I - dt*L) x = rhs for the assembled
    matrix, by LAPACK's dpttrs on the factors from _factor, for (nx,) or
    (nx, k) rhs.  rhs is overwritten: by the boundary fold under Dirichlet
    boundaries, and with x when it is Fortran-ordered."""
    d, e, c0, c1 = factors
    if c0 or c1:
        # zero under Neumann; skipping the fold there keeps a -0.0 rhs entry
        rhs[1] += c0 * rhs[0]
        rhs[-2] += c1 * rhs[-1]
    return dpttrs(d, e, rhs, overwrite_b=1)[0]


_DENSITY_NAMES = ("infected density", "uninfected density")


def _settle_density(values: np.ndarray, rungs: Sequence[str | None] = (None,)) -> np.ndarray:
    """Reject non-finite densities and negatives beyond NEGATIVE_TOL; clamp
    round-off negatives to zero in place.

    values is the (nx, 2K) block [n_i of every rung | n_u of every rung] for
    the K labels in rungs: column c holds density c // K of rung c % K.  One
    min carries NaN and -inf, one max carries +inf; only a rejection goes
    back over the columns to name the density and the rung, in rung order.
    """
    low = values.min()
    if not (low >= -NEGATIVE_TOL and values.max() < math.inf):
        lows, finite = values.min(axis=0), np.isfinite(values).all(axis=0)
        k = len(rungs)
        for j, rung in enumerate(rungs):
            for column in (j, j + k):
                name = _DENSITY_NAMES[column // k]
                if not finite[column]:
                    raise _RungError(rung, f"{name} became non-finite")
                if lows[column] < -NEGATIVE_TOL:
                    raise _RungError(rung, f"{name} fell to {lows[column]:.3e}, beyond round-off")
    if low < 0.0:
        np.copyto(values, 0.0, where=values < 0.0)
    return values


def _settle_frequency(values: np.ndarray) -> np.ndarray:
    """Reject frequencies beyond round-off of [0, 1]; clamp the rest."""
    low, high = _frequency_range(values)
    if low < 0.0 or high > 1.0:
        values = np.clip(values, 0.0, 1.0)
    return values


def _integrate(config: SolverConfig, values: np.ndarray,
               explicit_step: Callable[[np.ndarray], np.ndarray],
               settle: Callable[[np.ndarray], np.ndarray]):
    """The time loop shared by every run: yields (step, values) at step 0,
    every output_every steps and the final step.

    values holds one column per field, (nx,) or (nx, k); explicit_step maps
    them to the right-hand side u + dt*reaction(u) as a fresh array, which
    the solve overwrites with the new values.  The matrix is factored once
    and all columns share the one solve per step.  A ValueError from
    explicit_step or settle (a rejected state) becomes a SolverError
    carrying its step, and the rung label of a _RungError.
    """
    factors = _factor(config)
    last = config.n_steps
    pin = config.bc is BoundaryCondition.DIRICHLET
    yield 0, values
    for step in range(1, last + 1):
        try:
            rhs = explicit_step(values)
            if pin:
                rhs[[0, -1]] = values[[0, -1]]
            values = settle(solve_banded(factors, rhs))
        except ValueError as exc:
            raise SolverError(str(exc), step, getattr(exc, "rung", None)) from exc
        if step % config.output_every == 0 or step == last:
            yield step, values


def check_reaction_step(model: ScaledModel, dt: float) -> None:
    """Reject a time step at which the explicit reaction step is unstable.

    Near the slow manifold the reduced population relaxes at the rate
    fu*Q(p)/eps with max Q = Q(0) = 1, so explicit Euler stays stable only
    while dt < 2*eps/fu.  The alternative scaling's logistic factor is O(1):
    linearised at its resident state the total relaxes at the rate fu - du,
    whatever eps, so there dt must stay below 2/(fu - du); with fu <= du
    there is no resident state and no bound.
    """
    prm = model.params
    if model.variant is not Variant.ALTERNATIVE:
        dt_max, bound = 2.0 * model.epsilon / prm.fu, "2*eps/fu"
    elif prm.fu > prm.du:
        dt_max, bound = 2.0 / (prm.fu - prm.du), "2/(fu - du)"
    else:
        return
    if dt >= dt_max:
        raise ValueError(
            f"eps={model.epsilon:g}: dt={dt:g} makes the explicit reaction step unstable; "
            f"dt must stay below {bound} = {dt_max:.6g}"
        )


def run_system(models: Sequence[ScaledModel], states: Sequence[PopulationState],
               config: SolverConfig, *,
               on_frame: Callable[[list[PopulationState]], None]) -> None:
    """Integrate the two-population system of every rung to t_end.

    Rung k is models[k] started from states[k]; all rungs share the grid, the
    clock and the implicit matrix of config, so the K rungs advance as one
    Fortran-ordered (nx, 2K) block [n_i of every rung | n_u of every rung]
    with one kinetics call and one solve per step; the rungs must therefore
    differ in eps only.  Each step writes dt*rate_i and dt*rate_u straight
    into the two halves of a fresh right-hand side and adds the densities.
    At step 0, every output_every steps and the final step, on_frame receives
    the list of the K rung states as soon as that step settles, with times
    measured from the common initial time; the run keeps none of them.  A
    failure names the rung by its eps and the step.
    """
    if not models:
        raise ValueError("need at least one rung")
    if len(models) != len(states):
        raise ValueError(f"{len(models)} models for {len(states)} initial states")
    if any(state.grid != config.grid for state in states):
        raise ValueError("initial state lives on a different grid")
    t0 = states[0].time
    if any(state.time != t0 for state in states):
        raise ValueError("rungs must start at one time")
    first = models[0]
    if any(m.params != first.params or m.variant is not first.variant for m in models):
        raise ValueError("rungs must share one parameter set and variant")
    for model in models:
        check_reaction_step(model, config.dt)
    grid, dt, k = config.grid, config.dt, len(models)
    rungs = [f"eps={model.epsilon:g}" for model in models]
    eps_row = np.array([model.epsilon for model in models])

    def explicit_step(values):
        rate_i, rate_u = reaction_rates(first, values[:, :k], values[:, k:], eps_row)
        rhs = np.empty_like(values)
        np.multiply(dt, rate_i, out=rhs[:, :k])
        np.multiply(dt, rate_u, out=rhs[:, k:])
        rhs += values
        return rhs

    block = np.array([s.ni.values for s in states] + [s.nu.values for s in states]).T
    for step, v in _integrate(config, block, explicit_step,
                              lambda values: _settle_density(values, rungs)):
        on_frame([PopulationState(Field(v[:, j], grid), Field(v[:, k + j], grid),
                                  t0 + step * dt) for j in range(k)])


def run_scalar(reaction: Callable[[np.ndarray], np.ndarray], p0: Field,
               config: SolverConfig, *,
               on_frame: Callable[[tuple[float, Field]], None]) -> None:
    """Integrate the scalar frequency equation to t_end, handing each
    (time, field) pair to on_frame as soon as its step settles, at the
    cadence of run_system.

    Round-off excursions of p outside [0, 1] (up to FREQUENCY_TOL), p0's
    included, are clamped; larger excursions abort the run.
    """
    if p0.grid != config.grid:
        raise ValueError("initial field lives on a different grid")
    dt = config.dt
    for step, v in _integrate(config, _settle_frequency(p0.values),
                              lambda values: values + dt * reaction(values),
                              _settle_frequency):
        on_frame((step * dt, Field(v, config.grid)))


# ---------------------------------------------------------------------------
# discrete norms


@np.errstate(over="ignore", invalid="ignore")
def l2_space(field: Field) -> float:
    """Composite-trapezoid approximation of the spatial L2 norm.  A field too
    large to square gives inf or nan, without a warning: callers that need a
    finite norm check for one."""
    sq = field.values ** 2
    dx = field.grid.dx
    return math.sqrt(dx * (sq.sum() - 0.5 * (sq[0] + sq[-1])))


def gradient_l2(field: Field) -> float:
    """Spatial L2 norm of the finite-difference gradient.

    Informational diagnostic only: gradient norms carry no quantitative
    convergence claim and are never asserted against.
    """
    return l2_space(Field(np.gradient(field.values, field.grid.dx), field.grid))


def l2_spacetime(series: Sequence[tuple[float, float]], t_end: float) -> float:
    """Rectangle rule in time over squared spatial norms, then sqrt.

    The series holds one (time, spatial L2 norm) pair per snapshot.
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
    squares = np.array([norm ** 2 for _, norm in series])
    return math.sqrt(float(np.sum(np.diff(times) * squares[1:])))
