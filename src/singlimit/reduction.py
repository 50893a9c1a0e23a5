"""Reduced variables and the discrete norms controlled by the scalar limit.

A primitive state (n_i, n_u) maps to

  n   the reduced population: deficit 1/(sigma eps) - (n_i + n_u) for the
      perfect/imperfect variants, eps*sigma*(n_i + n_u) for the alternative
      scaling
  p   the infected frequency, with p = 0 at vacuum nodes
  m   the manifold residual n - h(p), the pointwise distance to the slow
      manifold (undefined for the alternative scaling and left as None)

and the convergence of a family of system runs toward the scalar limit is
measured by space-time L2 norms of p - p0 and of m on a shared grid and
shared output times: error_norms takes one frame's spatial norms, which
l2_spacetime integrates in time.  No interpolation is ever applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NEGATIVE_TOL, ScaledModel, Variant, _check_frequency, _frequency, slow_manifold
from .solver import Field, PopulationState, l2_space

__all__ = ["ReducedFields", "to_reduced", "reduced_to_state", "error_norms"]


@dataclass(frozen=True)
class ReducedFields:
    """Reduced population, frequency and manifold residual at one time."""

    n: Field
    p: Field
    m: Field | None
    time: float

    def __post_init__(self):
        if self.n.grid != self.p.grid or (self.m is not None and self.m.grid != self.n.grid):
            raise ValueError("reduced fields must share one grid")
        _check_frequency(self.p.values)


def to_reduced(model: ScaledModel, state: PopulationState) -> ReducedFields:
    """Map a primitive state to its reduced variables."""
    ni, nu = state.ni.values, state.nu.values
    total = ni + nu
    grid = state.grid

    p_field = Field(np.clip(_frequency(ni, total), 0.0, 1.0), grid)

    if model.variant is Variant.ALTERNATIVE:
        n = model.epsilon * model.params.sigma * total
        m_field = None
    else:
        n = model.carrying_total - total
        m_field = Field(n - slow_manifold(model, p_field.values), grid)
    return ReducedFields(Field(n, grid), p_field, m_field, state.time)


def reduced_to_state(model: ScaledModel, reduced: ReducedFields) -> PopulationState:
    """Exact algebraic inverse of to_reduced (vacuum nodes map to (0, 0))."""
    if model.variant is Variant.ALTERNATIVE:
        total = reduced.n.values / (model.epsilon * model.params.sigma)
    else:
        total = model.carrying_total - reduced.n.values
    if total.min() < -NEGATIVE_TOL:
        raise ValueError("reduced population exceeds the carrying total")
    total = np.maximum(total, 0.0)
    ni = reduced.p.values * total
    grid = reduced.n.grid
    return PopulationState(Field(ni, grid), Field(total - ni, grid), reduced.time)


def error_norms(reduced: ReducedFields, limit: tuple[float, Field]) -> tuple[float, float]:
    """Spatial L2 norms (|p - p0|, |m|) of one system frame against the
    limit frame limit = (t, p0) at the same output time.

    The frame and the limit must share the identical grid and time;
    mismatches are rejected rather than interpolated.
    """
    t_lim, p_lim = limit
    if reduced.n.grid != p_lim.grid:
        raise ValueError("grids differ; no interpolation permitted")
    if abs(reduced.time - t_lim) > 1e-9 * max(1.0, abs(t_lim)):
        raise ValueError(
            f"output times differ ({reduced.time} vs {t_lim}); no interpolation permitted"
        )
    if reduced.m is None:
        raise ValueError("manifold residual undefined for this model variant")
    return l2_space(Field(reduced.p.values - p_lim.values, p_lim.grid)), l2_space(reduced.m)
