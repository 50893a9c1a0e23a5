"""Kinetics of the two-population Wolbachia models and their scalar reduction.

Three variants of the same Lotka-Volterra competition kinetics are supported,
all built from one parameter record:

  perfect      dn_i/dt = (1-s_f) F_u n_i (1/eps - sigma (n_i+n_u)) - delta d_u n_i
               dn_u/dt = F_u n_u (1 - s_h p) (1/eps - sigma (n_i+n_u)) - d_u n_u
  imperfect    same, with maternal leakage mu routing a fraction of infected
               births to the uninfected pool, and the logistic factor clipped
               at zero:  (1/eps - sigma (n_i+n_u))_+
  alternative  logistic factor (1 - eps sigma (n_i+n_u)); carrying capacity
               grows like 1/eps while per-capita growth stays O(1)

with p = n_i/(n_i+n_u) the infected frequency (p = 0 at vacuum).

For the perfect/imperfect variants the reduced population deficit
n = 1/(sigma eps) - (n_i+n_u) relaxes onto a slow manifold n = h(p), the
unique positive root of the drift

  reduced_drift(n, p) = -sigma F_u n Q(p) + d_u ((delta-1) p + 1),
  Q(p) = (s_h + mu(1-s_f)) p^2 - (s_f + s_h + mu(1-s_f)) p + 1,

and the frequency then obeys a closed bistable equation with reaction
limit_reaction(p).  Everything here is closed-form algebra on immutable
parameter records; rates are per day, densities dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Variant",
    "WolbachiaParams",
    "ScaledModel",
    "EquilibriumKind",
    "Stability",
    "Equilibrium",
    "StabilityResult",
    "AssumptionCheck",
    "AssumptionReport",
    "BistabilityError",
    "reaction_rates",
    "reduced_drift",
    "slow_manifold",
    "slow_manifold_max",
    "drift_slope_bound",
    "limit_reaction",
    "invasion_threshold",
    "invasion_frequency",
    "equilibria",
    "classify_stability",
    "check_assumptions",
]

# Densities this far below zero, and frequencies this far outside [0, 1], are
# treated as round-off; anything worse is rejected as data corruption.
NEGATIVE_TOL = 1e-12
FREQUENCY_TOL = 1e-12


class Variant(Enum):
    """Which of the three competition kinetics is simulated."""

    PERFECT = "perfect"
    IMPERFECT = "imperfect"
    ALTERNATIVE = "alternative"


class BistabilityError(ValueError):
    """The parameter set does not produce a bistable limit reaction."""


@dataclass(frozen=True)
class WolbachiaParams:
    """Biological parameters shared by every model variant.

    fu     uninfected fecundity (1/day)
    du     uninfected death rate (1/day); infected rate is delta*du
    delta  death-rate ratio infected/uninfected, >= 1
    sf     fecundity reduction for infected hosts, in [0, 1]
    sh     cytoplasmic-incompatibility intensity, in (0, 1]
    sigma  competition/resource parameter, > 0
    mu     maternal transmission leakage, in [0, 1)

    The theory additionally needs sf < sh; that ordering is enforced by the
    config layer and audited by check_assumptions, so records violating it
    can still be constructed for diagnostic probing.
    """

    fu: float
    du: float
    delta: float
    sf: float
    sh: float
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        vals = (self.fu, self.du, self.delta, self.sf, self.sh, self.sigma, self.mu)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("non-finite model parameter")
        if self.fu <= 0 or self.du <= 0:
            raise ValueError("fu and du must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if not 0 <= self.sf <= 1:
            raise ValueError("sf must lie in [0, 1]")
        if not 0 < self.sh <= 1:
            raise ValueError("sh must lie in (0, 1]")
        if not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")


@dataclass(frozen=True)
class ScaledModel:
    """A parameter record together with the population scaling eps."""

    params: WolbachiaParams
    epsilon: float
    variant: Variant = Variant.PERFECT

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if self.variant is not Variant.IMPERFECT and self.params.mu != 0.0:
            raise ValueError(f"variant {self.variant.value!r} forces mu = 0")

    @property
    def mu(self) -> float:
        return self.params.mu if self.variant is Variant.IMPERFECT else 0.0

    @property
    def clipped(self) -> bool:
        """Whether the logistic factor is clipped at zero: only the imperfect
        variant's printed form clips it."""
        return self.variant is Variant.IMPERFECT

    @property
    def carrying_total(self) -> float:
        """Total density at which the logistic factor vanishes."""
        return 1.0 / (self.params.sigma * self.epsilon)


class EquilibriumKind(Enum):
    INVASION = "invasion"
    EXTINCTION = "extinction"
    COEXISTENCE = "coexistence"
    ORIGIN = "origin"


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class Equilibrium:
    """A spatially homogeneous steady state of the kinetics."""

    ni: float
    nu: float
    kind: EquilibriumKind
    stability: Stability

    def __post_init__(self):
        if self.ni < 0 or self.nu < 0:
            raise ValueError("equilibrium densities must be non-negative")
        if self.kind is EquilibriumKind.ORIGIN and (self.ni != 0 or self.nu != 0):
            raise ValueError("origin equilibrium must sit at (0, 0)")


@dataclass(frozen=True)
class StabilityResult:
    stability: Stability
    marginal: bool
    eigenvalues: tuple[complex, complex]


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    margin: float
    location: tuple[float, float] | None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# ---------------------------------------------------------------------------
# kinetics


def _frequency(ni, nu):
    """Infected frequency n_i/(n_i+n_u) with p = 0 wherever the total is 0."""
    total = ni + nu
    safe = np.where(total != 0.0, total, 1.0)
    return np.where(total != 0.0, ni / safe, 0.0)


def _kinetics(model: ScaledModel, ni, nu):
    """Reaction right-hand sides without any input validation.

    Accepts scalars or arrays; also evaluable at slightly negative densities
    so finite-difference Jacobians can probe across the axes.
    """
    prm = model.params
    total = ni + nu
    p = _frequency(ni, nu)
    if model.variant is Variant.ALTERNATIVE:
        logistic = 1.0 - model.epsilon * prm.sigma * total
    else:
        logistic = 1.0 / model.epsilon - prm.sigma * total
    if model.clipped:
        logistic = np.maximum(logistic, 0.0)
    mu = model.mu
    births_i = (1.0 - mu) * (1.0 - prm.sf) * prm.fu * ni
    births_u = prm.fu * (nu * (1.0 - prm.sh * p) + mu * (1.0 - prm.sf) * ni * p)
    rate_i = births_i * logistic - prm.delta * prm.du * ni
    rate_u = births_u * logistic - prm.du * nu
    return rate_i, rate_u


def reaction_rates(model: ScaledModel, ni, nu):
    """Reaction terms (no diffusion) of the selected variant.

    Vectorized over matching array arguments.  Densities below -1e-12 or
    non-finite inputs are rejected; (0, 0) maps to (0, 0), there is no
    spontaneous generation.
    """
    ni = np.asarray(ni, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not (np.all(np.isfinite(ni)) and np.all(np.isfinite(nu))):
        raise ValueError("non-finite density")
    if ni.min() < -NEGATIVE_TOL or nu.min() < -NEGATIVE_TOL:
        raise ValueError("negative density")
    rate_i, rate_u = _kinetics(model, ni, nu)
    if ni.ndim == 0:
        return float(rate_i), float(rate_u)
    return rate_i, rate_u


# ---------------------------------------------------------------------------
# reduced objects: drift, slow manifold, limit reaction


def _require_reducible(model: ScaledModel, what: str):
    if model.variant is Variant.ALTERNATIVE:
        raise ValueError(
            f"{what} is not defined for the alternative scaling: its reduced "
            "system keeps two coupled equations for every eps"
        )


def _quadratic_coeffs(model: ScaledModel) -> tuple[float, float]:
    """Coefficients (a, b) of Q(p) = a p^2 - b p + 1 in the drift."""
    prm = model.params
    m = model.mu * (1.0 - prm.sf)
    return prm.sh + m, prm.sf + prm.sh + m


def _denominator(model: ScaledModel, p):
    a, b = _quadratic_coeffs(model)
    return a * p * p - b * p + 1.0


def _check_frequency(p):
    """p as a float array; rejects NaN and excursions outside [0, 1] beyond
    FREQUENCY_TOL."""
    p = np.asarray(p, dtype=float)
    low, high = p.min(), p.max()
    if not (low >= -FREQUENCY_TOL and high <= 1.0 + FREQUENCY_TOL):
        raise ValueError(
            f"frequency left [0, 1] by more than round-off: [{low:.6e}, {high:.6e}]"
        )
    return p


def reduced_drift(model: ScaledModel, n, p):
    """Drift of the reduced population deficit at frequency p.

    Positive below the slow manifold, negative above it; vanishes exactly at
    n = slow_manifold(p).  n may be negative (the expression is polynomial),
    but p must lie in [0, 1].
    """
    _require_reducible(model, "reduced_drift")
    p = _check_frequency(p)
    prm = model.params
    value = -prm.sigma * prm.fu * np.asarray(n, dtype=float) * _denominator(model, p) \
        + prm.du * ((prm.delta - 1.0) * p + 1.0)
    return float(value) if value.ndim == 0 else value


def slow_manifold(model: ScaledModel, p):
    """Unique positive root n = h(p) of the reduced drift."""
    _require_reducible(model, "slow_manifold")
    p = _check_frequency(p)
    prm = model.params
    value = prm.du * ((prm.delta - 1.0) * p + 1.0) / (prm.sigma * prm.fu * _denominator(model, p))
    return float(value) if value.ndim == 0 else value


def slow_manifold_max(model: ScaledModel, samples: int = 2001) -> float:
    """max over [0, 1] of the slow manifold, by dense sampling."""
    return float(np.max(slow_manifold(model, np.linspace(0.0, 1.0, samples))))


def drift_slope_bound(model: ScaledModel) -> float:
    """Uniform relaxation rate B with d(drift)/dn <= -B < 0 for p in [0, 1].

    Equals sigma*fu times the minimum over [0, 1] of Q(p), attained at the
    vertex of Q; requires sf < sh so that the bound is positive.
    """
    _require_reducible(model, "drift_slope_bound")
    prm = model.params
    if prm.sf >= prm.sh:
        raise ValueError(
            f"drift slope bound needs sf < sh (got sf={prm.sf}, sh={prm.sh})"
        )
    a, b = _quadratic_coeffs(model)
    bound = prm.sigma * prm.fu * (1.0 - b * b / (4.0 * a))
    if bound <= 0.0:
        raise ValueError("drift slope bound is not positive for these parameters")
    return bound


def _theta_formula(model: ScaledModel) -> float:
    prm = model.params
    return (prm.sf + prm.delta - 1.0) / (prm.delta * prm.sh)


def limit_reaction(model: ScaledModel, p):
    """Reaction term of the closed scalar frequency equation.

    For mu = 0 this is the bistable cubic-over-quadratic
        delta du sh p (1-p) (p - theta) / Q(p),
    which vanishes exactly at p = 0, theta, 1.  For mu > 0 the leaked births
    shift the stable high state below 1:
        du p ( (1-mu)(1-sf) ((delta-1)p + 1) / Q(p) - delta ).
    Both forms equal p * F1(h(p), p), the per-capita growth of the infected
    pool evaluated on the slow manifold.
    """
    _require_reducible(model, "limit_reaction")
    p = _check_frequency(p)
    prm = model.params
    den = _denominator(model, p)
    if model.mu == 0.0:
        theta = _theta_formula(model)
        value = prm.delta * prm.du * prm.sh * p * (1.0 - p) * (p - theta) / den
    else:
        value = prm.du * p * (
            (1.0 - prm.mu) * (1.0 - prm.sf) * ((prm.delta - 1.0) * p + 1.0) / den
            - prm.delta
        )
    return float(value) if value.ndim == 0 else value


def _growth_balance(model: ScaledModel, p: float) -> float:
    """Sign factor of limit_reaction/p: positive strictly between its roots."""
    prm = model.params
    return (1.0 - model.mu) * (1.0 - prm.sf) * ((prm.delta - 1.0) * p + 1.0) \
        - prm.delta * _denominator(model, p)


def _bisect(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _bistable_roots(model: ScaledModel) -> tuple[float, float]:
    """Interior roots (threshold, stable high state) of the limit reaction.

    mu = 0: closed forms (theta, 1).  mu > 0: bisection to 1e-12 on the
    growth balance, whose concave quadratic is positive strictly between the
    two roots.
    """
    _require_reducible(model, "bistable roots")
    prm = model.params
    if model.mu == 0.0:
        theta = _theta_formula(model)
        if not 0.0 < theta < 1.0:
            raise BistabilityError(
                f"bistability needs sf + delta - 1 < delta*sh; threshold {theta:.6g} "
                "is outside (0, 1)"
            )
        return theta, 1.0
    a, _ = _quadratic_coeffs(model)
    vertex_num = prm.delta * (prm.sf + prm.sh) + (prm.delta - 1.0 + prm.mu) * (1.0 - prm.sf)
    vertex = vertex_num / (2.0 * prm.delta * a)
    if not 0.0 < vertex < 1.0 or _growth_balance(model, vertex) <= 0.0:
        raise BistabilityError("limit reaction has no interior sign change")
    theta = _bisect(lambda p: _growth_balance(model, p), 0.0, vertex)
    p_high = _bisect(lambda p: -_growth_balance(model, p), vertex, 1.0)
    return theta, p_high


def invasion_threshold(model: ScaledModel) -> float:
    """Unstable interior root of the limit reaction: frequencies below it
    die out, above it invade."""
    return _bistable_roots(model)[0]


def invasion_frequency(model: ScaledModel) -> float:
    """Stable high frequency reached after invasion (1 when mu = 0)."""
    return _bistable_roots(model)[1]


# ---------------------------------------------------------------------------
# equilibria and their stability


def equilibria(model: ScaledModel) -> list[Equilibrium]:
    """The four non-negative steady states, with stability labels.

    Reported in the order extinction, invasion, coexistence, origin.  Raises
    BistabilityError when the interior structure degenerates (threshold
    outside (0,1) or the leaked-transmission quadratic loses its roots) and
    ValueError when eps is so large that a steady state would leave the
    non-negative quadrant.
    """
    _require_reducible(model, "equilibria")
    prm = model.params
    theta, p_high = _bistable_roots(model)
    total_cap = model.carrying_total

    # both interior states sit at the density where infected growth stalls;
    # for mu = 0 this is h(1) = h(theta), and p_high = 1
    n_star = prm.delta * prm.du / (prm.sigma * prm.fu * (1.0 - prm.mu) * (1.0 - prm.sf))
    inv_total = total_cap - n_star
    coords = [
        (0.0, total_cap - slow_manifold(model, 0.0), EquilibriumKind.EXTINCTION),
        (p_high * inv_total, (1.0 - p_high) * inv_total, EquilibriumKind.INVASION),
        (theta * inv_total, (1.0 - theta) * inv_total, EquilibriumKind.COEXISTENCE),
        (0.0, 0.0, EquilibriumKind.ORIGIN),
    ]

    out = []
    for ni, nu, kind in coords:
        if ni < 0.0 or nu < 0.0:
            raise ValueError(
                f"{kind.value} steady state leaves the non-negative quadrant at "
                f"eps={model.epsilon:g}; fewer equilibria exist"
            )
        result = classify_stability(model, (ni, nu))
        out.append(Equilibrium(ni, nu, kind, result.stability))
    return out


MARGINAL_EIGENVALUE = 1e-8


def classify_stability(model: ScaledModel, point) -> StabilityResult:
    """Linear stability of a kinetic steady state.

    The 2x2 Jacobian is taken by central finite differences with step
    1e-6 * max(1, |n_i|+|n_u|); stable means both eigenvalues have real part
    below -1e-8, and eigenvalues inside the +-1e-8 band are reported as
    unstable with the marginal flag set.  Points that do not zero the
    kinetics (to 1e-8 relative to the density scale) are rejected.
    """
    if isinstance(point, Equilibrium):
        ni, nu = point.ni, point.nu
    else:
        ni, nu = float(point[0]), float(point[1])
    scale = max(1.0, ni + nu)
    rate_i, rate_u = _kinetics(model, ni, nu)
    if max(abs(rate_i), abs(rate_u)) > 1e-8 * scale:
        raise ValueError(
            f"({ni:g}, {nu:g}) is not an equilibrium: rates "
            f"({rate_i:.3e}, {rate_u:.3e})"
        )
    step = 1e-6 * scale
    jac = np.empty((2, 2))
    for col, (di, du_) in enumerate(((step, 0.0), (0.0, step))):
        fp = _kinetics(model, ni + di, nu + du_)
        fm = _kinetics(model, ni - di, nu - du_)
        jac[0, col] = (fp[0] - fm[0]) / (2.0 * step)
        jac[1, col] = (fp[1] - fm[1]) / (2.0 * step)
    eigs = np.linalg.eigvals(jac)
    real = np.real(eigs)
    marginal = bool(np.any(np.abs(real) < MARGINAL_EIGENVALUE))
    stable = bool(np.all(real < -MARGINAL_EIGENVALUE))
    label = Stability.STABLE if stable else Stability.UNSTABLE
    return StabilityResult(label, marginal, (complex(eigs[0]), complex(eigs[1])))


# ---------------------------------------------------------------------------
# assumption audit


def check_assumptions(model: ScaledModel, samples: int = 100) -> AssumptionReport:
    """Audit the structural conditions behind the scalar reduction.

    Samples the triangle {n_1 + n_2 <= carrying total, n_i >= 0} (origin
    excluded) on a uniform barycentric grid with `samples` points per axis
    and reports four checks:

      drift_slope   d(drift)/dn <= -B on the triangle, B from
                    drift_slope_bound; the margin is the largest sampled
                    slope (must stay <= -B)
      hypotenuse    n_i f_i + n_u f_u < 0 where the total sits at carrying
                    capacity (margin: largest sampled value)
      vacuum_drift  drift(0, p) > 0 on 101 frequencies (margin: smallest)
      bistable      the limit reaction has its threshold inside (0, 1)

    Failures are report entries, never exceptions.
    """
    _require_reducible(model, "check_assumptions")
    if samples < 10:
        raise ValueError("need at least 10 samples per axis")
    prm = model.params
    cap = model.carrying_total
    checks = []

    # barycentric grid, origin excluded
    idx = np.arange(samples + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    keep = (ii + jj <= samples) & (ii + jj > 0)
    n1 = ii[keep] * (cap / samples)
    n2 = jj[keep] * (cap / samples)
    p = _frequency(n1, n2)

    try:
        bound = drift_slope_bound(model)
    except ValueError as exc:
        checks.append(AssumptionCheck("drift_slope", False, 0.0, None, str(exc)))
    else:
        slopes = -prm.sigma * prm.fu * _denominator(model, p)
        worst = int(np.argmax(slopes))
        margin = float(slopes[worst])
        checks.append(
            AssumptionCheck(
                "drift_slope",
                margin <= -bound + 1e-9,
                margin,
                (float(n1[worst]), float(n2[worst])),
                f"bound B = {bound:.6g}",
            )
        )

    edge = np.linspace(0.0, cap, samples + 1)
    e1, e2 = edge, cap - edge
    rate_i, rate_u = _kinetics(model, e1, e2)
    flux = rate_i + rate_u
    worst = int(np.argmax(flux))
    checks.append(
        AssumptionCheck(
            "hypotenuse",
            bool(flux[worst] < 0.0),
            float(flux[worst]),
            (float(e1[worst]), float(e2[worst])),
        )
    )

    pv = np.linspace(0.0, 1.0, 101)
    vac = reduced_drift(model, 0.0, pv)
    worst = int(np.argmin(vac))
    checks.append(
        AssumptionCheck(
            "vacuum_drift",
            bool(vac[worst] > 0.0),
            float(vac[worst]),
            (0.0, float(pv[worst])),
        )
    )

    try:
        theta = invasion_threshold(model)
    except (BistabilityError, ValueError) as exc:
        checks.append(AssumptionCheck("bistable", False, 0.0, None, str(exc)))
    else:
        checks.append(
            AssumptionCheck(
                "bistable", True, theta, None, f"threshold = {theta:.6g}"
            )
        )

    return AssumptionReport(tuple(checks))
