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
    "FieldError",
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


class FieldError(ValueError):
    """A constructor argument broke its rule; fields names what the rule reads, its own first."""

    def __init__(self, fields: str | tuple[str, ...], message: str):
        super().__init__(message)
        self.fields = (fields,) if isinstance(fields, str) else fields


def require(ok: bool, fields: str | tuple[str, ...], message: str) -> None:
    """Raise FieldError(fields, message) unless ok; fields is one name or a tuple of them."""
    if not ok:
        raise FieldError(fields, message)


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

    The theory additionally needs sf < sh: the config layer enforces it and
    drift_slope_bound, which the audit and every limit-equation run call,
    rejects its breach, so such records can still be built for probing.
    """

    fu: float
    du: float
    delta: float
    sf: float
    sh: float
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        for name, ok, rule in (("fu", self.fu > 0, "be positive"),
                               ("du", self.du > 0, "be positive"),
                               ("delta", self.delta >= 1, "be >= 1"),
                               ("sf", 0 <= self.sf <= 1, "lie in [0, 1]"),
                               ("sh", 0 < self.sh <= 1, "lie in (0, 1]"),
                               ("sigma", self.sigma > 0, "be positive"),
                               ("mu", 0 <= self.mu < 1, "lie in [0, 1)")):
            require(math.isfinite(getattr(self, name)), name, f"{name} must be finite")
            require(ok, name, f"{name} must {rule}")


@dataclass(frozen=True)
class ScaledModel:
    """A parameter record together with the population scaling eps."""

    params: WolbachiaParams
    epsilon: float
    variant: Variant = Variant.PERFECT

    def __post_init__(self):
        require(math.isfinite(self.epsilon) and self.epsilon > 0, "epsilon",
                "epsilon must be positive and finite")
        scale = self.params.sigma * self.epsilon  # scale > 0 guards 1/scale
        require(scale > 0 and math.isfinite(1.0 / self.epsilon)
                and math.isfinite(1.0 / scale), ("epsilon", "sigma"),
                f"sigma = {self.params.sigma:g} and eps = {self.epsilon:g} leave 1/eps or "
                "1/(sigma*eps) without a finite value")
        # the kinetics form fu*n for densities up to the carrying total, and
        # the slow manifold scales as du/(sigma*fu)
        prm = self.params
        sigma_fu = prm.sigma * prm.fu  # sigma_fu > 0 guards du/sigma_fu
        require(math.isfinite(prm.fu * self.carrying_total) and sigma_fu > 0
                and math.isfinite(prm.du / sigma_fu), ("fu", "epsilon", "sigma", "du"),
                f"fu = {prm.fu:g}, du = {prm.du:g}, sigma = {prm.sigma:g} and eps = "
                f"{self.epsilon:g} leave fu*carrying_total or du/(sigma*fu) without a finite value")
        require(self.variant is Variant.IMPERFECT or self.params.mu == 0.0, ("mu", "variant"),
                f"variant {self.variant.value!r} forces mu = 0")

    @property
    def clipped(self) -> bool:
        """Whether the logistic factor is clipped at zero: only the imperfect
        variant's printed form clips it."""
        return self.variant is Variant.IMPERFECT

    @property
    def carrying_total(self) -> float:
        """Total density at which the logistic factor vanishes."""
        return 1.0 / (self.params.sigma * self.epsilon)

    @property
    def resident_total(self) -> float:
        """Total density of the infection-free steady state that every
        introduction starts from; raises where that state does not exist."""
        prm = self.params
        if self.variant is Variant.ALTERNATIVE:
            require(prm.du < prm.fu, "du", "resident equilibrium needs du < fu")
            return (1.0 - prm.du / prm.fu) / (self.epsilon * prm.sigma)
        total = self.carrying_total - slow_manifold(self, 0.0)
        require(total > 0.0, "epsilon",
                f"eps={self.epsilon:g} exceeds the resident-equilibrium range eps < fu/du")
        return total


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


def _frequency(ni, total):
    """Infected frequency n_i/total, total = n_i + n_u, with p = +0.0 wherever
    the total is 0."""
    return np.divide(ni, total, out=np.zeros_like(total), where=total != 0.0)


def _kinetics(model: ScaledModel, ni, nu, epsilon=None):
    """Reaction right-hand sides without any input validation.

    Accepts scalars or arrays.  epsilon, when given, replaces model.epsilon;
    a (K,) row applies one eps per column of (nx, K) densities, each column
    computed exactly as a call with its scalar.  classify_stability holds
    these rates' derivatives in closed form: edit both together.

    Rounding for rounding, rate_i = (1-mu)(1-sf) fu n_i * logistic - delta du
    n_i and rate_u = fu (n_u (1 - sh p) + mu (1-sf) n_i p) * logistic - du n_u,
    by augmented assignments on this function's own temporaries (in place
    for arrays, rebinding for scalars); a - b is formed as (-b) + a, which
    rounds identically.  At mu = 0 the leakage term would only add zeros and
    is skipped.  Only a total that is not positive (vacuum) needs the masked
    divide.
    """
    prm = model.params
    eps = model.epsilon if epsilon is None else epsilon
    mu = prm.mu
    total = np.add(ni, nu)  # a numpy scalar, with .min(), for float inputs
    p = ni / total if total.min() > 0.0 else _frequency(ni, total)
    if model.variant is Variant.ALTERNATIVE:
        total *= -(eps * prm.sigma)
        total += 1.0
    else:
        total *= -prm.sigma
        total += 1.0 / eps
    logistic = np.maximum(total, 0.0) if model.clipped else total
    rate_i = (1.0 - mu) * (1.0 - prm.sf) * prm.fu * ni
    rate_i *= logistic
    rate_i -= prm.delta * prm.du * ni
    rate_u = p * -prm.sh
    rate_u += 1.0
    rate_u *= nu
    if mu:
        p *= mu * (1.0 - prm.sf) * ni
        rate_u += p
    rate_u *= prm.fu
    rate_u *= logistic
    rate_u -= prm.du * nu
    return rate_i, rate_u


def reaction_rates(model: ScaledModel, ni, nu, epsilon=None):
    """Reaction terms (no diffusion) of the selected variant.

    Vectorized over matching array arguments.  Densities below -1e-12 or
    non-finite inputs are rejected; (0, 0) maps to (0, 0), there is no
    spontaneous generation.  epsilon, when given, overrides model.epsilon
    and must be positive and finite; a (K,) row evaluates K scalings of one
    parameter set at once, column k of (nx, K) densities at epsilon[k].
    """
    ni = np.asarray(ni, dtype=float)
    nu = np.asarray(nu, dtype=float)
    # min and max propagate NaN, so these four reductions see every
    # non-finite entry without an isfinite pass over the inputs
    bounds = (ni.min(), ni.max(), nu.min(), nu.max())
    if not all(map(math.isfinite, bounds)):
        raise ValueError("non-finite density")
    if min(bounds) < -NEGATIVE_TOL:
        raise ValueError("negative density")
    if epsilon is not None:
        epsilon = np.asarray(epsilon, dtype=float)
        if not (epsilon.min() > 0.0 and math.isfinite(epsilon.max())):
            raise ValueError("epsilon must be positive and finite")
    rate_i, rate_u = _kinetics(model, ni, nu, epsilon)
    if ni.ndim == 0:
        return float(rate_i), float(rate_u)
    return rate_i, rate_u


# ---------------------------------------------------------------------------
# reduced objects: drift, slow manifold, limit reaction


def require_reducible(model: ScaledModel, what: str) -> None:
    """Reject the alternative variant, whose reduced system keeps two coupled
    equations for every eps and so has no limit equation."""
    if model.variant is Variant.ALTERNATIVE:
        raise ValueError(f"{what} needs the perfect or imperfect variant")


def _quadratic_coeffs(model: ScaledModel) -> tuple[float, float]:
    """Coefficients (a, b) of Q(p) = a p^2 - b p + 1 in the drift."""
    prm = model.params
    m = prm.mu * (1.0 - prm.sf)
    return prm.sh + m, prm.sf + prm.sh + m


def _denominator(model: ScaledModel, p):
    """Q(p) in Horner form (a p - b) p + 1, built in place on one temporary."""
    a, b = _quadratic_coeffs(model)
    q = p * a
    q -= b
    q *= p
    q += 1.0
    return q


def _frequency_range(p: np.ndarray) -> tuple[float, float]:
    """(min, max) of the float array p, by ufunc reductions that propagate
    NaN; rejects NaN and excursions outside [0, 1] beyond FREQUENCY_TOL."""
    low, high = np.minimum.reduce(p, axis=None), np.maximum.reduce(p, axis=None)
    if not (low >= -FREQUENCY_TOL and high <= 1.0 + FREQUENCY_TOL):
        raise ValueError(f"frequency left [0, 1] by more than round-off: [{low:.6e}, {high:.6e}]")
    return low, high


def _check_frequency(p):
    """p as a float array, checked by _frequency_range."""
    p = np.asarray(p, dtype=float)
    _frequency_range(p)
    return p


def reduced_drift(model: ScaledModel, n, p):
    """Drift of the reduced population deficit at frequency p.

    Positive below the slow manifold, negative above it; vanishes exactly at
    n = slow_manifold(p).  n may be negative (the expression is polynomial),
    but p must lie in [0, 1].
    """
    require_reducible(model, "the reduced drift")
    p = _check_frequency(p)
    prm = model.params
    value = -prm.sigma * prm.fu * np.asarray(n, dtype=float) * _denominator(model, p) \
        + prm.du * ((prm.delta - 1.0) * p + 1.0)
    return float(value) if value.ndim == 0 else value


def slow_manifold(model: ScaledModel, p):
    """Unique positive root n = h(p) of the reduced drift."""
    require_reducible(model, "the slow manifold")
    p = _check_frequency(p)
    prm = model.params
    value = prm.du * ((prm.delta - 1.0) * p + 1.0) / (prm.sigma * prm.fu * _denominator(model, p))
    return float(value) if value.ndim == 0 else value


def slow_manifold_max(model: ScaledModel) -> float:
    """Exact max over [0, 1] of the slow manifold.

    With Q(p) = a p^2 - b p + 1, h' has the sign of -((delta-1) a p^2 + 2a p
    - (delta-1+b)), a quadratic with one root of each sign: h rises up to
    the positive root p* (written without cancellation; the vertex b/(2a) of
    Q at delta = 1) and falls beyond it.
    """
    a, b = _quadratic_coeffs(model)
    c = model.params.delta - 1.0
    root = (c + b) / (a + math.sqrt(a * a + c * a * (c + b)))
    return float(np.max(slow_manifold(model, np.array([0.0, 1.0, min(root, 1.0)]))))


def drift_slope_bound(model: ScaledModel) -> float:
    """Uniform relaxation rate B with d(drift)/dn <= -B < 0 for p in [0, 1].

    Equals sigma*fu times the minimum over [0, 1] of Q(p), attained at the
    vertex of Q; requires sf < sh so that the bound is positive.
    """
    require_reducible(model, "the drift slope bound")
    prm = model.params
    if prm.sf >= prm.sh:
        raise ValueError(f"drift slope bound needs sf < sh (got sf={prm.sf}, sh={prm.sh})")
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
    require_reducible(model, "the limit reaction")
    p = _check_frequency(p)
    prm = model.params
    den = _denominator(model, p)
    if prm.mu == 0.0:
        # (1-p) p / Q first, so that Q's buffer can take p - theta (a float p
        # leaves scalars, which have no buffer)
        value = 1.0 - p
        value *= p
        value /= den
        theta = _theta_formula(model)
        value *= np.subtract(p, theta, out=den) if p.ndim else p - theta
        value *= prm.delta * prm.du * prm.sh
    else:
        births = prm.du * (1.0 - prm.mu) * (1.0 - prm.sf)
        value = p * (births * (prm.delta - 1.0))
        value += births
        value /= den
        value -= prm.du * prm.delta
        value *= p
    return float(value) if value.ndim == 0 else value


def _bistable_roots(model: ScaledModel) -> tuple[float, float]:
    """Interior roots (threshold, stable high state) of the limit reaction.

    mu = 0: closed forms (theta, 1).  mu > 0: vertex -+ sqrt(disc)/(2a), the
    roots of the growth balance -a p^2 + b p - c, a concave quadratic with the
    sign of limit_reaction/p, positive strictly between them.
    """
    prm = model.params
    if prm.mu == 0.0:
        theta = _theta_formula(model)
        if not 0.0 < theta < 1.0:
            raise BistabilityError(
                f"bistability needs sf + delta - 1 < delta*sh; threshold {theta:.6g} "
                "is outside (0, 1)"
            )
        return theta, 1.0
    a = prm.delta * _quadratic_coeffs(model)[0]
    b = prm.delta * (prm.sf + prm.sh) + (prm.delta - 1.0 + prm.mu) * (1.0 - prm.sf)
    disc = b * b - 4.0 * a * (prm.delta - (1.0 - prm.mu) * (1.0 - prm.sf))
    vertex = b / (2.0 * a)
    if not 0.0 < vertex < 1.0 or disc <= 0.0:
        raise BistabilityError("limit reaction has no interior sign change")
    half_width = math.sqrt(disc) / (2.0 * a)
    return vertex - half_width, vertex + half_width


def invasion_threshold(model: ScaledModel) -> float:
    """Unstable interior root of the limit reaction: frequencies below it
    die out, above it invade."""
    require_reducible(model, "the invasion threshold")
    return _bistable_roots(model)[0]


def invasion_frequency(model: ScaledModel) -> float:
    """Stable high frequency reached after invasion (1 when mu = 0)."""
    require_reducible(model, "the invasion frequency")
    return _bistable_roots(model)[1]


# ---------------------------------------------------------------------------
# equilibria and their stability


def equilibria(model: ScaledModel) -> list[Equilibrium]:
    """The four non-negative steady states, with stability labels.

    Reported in the order extinction, invasion, coexistence, origin.  Raises
    BistabilityError when the interior structure degenerates (threshold
    outside (0,1) or the leaked-transmission quadratic loses its roots) and
    ValueError when the resident state does not exist (model.resident_total)
    or eps is so large that another steady state would leave the
    non-negative quadrant.  The alternative variant's logistic factor is eps
    times the others', so its interior states are the perfect variant's with
    each deficit below the carrying total divided by eps.
    """
    prm = model.params
    theta, p_high = _bistable_roots(model)
    scale = model.epsilon if model.variant is Variant.ALTERNATIVE else 1.0

    # both interior states sit at the density where infected growth stalls;
    # for mu = 0 this is h(1) = h(theta), and p_high = 1
    n_star = prm.delta * prm.du / (prm.sigma * prm.fu * (1.0 - prm.mu) * (1.0 - prm.sf))
    inv_total = model.carrying_total - n_star / scale
    coords = [
        (0.0, model.resident_total, EquilibriumKind.EXTINCTION),
        (p_high * inv_total, inv_total - p_high * inv_total, EquilibriumKind.INVASION),
        (theta * inv_total, inv_total - theta * inv_total, EquilibriumKind.COEXISTENCE),
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
# An eigenvalue of the 2x2 Jacobian carries a rounding error of order
# ulp(1)*max|lambda|, so a slow one is read only when |Re lambda| stays this
# many times above that.  At the coexistence saddle (eps = 0.1) the ratio is
# 28.8 at fu = 1e12 (lambda 0.0527 against 0.0523), 2.99 at 1e13 (0.0547),
# 0.68 at 1e14 (0.125) and 0.55 at 1e15, where the sign is wrong; it is 229 or
# more at every state down to eps = 1e-12.  16 keeps 1e12, rejects 1e13.
RESOLVED_EIGENVALUE_ULPS = 16


def classify_stability(model: ScaledModel, point) -> StabilityResult:
    """Linear stability of the kinetic steady state point = (n_i, n_u).

    The 2x2 Jacobian is exact: the kinetics' partial derivatives in closed
    form, L the logistic factor (positive, so unclipped, at a steady state).
    At the origin p = 0: the Jacobian is triangular there, and its diagonal
    reads p only along the n_u axis, where 0 is p's limit.  Below about
    eps = 1e-13 no linearisation from (n_i, n_u) keeps the slow eigenvalue:
    L = 1/eps - sigma n loses its own digits.  Stable means both eigenvalues
    have real part below -1e-8; those inside the +-1e-8 band are unstable
    with the marginal flag set.  Points whose rates exceed 1e-8 times the
    terms they cancel, fu n (1/eps + sigma n), eps times that in the
    alternative variant, are rejected, and so are points whose smallest
    |Re lambda| is below RESOLVED_EIGENVALUE_ULPS*ulp(1)*max|lambda|, where
    rounding decides its sign.
    """
    ni, nu = float(point[0]), float(point[1])
    n, eps, prm = ni + nu, model.epsilon, model.params
    alt = model.variant is Variant.ALTERNATIVE
    rate_i, rate_u = _kinetics(model, ni, nu)
    size = prm.fu * n * (1.0 / eps + prm.sigma * n) * (eps if alt else 1.0)
    if max(abs(rate_i), abs(rate_u)) > 1e-8 * size:
        raise ValueError(f"({ni:g}, {nu:g}) is not an equilibrium: rates "
                         f"({rate_i:.3e}, {rate_u:.3e})")
    slope = -prm.sigma * (eps if alt else 1.0)  # of L in n
    logistic = (1.0 if alt else 1.0 / eps) + slope * n
    fi, leak = (1.0 - prm.mu) * (1.0 - prm.sf) * prm.fu, prm.mu * (1.0 - prm.sf)
    p = ni / n if n > 0.0 else 0.0
    births_u = nu * (1.0 - prm.sh * p) + leak * ni * p  # per unit L and fu
    dbirths_i = leak * p * (2.0 - p) - prm.sh * (1.0 - p) ** 2
    dbirths_u = 1.0 - (prm.sh + leak) * p ** 2
    jac = np.array([[fi * (logistic + ni * slope) - prm.delta * prm.du, fi * ni * slope],
                    [prm.fu * (dbirths_i * logistic + births_u * slope),
                     prm.fu * (dbirths_u * logistic + births_u * slope) - prm.du]])
    eigs = np.linalg.eigvals(jac)
    real = np.real(eigs)
    floor = RESOLVED_EIGENVALUE_ULPS * np.spacing(1.0) * np.max(np.abs(eigs))
    if np.min(np.abs(real)) < floor:
        raise ValueError(f"({ni:g}, {nu:g}): an eigenvalue's real part lies below "
                         f"{RESOLVED_EIGENVALUE_ULPS} ulp(1)*max|eigenvalue| = {floor:.3g}, "
                         "where rounding decides its sign")
    marginal = bool(np.any(np.abs(real) < MARGINAL_EIGENVALUE))
    stable = bool(np.all(real < -MARGINAL_EIGENVALUE))
    label = Stability.STABLE if stable else Stability.UNSTABLE
    return StabilityResult(label, marginal, (complex(eigs[0]), complex(eigs[1])))


# ---------------------------------------------------------------------------
# assumption audit


def check_assumptions(model: ScaledModel) -> AssumptionReport:
    """Audit the structural conditions behind the scalar reduction.

    Each row is read in closed form at the extremum of its quantity over the
    triangle {n_i + n_u <= carrying total, n_i, n_u >= 0}:

      drift_slope   d(drift)/dn = -sigma fu Q(p) <= -B (drift_slope_bound);
                    Q is smallest at its vertex p* = b/(2a), so margin -B
      bistable      the limit reaction has its threshold inside (0, 1)

    Two conditions need no row, as WolbachiaParams' du > 0 and delta >= 1
    make them hold: the flux at carrying capacity, -du (delta n_i + n_u), is
    negative, and the vacuum drift du ((delta-1) p + 1) is positive.

    Failures are report entries, never exceptions.
    """
    require_reducible(model, "the assumption audit")
    cap = model.carrying_total
    checks = []

    try:
        bound = drift_slope_bound(model)
    except ValueError as exc:
        checks.append(AssumptionCheck("drift_slope", False, 0.0, None, str(exc)))
    else:
        a, b = _quadratic_coeffs(model)
        vertex = b / (2.0 * a)
        checks.append(AssumptionCheck("drift_slope", True, -bound,
                                      (vertex * cap, (1.0 - vertex) * cap),
                                      f"bound B = {bound:.6g}"))

    try:
        theta = invasion_threshold(model)
    except ValueError as exc:
        checks.append(AssumptionCheck("bistable", False, 0.0, None, str(exc)))
    else:
        checks.append(AssumptionCheck("bistable", True, theta, None, f"threshold = {theta:.6g}"))

    return AssumptionReport(tuple(checks))
