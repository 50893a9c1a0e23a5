import dataclasses
import re

import numpy as np
import pytest

import singlimit as sl
from singlimit.model import _bistable_roots, _kinetics

# interior roots of the leaked-transmission limit reaction at
# (sf, mu) = (0, 0.04), frozen from an independent pre-build bisection
THETA_MU = 0.171781466548854
P_HIGH_MU = 0.942504247736861


def perfect(params, eps=0.1):
    return sl.ScaledModel(params, eps)


# ---------------------------------------------------------------------------
# parameter records


def test_params_reject_bad_ranges():
    good = dict(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8, sigma=1.0)
    with pytest.raises(ValueError):
        sl.WolbachiaParams(**{**good, "fu": 0.0})
    with pytest.raises(ValueError):
        sl.WolbachiaParams(**{**good, "delta": 0.9})
    with pytest.raises(ValueError):
        sl.WolbachiaParams(**{**good, "sh": 1.2})
    with pytest.raises(ValueError):
        sl.WolbachiaParams(**{**good, "sigma": -1.0})
    with pytest.raises(ValueError):
        sl.WolbachiaParams(**{**good, "mu": 1.0})
    with pytest.raises(ValueError):
        sl.WolbachiaParams(**{**good, "du": float("nan")})
    # each rejection names its field
    with pytest.raises(sl.FieldError, match="^du must be finite$") as info:
        sl.WolbachiaParams(**{**good, "du": float("inf")})
    assert info.value.fields[0] == "du"


def test_params_allow_ordering_violation_for_diagnostics():
    # sf >= sh is rejected by the config layer, not at construction, so the
    # assumption audit can probe such records
    sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.9, sh=0.8, sigma=1.0)


def test_scaled_model_validation(fig1_params):
    with pytest.raises(ValueError):
        sl.ScaledModel(fig1_params, 0.0)
    leaky = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8,
                               sigma=1.0, mu=0.04)
    with pytest.raises(ValueError):
        sl.ScaledModel(leaky, 0.1, sl.Variant.PERFECT)  # perfect forces mu = 0
    model = sl.ScaledModel(leaky, 0.1, sl.Variant.IMPERFECT)
    assert model.clipped  # printed form clips the logistic factor
    assert not perfect(fig1_params).clipped


@pytest.mark.parametrize("sigma, eps", [
    (1e-200, 1e-200),  # sigma*eps underflows to 0
    (1.0, 1e-310),  # 1/eps overflows
    (1e-320, 0.1),  # 1/(sigma*eps) overflows
    (10.0, 1e-309),  # 1/eps overflows, 1/(sigma*eps) does not
])
def test_scaled_model_rejects_a_carrying_total_it_cannot_form(sigma, eps):
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8, sigma=sigma)
    with pytest.raises(sl.FieldError) as info:
        sl.ScaledModel(params, eps)
    assert info.value.fields == ("epsilon", "sigma")


# ---------------------------------------------------------------------------
# reaction rates


def test_no_spontaneous_generation(fig1_params):
    assert sl.reaction_rates(perfect(fig1_params), 0.0, 0.0) == (0.0, 0.0)


def test_extinction_equilibrium_zeroes_rates(fig1_params):
    model = perfect(fig1_params)
    nu_star = 1.0 / (1.0 * 0.1) - 0.27 / 1.12  # 9.758928571...
    rate_i, rate_u = sl.reaction_rates(model, 0.0, nu_star)
    assert abs(rate_i) < 1e-9 and abs(rate_u) < 1e-9


def test_overcrowded_imperfect_clips_growth(fig2_params):
    model = sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)
    ni, nu = 12.0, 8.0  # ni + nu = 2/(sigma*eps)
    rate_i, rate_u = sl.reaction_rates(model, ni, nu)
    assert rate_i == pytest.approx(-fig2_params.delta * fig2_params.du * ni, rel=1e-14)
    assert rate_u == pytest.approx(-fig2_params.du * nu, rel=1e-14)


def test_reaction_rates_reject_bad_input(fig1_params):
    model = perfect(fig1_params)
    with pytest.raises(ValueError):
        sl.reaction_rates(model, -0.5, 1.0)
    with pytest.raises(ValueError):
        sl.reaction_rates(model, float("inf"), 1.0)
    # round-off negatives pass
    sl.reaction_rates(model, -1e-13, 1.0)


def test_reaction_rates_vectorized(fig1_params):
    model = perfect(fig1_params)
    ni = np.array([0.0, 1.0, 2.0, 0.3])
    nu = np.array([0.0, 0.5, 0.0, 4.0])
    vec_i, vec_u = sl.reaction_rates(model, ni, nu)
    for k in range(len(ni)):
        ri, ru = sl.reaction_rates(model, float(ni[k]), float(nu[k]))
        assert vec_i[k] == ri and vec_u[k] == ru


@pytest.mark.parametrize("variant", list(sl.Variant))
def test_stacked_eps_row_equals_per_rung_calls(fig1_params, fig2_params, variant):
    # column k of an (nx, K) stack at epsilon[k] is bit-identical to the
    # one-rung call, so a ladder may evaluate its kinetics in one call
    params = fig2_params if variant is sl.Variant.IMPERFECT else fig1_params
    eps = np.array([0.3, 0.1, 0.05, 0.02])
    rng = np.random.default_rng(3)
    ni = rng.uniform(0.0, 30.0, (41, 4))
    nu = rng.uniform(0.0, 30.0, (41, 4))
    ni[0], nu[0] = 0.0, 0.0
    model = sl.ScaledModel(params, 0.5, variant)
    if variant is sl.Variant.IMPERFECT:
        # some totals lie beyond every rung's carrying capacity, so the clip acts
        assert np.any(ni + nu > 1.0 / (params.sigma * eps))
        assert np.any(ni + nu < 1.0 / (params.sigma * eps))
    rate_i, rate_u = sl.reaction_rates(model, ni, nu, eps)
    assert rate_i.shape == rate_u.shape == (41, 4)
    for k, e in enumerate(eps):
        one_i, one_u = sl.reaction_rates(sl.ScaledModel(params, e, variant),
                                         ni[:, k], nu[:, k])
        assert np.array_equal(rate_i[:, k], one_i)
        assert np.array_equal(rate_u[:, k], one_u)
    scalar = sl.reaction_rates(model, 1.3, 2.4, 0.1)
    assert all(type(r) is float for r in scalar)
    assert scalar == sl.reaction_rates(sl.ScaledModel(params, 0.1, variant), 1.3, 2.4)
    with pytest.raises(ValueError, match="epsilon"):
        sl.reaction_rates(model, ni, nu, np.array([0.3, 0.1, 0.0, 0.02]))


@pytest.mark.parametrize("variant", list(sl.Variant))
def test_reaction_rates_leave_inputs_unchanged(fig1_params, fig2_params, variant):
    # the kinetics work in place on their own temporaries only: the (nx, K)
    # halves of a [n_i | n_u] block keep every bit, signed zeros included
    params = fig2_params if variant is sl.Variant.IMPERFECT else fig1_params
    rng = np.random.default_rng(5)
    block = np.asfortranarray(rng.uniform(0.0, 30.0, (41, 6)))
    block[0], block[1, 0], block[2, 3] = 0.0, -0.0, -1e-13
    before = block.tobytes()
    eps = np.array([0.3, 0.1, 0.05])
    model = sl.ScaledModel(params, 0.5, variant)
    sl.reaction_rates(model, block[:, :3], block[:, 3:], eps)
    sl.reaction_rates(model, block[:, 0], block[:, 3])
    assert block.tobytes() == before


@pytest.mark.parametrize("variant", list(sl.Variant))
def test_vacuum_node_takes_masked_frequency(fig1_params, fig2_params, variant):
    # a zero total selects the masked divide (p = 0 there, no 0/0 warning,
    # which pytest would raise); the other nodes match one-node calls
    params = fig2_params if variant is sl.Variant.IMPERFECT else fig1_params
    model = sl.ScaledModel(params, 0.1, variant)
    ni = np.array([0.0, 1.0, 2.0, 0.0])
    nu = np.array([0.0, 3.0, 0.0, 4.0])
    rate_i, rate_u = sl.reaction_rates(model, ni, nu)
    assert rate_i[0] == 0.0 and rate_u[0] == 0.0
    for k in range(1, 4):
        assert (rate_i[k], rate_u[k]) == sl.reaction_rates(model, ni[k], nu[k])
    assert sl.reaction_rates(model, 0.0, 0.0) == (0.0, 0.0)


def test_alternative_scaling_formula(fig1_params):
    model = sl.ScaledModel(fig1_params, 0.1, sl.Variant.ALTERNATIVE)
    ni, nu = 2.0, 3.0
    rate_i, rate_u = sl.reaction_rates(model, ni, nu)
    logistic = 1.0 - 0.1 * 1.0 * (ni + nu)
    p = ni / (ni + nu)
    assert rate_i == pytest.approx((1 - 0.1) * 1.12 * ni * logistic - (10 / 9) * 0.27 * ni, rel=1e-14)
    assert rate_u == pytest.approx(1.12 * nu * (1 - 0.8 * p) * logistic - 0.27 * nu, rel=1e-14)


# ---------------------------------------------------------------------------
# drift, slow manifold, limit reaction


def test_vacuum_drift_positive(fig1_params):
    model = perfect(fig1_params)
    p = np.linspace(0.0, 1.0, 101)
    expected = 0.27 * ((10 / 9 - 1.0) * p + 1.0)
    assert np.array_equal(sl.reduced_drift(model, 0.0, p), expected)
    assert expected.min() > 0


def test_drift_vanishes_on_manifold(fig1_params, fig2_params):
    for model in (perfect(fig1_params),
                  sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)):
        p = np.linspace(0.0, 1.0, 101)
        h = sl.slow_manifold(model, p)
        assert np.max(np.abs(sl.reduced_drift(model, h, p))) < 1e-12


def test_drift_rejects_bad_frequency(fig1_params):
    with pytest.raises(ValueError):
        sl.reduced_drift(perfect(fig1_params), 0.0, 1.5)


def test_mu_zero_matches_perfect_form(fig1_params):
    zero_leak = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8,
                                   sigma=1.0, mu=0.0)
    a = perfect(fig1_params)
    b = sl.ScaledModel(zero_leak, 0.1, sl.Variant.IMPERFECT)
    rng = np.random.default_rng(7)
    n = rng.uniform(0.0, 3.0, 100)
    p = rng.uniform(0.0, 1.0, 100)
    assert np.array_equal(sl.reduced_drift(a, n, p), sl.reduced_drift(b, n, p))
    assert np.array_equal(sl.slow_manifold(a, p), sl.slow_manifold(b, p))
    assert np.array_equal(sl.limit_reaction(a, p), sl.limit_reaction(b, p))


def test_slow_manifold_values(fig1_params):
    model = perfect(fig1_params)
    assert sl.slow_manifold(model, 0.0) == pytest.approx(0.2410714, abs=1e-7)
    assert sl.slow_manifold(model, 0.0) == 0.27 / 1.12
    h1 = sl.slow_manifold(model, 1.0)
    assert h1 == pytest.approx(0.2976190, abs=1e-7)
    assert abs(sl.reduced_drift(model, h1, 1.0)) < 1e-12


def test_slow_manifold_independent_of_eps(fig1_params):
    p = np.linspace(0, 1, 11)
    a = sl.slow_manifold(perfect(fig1_params, 0.1), p)
    b = sl.slow_manifold(perfect(fig1_params, 0.02), p)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("delta, mu", [(10 / 9, 0.0), (10 / 9, 0.05), (1.0, 0.0), (3.0, 0.0)])
def test_slow_manifold_max_is_exact(delta, mu):
    # perfect, imperfect with leakage, delta = 1 (interior max at the vertex
    # of Q) and delta = 3 (h increasing, max at p = 1): never below dense
    # sampling, and within 1e-9 of it
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=delta, sf=0.1, sh=0.8,
                                sigma=1.0, mu=mu)
    variant = sl.Variant.IMPERFECT if mu else sl.Variant.PERFECT
    model = sl.ScaledModel(params, 0.1, variant)
    exact = sl.slow_manifold_max(model)
    sampled = float(np.max(sl.slow_manifold(model, np.linspace(0.0, 1.0, 100001))))
    assert exact >= sampled
    assert exact == pytest.approx(sampled, rel=1e-9, abs=0.0)


def test_denominator_stays_away_from_zero():
    rng = np.random.default_rng(3)
    p = np.linspace(0.0, 1.0, 501)
    for _ in range(50):
        sh = rng.uniform(0.05, 1.0)
        sf = rng.uniform(0.0, sh * 0.999)
        q = sh * p ** 2 - (sf + sh) * p + 1.0
        floor = 1.0 - (sf + sh) ** 2 / (4.0 * sh)
        assert floor > 0
        assert np.all(q >= floor - 1e-12)


def test_drift_slope_bound_value(fig1_params):
    assert sl.drift_slope_bound(perfect(fig1_params)) == pytest.approx(0.8365, abs=1e-12)


def test_drift_slope_bound_degenerate():
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=1.0, sh=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        sl.drift_slope_bound(sl.ScaledModel(params, 0.1))


def test_drift_slope_bound_not_positive_at_the_rounding_edge():
    # sf < sh holds, but 1 + sf rounds to 2 = 2*sh, so the minimum of Q
    # rounds to 0 and the audit reports the slope as failed
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.9999999999999999,
                                sh=1.0, sigma=1.0)
    model = sl.ScaledModel(params, 0.1)
    with pytest.raises(ValueError, match="^drift slope bound is not positive"):
        sl.drift_slope_bound(model)
    report = sl.check_assumptions(model)
    assert not report.passed
    assert not report["drift_slope"].passed
    assert "not positive" in report["drift_slope"].note


@pytest.mark.parametrize("leak", [0.0, 0.04])
def test_drift_slope_bound_sampled_oracle(leak):
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8,
                                sigma=1.0, mu=leak)
    variant = sl.Variant.IMPERFECT if leak else sl.Variant.PERFECT
    model = sl.ScaledModel(params, 0.1, variant)
    bound = sl.drift_slope_bound(model)
    p = np.linspace(0.0, 1.0, 1001)
    step = 1e-7
    slope = (sl.reduced_drift(model, 1.0 + step, p) - sl.reduced_drift(model, 1.0, p)) / step
    assert np.min(-slope) >= bound - 1e-10


def test_limit_reaction_endpoints(fig1_params):
    # float in, float out; the threshold the model reports is a rest state too
    model = perfect(fig1_params)
    for p in (0.0, sl.invasion_threshold(model), 1.0):
        value = sl.limit_reaction(model, p)
        assert type(value) is float and value == 0.0


def _reference_reduced(model, n, p):
    # Q, the drift, the slow manifold and the limit reaction written as the
    # plain expressions of the module docstring and limit_reaction's
    prm, mu = model.params, model.params.mu
    leak = mu * (1.0 - prm.sf)
    q = (prm.sh + leak) * p * p - (prm.sf + prm.sh + leak) * p + 1.0
    vacuum = prm.du * ((prm.delta - 1.0) * p + 1.0)
    if mu == 0.0:
        theta = (prm.sf + prm.delta - 1.0) / (prm.delta * prm.sh)
        r = prm.delta * prm.du * prm.sh * (1.0 - p) * p * (p - theta) / q
    else:
        r = prm.du * p * ((1.0 - mu) * (1.0 - prm.sf) * ((prm.delta - 1.0) * p + 1.0) / q
                          - prm.delta)
    return -prm.sigma * prm.fu * n * q + vacuum, vacuum / (prm.sigma * prm.fu * q), r


@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_reduced_objects_match_closed_forms_and_keep_inputs(fig1_params, fig2_params, mu):
    # 2001 nodes of [0, 1], the rest states and round-off excursions: within
    # rtol 1e-14 of the plain expressions, exact zeros at the rest states the
    # factors hold, inputs bit-unchanged.  The leaked-births form (mu > 0) and
    # the drift subtract terms of size du*delta*p and sigma*fu*n, so near
    # their roots only an absolute error of a few ulp of those terms is left
    prm = dataclasses.replace(fig2_params, mu=mu) if mu else fig1_params
    model = sl.ScaledModel(prm, 0.1, sl.Variant.IMPERFECT if mu else sl.Variant.PERFECT)
    theta = sl.invasion_threshold(model)
    p = np.concatenate([np.linspace(0.0, 1.0, 2001),
                        [0.0, theta, 1.0, 5e-13, -5e-13, 1.0 - 5e-13, 1.0 + 5e-13]])
    n = np.random.default_rng(11).uniform(-1.0, 3.0, p.size)
    before = p.tobytes() + n.tobytes()
    drift, h, r = _reference_reduced(model, n, p)

    def close(got, want, terms=0.0):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + 1e-15 * terms)

    got = sl.limit_reaction(model, p)
    close(got, r, prm.du * prm.delta * np.abs(p) if mu else 0.0)
    close(sl.slow_manifold(model, p), h)
    close(sl.reduced_drift(model, n, p), drift, prm.sigma * prm.fu * np.abs(n) + prm.du * prm.delta)
    rest = [0.0] if mu else [0.0, theta, 1.0]
    assert np.all(got[np.isin(p, rest)] == 0.0)
    assert p.tobytes() + n.tobytes() == before


def test_limit_reaction_midpoint(fig1_params):
    assert sl.limit_reaction(perfect(fig1_params), 0.5) == pytest.approx(0.021, abs=1e-12)


def test_limit_reaction_sign_pattern(fig1_params):
    model = perfect(fig1_params)
    theta = sl.invasion_threshold(model)
    p = np.linspace(0.0, 1.0, 1001)[1:-1]
    r = sl.limit_reaction(model, p)
    assert np.all(r[p < theta] < 0)
    assert np.all(r[p > theta] > 0)


@pytest.mark.parametrize("leak", [0.0, 0.04])
def test_limit_reaction_is_manifold_growth(fig1_params, leak):
    # r(p) must equal p times the infected per-capita growth on the manifold,
    # recomputed here from the primitive kinetics
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8,
                                sigma=1.0, mu=leak)
    variant = sl.Variant.IMPERFECT if leak else sl.Variant.PERFECT
    model = sl.ScaledModel(params, 0.1, variant)
    cap = model.carrying_total
    for p in np.linspace(0.01, 0.99, 49):
        total = cap - sl.slow_manifold(model, p)
        ni, nu = p * total, (1 - p) * total
        rate_i, _ = sl.reaction_rates(model, ni, nu)
        assert sl.limit_reaction(model, p) == pytest.approx(p * rate_i / ni, abs=1e-12)


def test_invasion_threshold(fig1_params):
    assert sl.invasion_threshold(perfect(fig1_params)) == pytest.approx(0.2375, abs=1e-12)


def test_invasion_threshold_delta_one():
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=1.0, sf=0.1, sh=0.8, sigma=1.0)
    assert sl.invasion_threshold(sl.ScaledModel(params, 0.1)) == pytest.approx(0.1 / 0.8, rel=1e-14)


def test_invasion_threshold_needs_bistability(fig1_params):
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=5.0, sf=0.1, sh=0.8, sigma=1.0)
    with pytest.raises(sl.BistabilityError):
        sl.invasion_threshold(sl.ScaledModel(params, 0.1))
    # mu = 0.2 leaks enough births that the growth balance stays negative
    leaky = dataclasses.replace(fig1_params, mu=0.2)
    with pytest.raises(sl.BistabilityError, match="no interior sign change"):
        sl.invasion_threshold(sl.ScaledModel(leaky, 0.1, sl.Variant.IMPERFECT))


def test_mu_roots_match_frozen_oracle(fig2_params):
    model = sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)
    assert sl.invasion_threshold(model) == pytest.approx(THETA_MU, abs=1e-11)
    assert sl.invasion_frequency(model) == pytest.approx(P_HIGH_MU, abs=1e-11)
    assert sl.limit_reaction(model, 1.0) < 0  # p = 1 is no longer steady


def test_mu_roots_match_quadratic_formula(fig2_params):
    # closed-form cross-check with the consistent sign convention: the
    # discriminant and the vertex numerator both carry (delta - 1 + mu)
    d, sf, sh, mu = 10 / 9, 0.0, 0.8, 0.04
    m = mu * (1 - sf)
    b = d * (sf + sh) + (d - 1 + mu) * (1 - sf)
    disc = b * b - 4 * d * (sh + m) * (d - (1 - mu) * (1 - sf))
    lo = (b - disc ** 0.5) / (2 * d * (sh + m))
    hi = (b + disc ** 0.5) / (2 * d * (sh + m))
    model = sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)
    assert sl.invasion_threshold(model) == pytest.approx(lo, abs=1e-12)
    assert sl.invasion_frequency(model) == pytest.approx(hi, abs=1e-12)


def test_mu_continuity_of_roots(fig1_params):
    theta0 = sl.invasion_threshold(perfect(fig1_params))
    gaps = []
    for leak in (1e-3, 1e-6):
        params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8,
                                    sigma=1.0, mu=leak)
        model = sl.ScaledModel(params, 0.1, sl.Variant.IMPERFECT)
        theta, p_high = _bistable_roots(model)
        gaps.append(max(abs(theta - theta0), abs(p_high - 1.0)))
    assert gaps[0] < 0.02
    assert gaps[1] < 2e-5
    assert gaps[1] < gaps[0]


def test_alternative_scaling_has_no_reduced_objects(fig1_params):
    model = sl.ScaledModel(fig1_params, 0.1, sl.Variant.ALTERNATIVE)
    for fn in (lambda: sl.slow_manifold(model, 0.5),
               lambda: sl.limit_reaction(model, 0.5),
               lambda: sl.invasion_threshold(model),
               lambda: sl.check_assumptions(model)):
        with pytest.raises(ValueError):
            fn()


# ---------------------------------------------------------------------------
# equilibria and stability


def test_equilibria_figure_values(fig1_params):
    eqs = sl.equilibria(perfect(fig1_params))
    kinds = [e.kind for e in eqs]
    assert kinds == [sl.EquilibriumKind.EXTINCTION, sl.EquilibriumKind.INVASION,
                     sl.EquilibriumKind.COEXISTENCE, sl.EquilibriumKind.ORIGIN]
    ext, inv, coex, origin = eqs
    assert ext.nu == pytest.approx(9.758929, abs=1e-6)
    assert inv.ni == pytest.approx(9.702381, abs=1e-6)
    assert coex.ni == pytest.approx(2.304316, abs=1e-6)
    assert coex.nu == pytest.approx(7.398066, abs=1e-6)
    assert (origin.ni, origin.nu) == (0.0, 0.0)
    labels = [e.stability for e in eqs]
    assert labels == [sl.Stability.STABLE, sl.Stability.STABLE,
                      sl.Stability.UNSTABLE, sl.Stability.UNSTABLE]


@pytest.mark.parametrize("ni, nu, kind, reason", [
    (-1e-300, 1.0, sl.EquilibriumKind.EXTINCTION, "densities must be non-negative"),
    (1.0, -0.5, sl.EquilibriumKind.INVASION, "densities must be non-negative"),
    (0.0, 1e-300, sl.EquilibriumKind.ORIGIN, r"must sit at \(0, 0\)"),
    (2.0, 0.0, sl.EquilibriumKind.ORIGIN, r"must sit at \(0, 0\)"),
])
def test_equilibrium_rejects_negative_densities_and_a_displaced_origin(ni, nu, kind, reason):
    with pytest.raises(ValueError, match=reason):
        sl.Equilibrium(ni, nu, kind, sl.Stability.STABLE)


def test_equilibria_zero_kinetics(fig1_params):
    model = perfect(fig1_params)
    for eq in sl.equilibria(model):
        scale = max(1.0, eq.ni + eq.nu)
        rate_i, rate_u = sl.reaction_rates(model, eq.ni, eq.nu)
        assert max(abs(rate_i), abs(rate_u)) < 1e-9 * scale


def test_coexistence_frequency_is_threshold(fig1_params):
    model = perfect(fig1_params)
    coex = sl.equilibria(model)[2]
    p_star = coex.ni / (coex.ni + coex.nu)
    assert p_star == pytest.approx(sl.invasion_threshold(model), abs=1e-12)


def test_equilibria_shift_with_eps(fig1_params):
    eq1 = sl.equilibria(perfect(fig1_params, 0.1))
    eq2 = sl.equilibria(perfect(fig1_params, 0.05))
    offset = 1.0 / 0.05 - 1.0 / 0.1
    theta = sl.invasion_threshold(perfect(fig1_params))
    assert eq2[0].nu - eq1[0].nu == pytest.approx(offset, rel=1e-12)
    assert eq2[1].ni - eq1[1].ni == pytest.approx(offset, rel=1e-12)
    assert eq2[2].ni - eq1[2].ni == pytest.approx(theta * offset, rel=1e-12)
    assert eq2[2].nu - eq1[2].nu == pytest.approx((1 - theta) * offset, rel=1e-12)


def test_mu_zero_discriminant_identity():
    d, sf, sh = 10 / 9, 0.1, 0.8
    disc = (d * (sf + sh) + (d - 1) * (1 - sf)) ** 2 - 4 * d * sh * (d - (1 - sf))
    assert disc == pytest.approx((d * sh - d + (1 - sf)) ** 2, rel=1e-12)


def test_mu_equilibria(fig2_params):
    model = sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)
    eqs = sl.equilibria(model)
    labels = [e.stability for e in eqs]
    assert labels == [sl.Stability.STABLE, sl.Stability.STABLE,
                      sl.Stability.UNSTABLE, sl.Stability.UNSTABLE]
    inv = eqs[1]
    p_inv = inv.ni / (inv.ni + inv.nu)
    assert p_inv == pytest.approx(P_HIGH_MU, abs=1e-9)
    # interior states sit on the slow manifold
    for eq in eqs[1:3]:
        p = eq.ni / (eq.ni + eq.nu)
        n = model.carrying_total - (eq.ni + eq.nu)
        assert n == pytest.approx(sl.slow_manifold(model, p), abs=1e-9)
    for eq in eqs:
        rate_i, rate_u = sl.reaction_rates(model, eq.ni, eq.nu)
        assert max(abs(rate_i), abs(rate_u)) < 1e-9 * max(1.0, eq.ni + eq.nu)


def test_alternative_equilibria(fig1_params, grid601):
    # the alternative's logistic factor is eps times the perfect one's, so each
    # deficit below the carrying total 1/(sigma eps) is the perfect one over eps
    model = sl.ScaledModel(fig1_params, 0.1, sl.Variant.ALTERNATIVE)
    eqs = sl.equilibria(model)
    assert [e.kind for e in eqs] == [sl.EquilibriumKind.EXTINCTION, sl.EquilibriumKind.INVASION,
                                     sl.EquilibriumKind.COEXISTENCE, sl.EquilibriumKind.ORIGIN]
    assert [e.stability for e in eqs] == [sl.Stability.STABLE, sl.Stability.STABLE,
                                          sl.Stability.UNSTABLE, sl.Stability.UNSTABLE]
    ext, inv, coex, origin = eqs
    assert (ext.ni, ext.nu) == (0.0, pytest.approx(7.589286, abs=1e-6))
    assert (inv.ni, inv.nu) == (pytest.approx(7.023810, abs=1e-6), 0.0)
    assert (coex.ni, coex.nu) == (pytest.approx(1.668155, abs=1e-6),
                                  pytest.approx(5.355655, abs=1e-6))
    assert (origin.ni, origin.nu) == (0.0, 0.0)
    theta = (0.1 + 10 / 9 - 1) / (10 / 9 * 0.8)
    assert coex.ni / (coex.ni + coex.nu) == pytest.approx(theta, abs=1e-12)
    for eq in eqs:
        rate_i, rate_u = sl.reaction_rates(model, eq.ni, eq.nu)
        assert max(abs(rate_i), abs(rate_u)) <= 1e-14
    # the extinction state is the resident state the introductions start from
    resident = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)[0].nu.values[0]
    assert ext.nu == resident
    for fn in (sl.invasion_threshold, sl.invasion_frequency):
        with pytest.raises(ValueError, match="needs the perfect or imperfect variant"):
            fn(model)


def test_equilibria_reject_oversized_eps(fig1_params):
    # at eps = 4 the resident equilibrium would need negative density
    with pytest.raises(ValueError):
        sl.equilibria(perfect(fig1_params, 4.0))


@pytest.mark.parametrize("model, message", [
    (sl.ScaledModel(sl.WolbachiaParams(1.12, 0.27, 10 / 9, 0.1, 0.8, 1.0), 5.0),
     "eps=5 exceeds the resident-equilibrium range eps < fu/du"),
    (sl.ScaledModel(sl.WolbachiaParams(1.12, 1.2, 10 / 9, 0.1, 0.8, 1.0), 0.1,
                    sl.Variant.ALTERNATIVE), "resident equilibrium needs du < fu"),
], ids=["perfect", "alternative"])
def test_resident_total_owns_the_existence_rule(model, message):
    # the extinction row and every introduction read the one resident state
    for fn in (lambda: model.resident_total, lambda: sl.equilibria(model)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn()


@pytest.mark.parametrize("eps", [1e-6, 3e-9, 1e-9])
@pytest.mark.parametrize("variant, mu", [(sl.Variant.PERFECT, 0.0), (sl.Variant.IMPERFECT, 0.05)],
                         ids=["perfect", "imperfect"])
def test_equilibria_keep_their_labels_at_small_eps(fig1_params, variant, mu, eps):
    # the rates at a steady state are round-off of 1/eps - sigma n times fu n
    params = dataclasses.replace(fig1_params, mu=mu)
    eqs = sl.equilibria(sl.ScaledModel(params, eps, variant))
    reference = sl.equilibria(sl.ScaledModel(params, 0.1, variant))
    assert [e.kind for e in eqs] == [e.kind for e in reference]
    assert [e.stability for e in eqs] == [e.stability for e in reference] == \
        [sl.Stability.STABLE, sl.Stability.STABLE, sl.Stability.UNSTABLE, sl.Stability.UNSTABLE]


def _slow_eigenvalues(model):
    # each equilibrium's smallest-magnitude eigenvalue; the origin has none
    # of order 1, both of its eigenvalues grow like 1/eps
    return [min(sl.classify_stability(model, (e.ni, e.nu)).eigenvalues, key=abs)
            for e in sl.equilibria(model) if e.kind is not sl.EquilibriumKind.ORIGIN]


@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-12])
@pytest.mark.parametrize("variant, mu", [(sl.Variant.PERFECT, 0.0), (sl.Variant.IMPERFECT, 0.05)],
                         ids=["perfect", "imperfect"])
def test_slow_eigenvalues_hold_at_small_eps(fig1_params, variant, mu, eps):
    # the O(1) eigenvalue is the motion along the slow manifold, read next to
    # a fast one of order 1/eps
    params = dataclasses.replace(fig1_params, mu=mu)
    got = _slow_eigenvalues(sl.ScaledModel(params, eps, variant))
    reference = _slow_eigenvalues(sl.ScaledModel(params, 1e-6, variant))
    assert got == pytest.approx(reference, rel=1e-3)


@pytest.mark.parametrize("fu", [1e12, 1e14, 1e15, 1e16, 1e307])
def test_classify_stability_rejects_a_slow_eigenvalue_lost_to_rounding(fig1_params, fu):
    # the coexistence saddle's slow eigenvalue, +0.0523 at fu = 1.12, sits next
    # to a fast one of about -8.3*fu; at 1e12 it still reads +0.0527, at 1e15
    # it came out negative and the saddle was labelled stable
    prm = dataclasses.replace(fig1_params, fu=fu)
    model = perfect(prm)
    theta = sl.invasion_threshold(model)
    n = model.carrying_total - prm.delta * prm.du / (prm.sigma * fu * (1.0 - prm.sf))
    saddle = (theta * n, (1.0 - theta) * n)
    if fu < 1e13:
        assert [e.stability for e in sl.equilibria(model)] == \
            [sl.Stability.STABLE, sl.Stability.STABLE, sl.Stability.UNSTABLE, sl.Stability.UNSTABLE]
        slow = max(e.real for e in sl.classify_stability(model, saddle).eigenvalues)
        assert slow == pytest.approx(0.0523, rel=0.02)
    else:
        for fn in (lambda: sl.equilibria(model), lambda: sl.classify_stability(model, saddle)):
            with pytest.raises(ValueError, match="where rounding decides its sign$"):
                fn()


def test_classify_stability_rejects_non_equilibrium(fig1_params):
    with pytest.raises(ValueError):
        sl.classify_stability(perfect(fig1_params), (1.0, 1.0))


def test_classify_stability_origin(fig1_params):
    result = sl.classify_stability(perfect(fig1_params), (0.0, 0.0))
    assert result.stability is sl.Stability.UNSTABLE
    assert not result.marginal
    # growth rates at vacuum are the linearized eigenvalues
    expected = ((1 - 0.1) * 1.12 / 0.1 - (10 / 9) * 0.27, 1.12 / 0.1 - 0.27)
    got = sorted(e.real for e in result.eigenvalues)
    assert got == pytest.approx(sorted(expected), rel=1e-5)


def _plain_kinetics(model, ni, nu):
    # the kinetics as plain expressions, logistic factor unclipped; the
    # difference steps never land on vacuum
    prm, eps, mu = model.params, model.epsilon, model.params.mu
    total = ni + nu
    p = ni / total
    if model.variant is sl.Variant.ALTERNATIVE:
        logistic = 1.0 - eps * prm.sigma * total
    else:
        logistic = 1.0 / eps - prm.sigma * total
    births_i = (1.0 - mu) * (1.0 - prm.sf) * prm.fu * ni
    births_u = prm.fu * (nu * (1.0 - prm.sh * p) + mu * (1.0 - prm.sf) * ni * p)
    return np.array([births_i * logistic - prm.delta * prm.du * ni,
                     births_u * logistic - prm.du * nu])


@pytest.mark.parametrize("variant, mu", [(sl.Variant.PERFECT, 0.0), (sl.Variant.IMPERFECT, 0.05),
                                         (sl.Variant.ALTERNATIVE, 0.0)],
                         ids=["perfect", "imperfect", "alternative"])
def test_classify_stability_matches_difference_oracle(fig1_params, variant, mu):
    # the closed-form Jacobian against central differences of the kinetics
    # written out here, at all four equilibria at eps = 0.1
    model = sl.ScaledModel(dataclasses.replace(fig1_params, mu=mu), 0.1, variant)
    for eq in sl.equilibria(model):
        step = 1e-6 * max(1.0, eq.ni + eq.nu)
        jac = np.column_stack([
            (_plain_kinetics(model, eq.ni + di, eq.nu + du)
             - _plain_kinetics(model, eq.ni - di, eq.nu - du)) / (2.0 * step)
            for di, du in ((step, 0.0), (0.0, step))])
        got = sl.classify_stability(model, (eq.ni, eq.nu)).eigenvalues
        assert np.sort_complex(got) == pytest.approx(np.sort_complex(np.linalg.eigvals(jac)),
                                                     rel=1e-6), eq.kind


# ---------------------------------------------------------------------------
# assumption audit


def test_check_assumptions_passes_reference(fig1_params):
    report = sl.check_assumptions(perfect(fig1_params))
    assert report.passed
    assert [c.name for c in report.checks] == ["drift_slope", "bistable"]
    assert report["drift_slope"].margin <= -0.83
    assert report["bistable"].passed


def test_check_assumptions_flags_ordering_violation():
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.9, sh=0.8, sigma=1.0)
    report = sl.check_assumptions(sl.ScaledModel(params, 0.1))
    assert not report.passed
    check = report["drift_slope"]
    assert not check.passed
    assert check.margin >= 0.0


def test_check_assumptions_flags_monostable_delta():
    params = sl.WolbachiaParams(fu=1.12, du=0.27, delta=5.0, sf=0.1, sh=0.8, sigma=1.0)
    report = sl.check_assumptions(sl.ScaledModel(params, 0.1))
    assert report["drift_slope"].passed
    assert not report["bistable"].passed
    assert not report.passed


def test_check_assumptions_verdicts_do_not_depend_on_eps():
    # slope and bistability are eps-free, so one rung's audit speaks for a ladder
    rng = np.random.default_rng(23)
    seen = set()
    for k in range(200):
        variant = (sl.Variant.PERFECT, sl.Variant.IMPERFECT)[k % 2]
        params = sl.WolbachiaParams(
            fu=rng.uniform(0.2, 3.0), du=rng.uniform(0.05, 1.0),
            delta=1.0 + rng.uniform(0.0, 2.0), sf=rng.uniform(0.0, 1.0),
            sh=rng.uniform(0.05, 1.0), sigma=rng.uniform(0.2, 3.0),
            mu=rng.uniform(0.0, 0.2) if variant is sl.Variant.IMPERFECT else 0.0)
        audits = [sl.check_assumptions(sl.ScaledModel(params, eps, variant))
                  for eps in np.geomspace(1e-6, 10.0, 15)]
        verdicts = {tuple(c.passed for c in audit.checks) for audit in audits}
        assert len(verdicts) == 1
        seen |= verdicts
    # the sample holds both clean and failing audits
    assert len(seen) > 1


def test_assumption_report_rejects_unknown_row(fig1_params):
    with pytest.raises(KeyError):
        sl.check_assumptions(perfect(fig1_params))["nope"]


def test_check_assumptions_imperfect(fig2_params):
    model = sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)
    assert sl.check_assumptions(model).passed


LEAKY = sl.WolbachiaParams(fu=1.12, du=0.27, delta=10 / 9, sf=0.1, sh=0.8,
                          sigma=1.0, mu=0.05)


@pytest.mark.parametrize("variant", [sl.Variant.PERFECT, sl.Variant.IMPERFECT])
def test_check_assumptions_exact_margins(fig1_params, variant):
    params = fig1_params if variant is sl.Variant.PERFECT else LEAKY
    model = sl.ScaledModel(params, 0.1, variant)
    cap = model.carrying_total
    report = sl.check_assumptions(model)
    slope = report["drift_slope"]
    assert slope.margin == -sl.drift_slope_bound(model)
    a, b = sl.model._quadratic_coeffs(model)
    vertex = b / (2 * a)
    assert slope.location == (vertex * cap, (1 - vertex) * cap)


def _raises(fn):
    try:
        fn()
    except ValueError:
        return True
    return False


def test_check_assumptions_matches_brute_force_oracle():
    # closed-form rows against the kinetics evaluated on 101 points per edge,
    # and the two conditions that need no row (inward flux at carrying
    # capacity, positive vacuum drift) hold for every accepted parameter set
    rng = np.random.default_rng(17)
    edge = np.linspace(0.0, 1.0, 101)
    outcomes = set()
    for k in range(300):
        variant = (sl.Variant.PERFECT, sl.Variant.IMPERFECT)[k % 2]
        params = sl.WolbachiaParams(
            fu=rng.uniform(0.2, 3.0), du=rng.uniform(0.05, 1.0),
            delta=1.0 + rng.uniform(0.0, 2.0), sf=rng.uniform(0.0, 1.0),
            sh=rng.uniform(0.05, 1.0), sigma=rng.uniform(0.2, 3.0),
            mu=rng.uniform(0.0, 0.2) if variant is sl.Variant.IMPERFECT else 0.0)
        model = sl.ScaledModel(params, rng.uniform(0.01, 0.5), variant)
        cap = model.carrying_total
        report = sl.check_assumptions(model)

        slope = report["drift_slope"]
        assert slope.passed != _raises(lambda: sl.drift_slope_bound(model))
        if slope.passed:
            sampled = -params.sigma * params.fu * sl.model._denominator(model, edge)
            assert sampled.max() <= slope.margin + 1e-12 * params.sigma * params.fu

        rate_i, rate_u = _kinetics(model, edge * cap, cap - edge * cap)
        assert (rate_i + rate_u).max() < 0
        assert sl.reduced_drift(model, 0.0, edge).min() >= params.du

        bistable = report["bistable"].passed
        assert bistable != _raises(lambda: sl.invasion_threshold(model))
        outcomes.add((slope.passed, bistable))
    # each conditional row both passes and fails within the sample
    assert {s for s, _ in outcomes} == {b for _, b in outcomes} == {True, False}


def test_bcondition_quadform_matches_drift_slope(fig1_params):
    # the closed-form slope bound is equivalent to the quadratic-form condition
    # n1^2 d1f1 + n1 n2 (d2f1 + d1f2) + n2^2 d2f2 <= -B (n1+n2)^2, checked
    # here with finite differences of the primitive kinetics
    model = perfect(fig1_params)
    bound = sl.drift_slope_bound(model)
    rng = np.random.default_rng(11)
    step = 1e-6
    for _ in range(200):
        n1 = rng.uniform(0.01, 5.0)
        n2 = rng.uniform(0.01, 5.0 - n1 * 0.5)

        def f(i, a, b):
            rates = _kinetics(model, a, b)
            return rates[i] / (a if i == 0 else b)

        d1f1 = (f(0, n1 + step, n2) - f(0, n1 - step, n2)) / (2 * step)
        d2f1 = (f(0, n1, n2 + step) - f(0, n1, n2 - step)) / (2 * step)
        d1f2 = (f(1, n1 + step, n2) - f(1, n1 - step, n2)) / (2 * step)
        d2f2 = (f(1, n1, n2 + step) - f(1, n1, n2 - step)) / (2 * step)
        quad = n1 ** 2 * d1f1 + n1 * n2 * (d2f1 + d1f2) + n2 ** 2 * d2f2
        assert quad <= -bound * (n1 + n2) ** 2 + 1e-4
