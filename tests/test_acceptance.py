"""Acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a single PASS line when it holds (run pytest with -s to stream the
lines; a failed assertion is the FAIL line).  Long simulations are shared
through session fixtures; total runtime is well under the stated budgets.
"""

import math

import numpy as np
import pytest

import singlimit as sl

WINDOW = (75.0, 125.0)
EPS_LADDER = (0.3, 0.1, 0.05, 0.02)

# frozen pre-build bisection values for the leaked-transmission roots
THETA_MU = 0.171781466548854
P_HIGH_MU = 0.942504247736861


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="session")
def spec_default():
    return sl.InitialDataSpec()


@pytest.fixture(scope="session")
def cfg25(grid601):
    return sl.SolverConfig(grid601, dt=0.005, t_end=25.0, diffusivity=0.1,
                           output_every=200)


@pytest.fixture(scope="session")
def cfg125(grid601):
    return sl.SolverConfig(grid601, dt=0.005, t_end=125.0, diffusivity=0.1,
                           output_every=200)


@pytest.fixture(scope="session")
def sweep_result(fig1_params, spec_default, cfg25):
    rep, _, reduced_series = sl.run_convergence_sweep(
        fig1_params, sl.Variant.PERFECT, EPS_LADDER, spec_default, cfg25)
    return rep, reduced_series


@pytest.fixture(scope="session")
def limit125(fig1_params, spec_default, cfg125, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    _, p_init = sl.make_initial_data(model, spec_default, grid601)
    return sl.run_scalar(lambda v: sl.limit_reaction(model, v), p_init, cfg125)


def ladder_runs(params, variant, epsilons, spec, config, grid):
    """(model, series) per eps, from one stacked run_system call."""
    models = [sl.ScaledModel(params, eps, variant) for eps in epsilons]
    states = [sl.make_initial_data(m, spec, grid)[0] for m in models]
    return list(zip(models, sl.run_system(models, states, config)))


@pytest.fixture(scope="session")
def sys125(fig1_params, spec_default, cfg125, grid601):
    return ladder_runs(fig1_params, sl.Variant.PERFECT, (0.6, 0.1), spec_default,
                       cfg125, grid601)


@pytest.fixture(scope="session")
def sys06_125(sys125):
    return sys125[0]


@pytest.fixture(scope="session")
def sys01_125(sys125):
    return sys125[1]


@pytest.fixture(scope="session")
def alt_runs(fig1_params, spec_default, cfg25, grid601):
    runs = ladder_runs(fig1_params, sl.Variant.ALTERNATIVE, (0.1, 0.05), spec_default,
                       cfg25, grid601)
    return {model.epsilon: [sl.to_reduced(model, s) for s in series]
            for model, series in runs}


@pytest.fixture(scope="session")
def mu_model(fig2_params):
    return sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)


@pytest.fixture(scope="session")
def mu_limit125(mu_model, cfg125, grid601):
    spec = sl.InitialDataSpec(amplitude=0.35, radius=1.6, smoothing=0.5)
    _, p_init = sl.make_initial_data(mu_model, spec, grid601)
    return p_init, sl.run_scalar(lambda v: sl.limit_reaction(mu_model, v), p_init, cfg125)


# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_identities(fig1_params, fig2_params):
    p = np.linspace(0.0, 1.0, 101)
    for model in (sl.ScaledModel(fig1_params, 0.1),
                  sl.ScaledModel(fig2_params, 0.1, sl.Variant.IMPERFECT)):
        worst = np.max(np.abs(sl.reduced_drift(model, sl.slow_manifold(model, p), p)))
        assert worst <= 1e-12

    model = sl.ScaledModel(fig1_params, 0.1)
    assert sl.limit_reaction(model, 0.0) == 0.0
    assert sl.limit_reaction(model, 1.0) == 0.0

    inner = np.linspace(0.0, 1.0, 1001)[1:-1]
    values = sl.limit_reaction(model, inner)
    flips = np.nonzero(values[:-1] * values[1:] < 0.0)[0]
    assert len(flips) == 1
    lo, hi = inner[flips[0]], inner[flips[0] + 1]
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if sl.limit_reaction(model, lo) * sl.limit_reaction(model, mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 0.2375) <= 1e-12
    report(1, f"drift zero on manifold to 1e-12; r(0)=r(1)=0; single sign "
              f"change at {root:.12f}")


def test_criterion_2_equilibria(fig1_params):
    model = sl.ScaledModel(fig1_params, 0.1)
    eqs = sl.equilibria(model)
    ext, inv, coex, origin = eqs
    assert ext.nu == pytest.approx(9.758929, abs=1e-6)
    assert inv.ni == pytest.approx(9.702381, abs=1e-6)
    assert coex.ni == pytest.approx(2.304316, abs=1e-6)
    assert coex.nu == pytest.approx(7.398066, abs=1e-6)
    for eq in eqs:
        rate_i, rate_u = sl.reaction_rates(model, eq.ni, eq.nu)
        assert max(abs(rate_i), abs(rate_u)) <= 1e-9 * max(1.0, eq.ni + eq.nu)
    assert [e.stability for e in eqs] == [sl.Stability.STABLE, sl.Stability.STABLE,
                                          sl.Stability.UNSTABLE, sl.Stability.UNSTABLE]
    report(2, "four steady states at reference coordinates, kinetics zeroed to "
              "1e-9, stability stable/stable/unstable/unstable")


def test_criterion_3_assumption_audit(fig1_params):
    margins = []
    for eps in (0.6, 0.3, 0.1, 0.05, 0.02):
        rep = sl.check_assumptions(sl.ScaledModel(fig1_params, eps), samples=100)
        assert rep.passed, f"audit failed at eps={eps}"
        margins.append(rep["drift_slope"].margin)
        assert rep["drift_slope"].margin <= -0.83
    report(3, f"audit clean for 5 eps values; worst drift-slope margin "
              f"{max(margins):.4f} <= -0.83")


def test_criterion_4_solver_verification():
    def heat_error(dx):
        grid = sl.Grid1D.from_spacing(-15.0, 15.0, dx)
        config = sl.SolverConfig(grid, dt=2.0 * dx * dx, t_end=1.0, diffusivity=0.1,
                                 output_every=10 ** 9)
        start = sl.Field(np.exp(-grid.x ** 2 / 2.0), grid)
        tf, pf = sl.run_scalar(lambda v: np.zeros_like(v), start, config)[-1]
        var = 1.0 + 0.2 * tf
        exact = np.sqrt(1.0 / var) * np.exp(-grid.x ** 2 / (2.0 * var))
        return float(np.max(np.abs(pf.values - exact)))

    reference = heat_error(0.05)
    assert reference <= 2e-4
    errors = {dx: heat_error(dx) for dx in (0.25, 0.1)}
    order_a = math.log(errors[0.25] / errors[0.1]) / math.log(0.25 / 0.1)
    order_b = math.log(errors[0.1] / reference) / math.log(0.1 / 0.05)
    assert order_a >= 1.9 and order_b >= 1.9

    rng = np.random.default_rng(1234)
    for _ in range(100):
        n = 50
        system = sl.TridiagonalSystem(rng.uniform(-1, 1, n - 1),
                                      2.5 + rng.uniform(0, 1, n),
                                      rng.uniform(-1, 1, n - 1),
                                      rng.uniform(-1, 1, n))
        got = sl.tridiagonal_solve(system)
        want = np.linalg.solve(system.dense(), system.rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    report(4, f"heat-kernel max error {reference:.2e} <= 2e-4, observed orders "
              f"{order_a:.2f}/{order_b:.2f} >= 1.9, 100 tridiagonal solves match "
              f"dense LU to 1e-12")


def test_criterion_5_convergence(sweep_result):
    rep, _ = sweep_result
    assert rep.epsilons == EPS_LADDER
    assert all(b < a for a, b in zip(rep.err_p, rep.err_p[1:])), rep.err_p
    assert all(b < a for a, b in zip(rep.err_m, rep.err_m[1:])), rep.err_m
    assert rep.err_m[-1] < 0.5 * rep.err_m[0]
    report(5, "err_p " + "/".join(f"{v:.4f}" for v in rep.err_p)
              + " and err_m " + "/".join(f"{v:.4f}" for v in rep.err_m)
              + f" strictly decreasing; ratio {rep.err_m[-1] / rep.err_m[0]:.3f} < 0.5")


def test_criterion_6_extinction_contrast(fig1_params, spec_default, cfg125,
                                         sys06_125, grid601):
    model, series = sys06_125
    final = sl.to_reduced(model, series[-1]).p.values
    assert final.max() < 0.1
    verdict_limit = sl.extinction_check(model, spec_default, cfg125, equation="limit")
    assert verdict_limit is sl.Verdict.INVADED
    _, p_init = sl.make_initial_data(model, spec_default, grid601)
    support = p_init.values > 0
    report(6, f"eps=0.6 collapses (max p(125) = {final.max():.3g} < 0.1) while the "
              f"limit equation invades the same bump (support of {support.sum()} nodes)")


def test_criterion_7_wave_speed_ordering(limit125, sys01_125, grid601):
    model, series = sys01_125
    p_series = [(s.time, sl.to_reduced(model, s).p) for s in series]
    speed_limit = sl.estimate_wave_speed(limit125, WINDOW)
    speed_system = sl.estimate_wave_speed(p_series, WINDOW)
    assert speed_limit > 0 and speed_system > 0
    assert speed_system < speed_limit

    times = np.arange(0.0, 31.0, 1.0)
    synthetic = [(t, sl.Field(1.0 / (1.0 + np.exp(grid601.x - 0.37 * t)), grid601))
                 for t in times]
    synth = sl.estimate_wave_speed(synthetic, (5.0, 30.0))
    assert synth == pytest.approx(0.37, abs=1e-3)
    report(7, f"speeds over [75,125]: system(eps=0.1) {speed_system:.6f} < limit "
              f"{speed_limit:.6f}, both positive; synthetic estimator error "
              f"{abs(synth - 0.37):.2e} <= 1e-3")


def test_criterion_8_alternative_scaling_invariance(alt_runs):
    worst = 0.0
    for ra, rb in zip(alt_runs[0.1], alt_runs[0.05]):
        scale_n = max(1.0, float(np.max(np.abs(ra.n.values))))
        worst = max(worst, float(np.max(np.abs(ra.n.values - rb.n.values))) / scale_n,
                    float(np.max(np.abs(ra.p.values - rb.p.values))))
    assert worst <= 1e-8
    report(8, f"reduced trajectories at eps and eps/2 agree to {worst:.2e} "
              f"(tolerance 1e-8) over [0, 25]")


def test_criterion_9_runtime_invariants(fig1_params, sweep_result, sys06_125,
                                        sys01_125, alt_runs, limit125):
    checked = 0
    h_cap = sl.slow_manifold_max(sl.ScaledModel(fig1_params, 0.1))

    _, reduced_series = sweep_result
    for eps, reduced in zip(EPS_LADDER, reduced_series):
        cap = 1.0 / (1.0 * eps)
        n_bound = max(h_cap, reduced[0].n.values.max()) + 1e-6
        for r in reduced:
            assert r.p.values.min() >= -1e-12 and r.p.values.max() <= 1 + 1e-12
            assert r.n.values.max() <= n_bound
            assert cap - r.n.values.max() >= -1e-12  # total density stays >= 0
            checked += 1

    for model, series in (sys06_125, sys01_125):
        n_bound = max(h_cap, sl.to_reduced(model, series[0]).n.values.max()) + 1e-6
        for state in series:
            assert state.ni.values.min() >= -1e-12
            assert state.nu.values.min() >= -1e-12
            reduced = sl.to_reduced(model, state)
            assert reduced.p.values.min() >= -1e-12
            assert reduced.p.values.max() <= 1 + 1e-12
            assert reduced.n.values.max() <= n_bound
            checked += 1

    for eps, reduced in alt_runs.items():
        n_bound = reduced[0].n.values.max() + 1e-6
        for r in reduced:
            assert r.n.values.min() >= -1e-12
            assert r.n.values.max() <= n_bound
            assert r.p.values.min() >= -1e-12 and r.p.values.max() <= 1 + 1e-12
            checked += 1

    for _, field in limit125:
        assert field.values.min() >= 0.0 and field.values.max() <= 1.0
        checked += 1
    report(9, f"density positivity, frequency box and population ceiling hold on "
              f"{checked} snapshots across all criterion 5-8 runs")


def test_criterion_10_leaked_transmission(mu_model, mu_limit125, grid601):
    theta = sl.invasion_threshold(mu_model)
    p_high = sl.invasion_frequency(mu_model)
    assert theta == pytest.approx(0.17178, abs=1e-4)
    assert p_high == pytest.approx(0.94251, abs=1e-4)
    assert theta == pytest.approx(THETA_MU, abs=1e-11)
    assert p_high == pytest.approx(P_HIGH_MU, abs=1e-11)

    p_init, series = mu_limit125
    final = series[-1][1].values
    plateau = final[grid601.nx // 2]
    assert abs(plateau - p_high) <= 0.01
    support = p_init.values > 0
    assert final[support].min() > 0.9  # the front has invaded the bump
    report(10, f"leaked-transmission roots {theta:.5f}/{p_high:.5f} match the "
               f"bisection oracle; plateau {plateau:.4f} within 0.01 of the "
               f"invasion frequency at t=125")
