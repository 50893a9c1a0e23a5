import numpy as np
import pytest

import singlimit as sl


def quick_config(grid, t_end=2.0):
    return sl.SolverConfig(grid, dt=0.02, t_end=t_end, diffusivity=0.1, output_every=25)


@pytest.fixture(scope="module")
def coarse_grid():
    return sl.Grid1D.from_spacing(-15.0, 15.0, 0.25)


# ---------------------------------------------------------------------------
# initial data


def test_initial_data_spec_validation():
    with pytest.raises(ValueError):
        sl.InitialDataSpec(amplitude=1.0)
    with pytest.raises(ValueError):
        sl.InitialDataSpec(amplitude=0.0)
    with pytest.raises(ValueError):
        sl.InitialDataSpec(radius=0.0)
    with pytest.raises(ValueError):
        sl.InitialDataSpec(smoothing=-0.1)


def test_initial_data_outside_bump_is_resident_equilibrium(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    state, p_init = sl.make_initial_data(model, sl.InitialDataSpec(0.4, 1.6, 0.5), grid601)
    outside = np.abs(grid601.x) > 2.1 + 1e-9
    assert np.array_equal(state.ni.values[outside], np.zeros(outside.sum()))
    resident = 10.0 - sl.slow_manifold(model, 0.0)
    assert np.array_equal(state.nu.values[outside], np.full(outside.sum(), resident))
    assert np.array_equal(p_init.values[outside], np.zeros(outside.sum()))
    assert p_init.values[grid601.nx // 2] == 0.4


def test_initial_data_inverts_to_bump(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    state, p_init = sl.make_initial_data(model, sl.InitialDataSpec(0.4, 1.6, 0.5), grid601)
    reduced = sl.to_reduced(model, state)
    assert np.max(np.abs(reduced.p.values - p_init.values)) < 1e-14


def test_initial_reduced_population_uniform(fig1_params, grid601):
    h0 = 0.27 / 1.12
    fields = []
    for eps in (0.1, 0.02):
        model = sl.ScaledModel(fig1_params, eps)
        state, p_init = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
        reduced = sl.to_reduced(model, state)
        assert np.max(np.abs(reduced.n.values - h0)) < 1e-12
        expected_m = h0 - sl.slow_manifold(model, p_init.values)
        assert np.max(np.abs(reduced.m.values - expected_m)) < 1e-12
        fields.append(reduced.m.values)
    # the residual profile is the same for every eps
    assert np.max(np.abs(fields[0] - fields[1])) < 1e-10


def test_initial_data_must_fit_domain(fig1_params):
    grid = sl.Grid1D.from_spacing(-3.0, 3.0, 0.1)
    model = sl.ScaledModel(fig1_params, 0.1)
    with pytest.raises(ValueError):
        sl.make_initial_data(model, sl.InitialDataSpec(0.4, 2.8, 0.5), grid)


def test_initial_data_alternative_scaling(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1, sl.Variant.ALTERNATIVE)
    state, p_init = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
    reduced = sl.to_reduced(model, state)
    assert np.max(np.abs(reduced.n.values - (1.0 - 0.27 / 1.12))) < 1e-12
    assert np.max(np.abs(reduced.p.values - p_init.values)) < 1e-14


# ---------------------------------------------------------------------------
# wave speed


def synthetic_front(speed, grid, times, width=1.0):
    out = []
    for t in times:
        values = 1.0 / (1.0 + np.exp((grid.x - speed * t) / width))
        out.append((t, sl.Field(values, grid)))
    return out


def test_speed_estimator_on_translating_profile(grid601):
    series = synthetic_front(0.37, grid601, np.arange(0.0, 31.0, 1.0))
    speed = sl.estimate_wave_speed(series, window=(5.0, 30.0))
    assert speed == pytest.approx(0.37, abs=1e-3)


def test_speed_estimator_stationary(grid601):
    series = synthetic_front(0.0, grid601, np.arange(0.0, 11.0, 1.0))
    assert abs(sl.estimate_wave_speed(series, window=(0.0, 10.0))) < 1e-12


def test_speed_estimator_missing_level_set(grid601):
    low = [(t, sl.Field.constant(0.2, grid601)) for t in (0.0, 1.0, 2.0)]
    with pytest.raises(ValueError, match="snapshot 0"):
        sl.estimate_wave_speed(low, window=(0.0, 2.0))


def test_speed_estimator_boundary_contamination(grid601):
    # crossing parked within 2*dx of the right edge
    series = []
    for t in (0.0, 1.0, 2.0):
        values = 1.0 / (1.0 + np.exp((grid601.x - 14.96) / 0.02))
        series.append((t, sl.Field(values, grid601)))
    with pytest.raises(ValueError, match="boundary"):
        sl.estimate_wave_speed(series, window=(0.0, 2.0))


def test_track_front_positions(grid601):
    series = synthetic_front(0.5, grid601, np.arange(0.0, 11.0, 1.0))
    times, positions = sl.track_front(series, 0.5, (0.0, 10.0))
    assert np.allclose(positions, 0.5 * times, atol=1e-6)


# ---------------------------------------------------------------------------
# frequency runs


def test_frequency_run_matches_direct_runs(fig1_params, coarse_grid):
    model = sl.ScaledModel(fig1_params, 0.1)
    spec = sl.InitialDataSpec()
    config = quick_config(coarse_grid)
    state0, p_init = sl.make_initial_data(model, spec, coarse_grid)

    p_series, states = sl.frequency_run(model, spec, config)
    direct = sl.run_system([model], [state0], config)[0]
    assert len(p_series) == len(states) == len(direct)
    for (t, p), state, ref in zip(p_series, states, direct):
        assert t == ref.time == state.time
        assert np.array_equal(p.values, sl.to_reduced(model, ref).p.values)
        assert np.array_equal(state.ni.values, ref.ni.values)
        assert np.array_equal(state.nu.values, ref.nu.values)

    p_series, states = sl.frequency_run(model, spec, config, equation="limit")
    assert states is None
    direct = sl.run_scalar(lambda v: sl.limit_reaction(model, v), p_init, config)
    assert len(p_series) == len(direct)
    for (t, p), (t_ref, p_ref) in zip(p_series, direct):
        assert t == t_ref
        assert np.array_equal(p.values, p_ref.values)

    with pytest.raises(ValueError, match="equation must be"):
        sl.frequency_run(model, spec, config, equation="both")


# ---------------------------------------------------------------------------
# extinction check


def test_subthreshold_limit_data_dies(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=5.0, diffusivity=0.1,
                             output_every=200)
    verdict = sl.extinction_check(model, sl.InitialDataSpec(amplitude=0.05),
                                  config, equation="limit")
    assert verdict is sl.Verdict.EXTINCT


def test_small_eps_invades(fig1_params, grid601):
    # near-threshold data invades slowly; the plateau fills the support by
    # the reference horizon
    model = sl.ScaledModel(fig1_params, 0.05)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=125.0, diffusivity=0.1,
                             output_every=5000)
    verdict = sl.extinction_check(model, sl.InitialDataSpec(), config)
    assert verdict is sl.Verdict.INVADED


def test_undecided_on_short_horizon(fig1_params, coarse_grid):
    model = sl.ScaledModel(fig1_params, 0.1)
    verdict = sl.extinction_check(model, sl.InitialDataSpec(), quick_config(coarse_grid))
    assert verdict is sl.Verdict.UNDECIDED


def test_extinction_check_rejects_unknown_equation(fig1_params, coarse_grid):
    with pytest.raises(ValueError):
        sl.extinction_check(sl.ScaledModel(fig1_params, 0.1), sl.InitialDataSpec(),
                            quick_config(coarse_grid), equation="both")


# ---------------------------------------------------------------------------
# convergence sweep


def test_single_eps_sweep_equals_direct_composition(fig1_params, coarse_grid):
    spec = sl.InitialDataSpec()
    config = quick_config(coarse_grid)
    # every rung is computed on its own: row k equals the direct composition
    # for its eps, bit for bit, whatever else is on the ladder
    ladder = [0.3, 0.1]
    report, _, _ = sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, ladder,
                                             spec, config)
    first = sl.ScaledModel(fig1_params, ladder[0])
    _, p_init = sl.make_initial_data(first, spec, coarse_grid)
    limit = sl.run_scalar(lambda v: sl.limit_reaction(first, v), p_init, config)
    for k, eps in enumerate(ladder):
        model = sl.ScaledModel(fig1_params, eps)
        state0, _ = sl.make_initial_data(model, spec, coarse_grid)
        reduced = [sl.to_reduced(model, s)
                   for s in sl.run_system([model], [state0], config)[0]]
        err_p, err_m = sl.error_norms(reduced, limit)
        assert report.err_p[k] == err_p
        assert report.err_m[k] == err_m


def test_sweep_is_deterministic(fig1_params, coarse_grid):
    spec = sl.InitialDataSpec()
    config = quick_config(coarse_grid)
    a, _, _ = sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.1], spec,
                                       config)
    b, _, _ = sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.1], spec,
                                       config)
    assert a.epsilons == b.epsilons
    assert a.err_p == b.err_p
    assert a.err_m == b.err_m
    assert a.speeds == b.speeds or (np.isnan(a.speeds).all() and np.isnan(b.speeds).all())


def test_sweep_rejects_bad_ladders(fig1_params, coarse_grid):
    spec = sl.InitialDataSpec()
    config = quick_config(coarse_grid)
    with pytest.raises(ValueError):
        sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.1, 0.3], spec, config)
    with pytest.raises(ValueError):
        sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [], spec, config)
    # eps beyond the admissible range (resident state requires eps < 1/max h)
    with pytest.raises(ValueError, match="admissible"):
        sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [3.5], spec, config)


def test_sweep_rejects_unstable_ladder_before_integrating(fig1_params, coarse_grid,
                                                          monkeypatch):
    # at dt = 0.005 the explicit reaction step needs eps > 0.005*fu/2 = 0.0028
    def no_integration(*args):
        raise AssertionError("the sweep integrated before validating its ladder")

    monkeypatch.setattr("singlimit.experiments.run_scalar", no_integration)
    monkeypatch.setattr("singlimit.experiments.run_system", no_integration)
    config = sl.SolverConfig(coarse_grid, dt=0.005, t_end=0.05, diffusivity=0.1)
    with pytest.raises(ValueError, match=r"eps=0\.0027: dt=0\.005"):
        sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.0027],
                                 sl.InitialDataSpec(), config)


def test_sweep_tags_solver_failures_with_eps(fig1_params, coarse_grid, monkeypatch):
    # the eps = 0.1 rung fails at its 7th rate evaluation, i.e. at step 7,
    # by a NaN that the density settle rejects or by a ValueError from the
    # rates themselves; the eps = 0.3 rung of the same stack stays healthy
    real = sl.solver.reaction_rates
    for failure, reason in (("nan", "infected density became non-finite"),
                            ("raise", "rate rejected")):
        calls = []

        def failing_rates(model, ni, nu):
            rate_i, rate_u = real(model, ni, nu)
            if model.epsilon == 0.1:
                calls.append(1)
                if len(calls) == 7:
                    if failure == "raise":
                        raise ValueError("rate rejected")
                    rate_i = np.full_like(rate_i, np.nan)
            return rate_i, rate_u

        monkeypatch.setattr("singlimit.solver.reaction_rates", failing_rates)
        with pytest.raises(sl.SolverError, match=rf"^eps=0\.1: step 7: {reason}$") as info:
            sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.1],
                                     sl.InitialDataSpec(), quick_config(coarse_grid))
        assert "eps=0.3" not in str(info.value)
        assert info.value.step == 7


def test_sweep_returns_series(fig1_params, coarse_grid):
    config = quick_config(coarse_grid)
    _, limit, reduced_series = sl.run_convergence_sweep(
        fig1_params, sl.Variant.PERFECT, [0.3, 0.1], sl.InitialDataSpec(), config)
    assert len(reduced_series) == 2
    for reduced in reduced_series:
        assert len(reduced) == len(limit)
        assert all(isinstance(r, sl.ReducedFields) for r in reduced)
