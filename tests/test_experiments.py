import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import singlimit as sl
from streams import front_track, rung_series, sweep_series


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


def test_unsmoothed_bump_is_a_step():
    spec = sl.InitialDataSpec(0.4, 1.6, 0.0)
    x = np.array([-3.0, -1.7, -1.6, 0.0, 1.6, 1.6000001, 15.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = spec.profile(x)
    assert profile.tolist() == [0.0, 0.0, 0.4, 0.4, 0.4, 0.0, 0.0]


def test_initial_data_must_fit_domain(fig1_params):
    grid = sl.Grid1D.from_spacing(-3.0, 3.0, 0.1)
    model = sl.ScaledModel(fig1_params, 0.1)
    with pytest.raises(ValueError):
        sl.make_initial_data(model, sl.InitialDataSpec(0.4, 2.8, 0.5), grid)


@pytest.mark.parametrize("eps", [0.3, 0.1, 0.02])
@pytest.mark.parametrize("variant", list(sl.Variant))
def test_initial_data_is_the_reduced_split(fig1_params, grid601, variant, eps):
    # the introduction is the state whose reduced population is the resident
    # one, h(0) or 1 - du/fu, and whose frequency is the bump, bit for bit
    mu = 0.05 if variant is sl.Variant.IMPERFECT else 0.0
    model = sl.ScaledModel(dataclasses.replace(fig1_params, mu=mu), eps, variant)
    state, p_init = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
    if variant is sl.Variant.ALTERNATIVE:
        n_res = 1.0 - fig1_params.du / fig1_params.fu
    else:
        n_res = sl.slow_manifold(model, 0.0)
    reduced = sl.ReducedFields(sl.Field.constant(n_res, grid601), p_init, None, 0.0)
    expected = sl.reduced_to_state(model, reduced)
    assert np.array_equal(state.ni.values, expected.ni.values)
    assert np.array_equal(state.nu.values, expected.nu.values)


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
    speed = front_track(series, (5.0, 30.0), 0.5).speed()
    assert speed == pytest.approx(0.37, abs=1e-3)


def test_speed_estimator_stationary(grid601):
    series = synthetic_front(0.0, grid601, np.arange(0.0, 11.0, 1.0))
    assert abs(front_track(series, (0.0, 10.0), 0.5).speed()) < 1e-12


def test_speed_estimator_missing_level_set(grid601):
    low = [(t, sl.Field.constant(0.2, grid601)) for t in (0.0, 1.0, 2.0)]
    with pytest.raises(ValueError, match="snapshot 0"):
        front_track(low, (0.0, 2.0), 0.5).speed()


def test_speed_estimator_boundary_contamination(grid601):
    # crossing parked within 2*dx of the right edge
    series = []
    for t in (0.0, 1.0, 2.0):
        values = 1.0 / (1.0 + np.exp((grid601.x - 14.96) / 0.02))
        series.append((t, sl.Field(values, grid601)))
    with pytest.raises(ValueError, match="boundary"):
        front_track(series, (0.0, 2.0), 0.5).speed()


def test_track_front_drops_pairs_at_the_level(grid601):
    # equal neighbours pass the sign test only when both sit at the level,
    # and those pairs are dropped: the crossing leaves a flat stretch at 0.5
    # from its last node
    values = np.zeros(grid601.nx)
    values[:280], values[280:321] = 1.0, 0.5
    track = front_track([(0.0, sl.Field(values, grid601))], (0.0, 1.0), 0.5)
    _, positions = np.array(track.points).T
    assert positions.tolist() == [grid601.x[320]] == [1.0]
    flat = [(0.0, sl.Field.constant(0.5, grid601))]
    with pytest.raises(ValueError, match="has no 0.5-level crossing"):
        front_track(flat, (0.0, 1.0), 0.5)
    # a tiny level: the products of the two differences would underflow to 0
    # on the flat stretch at 2e-200 right of the crossing
    values = np.zeros(grid601.nx)
    values[:300], values[340:] = 1.0, 2e-200
    track = front_track([(0.0, sl.Field(values, grid601))], (0.0, 1.0), 1e-200)
    _, positions = np.array(track.points).T
    assert positions == pytest.approx([grid601.x[339] + 0.5 * grid601.dx], abs=1e-12)


def test_track_front_positions(grid601):
    series = synthetic_front(0.5, grid601, np.arange(0.0, 11.0, 1.0))
    times, positions = np.array(front_track(series, (0.0, 10.0), 0.5).points).T
    assert np.allclose(positions, 0.5 * times, atol=1e-6)
    with pytest.raises(ValueError, match=r"speed_level must lie in \(0, 1\)"):
        front_track(series, (0.0, 10.0), 1.0)
    with pytest.raises(sl.FieldError, match="speed_window must be an increasing pair") as info:
        sl.FrontTrack((10.0, 5.0), 0.5)
    assert info.value.fields[0] == "speed_window"


# ---------------------------------------------------------------------------
# frequency runs


def test_frequency_run_matches_direct_runs(fig1_params, coarse_grid):
    model = sl.ScaledModel(fig1_params, 0.1)
    spec = sl.InitialDataSpec()
    config = quick_config(coarse_grid)
    state0, p_init = sl.make_initial_data(model, spec, coarse_grid)

    frames = []
    sl.frequency_run(model, spec, config, on_frame=lambda *frame: frames.append(frame))
    direct = rung_series([model], [state0], config)[0]
    assert len(frames) == len(direct) == config.n_frames
    for (t, p, state), ref in zip(frames, direct):
        assert t == ref.time == state.time
        assert np.array_equal(p.values, sl.to_reduced(model, ref).p.values)
        assert np.array_equal(state.ni.values, ref.ni.values)
        assert np.array_equal(state.nu.values, ref.nu.values)

    frames = []
    sl.frequency_run(model, spec, config, equation="limit",
                     on_frame=lambda *frame: frames.append(frame))
    direct = []
    sl.run_scalar(lambda v: sl.limit_reaction(model, v), p_init, config,
                  on_frame=direct.append)
    assert len(frames) == len(direct) == config.n_frames
    for (t, p, state), (t_ref, p_ref) in zip(frames, direct):
        assert state is None
        assert t == t_ref
        assert np.array_equal(p.values, p_ref.values)

    with pytest.raises(ValueError, match="equation must be"):
        sl.frequency_run(model, spec, config, equation="both", on_frame=lambda *frame: None)


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
    report, limit_series, _ = sweep_series(fig1_params, sl.Variant.PERFECT, ladder,
                                           spec, config)
    first = sl.ScaledModel(fig1_params, ladder[0])
    _, p_init = sl.make_initial_data(first, spec, coarse_grid)
    limit = []
    sl.run_scalar(lambda v: sl.limit_reaction(first, v), p_init, config, on_frame=limit.append)
    assert [t for t, _ in limit_series] == [t for t, _ in limit]
    assert all(np.array_equal(a.values, b.values) for (_, a), (_, b) in zip(limit_series, limit))
    for k, eps in enumerate(ladder):
        model = sl.ScaledModel(fig1_params, eps)
        state0, _ = sl.make_initial_data(model, spec, coarse_grid)
        frames = rung_series([model], [state0], config)[0]
        assert len(frames) == len(limit) == config.n_frames
        norms = [(t, *sl.error_norms(sl.to_reduced(model, s), (t, p0)))
                 for s, (t, p0) in zip(frames, limit)]
        assert report.err_p[k] == sl.l2_spacetime([(t, e) for t, e, _ in norms], config.t_end)
        assert report.err_m[k] == sl.l2_spacetime([(t, e) for t, _, e in norms], config.t_end)


def test_sweep_is_deterministic(fig1_params, coarse_grid):
    spec = sl.InitialDataSpec()
    config = quick_config(coarse_grid)
    a, _, _ = sweep_series(fig1_params, sl.Variant.PERFECT, [0.3, 0.1], spec,
                                       config)
    b, _, _ = sweep_series(fig1_params, sl.Variant.PERFECT, [0.3, 0.1], spec,
                                       config)
    assert a.epsilons == b.epsilons
    assert a.err_p == b.err_p
    assert a.err_m == b.err_m
    assert a.speeds == b.speeds or (np.isnan(a.speeds).all() and np.isnan(b.speeds).all())


def test_sweep_rejects_bad_ladders(fig1_params, coarse_grid):
    spec = sl.InitialDataSpec()
    config = quick_config(coarse_grid)
    for ladder, message in (([0.1, 0.3], "eps ladder must be strictly decreasing"),
                            ([], "empty eps ladder"),
                            ([0.1, -0.1], "eps values must be positive"),
                            ([0.1000001, 0.1],
                             "eps values must differ in their first 6 significant digits")):
        with pytest.raises(ValueError, match=message):
            sweep_series(fig1_params, sl.Variant.PERFECT, ladder, spec, config)
    # eps beyond the admissible range (resident state requires eps < 1/(sigma max h))
    with pytest.raises(ValueError, match="admissible"):
        sweep_series(fig1_params, sl.Variant.PERFECT, [3.5], spec, config)


@pytest.mark.parametrize("sigma, eps, admissible", [(2.0, 3.5, False), (0.5, 2.0, True)])
def test_sweep_eps_cap_does_not_depend_on_sigma(fig1_params, coarse_grid, sigma, eps,
                                                admissible):
    # h scales like 1/sigma, so the cap 1/(sigma max h) = 2.908 holds for every sigma
    params = dataclasses.replace(fig1_params, sigma=sigma)
    args = (params, sl.Variant.PERFECT, [eps], sl.InitialDataSpec(), quick_config(coarse_grid))
    if admissible:
        assert np.isfinite(sweep_series(*args)[0].err_p[0])
    else:
        with pytest.raises(ValueError, match=r"eps=3\.5 is outside the admissible range "
                                             r"\(< 2\.908\)"):
            sweep_series(*args)


def test_sweep_audits_its_ladder_once(fig1_params, coarse_grid, monkeypatch):
    # no audit verdict depends on eps, so the first rung admits the ladder
    calls = []
    real = sl.experiments.check_assumptions

    def counting(model):
        calls.append(model.epsilon)
        return real(model)

    monkeypatch.setattr("singlimit.experiments.check_assumptions", counting)
    sweep_series(fig1_params, sl.Variant.PERFECT, [0.3, 0.1, 0.05],
                             sl.InitialDataSpec(), quick_config(coarse_grid, t_end=0.5))
    assert calls == [0.3]


def test_sweep_rejects_unstable_ladder_before_integrating(fig1_params, coarse_grid,
                                                          monkeypatch):
    # at dt = 0.005 the explicit reaction step needs eps > 0.005*fu/2 = 0.0028
    def no_integration(*args, **kwargs):
        raise AssertionError("the sweep integrated before validating its ladder")

    monkeypatch.setattr("singlimit.experiments.run_scalar", no_integration)
    monkeypatch.setattr("singlimit.solver.solve_banded", no_integration)
    config = sl.SolverConfig(coarse_grid, dt=0.005, t_end=0.05, diffusivity=0.1)
    with pytest.raises(ValueError, match=r"eps=0\.0027: dt=0\.005"):
        sweep_series(fig1_params, sl.Variant.PERFECT, [0.3, 0.0027],
                                 sl.InitialDataSpec(), config)


def test_sweep_tags_solver_failures_with_eps(fig1_params, coarse_grid, monkeypatch):
    # the eps = 0.1 rung fails at the 7th stacked rate evaluation, i.e. at
    # step 7, by NaN columns that the density settle rejects; the eps = 0.3
    # rung of the same stack stays healthy
    real = sl.solver.reaction_rates
    calls = []

    def failing_rates(model, ni, nu, epsilon=None):
        rate_i, rate_u = real(model, ni, nu, epsilon)
        calls.append(1)
        if len(calls) == 7:
            rate_i[..., np.atleast_1d(epsilon) == 0.1] = np.nan
        return rate_i, rate_u

    monkeypatch.setattr("singlimit.solver.reaction_rates", failing_rates)
    with pytest.raises(sl.SolverError,
                       match=r"^eps=0\.1: step 7: infected density became non-finite$") as info:
        sweep_series(fig1_params, sl.Variant.PERFECT, [0.3, 0.1],
                                 sl.InitialDataSpec(), quick_config(coarse_grid))
    assert "eps=0.3" not in str(info.value)
    assert info.value.step == 7


def test_sweep_tags_a_limit_run_failure_with_its_series(fig1_params, coarse_grid, monkeypatch):
    # the limit reaction turns NaN from its 7th evaluation, i.e. at step 7,
    # and the frequency settle rejects it
    real = sl.experiments.limit_reaction
    calls = []

    def failing_reaction(model, p):
        calls.append(1)
        return real(model, p) * (np.nan if len(calls) >= 7 else 1.0)

    monkeypatch.setattr("singlimit.experiments.limit_reaction", failing_reaction)
    with pytest.raises(sl.SolverError, match=r"^limit equation: step 7: frequency left \[0, 1\] "
                       r"by more than round-off: \[nan, nan\]$") as info:
        sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.1],
                                 sl.InitialDataSpec(), quick_config(coarse_grid),
                                 on_frame=lambda frame: None)
    assert info.value.step == 7


DU_400 = "model.du = 400\nmodel.epsilon = 0.0025\n"


def test_limit_step_bound_is_sharp(monkeypatch):
    # du = 400: max(-r') = 301.23 at p = 1 bounds dt below 0.0033197
    frames = []

    def run(clock):
        cfg = sl.parse_config(DU_400 + clock)
        sl.frequency_run(cfg.model, cfg.spec, cfg.solver, "limit",
                         on_frame=lambda t, p, _: frames.append(p.values))

    with pytest.raises(ValueError, match=r"^dt=0\.00332 makes the limit equation's explicit "
                       r"step leave \[0, 1\]; dt must stay below 1/max\(-r'\) = 0\.00331967$"):
        run("time.dt = 0.00332\ntime.t_end = 0.0332\n")
    assert frames == []
    run("time.dt = 0.0033\ntime.t_end = 3.3\n")  # 1000 steps
    assert len(frames) == 6
    # unchecked, the rejected step leaves [0, 1] at step 8
    monkeypatch.setattr("singlimit.experiments.check_limit_step", lambda model, dt: None)
    with pytest.raises(sl.SolverError, match=r"^step 8: frequency left \[0, 1\]") as info:
        run("time.dt = 0.00332\ntime.t_end = 0.0332\n")
    assert info.value.step == 8


@pytest.mark.parametrize("text, bound", [
    ("", "4.91803"),
    ("model.variant = imperfect\nmodel.mu = 0.05\n", "4.49607"),
])
def test_reference_limit_step_is_admitted(text, bound):
    # the reference dt = 0.005 sits far below 1/max(-r'), with or without leakage
    cfg = sl.parse_config(text)
    sl.solver.check_limit_step(cfg.model, cfg.solver.dt)
    with pytest.raises(ValueError, match=rf"^dt=5 makes .* below 1/max\(-r'\) = {bound}$"):
        sl.solver.check_limit_step(cfg.model, 5.0)


def test_sweep_returns_series(fig1_params, coarse_grid):
    config = quick_config(coarse_grid)
    frames = []
    _, limit = sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.1],
                                        sl.InitialDataSpec(), config, on_frame=frames.append)
    assert len(frames) == len(limit) == config.n_frames
    for frame, (t, _) in zip(frames, limit):
        assert len(frame) == 2
        assert all(isinstance(r, sl.ReducedFields) and r.time == t for r in frame)


def frame_growth(run):
    """Traced peak memory that one output frame adds to run(config), in grid
    columns: the peak at output_every = 1 (401 frames) less the peak at 400
    (2 frames), per frame and 301-node column."""
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.1)  # 301 nodes

    def peak(output_every):
        config = sl.SolverConfig(grid, dt=0.005, t_end=2.0, diffusivity=0.1,
                                 output_every=output_every)
        tracemalloc.start()
        try:
            run(config)
            return tracemalloc.get_traced_memory()[1], config.n_frames
        finally:
            tracemalloc.stop()

    few, _ = peak(400)
    many, n_frames = peak(1)
    assert n_frames == 401
    return (many - few) / (n_frames * grid.nx * 8)


def test_sweep_memory_does_not_grow_with_its_frames(fig1_params):
    # the sweep keeps one grid column per frame, the limit's p0, and two
    # floats per rung frame and front track; keeping the rungs' reduced
    # fields would hold 3K + 1 columns per frame, their p frames K + 1.
    # Level 0.3 sits below the bump's amplitude 0.4: every frame of every
    # series up to t = 2 has a crossing
    for speed in (None, ((0.0, 2.0), 0.3)):
        growth = frame_growth(lambda config: sl.run_convergence_sweep(
            fig1_params, sl.Variant.PERFECT, [0.3, 0.1, 0.05, 0.02], sl.InitialDataSpec(),
            config, on_frame=lambda frame: None, speed=speed))
        assert growth < 2.0, speed


@pytest.mark.parametrize("equation", ["limit", "system"])
def test_front_track_memory_does_not_grow_with_its_frames(fig1_params, equation):
    # wavespeed's path: each frame's crossing is recorded as it settles and
    # the frame dropped; keeping the p series would hold one column per frame
    model = sl.ScaledModel(fig1_params, 0.1)

    def run(config):
        track = sl.FrontTrack((0.0, 2.0), 0.3)
        sl.frequency_run(model, sl.InitialDataSpec(), config, equation,
                         on_frame=lambda t, p, _: track.add(t, p))
        assert len(track.points) == config.n_frames

    assert frame_growth(run) < 0.5


def test_sweep_speed_failure_names_its_series(fig1_params, coarse_grid, monkeypatch):
    # the limit's speed is fitted before the ladder runs, each rung's after it
    args = (fig1_params, sl.Variant.PERFECT, [0.3, 0.1], sl.InitialDataSpec(),
            quick_config(coarse_grid))

    def no_integration(*args, **kwargs):
        raise AssertionError("the ladder ran after its reference failed")

    with monkeypatch.context() as patch:
        patch.setattr("singlimit.experiments.run_system", no_integration)
        with pytest.raises(ValueError, match=r"^limit equation: snapshot 0 \(t=0\) "
                                             r"has no 0\.5-level crossing$"):
            sweep_series(*args, speed=((0.0, 2.0), 0.5))

    fitted = []

    def fails_after_the_limit(points):
        fitted.append(points)
        if len(fitted) > 1:
            raise ValueError("window contains fewer than two usable snapshots")
        return 0.0

    monkeypatch.setattr("singlimit.experiments.estimate_wave_speed", fails_after_the_limit)
    with pytest.raises(ValueError, match=r"^eps=0\.3: window contains fewer than two"):
        sweep_series(*args, speed=((0.0, 2.0), 0.3))


@pytest.mark.parametrize("flat_from, named", [
    ({0.3: 1.5, 0.1: 1.0}, r"eps=0\.1: snapshot 2 \(t=1\)"),
    ({0.3: 1.0, 0.1: 1.0}, r"eps=0\.3: snapshot 2 \(t=1\)"),
])
def test_sweep_reports_the_earliest_missing_crossing(fig1_params, coarse_grid, monkeypatch,
                                                     flat_from, named):
    # each rung's p is flattened to 0 from its time in flat_from on: the
    # first frame without a crossing fails the sweep as it settles, and of
    # the rungs at that frame the first in ladder order is named
    real = sl.experiments.to_reduced
    handed = []

    def flattening(model, state):
        reduced = real(model, state)
        if state.time >= flat_from[model.epsilon] - 1e-9:
            return dataclasses.replace(reduced, p=sl.Field.constant(0.0, state.grid))
        return reduced

    monkeypatch.setattr("singlimit.experiments.to_reduced", flattening)
    with pytest.raises(ValueError, match=rf"^{named} has no 0\.3-level crossing$"):
        sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.1],
                                 sl.InitialDataSpec(), quick_config(coarse_grid),
                                 on_frame=handed.append, speed=((0.0, 2.0), 0.3))
    assert [frame[0].time for frame in handed] == [0.0, 0.5]


def test_sweep_reduces_each_frame_as_it_settles(fig1_params, coarse_grid, monkeypatch):
    # the limit run's n_steps solves come first; then frame k of every rung is
    # reduced, measured and handed on once min(k*output_every, n_steps) system
    # steps have been solved, not after the run: no raw state outlives its frame
    solves, reduced_at, measured_at, handed_at = [], [], [], []
    real_solve = sl.solver.solve_banded
    real_reduce, real_norms = sl.experiments.to_reduced, sl.experiments.error_norms

    def counting_solve(*args):
        solves.append(1)
        return real_solve(*args)

    def recording_reduce(*args):
        reduced_at.append(len(solves))
        return real_reduce(*args)

    def recording_norms(*args):
        measured_at.append(len(solves))
        return real_norms(*args)

    monkeypatch.setattr("singlimit.solver.solve_banded", counting_solve)
    monkeypatch.setattr("singlimit.experiments.to_reduced", recording_reduce)
    monkeypatch.setattr("singlimit.experiments.error_norms", recording_norms)
    config = quick_config(coarse_grid, t_end=2.1)  # 105 steps, frames every 25
    sl.run_convergence_sweep(fig1_params, sl.Variant.PERFECT, [0.3, 0.1],
                             sl.InitialDataSpec(), config,
                             on_frame=lambda frame: handed_at.append(len(solves)))
    settled = [config.n_steps + min(k * config.output_every, config.n_steps)
               for k in range(config.n_frames)]
    assert reduced_at == measured_at == [n for n in settled for _ in range(2)]
    assert handed_at == settled
    assert len(solves) == 2 * config.n_steps


def test_sweep_speeds_approach_the_limit_speed(fig1_params, grid601):
    # a window early enough for a short run: both rungs' fronts and the
    # limit front recede at about 0.2, and the gap to the limit shrinks with eps
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.5, diffusivity=0.1, output_every=10)
    report, _, _ = sweep_series(
        fig1_params, sl.Variant.PERFECT, [0.3, 0.1], sl.InitialDataSpec(), config,
        speed=((0.25, 0.5), 0.3))
    assert np.all(np.isfinite(report.speeds)) and np.isfinite(report.limit_speed)
    gaps = [abs(speed - report.limit_speed) for speed in report.speeds]
    assert gaps[1] < gaps[0]
