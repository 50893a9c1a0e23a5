import dataclasses
import math
import re

import numpy as np
import pytest

from scipy.linalg import solve_banded

import singlimit as sl
from singlimit.solver import _banded, _settle_density


def small_grid(nx=11, span=1.0):
    return sl.Grid1D(0.0, span, nx)


def one_step(config):
    return dataclasses.replace(config, t_end=config.dt)


# ---------------------------------------------------------------------------
# grids and fields


def test_grid_spacing():
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    assert grid.nx == 601
    assert grid.dx == pytest.approx(0.05, rel=1e-12)
    assert grid.x[0] == -15.0 and grid.x[-1] == 15.0


def test_grid_rejects_uneven_spacing():
    with pytest.raises(ValueError):
        sl.Grid1D.from_spacing(0.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        sl.Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        sl.Grid1D(1.0, 0.0, 11)


def test_subnormal_steps_raise_value_error():
    # 30/1e-320 and 25/1e-320 overflow to inf: no finite count to round
    with pytest.raises(ValueError, match="finite interval count"):
        sl.Grid1D.from_spacing(-15.0, 15.0, 1e-320)
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    with pytest.raises(ValueError, match="finite step count"):
        sl.SolverConfig(grid, dt=1e-320, t_end=25.0)


def test_field_validation():
    grid = small_grid()
    with pytest.raises(ValueError):
        sl.Field(np.zeros(7), grid)
    with pytest.raises(ValueError):
        sl.Field(np.full(grid.nx, np.nan), grid)


def test_population_state_validation():
    grid = small_grid()
    zero = sl.Field(np.zeros(grid.nx), grid)
    with pytest.raises(ValueError):
        sl.PopulationState(sl.Field(np.full(grid.nx, -1.0), grid), zero)
    other = small_grid(21)
    with pytest.raises(ValueError):
        sl.PopulationState(zero, sl.Field(np.zeros(other.nx), other))


def test_solver_config_validation():
    grid = small_grid()
    with pytest.raises(ValueError):
        sl.SolverConfig(grid, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        sl.SolverConfig(grid, dt=0.5, t_end=0.2)
    with pytest.raises(ValueError):
        sl.SolverConfig(grid, dt=0.3, t_end=1.0)  # not an integer step count
    with pytest.raises(ValueError):
        sl.SolverConfig(grid, dt=0.1, t_end=1.0, diffusivity=0.0)
    with pytest.raises(ValueError):
        sl.SolverConfig(grid, dt=0.1, t_end=1.0, output_every=0)


# ---------------------------------------------------------------------------
# assembly


def test_assemble_interior_row():
    grid = small_grid(nx=11, span=1.0)  # dx = 0.1
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=0.2)
    system = sl.assemble_diffusion(config)
    r = 0.01 * 0.2 / 0.1 ** 2
    assert system.diag[5] == pytest.approx(1 + 2 * r, rel=1e-14)
    assert system.upper[5] == pytest.approx(-r, rel=1e-14)
    assert system.lower[4] == pytest.approx(-r, rel=1e-14)


def test_assemble_neumann_boundary_row():
    grid = small_grid(nx=11, span=1.0)
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=0.2)
    system = sl.assemble_diffusion(config)
    r = 0.01 * 0.2 / 0.1 ** 2
    assert system.diag[0] == pytest.approx(1 + r, rel=1e-14)
    assert system.upper[0] == pytest.approx(-r, rel=1e-14)
    assert system.diag[-1] == pytest.approx(1 + r, rel=1e-14)
    assert system.lower[-1] == pytest.approx(-r, rel=1e-14)
    assert system.is_diagonally_dominant()


def test_constants_invariant_under_neumann_solve():
    grid = small_grid(nx=41, span=2.0)
    config = sl.SolverConfig(grid, dt=0.02, t_end=1.0,
                             diffusivity=lambda x: 0.1 + 0.05 * np.cos(x))
    system = sl.assemble_diffusion(config)
    c = 3.7
    out = sl.tridiagonal_solve(system.with_rhs(np.full(grid.nx, c)))
    assert np.max(np.abs(out - c)) < 1e-13


# ---------------------------------------------------------------------------
# tridiagonal solve


def test_identity_solve():
    rhs = np.array([2.0, -1.0, 0.5])
    system = sl.TridiagonalSystem(np.zeros(2), np.ones(3), np.zeros(2), rhs)
    assert np.array_equal(sl.tridiagonal_solve(system), rhs)


def test_three_by_three_example():
    system = sl.TridiagonalSystem(np.array([-1.0, -1.0]), np.array([2.0, 2.0, 2.0]),
                                  np.array([-1.0, -1.0]), np.array([1.0, 0.0, 1.0]))
    assert np.allclose(sl.tridiagonal_solve(system), [1.0, 1.0, 1.0], atol=1e-14)


def test_random_dominant_against_dense_lu():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = 50
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)
        rhs = rng.uniform(-1, 1, n)
        system = sl.TridiagonalSystem(lower, diag, upper, rhs)
        assert system.is_diagonally_dominant()
        got = sl.tridiagonal_solve(system)
        want = np.linalg.solve(system.dense(), rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_thomas_matches_banded_hot_path():
    grid = small_grid(nx=101, span=5.0)
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0,
                             diffusivity=lambda x: 0.1 + 0.02 * np.sin(3 * x))
    rng = np.random.default_rng(5)
    rhs = rng.uniform(-1, 1, grid.nx)
    a = sl.tridiagonal_solve(sl.assemble_diffusion(config).with_rhs(rhs))
    b = solve_banded((1, 1), _banded(config), rhs)
    assert np.max(np.abs(a - b)) < 1e-13


def test_zero_pivot_is_hard_error():
    system = sl.TridiagonalSystem(np.array([1.0]), np.array([0.0, 1.0]),
                                  np.array([1.0]), np.array([1.0, 1.0]))
    with pytest.raises(sl.SolverError):
        sl.tridiagonal_solve(system)


# ---------------------------------------------------------------------------
# stepping


def test_uniform_equilibrium_is_preserved(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1)
    ext = sl.equilibria(model)[0]
    state = sl.PopulationState(sl.Field.constant(ext.ni, grid601),
                               sl.Field.constant(ext.nu, grid601))
    stepped = sl.run_system([model], [state], one_step(config))[0][-1]
    assert np.max(np.abs(stepped.ni.values - ext.ni)) < 1e-12
    assert np.max(np.abs(stepped.nu.values - ext.nu)) < 1e-12


def test_vacuum_stays_vacuum(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1)
    state = sl.PopulationState(sl.Field.constant(0.0, grid601),
                               sl.Field.constant(0.0, grid601))
    stepped = sl.run_system([model], [state], one_step(config))[0][-1]
    assert np.array_equal(stepped.ni.values, np.zeros(grid601.nx))
    assert np.array_equal(stepped.nu.values, np.zeros(grid601.nx))


def test_uniform_step_matches_forward_euler_ode(fig1_params):
    # with negligible diffusivity and a uniform state, one step is exactly
    # the explicit-Euler update of the kinetics
    model = sl.ScaledModel(fig1_params, 0.1)
    grid = small_grid(nx=21)
    config = sl.SolverConfig(grid, dt=0.005, t_end=1.0, diffusivity=1e-12)
    ni0, nu0 = 1.3, 2.4
    state = sl.PopulationState(sl.Field.constant(ni0, grid), sl.Field.constant(nu0, grid))
    stepped = sl.run_system([model], [state], one_step(config))[0][-1]
    rate_i, rate_u = sl.reaction_rates(model, ni0, nu0)
    assert np.max(np.abs(stepped.ni.values - (ni0 + 0.005 * rate_i))) < 1e-10
    assert np.max(np.abs(stepped.nu.values - (nu0 + 0.005 * rate_u))) < 1e-10


def test_run_system_rejects_unstable_reaction_step(fig1_params, grid601):
    # explicit Euler on the fast relaxation needs dt < 2*eps/fu
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1)
    state = sl.PopulationState(sl.Field.constant(1.0, grid601),
                               sl.Field.constant(1.0, grid601))
    with pytest.raises(ValueError, match=r"eps=0\.0027: dt=0\.005 .* 0\.00482143"):
        sl.run_system([sl.ScaledModel(fig1_params, 0.0027)], [state], config)
    sl.check_reaction_step(sl.ScaledModel(fig1_params, 0.0029), 0.005)
    sl.check_reaction_step(
        sl.ScaledModel(fig1_params, 0.0027, sl.Variant.ALTERNATIVE), 0.005)


@pytest.mark.parametrize("bc", list(sl.BoundaryCondition))
def test_stacked_rungs_equal_one_rung_runs(fig1_params, grid601, bc):
    # the rungs share only the banded solve and the settle pass, both
    # column-wise, so a ladder is bit-identical to its rungs run one by one
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.5, diffusivity=0.1,
                             output_every=30, bc=bc)
    models = [sl.ScaledModel(fig1_params, eps) for eps in (0.3, 0.1, 0.05)]
    states = [sl.make_initial_data(m, sl.InitialDataSpec(), grid601)[0] for m in models]
    ladder = sl.run_system(models, states, config)
    assert len(ladder) == 3
    for model, state, stacked in zip(models, states, ladder):
        alone = sl.run_system([model], [state], config)[0]
        assert [s.time for s in stacked] == [s.time for s in alone]
        for a, b in zip(stacked, alone):
            assert np.array_equal(a.ni.values, b.ni.values)
            assert np.array_equal(a.nu.values, b.nu.values)


@pytest.mark.parametrize("case", ["empty", "lengths", "grid", "times"])
def test_run_system_rejects_malformed_rungs(fig1_params, grid601, monkeypatch, case):
    def no_solve(*args, **kwargs):
        raise AssertionError("run_system integrated a malformed rung list")

    monkeypatch.setattr("singlimit.solver.solve_banded", no_solve)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.05, diffusivity=0.1)
    model = sl.ScaledModel(fig1_params, 0.1)
    state = sl.PopulationState(sl.Field.constant(1.0, grid601),
                               sl.Field.constant(1.0, grid601))
    other_grid = sl.Grid1D(grid601.xmin, grid601.xmax, grid601.nx - 2)
    elsewhere = sl.PopulationState(sl.Field.constant(1.0, other_grid),
                                   sl.Field.constant(1.0, other_grid))
    later = dataclasses.replace(state, time=1.0)
    models, states, reason = {
        "empty": ([], [], "at least one rung"),
        "lengths": ([model, model], [state], "2 models for 1 initial states"),
        "grid": ([model, model], [state, elsewhere], "different grid"),
        "times": ([model, model], [state, later], "one time"),
    }[case]
    with pytest.raises(ValueError, match=reason):
        sl.run_system(models, states, config)


def test_scalar_rest_states_exact(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = one_step(sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1))
    reaction = lambda v: sl.limit_reaction(model, v)
    # vacuum is exact (round-off negatives clamp to 0); the invaded state
    # survives to solver round-off, which the clamp only trims from above
    p0 = sl.Field.constant(0.0, grid601)
    assert np.array_equal(sl.run_scalar(reaction, p0, config)[-1][1].values,
                          np.zeros(grid601.nx))
    p1 = sl.Field.constant(1.0, grid601)
    assert np.max(np.abs(sl.run_scalar(reaction, p1, config)[-1][1].values - 1.0)) < 1e-13
    theta = sl.invasion_threshold(model)
    _, stepped = sl.run_scalar(reaction, sl.Field.constant(theta, grid601), config)[-1]
    assert np.max(np.abs(stepped.values - theta)) < 1e-12


def test_scalar_step_flags_large_excursion(grid601):
    config = one_step(sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1))
    p = sl.Field.constant(0.5, grid601)
    with pytest.raises(sl.SolverError, match="step 1"):
        sl.run_scalar(lambda v: -np.full_like(v, 200.0), p, config)


def test_scalar_run_clamps_round_off_initial_field(fig1_params, grid601):
    # p0 within FREQUENCY_TOL of [0, 1] is clamped like every later step
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.05, diffusivity=0.1, output_every=2)
    p0 = sl.Field.constant(1.0 + 5e-13, grid601)
    series = sl.run_scalar(lambda v: sl.limit_reaction(model, v), p0, config)
    assert len(series) == 6
    assert np.all(series[0][1].values == 1.0)
    for _, f in series:
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0


def test_scalar_step_rejects_out_of_range_input(grid601):
    config = one_step(sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sl.run_scalar(lambda v: np.zeros_like(v), sl.Field.constant(1.5, grid601), config)


def test_settle_density_clamps_or_raises():
    # columns are (n_i, n_u); a rejection names the offending density
    cleaned = _settle_density(np.array([[-5e-13, 0.2], [0.2, 0.3]]))
    assert np.array_equal(cleaned, np.array([[0.0, 0.2], [0.2, 0.3]]))
    with pytest.raises(ValueError, match="^uninfected density fell"):
        _settle_density(np.array([[0.2, -1e-11], [0.2, 0.3]]))
    with pytest.raises(ValueError, match="^infected density became non-finite"):
        _settle_density(np.array([[np.nan, 0.2], [0.2, 0.3]]))


def test_system_run_rejects_negative_overshoot(fig1_params, grid601):
    # an over-crowded start drives n_u far below zero in the first step
    eps = 0.1
    model = sl.ScaledModel(fig1_params, eps)
    state = sl.PopulationState(sl.Field.constant(0.0, grid601),
                               sl.Field.constant(100.0 / eps, grid601))
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.01, diffusivity=0.1, output_every=1)
    with pytest.raises(sl.SolverError) as info:
        sl.run_system([model], [state], config)
    assert info.value.step == 1
    assert re.fullmatch(r"eps=0\.1: step 1: uninfected density fell to -\S+, beyond round-off",
                        str(info.value))


def test_dirichlet_pins_boundary_values(grid601):
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.5, diffusivity=0.1,
                             bc=sl.BoundaryCondition.DIRICHLET, output_every=50)
    p0 = sl.Field(0.8 * np.exp(-grid601.x ** 2), grid601)
    series = sl.run_scalar(lambda v: np.zeros_like(v), p0, config)
    for _, f in series:
        assert f.values[0] == p0.values[0]
        assert f.values[-1] == p0.values[-1]


def test_run_snapshot_cadence(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.1, diffusivity=0.1, output_every=7)
    state0, _ = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
    series = sl.run_system([model], [state0], config)[0]
    times = [s.time for s in series]
    assert times == pytest.approx([0.0, 7 * 0.005, 14 * 0.005, 0.1])


def test_mass_conservation_without_reaction(grid601):
    config = sl.SolverConfig(grid601, dt=0.01, t_end=10.0, diffusivity=0.1,
                             output_every=1000)
    p0 = sl.Field(np.exp(-grid601.x ** 2), grid601)
    series = sl.run_scalar(lambda v: np.zeros_like(v), p0, config)

    def trapz_mass(f):
        v = f.values
        return f.grid.dx * (v.sum() - 0.5 * (v[0] + v[-1]))

    m0 = trapz_mass(series[0][1])
    for _, f in series:
        assert abs(trapz_mass(f) - m0) <= 1e-10 * m0


def test_heat_kernel_accuracy():
    # measured 8.7e-5 at this resolution; the 2e-4 bound leaves headroom
    # for platform-level rounding differences
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    config = sl.SolverConfig(grid, dt=0.005, t_end=1.0, diffusivity=0.1,
                             output_every=10 ** 9)
    p0 = sl.Field(np.exp(-grid.x ** 2 / 2.0), grid)
    tf, pf = sl.run_scalar(lambda v: np.zeros_like(v), p0, config)[-1]
    var = 1.0 + 2 * 0.1 * tf
    exact = np.sqrt(1.0 / var) * np.exp(-grid.x ** 2 / (2 * var))
    assert np.max(np.abs(pf.values - exact)) <= 2e-4


def test_system_positivity_on_short_run(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.3)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=2.0, diffusivity=0.1,
                             output_every=40)
    state0, _ = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
    for s in sl.run_system([model], [state0], config)[0]:
        assert s.ni.values.min() >= -1e-12
        assert s.nu.values.min() >= -1e-12


# ---------------------------------------------------------------------------
# norms


def test_l2_space_values():
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    assert sl.l2_space(sl.Field.constant(0.0, grid)) == 0.0
    assert sl.l2_space(sl.Field.constant(1.0, grid)) == pytest.approx(math.sqrt(30), rel=1e-12)
    unit = sl.Grid1D(0.0, 1.0, 10001)
    ramp = sl.Field(unit.x.copy(), unit)
    assert sl.l2_space(ramp) == pytest.approx(1 / math.sqrt(3), abs=1e-6)


def test_l2_spacetime_values():
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    zero = sl.Field.constant(0.0, grid)
    one = sl.Field.constant(1.0, grid)
    times = np.linspace(0.0, 2.0, 21)
    assert sl.l2_spacetime([(t, zero) for t in times], 2.0) == 0.0
    assert sl.l2_spacetime([(t, one) for t in times], 2.0) == pytest.approx(
        math.sqrt(60), abs=1e-10)


def test_l2_spacetime_rejects_degenerate_series():
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    one = sl.Field.constant(1.0, grid)
    with pytest.raises(ValueError):
        sl.l2_spacetime([(0.0, one)], 0.0)
    with pytest.raises(ValueError):
        sl.l2_spacetime([(0.0, one), (0.0, one)], 2.0)
    with pytest.raises(ValueError):
        sl.l2_spacetime([(0.0, one), (1.0, one)], 2.0)
