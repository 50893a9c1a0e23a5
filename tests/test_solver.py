import dataclasses
import math
import re

import numpy as np
import pytest

from scipy.linalg import solve_banded, solveh_banded

import singlimit as sl
from singlimit.solver import _DENSITY_NAMES, _diffusion, _settle_density
from streams import rung_series


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
    # reversed bounds are reported as such, before dx is asked to tile them
    with pytest.raises(sl.FieldError, match="^xmax must exceed xmin$") as info:
        sl.Grid1D.from_spacing(0.0, -1.0, 0.1)
    assert info.value.fields[0] == "xmax"


def test_subnormal_steps_raise_value_error():
    # 30/1e-320 and 25/1e-320 overflow to inf: no finite count to round
    with pytest.raises(ValueError, match="finite interval count"):
        sl.Grid1D.from_spacing(-15.0, 15.0, 1e-320)
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    with pytest.raises(ValueError, match="finite step count"):
        sl.SolverConfig(grid, dt=1e-320, t_end=25.0)


def test_grid_caps_node_count():
    # the cap is checked before any node array exists (x is built lazily)
    assert sl.Grid1D(-30.0, 30.0, sl.MAX_NODES).nx == sl.MAX_NODES
    with pytest.raises(ValueError, match="grid nodes exceed the limit"):
        sl.Grid1D(-30.0, 30.0, sl.MAX_NODES + 1)
    with pytest.raises(ValueError, match="6e\\+301 grid nodes exceed the limit"):
        sl.Grid1D.from_spacing(-30.0, 30.0, 1e-300)


def test_config_caps_step_count():
    # the cap is checked before any run: 25/1e-12 is a finite step count
    grid = small_grid()
    cap = sl.MAX_STEPS
    assert sl.SolverConfig(grid, dt=1.0, t_end=float(cap)).n_steps == cap
    with pytest.raises(sl.FieldError, match="10000001 steps exceed the limit") as info:
        sl.SolverConfig(grid, dt=1.0, t_end=float(cap + 1))
    assert info.value.fields[0] == "dt"
    with pytest.raises(sl.FieldError, match="25000000000000 steps exceed the limit"):
        sl.SolverConfig(grid, dt=1e-12, t_end=25.0)


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
    for cadence in (2.5, math.inf, math.nan):
        with pytest.raises(sl.FieldError, match="output_every must be a positive integer"):
            sl.SolverConfig(grid, dt=0.1, t_end=1.0, output_every=cadence)


@pytest.mark.parametrize("half_width, dx, diffusivity, field", [
    (1e-200, 1e-201, 0.1, "dx"),  # dx^2 underflows to 0
    (1e300, 1e299, 0.1, "dx"),  # dx^2 overflows
    (15.0, 0.05, 1e308, "diffusivity"),  # the sum of two nodes overflows
    (15.0, 0.05, 6e307, "diffusivity"),  # a diagonal entry, two faces, overflows
    # finite faces from 2^52 up round the identity part of the diagonal away
    (15.0, 0.05, 4e307, "diffusivity"),
    (15.0, 0.05, 1e300, "diffusivity"),
    (15.0, 0.05, 1e16, "diffusivity"),
])
def test_solver_config_rejects_a_matrix_it_cannot_assemble(half_width, dx, diffusivity, field):
    grid = sl.Grid1D.from_spacing(-half_width, half_width, dx)
    with pytest.raises(sl.FieldError) as info:
        sl.SolverConfig(grid, dt=0.005, t_end=1.0, diffusivity=diffusivity)
    assert info.value.fields[0] == field


def test_diffusivity_knots():
    grid = small_grid(nx=11, span=1.0)
    for knots in (((0.5, 0.1), (0.2, 0.2)), ((0.5, 0.1), (0.5, 0.2)), ((math.nan, 0.1),) * 2):
        with pytest.raises(sl.FieldError, match="^profile x must increase$") as info:
            sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=knots)
        assert info.value.fields[0] == "diffusivity"
    # linear between the knots, constant beyond the end ones
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=((0.2, 0.1), (0.6, 0.3)))
    assert config.diffusivity_values == pytest.approx(
        [0.1, 0.1, 0.1, 0.15, 0.2, 0.25, 0.3, 0.3, 0.3, 0.3, 0.3], abs=1e-15)
    # knots at every node give the per-node profile, bit for bit
    a = np.random.default_rng(5).uniform(0.05, 2.0, grid.nx)
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=tuple(zip(grid.x, a)))
    assert np.array_equal(config.diffusivity_values, a)


# ---------------------------------------------------------------------------
# assembly


def test_assemble_interior_row():
    grid = small_grid(nx=11, span=1.0)  # dx = 0.1
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=0.2)
    lower, diag, upper = sl.assemble_diffusion(config)
    r = 0.01 * 0.2 / 0.1 ** 2
    assert diag[5] == pytest.approx(1 + 2 * r, rel=1e-14)
    assert upper[5] == pytest.approx(-r, rel=1e-14)
    assert lower[4] == pytest.approx(-r, rel=1e-14)


def test_assemble_neumann_boundary_row():
    grid = small_grid(nx=11, span=1.0)
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=0.2)
    lower, diag, upper = sl.assemble_diffusion(config)
    r = 0.01 * 0.2 / 0.1 ** 2
    assert diag[0] == pytest.approx(1 + r, rel=1e-14)
    assert upper[0] == pytest.approx(-r, rel=1e-14)
    assert diag[-1] == pytest.approx(1 + r, rel=1e-14)
    assert lower[-1] == pytest.approx(-r, rel=1e-14)
    off = np.zeros(grid.nx)
    off[:-1] += np.abs(upper)
    off[1:] += np.abs(lower)
    assert np.all(np.abs(diag) >= off)


def test_assemble_dirichlet_boundary_rows():
    # rows 0 and nx-1 are identity rows; rows 1 and nx-2 keep their
    # couplings to the pinned values, which _diffusion folds into the rhs
    grid = small_grid(nx=11, span=1.0)
    a = 0.2 + 0.1 * grid.x
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=tuple(zip(grid.x, a)),
                             bc=sl.BoundaryCondition.DIRICHLET)
    lower, diag, upper = sl.assemble_diffusion(config)
    r = 0.01 / 0.1 ** 2
    assert diag[0] == diag[-1] == 1.0
    assert upper[0] == lower[-1] == 0.0
    assert lower[0] == pytest.approx(-r * 0.5 * (a[0] + a[1]), rel=1e-14)
    assert upper[-1] == pytest.approx(-r * 0.5 * (a[-2] + a[-1]), rel=1e-14)


def test_constants_invariant_under_neumann_solve():
    grid = small_grid(nx=41, span=2.0)
    config = sl.SolverConfig(grid, dt=0.02, t_end=1.0,
                             diffusivity=tuple(zip(grid.x, 0.1 + 0.05 * np.cos(grid.x))))
    c = 3.7
    out = _diffusion(config)(np.full(grid.nx, c), None)
    assert np.max(np.abs(out - c)) < 1e-13


# ---------------------------------------------------------------------------
# banded solve


def test_identity_solve():
    # Dirichlet rows 0 and nx-1 are identity rows: the step pins them to the
    # pre-step values and hands those back bit for bit, whatever rhs holds
    grid = small_grid(nx=21, span=1.0)
    config = sl.SolverConfig(grid, dt=0.01, t_end=1.0, diffusivity=tuple(zip(grid.x, 0.3 + grid.x)),
                             bc=sl.BoundaryCondition.DIRICHLET)
    rhs, values = np.random.default_rng(3).uniform(-1, 1, (2, grid.nx, 2))
    got = _diffusion(config)(rhs.copy(), values)
    assert np.array_equal(got[[0, -1]], values[[0, -1]])


def test_three_by_three_example():
    # dx = dt = a = 1 makes r*a_face = 1: the Neumann matrix is
    # [[2, -1, 0], [-1, 3, -1], [0, -1, 2]], and rhs (1, 0, 1) gives
    # x = (3/4, 1/2, 3/4) by hand
    config = sl.SolverConfig(sl.Grid1D(0.0, 2.0, 3), dt=1.0, t_end=1.0, diffusivity=1.0)
    lower, diag, upper = sl.assemble_diffusion(config)
    assert np.array_equal(diag, [2.0, 3.0, 2.0])
    assert np.array_equal(lower, [-1.0, -1.0]) and np.array_equal(upper, [-1.0, -1.0])
    got = _diffusion(config)(np.array([1.0, 0.0, 1.0]), None)
    assert np.allclose(got, [0.75, 0.5, 0.75], rtol=0.0, atol=1e-15)


def test_random_dominant_against_dense_lu():
    # the LDL^T solve of a multi-column rhs, the block run_system steps,
    # against dense LU of the assembled (unfolded) matrix; the step pins the
    # Dirichlet rows to the rhs itself
    rng = np.random.default_rng(42)
    grid = small_grid(nx=50, span=1.0)
    bcs = list(sl.BoundaryCondition)
    for k in range(20):
        dt = rng.uniform(1e-3, 0.1)
        config = sl.SolverConfig(grid, dt=dt, t_end=dt, bc=bcs[k % 2],
                                 diffusivity=tuple(zip(grid.x, rng.uniform(0.05, 2.0, grid.nx))))
        lower, diag, upper = sl.assemble_diffusion(config)
        off = np.zeros(grid.nx)
        off[:-1] += np.abs(upper)
        off[1:] += np.abs(lower)
        assert np.all(np.abs(diag) > off)
        rhs = rng.uniform(-1, 1, (grid.nx, 3))
        want = np.linalg.solve(np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1), rhs)
        got = _diffusion(config)(np.array(rhs, order="F"), rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def band_array(config):
    """The assembled system as the (3, nx) band array of scipy's solve_banded."""
    ab = np.zeros((3, config.grid.nx))
    ab[2, :-1], ab[1, :], ab[0, 1:] = sl.assemble_diffusion(config)
    return ab


def symmetric_band(config):
    """The assembled system as the (2, nx) upper band of scipy's
    solveh_banded, and the couplings (c0, c1) of rows 1 and nx-2 to rows 0
    and nx-1.  Under Dirichlet boundaries those are identity rows and the
    band leaves the couplings out: a solve first adds c0*rhs[0] to rhs[1]
    and c1*rhs[-1] to rhs[-2]."""
    lower, diag, upper = sl.assemble_diffusion(config)
    ab = np.zeros((2, config.grid.nx))
    ab[0, 1:], ab[1] = upper, diag
    if config.bc is sl.BoundaryCondition.DIRICHLET:
        ab[0, -1] = 0.0
    return ab, -lower[0], -upper[-1]


@pytest.mark.parametrize("bc", list(sl.BoundaryCondition))
@pytest.mark.parametrize("columns", [1, 2, 8])
def test_prefactored_solve_equals_scipy_banded(grid601, bc, columns):
    # factoring once and solving per step changes no bit of any step: the
    # oracle is LAPACK's ptsv (pttrf + pttrs) on the symmetric band, with the
    # Dirichlet rows' couplings folded into its rhs; the general banded solve
    # of the assembled matrix agrees to round-off.  The step pins the
    # Dirichlet rows to the rhs itself.
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, bc=bc,
                             diffusivity=tuple(zip(grid601.x, 0.1 + 0.05 * np.cos(grid601.x))))
    rng = np.random.default_rng(columns)
    rhs = rng.uniform(0.0, 10.0, (grid601.nx, columns))
    if columns == 1:
        rhs = rhs[:, 0]
    ab = band_array(config)
    folded = rhs.copy()
    if bc is sl.BoundaryCondition.DIRICHLET:
        folded[1] -= ab[2, 0] * folded[0]
        folded[-2] -= ab[0, -1] * folded[-1]
        ab[2, 0] = ab[0, -1] = 0.0
    assert np.array_equal(ab[0, 1:], ab[2, :-1])
    want = solveh_banded(ab[:2], folded)
    diffuse = _diffusion(config)
    got = diffuse(rhs.copy(), rhs)
    assert got.shape == rhs.shape
    assert np.array_equal(got, want)
    # a Fortran-ordered rhs, the block run_system steps, is solved in place
    block = np.array(rhs, order="F")
    solved = diffuse(block, rhs)
    assert np.shares_memory(solved, block)
    assert np.array_equal(solved, want)
    general = solve_banded((1, 1), band_array(config), rhs)
    assert np.max(np.abs(got - general)) <= 1e-14 * np.max(np.abs(general))


def test_singular_factorisation_is_solver_error(grid601, monkeypatch):
    def singular(diag, off):
        return diag, off, 3

    monkeypatch.setattr("singlimit.solver.dpttrf", singular)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0)
    with pytest.raises(sl.SolverError, match="dpttrf info 3"):
        _diffusion(config)


def test_zero_pivot_is_hard_error(grid601, monkeypatch):
    # LAPACK's own dpttrf, not a stub, meets a zero pivot in row 0 of bands
    # that are not positive definite and reports it as info 1
    def zero_pivot(config):
        lower, diag, upper = assemble(config)
        diag[0] = 0.0
        return lower, diag, upper

    assemble = sl.solver.assemble_diffusion
    monkeypatch.setattr("singlimit.solver.assemble_diffusion", zero_pivot)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0)
    with pytest.raises(sl.SolverError, match="dpttrf info 1"):
        _diffusion(config)


# ---------------------------------------------------------------------------
# stepping


def test_uniform_equilibrium_is_preserved(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1)
    ext = sl.equilibria(model)[0]
    state = sl.PopulationState(sl.Field.constant(ext.ni, grid601),
                               sl.Field.constant(ext.nu, grid601))
    stepped = rung_series([model], [state], one_step(config))[0][-1]
    assert np.max(np.abs(stepped.ni.values - ext.ni)) < 1e-12
    assert np.max(np.abs(stepped.nu.values - ext.nu)) < 1e-12


def test_vacuum_stays_vacuum(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1)
    state = sl.PopulationState(sl.Field.constant(0.0, grid601),
                               sl.Field.constant(0.0, grid601))
    stepped = rung_series([model], [state], one_step(config))[0][-1]
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
    stepped = rung_series([model], [state], one_step(config))[0][-1]
    rate_i, rate_u = sl.reaction_rates(model, ni0, nu0)
    assert np.max(np.abs(stepped.ni.values - (ni0 + 0.005 * rate_i))) < 1e-10
    assert np.max(np.abs(stepped.nu.values - (nu0 + 0.005 * rate_u))) < 1e-10


def test_run_system_rejects_unstable_reaction_step(fig1_params, grid601):
    # explicit Euler on the fast relaxation needs dt < 2*eps/fu
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1)
    state = sl.PopulationState(sl.Field.constant(1.0, grid601),
                               sl.Field.constant(1.0, grid601))
    with pytest.raises(ValueError, match=r"eps=0\.0027: dt=0\.005 .* 0\.00482143"):
        sl.run_system([sl.ScaledModel(fig1_params, 0.0027)], [state], config,
                      on_frame=lambda frame: None)
    sl.check_reaction_step(sl.ScaledModel(fig1_params, 0.0029), 0.005)
    sl.check_reaction_step(
        sl.ScaledModel(fig1_params, 0.0027, sl.Variant.ALTERNATIVE), 0.005)
    # with fu <= du the alternative variant has no resident state and no bound
    sl.check_reaction_step(sl.ScaledModel(dataclasses.replace(fig1_params, du=1.2), 0.1,
                                          sl.Variant.ALTERNATIVE), 1e3)


@pytest.mark.parametrize("bc", list(sl.BoundaryCondition))
def test_stacked_rungs_equal_one_rung_runs(fig1_params, grid601, bc):
    # the rungs share only the banded solve and the settle pass, both
    # column-wise, so a ladder is bit-identical to its rungs run one by one
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.5, diffusivity=0.1,
                             output_every=30, bc=bc)
    models = [sl.ScaledModel(fig1_params, eps) for eps in (0.3, 0.1, 0.05)]
    states = [sl.make_initial_data(m, sl.InitialDataSpec(), grid601)[0] for m in models]
    frames = []
    sl.run_system(models, states, config, on_frame=frames.append)
    assert len(frames) == config.n_frames
    for frame in frames:
        assert len(frame) == 3
        assert len({state.time for state in frame}) == 1
    ladder = [list(series) for series in zip(*frames)]
    for model, state, stacked in zip(models, states, ladder):
        alone = rung_series([model], [state], config)[0]
        assert [s.time for s in stacked] == [s.time for s in alone]
        for a, b in zip(stacked, alone):
            assert np.array_equal(a.ni.values, b.ni.values)
            assert np.array_equal(a.nu.values, b.nu.values)


@pytest.mark.parametrize("case", ["empty", "lengths", "grid", "times", "mixed", "variant"])
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
    # one kinetics call serves the whole stack, so rungs may differ in eps only
    other_params = sl.ScaledModel(dataclasses.replace(fig1_params, du=0.3), 0.05)
    other_variant = sl.ScaledModel(fig1_params, 0.05, sl.Variant.ALTERNATIVE)
    models, states, reason = {
        "empty": ([], [], "at least one rung"),
        "lengths": ([model, model], [state], "2 models for 1 initial states"),
        "grid": ([model, model], [state, elsewhere], "different grid"),
        "times": ([model, model], [state, later], "one time"),
        "mixed": ([model, other_params], [state, state], "one parameter set and variant"),
        "variant": ([model, other_variant], [state, state], "one parameter set and variant"),
    }[case]
    with pytest.raises(ValueError, match=reason):
        sl.run_system(models, states, config, on_frame=lambda frame: None)


def test_one_kinetics_call_one_solve_per_step(fig1_params, grid601, monkeypatch):
    # the whole stack costs one reaction_rates call and one solve per step,
    # and the matrix is factored once per run, however many rungs it holds;
    # a scalar step costs one limit_reaction call and one solve
    counts = {"reaction_rates": 0, "limit_reaction": 0, "solve_banded": 0, "dpttrf": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in counts:
        module = sl.model if name == "limit_reaction" else sl.solver
        monkeypatch.setattr(module, name, counting(module, name))
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.1, diffusivity=0.1, output_every=7)
    models = [sl.ScaledModel(fig1_params, eps) for eps in (0.3, 0.1, 0.05)]
    states = [sl.make_initial_data(m, sl.InitialDataSpec(), grid601)[0] for m in models]
    sl.run_system(models, states, config, on_frame=lambda frame: None)
    assert counts == {"reaction_rates": 20, "limit_reaction": 0, "solve_banded": 20, "dpttrf": 1}
    counts.update(dict.fromkeys(counts, 0))
    sl.run_scalar(lambda v: sl.model.limit_reaction(models[0], v),
                  sl.Field.constant(0.5, grid601), config, on_frame=lambda frame: None)
    assert counts == {"reaction_rates": 0, "limit_reaction": 20, "solve_banded": 20, "dpttrf": 1}


@pytest.mark.parametrize("bc", list(sl.BoundaryCondition))
@pytest.mark.parametrize("reaction", [lambda v: v, lambda v: v[::-1]], ids=["itself", "view"])
def test_scalar_step_leaves_the_reaction_result_unwritten(grid601, bc, reaction):
    # a reaction may hand back its argument or a view of it, which at step 1
    # is p0.values itself: every frame matches u + dt*r(u), pinned, solved
    # and clipped, bit for bit, and p0 keeps its values; the reference
    # folds the Dirichlet couplings and solves with scipy's ptsv
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.05, diffusivity=0.1,
                             output_every=1, bc=bc)
    p0 = sl.Field(0.5 + 0.3 * np.tanh(grid601.x), grid601)
    before = p0.values.copy()
    frames = []
    sl.run_scalar(reaction, p0, config, on_frame=frames.append)
    (ab, c0, c1), u = symmetric_band(config), before.copy()
    want = [u]
    for _ in range(config.n_steps):
        star = u + config.dt * reaction(u)
        if bc is sl.BoundaryCondition.DIRICHLET:
            star[[0, -1]] = u[[0, -1]]
            star[1] += c0 * star[0]
            star[-2] += c1 * star[-1]
        u = np.clip(solveh_banded(ab, star), 0.0, 1.0)
        want.append(u)
    assert len(frames) == len(want) == 11
    for (_, field), values in zip(frames, want):
        assert np.array_equal(field.values, values)
    assert np.array_equal(p0.values, before)


def test_scalar_rest_states_exact(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = one_step(sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1))
    reaction = lambda v: sl.limit_reaction(model, v)

    def stepped(p):
        frames = []
        sl.run_scalar(reaction, sl.Field.constant(p, grid601), config, on_frame=frames.append)
        return frames[-1][1]

    # vacuum is exact (round-off negatives clamp to 0); the invaded state
    # survives to solver round-off, which the clamp only trims from above
    assert np.array_equal(stepped(0.0).values, np.zeros(grid601.nx))
    assert np.max(np.abs(stepped(1.0).values - 1.0)) < 1e-13
    theta = sl.invasion_threshold(model)
    assert np.max(np.abs(stepped(theta).values - theta)) < 1e-12


def test_scalar_step_flags_large_excursion(grid601):
    config = one_step(sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1))
    p = sl.Field.constant(0.5, grid601)
    with pytest.raises(sl.SolverError, match="step 1"):
        sl.run_scalar(lambda v: -np.full_like(v, 200.0), p, config, on_frame=lambda frame: None)


def test_scalar_run_clamps_round_off_initial_field(fig1_params, grid601):
    # p0 within FREQUENCY_TOL of [0, 1] is clamped like every later step
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.05, diffusivity=0.1, output_every=2)
    p0 = sl.Field.constant(1.0 + 5e-13, grid601)
    series = []
    sl.run_scalar(lambda v: sl.limit_reaction(model, v), p0, config, on_frame=series.append)
    assert len(series) == 6
    assert np.all(series[0][1].values == 1.0)
    for _, f in series:
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0


def test_scalar_run_rejects_field_on_another_grid(grid601):
    config = one_step(sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1))
    other = sl.Grid1D(grid601.xmin, grid601.xmax, grid601.nx - 2)
    with pytest.raises(ValueError, match="initial field lives on a different grid"):
        sl.run_scalar(lambda v: np.zeros_like(v), sl.Field.constant(0.5, other), config,
                      on_frame=lambda frame: None)


def test_scalar_step_rejects_out_of_range_input(grid601):
    config = one_step(sl.SolverConfig(grid601, dt=0.005, t_end=1.0, diffusivity=0.1))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sl.run_scalar(lambda v: np.zeros_like(v), sl.Field.constant(1.5, grid601), config,
                      on_frame=lambda frame: None)


def test_settle_density_clamps_or_raises():
    # columns are (n_i, n_u); a rejection names the offending density
    cleaned = _settle_density(np.array([[-5e-13, 0.2], [0.2, 0.3]]), (None,))
    assert np.array_equal(cleaned, np.array([[0.0, 0.2], [0.2, 0.3]]))
    with pytest.raises(ValueError, match="^uninfected density fell"):
        _settle_density(np.array([[0.2, -1e-11], [0.2, 0.3]]), (None,))
    with pytest.raises(ValueError, match="^infected density became non-finite"):
        _settle_density(np.array([[np.nan, 0.2], [0.2, 0.3]]), (None,))


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("bad, reason", [
    (np.inf, "became non-finite"),
    (-np.inf, "became non-finite"),
    (np.nan, "became non-finite"),
    (-1e-11, "fell to -1.000e-11, beyond round-off"),
])
def test_settle_density_names_rung_and_density_of_block_column(column, bad, reason):
    # a 2-rung block [n_i, n_i | n_u, n_u]: column c is density c // 2 of
    # rung c % 2
    rungs = ["eps=0.3", "eps=0.1"]
    values = np.full((5, 4), 0.5, order="F")
    values[2, column] = bad
    with pytest.raises(ValueError) as info:
        _settle_density(values, rungs)
    assert str(info.value) == f"{_DENSITY_NAMES[column // 2]} {reason}"
    assert info.value.rung == rungs[column % 2]


def test_settle_density_reports_the_first_rung():
    # rung 0's n_u (column 2) is named before rung 1's n_i (column 1)
    values = np.full((3, 4), 0.5, order="F")
    values[0, 1], values[0, 2] = np.nan, -1.0
    with pytest.raises(ValueError, match="^uninfected density fell") as info:
        _settle_density(values, ["eps=0.3", "eps=0.1"])
    assert info.value.rung == "eps=0.3"


def test_settle_density_clamps_block_in_place():
    values = np.full((3, 4), 0.5, order="F")
    values[0, 3], values[1, 1], values[2, 0] = -5e-13, -0.0, -1e-300
    settled = _settle_density(values, ["eps=0.3", "eps=0.1"])
    assert settled is values
    assert values.min() == 0.0
    assert np.count_nonzero(values == 0.0) == 3
    assert math.copysign(1.0, values[1, 1]) == -1.0  # -0.0 is not negative


def _reference_kinetics(model, ni, nu):
    # the kinetics written as plain expressions: masked frequency divide,
    # leakage term always added
    prm, eps, mu = model.params, model.epsilon, model.params.mu
    total = ni + nu
    p = np.divide(ni, total, out=np.zeros_like(total), where=total != 0.0)
    if model.variant is sl.Variant.ALTERNATIVE:
        logistic = 1.0 - eps * prm.sigma * total
    else:
        logistic = 1.0 / eps - prm.sigma * total
    if model.clipped:
        logistic = np.maximum(logistic, 0.0)
    births_i = (1.0 - mu) * (1.0 - prm.sf) * prm.fu * ni
    births_u = prm.fu * (nu * (1.0 - prm.sh * p) + mu * (1.0 - prm.sf) * ni * p)
    return births_i * logistic - prm.delta * prm.du * ni, births_u * logistic - prm.du * nu


def _reference_run(model, state, config):
    # one rung stepped as u* = u + dt*rate with an interleaved (n_i, n_u)
    # pair, the pinned rows copied and their couplings folded under Dirichlet
    # boundaries, scipy's ptsv solve and a np.where clamp of negatives
    ab, c0, c1 = symmetric_band(config)
    values = np.column_stack([state.ni.values, state.nu.values])
    frames = [values]
    for _ in range(config.n_steps):
        rate = np.column_stack(_reference_kinetics(model, values[:, 0], values[:, 1]))
        star = values + config.dt * rate
        if config.bc is sl.BoundaryCondition.DIRICHLET:
            star[[0, -1]] = values[[0, -1]]
            star[1] += c0 * star[0]
            star[-2] += c1 * star[-1]
        values = solveh_banded(ab, star)
        assert values.min() >= -sl.model.NEGATIVE_TOL
        values = np.where(values < 0.0, 0.0, values)
        frames.append(values)
    return frames


@pytest.mark.parametrize("bc", list(sl.BoundaryCondition))
@pytest.mark.parametrize("variant", list(sl.Variant))
def test_block_stepper_is_bit_identical_to_reference(fig1_params, fig2_params, grid601,
                                                     variant, bc):
    # 50 steps of a 3-rung ladder on 601 nodes; the start crowds the centre
    # beyond carrying capacity (the imperfect clip acts) and leaves vacuum
    # near both ends (the masked frequency divide acts)
    params = fig2_params if variant is sl.Variant.IMPERFECT else fig1_params
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.25, diffusivity=0.1,
                             output_every=1, bc=bc)
    x = grid601.x
    models = [sl.ScaledModel(params, eps, variant) for eps in (0.3, 0.1, 0.05)]
    states = []
    for model in models:
        total = model.carrying_total * (0.9 + 0.3 * np.exp(-x ** 2)) * (np.abs(x) < 14.0)
        p = 0.05 + 0.4 * np.exp(-(x - 2.0) ** 2)
        states.append(sl.PopulationState(sl.Field(p * total, grid601),
                                         sl.Field((1.0 - p) * total, grid601)))
        assert np.any(total > model.carrying_total) and np.any(total == 0.0)
    ladder = rung_series(models, states, config)
    for model, state, series in zip(models, states, ladder):
        want = _reference_run(model, state, config)
        assert len(series) == len(want) == 51
        for frame, values in zip(series, want):
            assert np.array_equal(frame.ni.values, values[:, 0])
            assert np.array_equal(frame.nu.values, values[:, 1])


def test_system_run_rejects_negative_overshoot(fig1_params, grid601):
    # an over-crowded start drives n_u far below zero in the first step
    eps = 0.1
    model = sl.ScaledModel(fig1_params, eps)
    state = sl.PopulationState(sl.Field.constant(0.0, grid601),
                               sl.Field.constant(100.0 / eps, grid601))
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.01, diffusivity=0.1, output_every=1)
    with pytest.raises(sl.SolverError) as info:
        sl.run_system([model], [state], config, on_frame=lambda frame: None)
    assert info.value.step == 1
    assert re.fullmatch(r"eps=0\.1: step 1: uninfected density fell to -\S+, beyond round-off",
                        str(info.value))


def test_dirichlet_pins_boundary_values(grid601):
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.5, diffusivity=0.1,
                             bc=sl.BoundaryCondition.DIRICHLET, output_every=50)
    p0 = sl.Field(0.8 * np.exp(-grid601.x ** 2), grid601)
    series = []
    sl.run_scalar(lambda v: np.zeros_like(v), p0, config, on_frame=series.append)
    for _, f in series:
        assert f.values[0] == p0.values[0]
        assert f.values[-1] == p0.values[-1]


def test_dirichlet_ladder_keeps_boundary_values(fig1_params, grid601):
    # every column of the stack gets its own boundary fold, so the pinned
    # nodes of every rung keep their initial values bit for bit while
    # reaction and diffusion move their neighbours
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.5, diffusivity=0.1,
                             output_every=20, bc=sl.BoundaryCondition.DIRICHLET)
    x = grid601.x
    models = [sl.ScaledModel(fig1_params, eps) for eps in (0.3, 0.1, 0.05)]
    states = [sl.PopulationState(sl.Field(k + 1.0 + np.sin(x), grid601),
                                 sl.Field(2.0 + np.cos(0.5 * x), grid601))
              for k in range(3)]
    ladder = rung_series(models, states, config)
    ends = [0, -1]
    for state, series in zip(states, ladder):
        assert len(series) == 6
        for frame in series:
            assert np.array_equal(frame.ni.values[ends], state.ni.values[ends])
            assert np.array_equal(frame.nu.values[ends], state.nu.values[ends])
        assert np.all(series[-1].ni.values[[1, -2]] != state.ni.values[[1, -2]])
        assert np.all(series[-1].nu.values[[1, -2]] != state.nu.values[[1, -2]])


def test_run_snapshot_cadence(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.1, diffusivity=0.1, output_every=7)
    state0, _ = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
    series = rung_series([model], [state0], config)[0]
    times = [s.time for s in series]
    assert times == pytest.approx([0.0, 7 * 0.005, 14 * 0.005, 0.1])


@pytest.mark.parametrize("output_every", [1, 7, 20, 25, 1000])
def test_n_frames_counts_the_frames_of_a_run(grid601, output_every):
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.1, diffusivity=0.1,
                             output_every=output_every)
    p0 = sl.Field(0.5 * np.exp(-grid601.x ** 2), grid601)
    frames = []
    sl.run_scalar(lambda v: np.zeros_like(v), p0, config, on_frame=frames.append)
    assert config.n_frames == len(frames)


@pytest.mark.parametrize("run", ["system", "scalar"])
@pytest.mark.parametrize("bc", list(sl.BoundaryCondition))
def test_runs_hand_each_frame_over_as_it_settles(fig1_params, grid601, monkeypatch, run, bc):
    # frame k reaches on_frame after exactly min(k*output_every, n_steps)
    # solves, not after the run, and the run itself returns nothing
    solves, handed_at = [], []
    real_solve = sl.solver.solve_banded

    def counting_solve(*args):
        solves.append(1)
        return real_solve(*args)

    monkeypatch.setattr("singlimit.solver.solve_banded", counting_solve)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=0.1, diffusivity=0.1,
                             output_every=7, bc=bc)
    model = sl.ScaledModel(fig1_params, 0.1)
    state0, p0 = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
    on_frame = lambda frame: handed_at.append(len(solves))
    if run == "system":
        assert sl.run_system([model], [state0], config, on_frame=on_frame) is None
    else:
        assert sl.run_scalar(lambda v: sl.limit_reaction(model, v), p0, config,
                             on_frame=on_frame) is None
    assert handed_at == [min(k * config.output_every, config.n_steps)
                         for k in range(config.n_frames)]
    assert len(solves) == config.n_steps


def test_mass_conservation_without_reaction(grid601):
    config = sl.SolverConfig(grid601, dt=0.01, t_end=10.0, diffusivity=0.1,
                             output_every=1000)
    p0 = sl.Field(np.exp(-grid601.x ** 2), grid601)
    series = []
    sl.run_scalar(lambda v: np.zeros_like(v), p0, config, on_frame=series.append)

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
    frames = []
    sl.run_scalar(lambda v: np.zeros_like(v), p0, config, on_frame=frames.append)
    tf, pf = frames[-1]
    var = 1.0 + 2 * 0.1 * tf
    exact = np.sqrt(1.0 / var) * np.exp(-grid.x ** 2 / (2 * var))
    assert np.max(np.abs(pf.values - exact)) <= 2e-4


def test_variable_diffusivity_stencil_is_second_order():
    # the steady state of (a p_x)_x = 0 on [0, 2 pi] with p = 0 and 1 at the
    # ends is p = F(x)/F(2 pi), F(x) = int_0^x ds/a(s); for a = 1 + b sin x,
    # F = (2/s)(atan((tan(x/2) + b)/s) - atan(b/s)), s = sqrt(1 - b^2), plus
    # 2 pi/s past x = pi, where tan(x/2) jumps.  One step of dt = 1e6 reaches it.
    b, s = 0.5, math.sqrt(0.75)
    errors = []
    for nx in (41, 81, 161):
        grid = sl.Grid1D(0.0, 2 * math.pi, nx)
        x = grid.x
        exact = (np.arctan((np.tan(x / 2) + b) / s) - math.atan(b / s)) / math.pi \
            + np.where(x > math.pi, 1.0, 0.0)
        config = sl.SolverConfig(grid, dt=1e6, t_end=1e6,
                                 diffusivity=tuple(zip(x, 1 + b * np.sin(x))),
                                 output_every=1, bc=sl.BoundaryCondition.DIRICHLET)
        frames = []
        sl.run_scalar(lambda v: np.zeros_like(v), sl.Field(x / (2 * math.pi), grid), config,
                      on_frame=frames.append)
        errors.append(np.max(np.abs(frames[-1][1].values - exact)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders >= 1.9) & (orders <= 2.1)), (errors, orders)


def test_system_positivity_on_short_run(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.3)
    config = sl.SolverConfig(grid601, dt=0.005, t_end=2.0, diffusivity=0.1,
                             output_every=40)
    state0, _ = sl.make_initial_data(model, sl.InitialDataSpec(), grid601)
    for s in rung_series([model], [state0], config)[0]:
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
    # the spatial norm of 1 on [-15, 15] is sqrt(30)
    grid = sl.Grid1D.from_spacing(-15.0, 15.0, 0.05)
    one = sl.l2_space(sl.Field.constant(1.0, grid))
    times = np.linspace(0.0, 2.0, 21)
    assert sl.l2_spacetime([(t, 0.0) for t in times], 2.0) == 0.0
    assert sl.l2_spacetime([(t, one) for t in times], 2.0) == pytest.approx(
        math.sqrt(60), abs=1e-10)
    # right endpoints: the t = 0 norm anchors the first interval only
    assert sl.l2_spacetime([(0.0, 7.0), (1.0, 1.0), (2.0, 2.0)], 2.0) == math.sqrt(5.0)


def test_l2_spacetime_rejects_degenerate_series():
    with pytest.raises(ValueError, match="need at least two snapshots"):
        sl.l2_spacetime([(0.0, 1.0)], 0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        sl.l2_spacetime([(0.0, 1.0), (0.0, 1.0)], 2.0)
    with pytest.raises(ValueError, match="must cover"):
        sl.l2_spacetime([(0.0, 1.0), (1.0, 1.0)], 2.0)
