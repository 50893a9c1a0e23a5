import math

import numpy as np
import pytest

import singlimit as sl


def uniform_state(grid, ni, nu, time=0.0):
    return sl.PopulationState(sl.Field.constant(ni, grid), sl.Field.constant(nu, grid), time)


def test_extinction_state_reduces_to_manifold(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    ext = sl.equilibria(model)[0]
    reduced = sl.to_reduced(model, uniform_state(grid601, ext.ni, ext.nu))
    assert np.max(np.abs(reduced.n.values - 0.241071)) < 1e-5
    assert np.max(np.abs(reduced.n.values - sl.slow_manifold(model, 0.0))) < 1e-12
    assert np.array_equal(reduced.p.values, np.zeros(grid601.nx))
    assert np.max(np.abs(reduced.m.values)) < 1e-12


def test_equal_densities_give_half(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    reduced = sl.to_reduced(model, uniform_state(grid601, 2.3, 2.3))
    assert np.array_equal(reduced.p.values, np.full(grid601.nx, 0.5))


def test_vacuum_convention(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    reduced = sl.to_reduced(model, uniform_state(grid601, 0.0, 0.0))
    assert np.array_equal(reduced.p.values, np.zeros(grid601.nx))
    assert np.array_equal(reduced.n.values, np.full(grid601.nx, 10.0))


def test_round_off_negative_density_reduces_to_zero_frequency(fig1_params, grid601):
    # densities within round-off of zero are valid states, but their ratio
    # need not be a frequency: n_i = -1e-13 over the total 1e-13 gives -1,
    # which to_reduced clips to 0
    model = sl.ScaledModel(fig1_params, 0.1)
    reduced = sl.to_reduced(model, uniform_state(grid601, -1e-13, 2e-13))
    assert np.array_equal(reduced.p.values, np.zeros(grid601.nx))


def test_all_equilibria_sit_on_manifold(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    for eq in sl.equilibria(model)[:3]:
        reduced = sl.to_reduced(model, uniform_state(grid601, eq.ni, eq.nu))
        assert np.max(np.abs(reduced.m.values)) < 1e-9


def test_round_trip_is_exact_algebra(fig1_params):
    model = sl.ScaledModel(fig1_params, 0.1)
    grid = sl.Grid1D(0.0, 1.0, 101)
    rng = np.random.default_rng(2)
    ni = rng.uniform(0.0, 4.0, grid.nx)
    nu = rng.uniform(0.1, 4.0, grid.nx)
    state = sl.PopulationState(sl.Field(ni, grid), sl.Field(nu, grid))
    back = sl.reduced_to_state(model, sl.to_reduced(model, state))
    assert np.max(np.abs(back.ni.values - ni) / np.maximum(ni, 1e-3)) < 1e-12
    assert np.max(np.abs(back.nu.values - nu) / np.maximum(nu, 1e-3)) < 1e-12


def test_reduced_population_above_the_carrying_total_is_rejected(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    reduced = sl.ReducedFields(sl.Field.constant(10.5, grid601),
                               sl.Field.constant(0.5, grid601), None, 0.0)
    with pytest.raises(ValueError, match="reduced population exceeds the carrying total"):
        sl.reduced_to_state(model, reduced)


def test_alternative_scaling_reduction(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1, sl.Variant.ALTERNATIVE)
    reduced = sl.to_reduced(model, uniform_state(grid601, 2.0, 3.0))
    assert np.array_equal(reduced.n.values, np.full(grid601.nx, 0.1 * 1.0 * 5.0))
    assert reduced.m is None
    back = sl.reduced_to_state(model, reduced)
    assert np.max(np.abs(back.ni.values - 2.0)) < 1e-12


def test_error_norms_identical_series(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    for t in np.linspace(0.0, 2.0, 11):
        reduced = sl.to_reduced(model, uniform_state(grid601, 1.0, 3.0, t))
        err_p, err_m = sl.error_norms(reduced, (t, reduced.p))
        assert err_p == 0.0
        assert err_m == sl.l2_space(reduced.m) > 0.0


def test_error_norms_constant_difference(fig1_params, grid601):
    # p == 1 against a vanishing limit: sqrt(30) per frame on [-15, 15], and
    # sqrt(60) once integrated over [0, 2]
    model = sl.ScaledModel(fig1_params, 0.1)
    zero = sl.Field.constant(0.0, grid601)
    norms = [(t, sl.error_norms(sl.to_reduced(model, uniform_state(grid601, 2.0, 0.0, t)),
                                (t, zero))[0])
             for t in np.linspace(0.0, 2.0, 21)]
    assert all(norm == pytest.approx(math.sqrt(30), abs=1e-10) for _, norm in norms)
    assert sl.l2_spacetime(norms, 2.0) == pytest.approx(math.sqrt(60), abs=1e-10)


def test_reduced_fields_reject_fields_on_different_grids(fig1_params, grid601):
    reduced = sl.to_reduced(sl.ScaledModel(fig1_params, 0.1), uniform_state(grid601, 1.0, 1.0))
    elsewhere = sl.Field.constant(0.5, sl.Grid1D(0.0, 1.0, 11))
    for fields in ((elsewhere, reduced.p, reduced.m), (reduced.n, elsewhere, reduced.m),
                   (reduced.n, reduced.p, elsewhere)):
        with pytest.raises(ValueError, match="reduced fields must share one grid"):
            sl.ReducedFields(*fields, reduced.time)


def test_error_norms_reject_mismatch(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1)
    reduced = sl.to_reduced(model, uniform_state(grid601, 1.0, 1.0, 1.0))
    zero = sl.Field.constant(0.0, grid601)
    with pytest.raises(ValueError, match="output times differ"):
        sl.error_norms(reduced, (1.5, zero))
    other = sl.Grid1D(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="grids differ"):
        sl.error_norms(reduced, (1.0, sl.Field.constant(0.0, other)))
    # a time within round-off of the frame's is the same output time
    assert sl.error_norms(reduced, (1.0 + 1e-12, zero)) == sl.error_norms(reduced, (1.0, zero))


def test_error_norms_need_manifold_residual(fig1_params, grid601):
    model = sl.ScaledModel(fig1_params, 0.1, sl.Variant.ALTERNATIVE)
    reduced = sl.to_reduced(model, uniform_state(grid601, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="manifold residual undefined"):
        sl.error_norms(reduced, (1.0, sl.Field.constant(0.0, grid601)))
