from pathlib import Path

import numpy as np
import pytest

import singlimit as sl
from singlimit.config import _KEYS, ConfigError, format_config, parse_config


def test_empty_text_gives_reference_defaults():
    cfg = parse_config("")
    params, grid = cfg.model.params, cfg.solver.grid
    assert params.fu == 1.12
    assert params.du == 0.27
    assert params.delta == pytest.approx(10 / 9, rel=1e-15)
    assert params.sf == 0.1 and params.sh == 0.8 and params.sigma == 1.0
    assert cfg.solver.diffusivity == 0.1
    assert (grid.xmin, grid.xmax, grid.dx) == (-15.0, 15.0, 0.05)
    assert cfg.solver.dt == 0.005
    assert cfg.model.variant is sl.Variant.PERFECT
    assert cfg.epsilons == (0.3, 0.1, 0.05, 0.02)
    assert grid.nx == 601


def test_ratio_and_comments_parse():
    cfg = parse_config(
        "# full line comment\n"
        "\n"
        "model.delta = 11/9  # inline comment\n"
        "model.epsilon = 0.05\n"
    )
    assert cfg.model.params.delta == pytest.approx(11 / 9, rel=1e-15)
    assert cfg.model.epsilon == 0.05


def test_invalid_sh_rejected_with_line():
    with pytest.raises(ConfigError, match=r"line 1: model.sh"):
        parse_config("model.sh = 1.2\n")


def test_ordering_violation_cites_requirement():
    with pytest.raises(ConfigError, match="sf < sh"):
        parse_config("model.sf = 0.9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("model.fu = 1.0\nmodel.fu = 2.0\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("model.growth = 3\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("model.fu 1.12\n")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("model.fu = fast\n")


def test_time_step_must_tile_horizon():
    with pytest.raises(ConfigError):
        parse_config("time.dt = 0.4\ntime.t_end = 1.0\n")


def test_grid_must_tile_domain():
    with pytest.raises(ConfigError, match="tile"):
        parse_config("grid.dx = 0.7\n")


def test_mu_requires_imperfect_variant():
    with pytest.raises(ConfigError, match="forces mu"):
        parse_config("model.mu = 0.04\n")
    cfg = parse_config("model.mu = 0.04\nmodel.variant = imperfect\n")
    assert cfg.model.params.mu == 0.04


def test_epsilon_ladder_must_decrease():
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config("experiment.epsilons = 0.1, 0.3\n")


def test_speed_window_needs_two_increasing_times():
    with pytest.raises(ConfigError):
        parse_config("experiment.speed_window = 5\n")
    with pytest.raises(ConfigError):
        parse_config("experiment.speed_window = 10, 5\n")


def test_tabulated_diffusivity():
    cfg = parse_config("diffusion.a = -15:0.1, 0:0.2, 15:0.1\n")
    profile = cfg.solver.diffusivity_values
    grid = cfg.solver.grid
    assert profile[0] == pytest.approx(0.1)
    assert profile[grid.nx // 2] == pytest.approx(0.2)
    # linear in between
    assert profile[grid.nx // 4] == pytest.approx(0.15, abs=1e-12)
    with pytest.raises(ConfigError, match="increase"):
        parse_config("diffusion.a = 0:0.1, -5:0.2\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("diffusion.a = -15:0.1, 15:0\n")
    # positivity is checked where the solver reads the profile: at the nodes
    assert parse_config("diffusion.a = -20:0, 20:0.1\n").solver.diffusivity_values.min() > 0


def test_variant_and_bc_words():
    cfg = parse_config("model.variant = alternative\ndiffusion.bc = dirichlet\n")
    assert cfg.model.variant is sl.Variant.ALTERNATIVE
    assert cfg.solver.bc is sl.BoundaryCondition.DIRICHLET


def test_show_config_round_trips():
    for text in ("", "model.epsilon = 0.05\ninit.amplitude = 0.3\n",
                 "diffusion.a = -15:0.1, 0:0.2, 15:0.1\n"):
        cfg = parse_config(text)
        assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("text, message", [
    ("time.output_every = 2.5", "time.output_every: not an integer: '2.5'"),
    ("diffusion.bc = periodic",
     "diffusion.bc: expected one of neumann, dirichlet; got 'periodic'"),
    ("experiment.epsilons = ,", "experiment.epsilons: empty list"),
    ("experiment.epsilons = 0.3,,0.1", "experiment.epsilons: empty list entry"),
    ("experiment.epsilons = 0.3, 0.1,", "experiment.epsilons: empty list entry"),
    ("experiment.speed_window = 75,,125", "experiment.speed_window: empty list entry"),
    ("experiment.speed_window = 75", "experiment.speed_window: need exactly two times"),
    ("diffusion.a = -15:0.1, 0.2", "diffusion.a: profile entries are x:value pairs"),
    ("model.delta = 1/0", "model.delta: not a number: '1/0'"),
    ("time.t_end = inf", "time.t_end: not a finite number: 'inf'"),
    ("model.fu = nan", "model.fu: not a finite number: 'nan'"),
    ("model.fu =", "model.fu: empty value"),
    ("grid.xmax = -inf", "grid.xmax: not a finite number: '-inf'"),
    pytest.param(f"model.delta = {10**400}/3",
                 f"model.delta: not a finite number: '{10**400}/3'", id="overflowing-ratio"),
])
def test_malformed_value_names_line_and_key(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config("# header\n" + text + "\n")
    assert str(info.value) == "line 2: " + message


# one out-of-range value per key with a rule, each on line 2; the domain
# constructors own the single-value rules and config reports their field as
# its key.  grid.xmin has no rule of its own (xmax must exceed it), and the
# enum keys have only the parse rules tested above.
RULE_CASES = [
    ("model.fu = 0", "fu must be positive"),
    ("model.du = -0.27", "du must be positive"),
    ("model.delta = 0.9", "delta must be >= 1"),
    ("model.sf = -0.1", "sf must lie in [0, 1]"),
    ("model.sh = 1.2", "sh must lie in (0, 1]"),
    ("model.sigma = 0", "sigma must be positive"),
    ("model.mu = 1", "mu must lie in [0, 1)"),
    ("model.mu = 0.04", "variant 'perfect' forces mu = 0"),
    ("model.epsilon = 0", "epsilon must be positive and finite"),
    ("grid.xmax = -20", "xmax must exceed xmin"),
    ("grid.dx = -0.05", "dx must be positive"),
    ("grid.dx = 30", "need at least 3 grid nodes"),
    ("time.dt = 0.4\ntime.t_end = 1.0", "t_end must be an integer number of steps"),
    ("time.dt = 0", "dt must be positive"),
    ("time.t_end = 0.001", "t_end must cover at least one step"),
    ("time.output_every = 0", "output_every must be a positive integer"),
    ("diffusion.a = 0", "diffusivity must be strictly positive everywhere"),
    ("diffusion.a = -15:0.1, 0:0, 15:0.1", "diffusivity must be strictly positive everywhere"),
    ("init.amplitude = 1", "amplitude must lie strictly inside (0, 1)"),
    ("init.radius = 0", "radius must be positive"),
    ("init.radius = 14.5", "bump support must sit strictly inside the domain"),
    ("init.smoothing = -0.5", "smoothing must be non-negative"),
    ("experiment.epsilons = 0.1, -0.1", "eps values must be positive"),
    ("experiment.epsilons = 0.1000001, 0.1",
     "eps values must differ in their first 6 significant digits"),
    ("experiment.speed_level = 1", "speed_level must lie in (0, 1)"),
    ("experiment.speed_window = 10, 5", "speed_window must be an increasing pair of times"),
]


@pytest.mark.parametrize("text, message", RULE_CASES)
def test_rule_violation_names_line_and_key(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config("# header\n" + text + "\n")
    key = text.split(" =", 1)[0]
    assert str(info.value) == f"line 2: {key}: {message}"


def test_rule_cases_cover_every_key_with_a_rule():
    keys = {text.split(" =", 1)[0] for text, _ in RULE_CASES}
    assert keys == set(_KEYS) - {"grid.xmin", "model.variant", "diffusion.bc"}


# a rule that reads several keys is reported on the first of them, in rule
# order, that the text sets, with its line
@pytest.mark.parametrize("text, message", [
    ("time.t_end = 1.003", "time.t_end: t_end must be an integer number of steps"),
    ("grid.xmax = 15.01", "grid.xmax: dx=0.05 does not tile [-15.0, 15.01] evenly"),
    ("grid.xmin = 20", "grid.xmin: xmax must exceed xmin"),
    ("model.sh = 0.05", "model.sh: requires sf < sh (sh = 0.05)"),
    ("grid.xmax = 2", "grid.xmax: bump support must sit strictly inside the domain"),
    ("time.dt = 30", "time.dt: t_end must cover at least one step"),
    ("grid.xmin = -15.01", "grid.xmin: dx=0.05 does not tile [-15.01, 15.0] evenly"),
    # dt/dx^2 reads dx and dt; the text sets only dt, and t_end to cover it
    ("time.dt = 1e306\ntime.t_end = 1e306", "time.dt: dt/dx^2 = inf must be finite and positive"),
    ("grid.xmin = -1e308",
     "grid.xmin: dx=0.05 gives no finite interval count on [-1e+308, 15.0]"),
    ("init.smoothing = 20", "init.smoothing: bump support must sit strictly inside the domain"),
    ("model.sigma = 1e-320", "model.sigma: sigma = 9.99989e-321 and eps = 0.1 leave 1/eps "
     "or 1/(sigma*eps) without a finite value"),
])
def test_cross_key_rule_names_a_key_the_text_sets(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config("# header\n" + text + "\n")
    assert str(info.value) == "line 2: " + message


def test_every_key_reaches_the_run():
    cfg = parse_config(
        "model.fu = 1.2\nmodel.du = 0.3\nmodel.delta = 1.2\nmodel.sf = 0.2\n"
        "model.sh = 0.9\nmodel.sigma = 2\nmodel.mu = 0.03\nmodel.variant = imperfect\n"
        "model.epsilon = 0.07\ngrid.xmin = -10\ngrid.xmax = 12\ngrid.dx = 0.1\n"
        "time.dt = 0.01\ntime.t_end = 3\ntime.output_every = 7\ndiffusion.a = 0.15\n"
        "diffusion.bc = dirichlet\ninit.amplitude = 0.35\ninit.radius = 1.2\n"
        "init.smoothing = 0.4\nexperiment.epsilons = 0.2, 0.05\n"
        "experiment.speed_level = 0.4\nexperiment.speed_window = 1, 3\n"
    )
    assert set(cfg.raw) == set(_KEYS)
    assert cfg.model.params == sl.WolbachiaParams(1.2, 0.3, 1.2, 0.2, 0.9, 2.0, 0.03)
    assert (cfg.model.epsilon, cfg.model.variant) == (0.07, sl.Variant.IMPERFECT)
    assert cfg.solver.grid == sl.Grid1D(-10.0, 12.0, 221)
    assert (cfg.solver.dt, cfg.solver.t_end, cfg.solver.output_every) == (0.01, 3.0, 7)
    assert cfg.solver.diffusivity == 0.15
    assert cfg.solver.bc is sl.BoundaryCondition.DIRICHLET
    assert cfg.spec == sl.InitialDataSpec(0.35, 1.2, 0.4)
    assert cfg.epsilons == (0.2, 0.05)
    assert cfg.speed_level == 0.4
    assert cfg.speed_window == (1.0, 3.0)


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_lists_every_key():
    block = _readme_config_block()
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == set(_KEYS)


def test_readme_block_parses_to_the_defaults():
    assert parse_config(_readme_config_block()) == sl.default_config()


def test_default_config_text_is_pinned():
    # the key table formats some defaults from library fields with :g; a
    # slip there (model.mu = 0.0, time.output_every = 200.0) fails here
    assert format_config(sl.default_config()).splitlines() == [
        "model.fu = 1.12",
        "model.du = 0.27",
        "model.delta = 10/9",
        "model.sf = 0.1",
        "model.sh = 0.8",
        "model.sigma = 1",
        "model.mu = 0",
        "model.variant = perfect",
        "model.epsilon = 0.1  # choice",
        "grid.xmin = -15",
        "grid.xmax = 15",
        "grid.dx = 0.05",
        "time.dt = 0.005",
        "time.t_end = 25  # choice",
        "time.output_every = 200  # choice",
        "diffusion.a = 0.1",
        "diffusion.bc = neumann  # choice",
        "init.amplitude = 0.4  # choice",
        "init.radius = 1.6  # choice",
        "init.smoothing = 0.5  # choice",
        "experiment.epsilons = 0.3, 0.1, 0.05, 0.02  # choice",
        "experiment.speed_level = 0.5  # choice",
        "experiment.speed_window = 75, 125  # choice",
    ]


def test_choice_markers():
    text = format_config(parse_config(""))
    marked = {line.split(" =")[0] for line in text.splitlines() if "# choice" in line}
    unmarked = {line.split(" =")[0] for line in text.splitlines() if "# choice" not in line}
    assert "init.amplitude" in marked
    assert "experiment.epsilons" in marked
    assert "time.t_end" in marked
    for key in ("model.fu", "model.du", "model.delta", "model.sh", "grid.dx",
                "time.dt", "diffusion.a", "grid.xmin", "grid.xmax"):
        assert key in unmarked


def test_solver_config_construction():
    cfg = parse_config("time.t_end = 2\ntime.output_every = 40\n")
    solver_cfg = cfg.solver
    assert solver_cfg.n_steps == 400
    assert solver_cfg.output_every == 40
    assert np.all(solver_cfg.diffusivity_values == 0.1)


def test_library_defaults_match_the_key_table():
    # the key table reads these defaults from the dataclasses' fields
    cfg = sl.default_config()
    assert sl.InitialDataSpec() == cfg.spec
    solver = sl.SolverConfig(cfg.solver.grid, cfg.solver.dt, cfg.solver.t_end)
    assert (solver.diffusivity, solver.output_every, solver.bc) == \
        (cfg.solver.diffusivity, cfg.solver.output_every, cfg.solver.bc)
    p = cfg.model.params
    assert sl.WolbachiaParams(p.fu, p.du, p.delta, p.sf, p.sh, p.sigma).mu == p.mu
    assert sl.ScaledModel(p, cfg.model.epsilon).variant is cfg.model.variant
