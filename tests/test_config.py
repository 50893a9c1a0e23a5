import dataclasses
from pathlib import Path

import numpy as np
import pytest

import singlimit as sl
from singlimit.config import _KEYS, ConfigError, RunConfig, format_config, parse_config


def test_empty_text_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg.fu == 1.12
    assert cfg.du == 0.27
    assert cfg.delta == pytest.approx(10 / 9, rel=1e-15)
    assert cfg.sf == 0.1 and cfg.sh == 0.8 and cfg.sigma == 1.0
    assert cfg.a == 0.1
    assert (cfg.xmin, cfg.xmax, cfg.dx) == (-15.0, 15.0, 0.05)
    assert cfg.dt == 0.005
    assert cfg.variant is sl.Variant.PERFECT
    assert cfg.epsilons == (0.3, 0.1, 0.05, 0.02)
    assert cfg.grid().nx == 601


def test_ratio_and_comments_parse():
    cfg = parse_config(
        "# full line comment\n"
        "\n"
        "model.delta = 11/9  # inline comment\n"
        "model.epsilon = 0.05\n"
    )
    assert cfg.delta == pytest.approx(11 / 9, rel=1e-15)
    assert cfg.epsilon == 0.05


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
    assert cfg.scaled_model().mu == 0.04


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
    profile = cfg.diffusivity()
    grid = cfg.grid()
    assert profile[0] == pytest.approx(0.1)
    assert profile[grid.nx // 2] == pytest.approx(0.2)
    # linear in between
    assert profile[grid.nx // 4] == pytest.approx(0.15, abs=1e-12)
    with pytest.raises(ConfigError, match="increase"):
        parse_config("diffusion.a = 0:0.1, -5:0.2\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("diffusion.a = -15:0.1, 15:0\n")


def test_variant_and_bc_words():
    cfg = parse_config("model.variant = alternative\ndiffusion.bc = dirichlet\n")
    assert cfg.variant is sl.Variant.ALTERNATIVE
    assert cfg.bc is sl.BoundaryCondition.DIRICHLET


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
    ("experiment.speed_window = 75", "experiment.speed_window: need exactly two times"),
    ("diffusion.a = -15:0.1, 0.2", "diffusion.a: profile entries are x:value pairs"),
    ("model.delta = 1/0", "model.delta: not a number: '1/0'"),
    ("time.t_end = inf", "time.t_end: not a finite number: 'inf'"),
    ("model.fu = nan", "model.fu: not a finite number: 'nan'"),
    ("grid.xmax = -inf", "grid.xmax: not a finite number: '-inf'"),
    pytest.param(f"model.delta = {10**400}/3",
                 f"model.delta: not a finite number: '{10**400}/3'", id="overflowing-ratio"),
])
def test_malformed_value_names_line_and_key(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config("# header\n" + text + "\n")
    assert str(info.value) == "line 2: " + message


def test_key_table_covers_every_field():
    fields = [f.name for f in dataclasses.fields(RunConfig) if f.name != "raw"]
    assert [key.split(".", 1)[1] for key in _KEYS] == fields


def test_readme_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == set(_KEYS)


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
    solver_cfg = cfg.solver_config()
    assert solver_cfg.n_steps == 400
    assert solver_cfg.output_every == 40
    assert np.all(solver_cfg.diffusivity_values == 0.1)
    override = cfg.solver_config(t_end=1.0)
    assert override.n_steps == 200
