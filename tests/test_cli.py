import os
import subprocess
import sys
from pathlib import Path

import pytest

from singlimit.cli import cli_dispatch
from singlimit.output import read_snapshot

QUICK = """
grid.dx = 0.25
time.dt = 0.02
time.t_end = 2
time.output_every = 50
experiment.epsilons = 0.3, 0.1
"""


@pytest.fixture()
def quick_cfg(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK)
    return path


def test_equilibria_prints_reference_table(capsys):
    assert cli_dispatch(["equilibria"]) == 0
    out = capsys.readouterr().out
    for token in ("9.758929", "9.702381", "2.304315", "7.398065",
                  "stable", "unstable"):
        assert token in out
    rows = [line for line in out.splitlines() if line and not line.startswith("state")]
    assert len(rows) == 4


def test_python_m_runs_the_cli_from_the_source_tree():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "singlimit", "equilibria"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == [
        "state", "n_i", "n_u", "frequency", "stability"]


def test_check_passes_on_defaults(capsys):
    assert cli_dispatch(["check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_check_fails_on_monostable_config(tmp_path, capsys):
    cfg = tmp_path / "mono.cfg"
    cfg.write_text("model.delta = 5\n")
    assert cli_dispatch(["check", "--config", str(cfg)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model.sh = 1.2\n")
    assert cli_dispatch(["check", "--config", str(cfg)]) == 1
    assert "model.sh" in capsys.readouterr().err


def test_subnormal_dx_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "tiny_dx.cfg"
    cfg.write_text("grid.dx = 1e-320\n")
    assert cli_dispatch(["check", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: grid.dx:")
    assert "Traceback" not in err


def test_converge_rejects_unstable_eps(tmp_path, capsys):
    cfg = tmp_path / "small_eps.cfg"
    cfg.write_text("experiment.epsilons = 0.002\n")
    out_dir = tmp_path / "conv"
    assert cli_dispatch(["converge", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert "eps=0.002" in capsys.readouterr().err
    assert not (out_dir / "report.csv").exists()


def test_missing_config_file_is_runtime_error(capsys):
    assert cli_dispatch(["check", "--config", "/nonexistent/x.cfg"]) == 2


def test_unknown_subcommand_is_validation_error():
    assert cli_dispatch(["explode"]) == 1


def test_show_config_does_not_run(tmp_path, capsys, quick_cfg):
    out_dir = tmp_path / "never"
    code = cli_dispatch(["simulate", "--config", str(quick_cfg), "--out", str(out_dir),
                         "--show-config"])
    assert code == 0
    assert not out_dir.exists()
    text = capsys.readouterr().out
    assert "model.fu = 1.12" in text
    assert "# choice" in text


def test_simulate_limit_writes_snapshots(tmp_path, quick_cfg, capsys):
    out_dir = tmp_path / "run"
    assert cli_dispatch(["simulate", "--config", str(quick_cfg), "--model", "limit",
                         "--out", str(out_dir), "--svg"]) == 0
    manifest = (out_dir / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "time,filename"
    assert len(manifest) == 4  # t = 0, 1, 2 snapshots
    x, values = read_snapshot(out_dir / "p_0000.csv")
    assert len(x) == 121
    assert values.max() == 0.4
    assert (out_dir / "profiles.svg").exists()


def test_simulate_system_writes_densities(tmp_path, quick_cfg):
    out_dir = tmp_path / "run_sys"
    assert cli_dispatch(["simulate", "--config", str(quick_cfg), "--model", "system",
                         "--out", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {"p_0000.csv", "ni_0000.csv", "nu_0000.csv", "manifest.csv"} <= names


def test_simulate_outputs_are_byte_identical(tmp_path, quick_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli_dispatch(["simulate", "--config", str(quick_cfg), "--model",
                             "system", "--out", str(out)]) == 0
    for name in ("p_0002.csv", "ni_0002.csv", "manifest.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_converge_writes_report(tmp_path, quick_cfg, capsys):
    out_dir = tmp_path / "conv"
    assert cli_dispatch(["converge", "--config", str(quick_cfg), "--out", str(out_dir),
                         "--svg"]) == 0
    lines = (out_dir / "report.csv").read_text().splitlines()
    assert lines[0] == "epsilon,err_p,err_m,speed,limit_speed"
    eps = [float(line.split(",")[0]) for line in lines[1:]]
    assert eps == [0.3, 0.1]
    for name in ("profiles_limit.svg", "profiles_eps_0.3.svg", "profiles_eps_0.1.svg"):
        assert (out_dir / name).is_file()
    rungs = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("eps=")]
    assert rungs == ["eps=0.3", "eps=0.1"]


def test_wavespeed_prints_number(tmp_path, capsys):
    cfg = tmp_path / "wave.cfg"
    cfg.write_text(
        "time.t_end = 10\n"
        "time.output_every = 100\n"
        "init.amplitude = 0.9\n"
        "init.radius = 5\n"
        "init.smoothing = 1\n"
        "experiment.speed_window = 4, 10\n"
    )
    assert cli_dispatch(["wavespeed", "--config", str(cfg), "--model", "limit"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("speed ")
    float(out.split()[1])


def test_wavespeed_requires_covering_horizon(tmp_path, capsys):
    cfg = tmp_path / "wave.cfg"
    cfg.write_text("time.t_end = 10\n")  # default window ends at 125
    assert cli_dispatch(["wavespeed", "--config", str(cfg)]) == 1
