import errno
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import singlimit.cli
import singlimit.output
import singlimit.solver
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
    assert capsys.readouterr().out == (
        "drift_slope  PASS  margin=-0.8365 at (5.625, 4.375) (bound B = 0.8365)\n"
        "bistable     PASS  margin=0.2375 (threshold = 0.2375)\n"
    )


TINY_EPS = "model.sigma = 0.37\n"  # 1/eps - sigma*cap cancels to about ulp(1/eps)


def test_check_passes_at_tiny_eps(tmp_path, capsys):
    cfg = tmp_path / "tiny_eps.cfg"
    cfg.write_text(TINY_EPS + "model.epsilon = 1e-17\n")
    assert cli_dispatch(["check", "--config", str(cfg)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_converge_at_tiny_eps_names_the_reaction_step_bound(tmp_path, capsys):
    cfg = tmp_path / "tiny_eps.cfg"
    cfg.write_text(TINY_EPS + "experiment.epsilons = 1e-17\n")
    out_dir = tmp_path / "conv"
    assert cli_dispatch(["converge", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "error: eps=1e-17: dt=0.005 makes the explicit reaction step unstable; "
        "dt must stay below 2*eps/fu = 1.78571e-17\n")
    assert not out_dir.exists()


def test_check_fails_on_monostable_config(tmp_path, capsys):
    cfg = tmp_path / "mono.cfg"
    cfg.write_text("model.delta = 5\n")
    assert cli_dispatch(["check", "--config", str(cfg)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_simulate_limit_runs_a_monostable_config(tmp_path, capsys):
    # the limit equation needs Q > 0, not the bistability that the audit checks
    cfg = tmp_path / "mono.cfg"
    cfg.write_text("model.delta = 5\ntime.t_end = 0.5\n")
    assert cli_dispatch(["simulate", "--model", "limit", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0


def test_check_fails_on_the_rounding_edge_of_sf_below_sh(tmp_path, capsys):
    # sf < sh passes validation, but 1 + sf rounds to 2 = 2*sh: the drift
    # slope bound rounds to 0 and the audit reports it
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("model.sf = 0.9999999999999999\nmodel.sh = 1\n")
    assert cli_dispatch(["check", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "drift_slope  FAIL" in out
    assert "drift slope bound is not positive" in out


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


def test_node_cap_dx_is_validation_error(tmp_path, capsys):
    # 30/1e-300 intervals are finite but would need 3e301 nodes
    cfg = tmp_path / "huge_grid.cfg"
    cfg.write_text("grid.dx = 1e-300\n")
    assert cli_dispatch(["check", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: grid.dx: 3e+301 grid nodes exceed the limit")
    assert "Traceback" not in err


def test_step_cap_dt_is_validation_error(tmp_path, capsys):
    # 25/1e-12 steps would run for days, keeping a frame every 200 steps
    cfg = tmp_path / "tiny_dt.cfg"
    cfg.write_text("time.dt = 1e-12\n")
    out_dir = tmp_path / "limit"
    args = ["simulate", "--model", "limit", "--config", str(cfg), "--out", str(out_dir)]
    assert cli_dispatch(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: time.dt: t_end/dt = 25000000000000 steps exceed")
    assert not out_dir.exists()


def test_converge_rejects_unstable_eps(tmp_path, capsys):
    cfg = tmp_path / "small_eps.cfg"
    cfg.write_text("experiment.epsilons = 0.002\n")
    out_dir = tmp_path / "conv"
    assert cli_dispatch(["converge", "--config", str(cfg), "--out", str(out_dir)]) == 1
    assert "eps=0.002" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("sigma, eps, code", [(2, 3.5, 1), (0.5, 2.0, 0)])
def test_converge_eps_cap_does_not_depend_on_sigma(tmp_path, capsys, sigma, eps, code):
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text(f"model.sigma = {sigma}\nexperiment.epsilons = {eps}\ntime.t_end = 1\n")
    out_dir = tmp_path / "conv"
    assert cli_dispatch(["converge", "--config", str(cfg), "--out", str(out_dir)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: eps=3.5 is outside the admissible range (< 2.908)\n"
    else:
        assert err == "" and (out_dir / "report.csv").exists()


@pytest.mark.parametrize("sigma", ["1e-300", "1e-200"])
def test_converge_rejects_non_finite_error_norms(tmp_path, capsys, sigma):
    # a tiny sigma makes the manifold residual huge, and squaring it in the
    # spatial norm overflows: the sweep fails instead of reporting err_m = nan
    cfg = tmp_path / "tiny_sigma.cfg"
    cfg.write_text(f"experiment.epsilons = 0.3\nmodel.sigma = {sigma}\ntime.t_end = 1\n")
    out_dir = tmp_path / "conv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_dispatch(["converge", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == (
        "solver error: eps=0.3: error norms err_p=0.00401701, err_m=nan are not finite\n")
    assert not out_dir.exists()


def test_converge_err_m_scales_as_one_over_sigma(tmp_path, capsys):
    # the manifold residual is a density, of the order of the carrying total
    # 1/(sigma eps), so err_m scales as 1/sigma and err_p does not move
    norms = []
    for sigma in (1, 1e-10, 1e-150):
        cfg = tmp_path / "sigma.cfg"
        cfg.write_text(f"experiment.epsilons = 0.3\nmodel.sigma = {sigma}\ntime.t_end = 1\n")
        out_dir = tmp_path / f"conv_{sigma:g}"
        assert cli_dispatch(["converge", "--config", str(cfg), "--out", str(out_dir)]) == 0
        row = (out_dir / "report.csv").read_text().splitlines()[1].split(",")
        norms.append((float(row[1]), float(row[2]) * sigma))
    for got in norms[1:]:
        assert got == pytest.approx(norms[0], rel=1e-9, abs=0)


@pytest.mark.parametrize("argv, what", [
    (["simulate", "--model", "limit"], "the limit equation"),
    (["wavespeed", "--model", "limit"], "the limit equation"),
    (["converge"], "the convergence sweep"),
    (["check"], "the assumption audit"),
])
def test_alternative_variant_has_no_limit_run(tmp_path, capsys, argv, what):
    cfg = tmp_path / "alt.cfg"
    cfg.write_text("model.variant = alternative\ntime.t_end = 125\n")
    out_dir = tmp_path / "out"
    if argv[0] in ("simulate", "converge"):
        argv = argv + ["--out", str(out_dir)]
    assert cli_dispatch(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {what} needs the perfect or imperfect variant\n"
    assert not out_dir.exists()


def test_equilibria_serves_the_alternative_variant(tmp_path, capsys):
    cfg = tmp_path / "alt.cfg"
    cfg.write_text("model.variant = alternative\n")
    assert cli_dispatch(["equilibria", "--config", str(cfg)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [
        ["extinction", "0.000000", "7.589286", "0.000000", "stable"],
        ["invasion", "7.023810", "0.000000", "1.000000", "stable"],
        ["coexistence", "1.668155", "5.355655", "0.237500", "unstable"],
        ["origin", "0.000000", "0.000000", "0.000000", "unstable"],
    ]


@pytest.mark.parametrize("command, text, message", [
    (["converge"], "model.delta = 5\n", "eps=0.3: assumption audit failed (bistable)"),
    (["simulate"], "model.epsilon = 5\n",
     "eps=5 exceeds the resident-equilibrium range eps < fu/du"),
    (["simulate"], "model.variant = alternative\nmodel.du = 1.2\n",
     "resident equilibrium needs du < fu"),
    (["equilibria"], "model.variant = alternative\nmodel.du = 1.2\n",
     "resident equilibrium needs du < fu"),
    (["equilibria"], "model.epsilon = 5\n",
     "eps=5 exceeds the resident-equilibrium range eps < fu/du"),
    (["converge"], "experiment.epsilons = 0.1000001, 0.1\n",
     "line 1: experiment.epsilons: eps values must differ in their first 6 significant digits"),
    (["wavespeed"], "time.t_end = 1\nexperiment.speed_window = 0.9, 0.95\n",
     "window contains fewer than two usable snapshots"),
    (["converge"], "time.t_end = 1\nexperiment.speed_window = 0, 1\n",
     "limit equation: snapshot 0 (t=0) has no 0.5-level crossing"),
    (["converge"], "model.sigma = 1e-200\nexperiment.epsilons = 1e-200\n",
     "sigma = 1e-200 and eps = 1e-200 leave 1/eps or 1/(sigma*eps) without a finite value"),
    # a grid, step or diffusivity that the implicit matrix cannot hold, and a
    # carrying total 1/(sigma*eps) that cannot be formed, fail on a key the
    # text sets, with no traceback or warning (warnings are errors here)
    (["converge"], "grid.xmin = -1e-200\ngrid.xmax = 1e-200\ngrid.dx = 1e-201\n"
     "init.radius = 1e-202\ninit.smoothing = 0\n",
     "line 3: grid.dx: dt/dx^2 = inf must be finite and positive"),
    (["converge"], "grid.xmin = -1e300\ngrid.xmax = 1e300\ngrid.dx = 1e299\n",
     "line 3: grid.dx: dt/dx^2 = 0 must be finite and positive"),
    (["converge"], "diffusion.a = 1e308\n",
     "line 1: diffusion.a: diffusivity gives face coefficients dt*a/dx^2 that are zero "
     "or overflow"),
    (["check"], "model.sigma = 1e-200\nmodel.epsilon = 1e-200\n",
     "line 2: model.epsilon: sigma = 1e-200 and eps = 1e-200 leave 1/eps or "
     "1/(sigma*eps) without a finite value"),
    (["equilibria"], "model.epsilon = 1e-310\n",
     "line 1: model.epsilon: sigma = 1 and eps = 1e-310 leave 1/eps or "
     "1/(sigma*eps) without a finite value"),
    (["equilibria"], "model.sigma = 1e-320\n",
     "line 1: model.sigma: sigma = 9.99989e-321 and eps = 0.1 leave 1/eps or "
     "1/(sigma*eps) without a finite value"),
    (["converge"], "diffusion.a = 4e307\n",
     "line 1: diffusion.a: diffusivity gives a face coefficient dt*a/dx^2 = 8e+307, not "
     "below 1/ulp(1) = 2^52, where I - dt*L rounds its identity part away"),
    (["converge"], "diffusion.a = 1e300\n",
     "line 1: diffusion.a: diffusivity gives a face coefficient dt*a/dx^2 = 2e+300, not "
     "below 1/ulp(1) = 2^52, where I - dt*L rounds its identity part away"),
    (["equilibria"], "model.fu = 1.7e308\n",
     "line 1: model.fu: fu = 1.7e+308, du = 0.27, sigma = 1 and eps = 0.1 leave "
     "fu*carrying_total or du/(sigma*fu) without a finite value"),
    (["equilibria"], "model.fu = 1e-320\n",
     "line 1: model.fu: fu = 9.99989e-321, du = 0.27, sigma = 1 and eps = 0.1 leave "
     "fu*carrying_total or du/(sigma*fu) without a finite value"),
    # a subnormal smoothing's ramp overflows, without a warning, to a plateau
    (["wavespeed"], "init.smoothing = 1e-320\ntime.t_end = 1\n"
     "experiment.speed_window = 0.5, 1\n", "snapshot 1 (t=1) has no 0.5-level crossing"),
    # from fu = 1e13 on the extinction state's slow eigenvalue is lost to
    # rounding next to its fast one, about -10*fu
    *[(["equilibria"], f"model.fu = {fu}\n",
       f"(0, 10): an eigenvalue's real part lies below 16 ulp(1)*max|eigenvalue| = {floor}, "
       "where rounding decides its sign")
      for fu, floor in (("1e14", "3.55"), ("1e15", "35.5"), ("1e16", "355"),
                        ("1e307", "3.55e+293"))],
    # sf < sh, but 1 + sf rounds to 2: the audit fails before the eps cap,
    # which would divide by the minimum of Q, rounded to 0
    (["converge"], "model.sf = 0.9999999999999999\nmodel.sh = 1\n",
     "eps=0.3: assumption audit failed (drift_slope, bistable)"),
    # the limit equation divides by that Q and checks the drift slope bound first
    (["simulate", "--model", "limit"], "model.sf = 0.9999999999999999\nmodel.sh = 1\n",
     "drift slope bound is not positive for these parameters"),
    (["wavespeed", "--model", "limit"], "model.sf = 0.9999999999999999\nmodel.sh = 1\n"
     "time.t_end = 1\nexperiment.speed_window = 0.5, 1\n",
     "drift slope bound is not positive for these parameters"),
])
def test_rejected_run_is_validation_error(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    if command[0] in ("simulate", "converge"):
        command = command + ["--out", str(out_dir)]
    assert cli_dispatch(command + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_alternative_variant_is_selected_by_config_only(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert cli_dispatch(["simulate", "--model", "alt", "--out", str(out_dir)]) == 1
    assert "invalid choice: 'alt'" in capsys.readouterr().err
    cfg = tmp_path / "alt.cfg"
    cfg.write_text("model.variant = alternative\ntime.t_end = 0.5\n")
    assert cli_dispatch(["simulate", "--model", "system", "--config", str(cfg),
                         "--out", str(out_dir)]) == 0
    assert (out_dir / "ni_0000.csv").exists() and (out_dir / "nu_0000.csv").exists()


def test_solver_failure_is_runtime_error(tmp_path, capsys, monkeypatch):
    # the solve hands back a NaN from step 5 on, which the density settle rejects
    real = singlimit.solver.solve_banded
    calls = []

    def failing_solve(factors, rhs):
        x = real(factors, rhs)
        calls.append(1)
        if len(calls) >= 5:
            x[0] = float("nan")
        return x

    monkeypatch.setattr("singlimit.solver.solve_banded", failing_solve)
    cfg = tmp_path / "short.cfg"
    cfg.write_text("time.dt = 0.1\ntime.t_end = 1\ntime.output_every = 1\n")
    out_dir = tmp_path / "out"
    assert cli_dispatch(["simulate", "--model", "system", "--config", str(cfg),
                         "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: eps=0.1: step 5: infected density became non-finite")
    assert not out_dir.exists()
    # the frames written before the failure went to a staging directory that is gone
    assert [p.name for p in tmp_path.iterdir()] == ["short.cfg"]


@pytest.fixture()
def writer_pids(monkeypatch):
    """The process ids of the snapshot writers started during the test."""
    pids, start = [], singlimit.output._Writer.__init__

    def recording_start(self):
        start(self)
        pids.append(self._process.pid)

    monkeypatch.setattr(singlimit.output._Writer, "__init__", recording_start)
    return pids


def refuse_ni_0002(monkeypatch):
    # the writer is forked, so it opens its files through the patched open too
    def failing_open(path, *args, **kwargs):
        if Path(path).name == "ni_0002.csv":
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(singlimit.output, "open", failing_open, raising=False)


def fail_solve_at_step_60(monkeypatch):
    solve, calls = singlimit.solver.solve_banded, []

    def failing_solve(*args):
        calls.append(1)
        if len(calls) == 60:
            raise singlimit.solver.SolverError("solve refused", step=60)
        return solve(*args)

    monkeypatch.setattr(singlimit.solver, "solve_banded", failing_solve)


def kill_writer(monkeypatch):
    monkeypatch.setattr(singlimit.output, "_serve", lambda conn, caller_end: os._exit(1))


@pytest.mark.parametrize("patch, message", [
    (refuse_ni_0002, r"i/o error: \[Errno 28\] No space left on device: '.*/ni_0002\.csv'\n"),
    (fail_solve_at_step_60, r"solver error: step 60: solve refused\n"),
    (kill_writer, r"i/o error: snapshot writer exited with status 1\n"),
], ids=["write", "solve", "writer-exit"])
def test_failed_simulate_reaps_its_writer(tmp_path, capfd, quick_cfg, monkeypatch,
                                          writer_pids, patch, message):
    # 100 steps with a frame every 10: frames 0 to 5 are handed off before step 60
    quick_cfg.write_text(QUICK.replace("time.output_every = 50", "time.output_every = 10"))
    patch(monkeypatch)
    out_dir = tmp_path / "run"
    assert cli_dispatch(["simulate", "--config", str(quick_cfg), "--model", "system",
                         "--out", str(out_dir)]) == 2
    # one line on the file descriptors the writer shares, so no traceback
    captured = capfd.readouterr()
    assert captured.out == ""
    assert re.fullmatch(message, captured.err)
    # neither --out nor a staging directory, and no child process left
    assert [p.name for p in tmp_path.iterdir()] == ["quick.cfg"]
    assert len(writer_pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(writer_pids[0], os.WNOHANG)


@pytest.mark.parametrize("argv", [["converge"], ["simulate", "--model", "system"]])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_naming_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch, argv, out):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(singlimit.cli, "run_convergence_sweep", no_run)
    monkeypatch.setattr(singlimit.cli, "frequency_run", no_run)
    out_file = tmp_path / "taken"
    out_file.write_text("not a directory\n")
    assert cli_dispatch([*argv, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == \
        f"i/o error: [Errno {errno.ENOTDIR}] Not a directory: '{out_file}'\n"
    assert out_file.read_text() == "not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no staging directory


@pytest.mark.parametrize("argv", [
    ["converge", "--out", "conv"],
    ["wavespeed", "--model", "limit"],
    ["simulate", "--model", "system", "--out", "never", "--show-config"],
])
def test_commands_without_snapshots_start_no_writer(tmp_path, capsys, monkeypatch, argv):
    def no_writer(self):
        raise AssertionError("a snapshot writer was started")

    monkeypatch.setattr(singlimit.output._Writer, "__init__", no_writer)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("grid.dx = 0.25\ntime.t_end = 1\ntime.output_every = 10\n"
                   "experiment.epsilons = 0.3\nexperiment.speed_window = 0.5, 1\n"
                   "experiment.speed_level = 0.3\n")
    assert cli_dispatch(argv + ["--config", str(cfg)]) == 0


@pytest.mark.parametrize("dt, code", [(2.3, 0), (2.4, 1)])
def test_alternative_step_bound(tmp_path, capsys, dt, code):
    # linearised at the resident state the alternative kinetics relax at the
    # rate fu - du = 0.85, so explicit Euler needs dt < 2/0.85 = 2.35294
    cfg = tmp_path / "alt.cfg"
    cfg.write_text(f"model.variant = alternative\ngrid.dx = 0.25\ntime.dt = {dt}\n"
                   f"time.t_end = {2 * dt}\ntime.output_every = 1\n")
    out_dir = tmp_path / "out"
    assert cli_dispatch(["simulate", "--model", "system", "--config", str(cfg),
                         "--out", str(out_dir)]) == code
    if code:
        assert "dt must stay below 2/(fu - du) = 2.35294" in capsys.readouterr().err
        assert not out_dir.exists()


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


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_show_config_needs_no_out(capsys, command):
    assert cli_dispatch([command, "--show-config"]) == 0
    assert "time.t_end = " in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_run_without_out_is_validation_error(tmp_path, capsys, quick_cfg, command):
    assert cli_dispatch([command, "--config", str(quick_cfg)]) == 1
    assert "required: --out" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["quick.cfg"]


def test_simulate_writes_each_frame_before_the_next_step(tmp_path, quick_cfg, monkeypatch):
    # 100 steps, frames at steps 0, 30, 60, 90 and 100
    quick_cfg.write_text(QUICK.replace("time.output_every = 50", "time.output_every = 30"))
    solves, writes = [0], []

    def counting_solve(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    def recording_write(field, run, name):
        writes.append((name, solves[0]))
        write(field, run, name)

    solve, write = singlimit.solver.solve_banded, singlimit.cli.write_snapshot
    monkeypatch.setattr(singlimit.solver, "solve_banded", counting_solve)
    monkeypatch.setattr(singlimit.cli, "write_snapshot", recording_write)
    assert cli_dispatch(["simulate", "--config", str(quick_cfg), "--model", "system",
                         "--out", str(tmp_path / "run")]) == 0
    assert solves[0] == 100
    expected = [(f"{tag}_{k:04d}.csv", min(30 * k, 100))
                for k in range(5) for tag in ("p", "ni", "nu")]
    assert writes == expected


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "system", "--svg"],
    ["simulate", "--model", "limit", "--svg"],
    ["converge", "--svg"],
])
def test_rerun_into_existing_out_matches_fresh_run(tmp_path, quick_cfg, capsys, argv):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    (reused / "stale.txt").write_text("kept")
    for out in (fresh, reused, reused):
        assert cli_dispatch(argv + ["--config", str(quick_cfg), "--out", str(out)]) == 0
    written = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in reused.iterdir()) == sorted(written + ["stale.txt"])
    for name in written:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
    assert (reused / "stale.txt").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "quick.cfg", "reused"]


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


def test_simulate_thins_plot_to_six_curves(tmp_path, quick_cfg):
    # 21 snapshots at t = 0, 0.1, ..., 2; the plot keeps 6, endpoints included
    quick_cfg.write_text(QUICK.replace("time.output_every = 50", "time.output_every = 5"))
    out_dir = tmp_path / "run"
    assert cli_dispatch(["simulate", "--config", str(quick_cfg), "--model", "limit",
                         "--out", str(out_dir), "--svg"]) == 0
    svg = (out_dir / "profiles.svg").read_text()
    assert svg.count("<polyline") == 6
    assert ">t = 0<" in svg and ">t = 2<" in svg


@pytest.mark.parametrize("n, indices", [*[(n, list(range(n))) for n in range(1, 7)],
                                         (21, [0, 4, 8, 12, 16, 20])])
def test_plot_indices_keep_every_frame_up_to_six_and_the_endpoints(n, indices):
    assert singlimit.cli._plot_indices(n) == indices


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
