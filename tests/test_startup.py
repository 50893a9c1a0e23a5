"""Start-up cost of the command line: the solver loads scipy's LAPACK
extension file itself, so no scipy package init runs before main."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import singlimit as sl
from singlimit import solver

SRC = Path(__file__).resolve().parents[1] / "src"


def imported_modules(*args):
    """Every module a fresh interpreter imports while running args, as
    -X importtime reports them on stderr, and its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {row.rsplit("|", 1)[1].strip() for row in rows[1:]}, proc.stdout


def test_start_up_imports_no_scipy_or_multiprocessing_package(tmp_path):
    # multiprocessing is loaded only by the snapshot writer of simulate
    cli, _ = imported_modules("-c", "import singlimit.cli")
    run, stdout = imported_modules("-m", "singlimit", "converge", "--show-config",
                                   "--out", str(tmp_path / "conv"))
    assert "time.t_end = " in stdout
    for names in (cli, run):
        assert "singlimit.solver" in names
        for package in ("scipy", "multiprocessing"):
            assert not {n for n in names if n == package or n.startswith(package + ".")}


@pytest.mark.parametrize("bc", list(sl.BoundaryCondition))
def test_loaded_routines_are_scipy_linalg_bits(grid601, bc, monkeypatch):
    # the same assembly factored and solved by the loaded routines and by
    # scipy.linalg.lapack's: every factor and solution bit agrees
    config = sl.SolverConfig(grid601, dt=0.005, t_end=1.0, bc=bc,
                             diffusivity=tuple(zip(grid601.x, 0.1 + 0.05 * np.cos(grid601.x))))
    block = np.random.default_rng(8).uniform(0.0, 10.0, (grid601.nx, 8))

    def factor_and_solve(dpttrf, dpttrs):
        # the factors (d, e) that dpttrf hands the step, and its solution
        factors = []

        def recording(*args):
            factors.append(dpttrf(*args))
            return factors[-1]

        monkeypatch.setattr(solver, "dpttrf", recording)
        monkeypatch.setattr(solver, "dpttrs", dpttrs)
        x = solver._diffusion(config)(np.array(block, order="F"), block)
        (d, e, _), = factors
        return d, e, x

    got = factor_and_solve(solver.dpttrf, solver.dpttrs)
    want = factor_and_solve(lapack.dpttrf, lapack.dpttrs)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
