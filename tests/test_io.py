import math
import warnings

import numpy as np
import pytest

import singlimit as sl
from singlimit.output import (
    read_snapshot,
    staged_output,
    write_manifest,
    write_profiles_svg,
    write_report,
    write_snapshot,
)


@pytest.fixture()
def grid():
    return sl.Grid1D.from_spacing(-2.0, 2.0, 0.25)


def test_snapshot_round_trip_is_bit_exact(grid, tmp_path):
    rng = np.random.default_rng(9)
    field = sl.Field(rng.uniform(-1, 1, grid.nx), grid)
    with staged_output(tmp_path / "out") as staging:
        write_snapshot(field, staging.path("snap.csv"))
    x, values = read_snapshot(tmp_path / "out" / "snap.csv")
    assert np.array_equal(x, grid.x)
    assert np.array_equal(values, field.values)


def test_snapshot_constant_serializes_uniformly(grid, tmp_path):
    field = sl.Field.constant(1.0, grid)
    with staged_output(tmp_path / "out") as staging:
        write_snapshot(field, staging.path("snap.csv"))
    lines = (tmp_path / "out" / "snap.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == grid.nx + 1
    assert {line.split(",")[1] for line in lines[1:]} == {"1"}


def test_snapshot_write_is_deterministic(grid, tmp_path):
    field = sl.Field(np.sin(grid.x), grid)
    out = tmp_path / "out"
    with staged_output(out) as staging:
        write_snapshot(field, staging.path("a.csv"))
        write_snapshot(field, staging.path("b.csv"))
    assert (out / "a.csv").read_bytes() == (out / "b.csv").read_bytes()
    assert b"\r" not in (out / "a.csv").read_bytes()


def _reference_snapshot(x, values):
    return "x,value\n" + "".join(f"{a:.17g},{v:.17g}\n" for a, v in zip(x, values))


def test_snapshot_bytes_match_reference_formatter(tmp_path):
    grid = sl.Grid1D(-1.0, 2.0, 14)
    values = np.array([-0.0, 5e-324, 1 / 3, 0.1, 1e16, 1 - 2**-53, -5e-324,
                       -1 / 3, -0.1, -1e16, -(1 - 2**-53), 0.0, 2.5, -1e-300])
    with staged_output(tmp_path / "out") as staging:
        write_snapshot(sl.Field(values, grid), staging.path("snap.csv"))
    path = tmp_path / "out" / "snap.csv"
    assert path.read_bytes() == _reference_snapshot(grid.x, values).encode()


@pytest.mark.parametrize("grids", [
    (sl.Grid1D(-2.0, 2.0, 9), sl.Grid1D(0.0, 8.0, 9)),    # same nx, other bounds
    (sl.Grid1D(-2.0, 2.0, 9), sl.Grid1D(-2.0, 2.0, 17)),  # same bounds, other nx
    (sl.Grid1D(-1.0, -0.0, 3), sl.Grid1D(-1.0, 0.0, 3)),  # equal grids, signed zero
], ids=["bounds", "nx", "signed-zero"])
def test_snapshot_x_column_follows_its_own_grid(grids, tmp_path):
    out = tmp_path / "out"
    with staged_output(out) as staging:
        for k in range(4):
            grid = grids[k % 2]
            write_snapshot(sl.Field(np.full(grid.nx, 0.5), grid), staging.path(f"snap_{k}.csv"))
    for k in range(4):
        grid = grids[k % 2]
        path = out / f"snap_{k}.csv"
        assert path.read_bytes() == _reference_snapshot(grid.x, [0.5] * grid.nx).encode()
        x, _ = read_snapshot(path)
        assert np.array_equal(x, grid.x)


@pytest.mark.parametrize("text", [
    "a,b\n1,2\n",
    "x,value\n",
    "x,value\n1\n2\n",
    "x,value\n1,2,3\n",
    "x,value\n1,2\n3,4,5\n",
], ids=["header", "header-only", "one-column", "three-columns", "ragged"])
def test_read_snapshot_rejects_other_files(text, tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="junk.csv"):
            read_snapshot(path)


def test_manifest_format(tmp_path):
    with staged_output(tmp_path / "out") as staging:
        write_manifest([(0.0, "p_0000.csv"), (2.5, "p_0001.csv")], staging.path("manifest.csv"))
    lines = (tmp_path / "out" / "manifest.csv").read_text().splitlines()
    assert lines[0] == "time,filename"
    assert lines[1] == "0,p_0000.csv"
    assert lines[2] == "2.5,p_0001.csv"


def test_report_format(tmp_path):
    report = sl.ConvergenceReport(
        epsilons=(0.3, 0.1, 0.05, 0.02),
        err_p=(0.4, 0.3, 0.2, 0.1),
        err_m=(0.04, 0.03, 0.02, 0.01),
        speeds=(math.nan,) * 4,
        limit_speed=math.nan,
    )
    with staged_output(tmp_path / "out") as staging:
        write_report(report, staging.path("report.csv"))
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert lines[0] == "epsilon,err_p,err_m,speed,limit_speed"
    assert len(lines) == 5
    eps_column = [float(line.split(",")[0]) for line in lines[1:]]
    assert eps_column == [0.3, 0.1, 0.05, 0.02]
    assert all(b < a for a, b in zip(eps_column, eps_column[1:]))


def test_report_rejects_misaligned_columns():
    with pytest.raises(ValueError):
        sl.ConvergenceReport((0.3, 0.1), (0.1,), (0.1, 0.2), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="eps ladder must be strictly decreasing"):
        sl.ConvergenceReport((0.1, 0.3), (0.1, 0.2), (0.1, 0.2), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError, match="differ in their first 6 significant digits"):
        sl.ConvergenceReport((0.1000001, 0.1), (0.1, 0.2), (0.1, 0.2), (1.0, 1.0), 1.0)


def test_svg_plot(grid, tmp_path):
    series = [(t, sl.Field(np.exp(-(grid.x - 0.1 * t) ** 2), grid)) for t in (0.0, 5.0, 10.0)]
    with staged_output(tmp_path / "out") as staging:
        write_profiles_svg(series, staging.path("plot.svg"), title="demo")
        with pytest.raises(ValueError, match="nothing to plot"):
            write_profiles_svg([], staging.path("empty.svg"), title="empty")
    text = (tmp_path / "out" / "plot.svg").read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 3
    assert "t = 5" in text
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["plot.svg"]


@pytest.mark.parametrize("writer", ["snapshot", "manifest", "report", "svg"])
def test_writers_reject_a_path_outside_a_run_in_progress(grid, tmp_path, writer):
    # a run is published atomically, so no writer writes where no run stages
    field = sl.Field.constant(0.5, grid)
    report = sl.ConvergenceReport((0.1,), (0.1,), (0.1,), (math.nan,), math.nan)
    write = {
        "snapshot": lambda path: write_snapshot(field, path),
        "manifest": lambda path: write_manifest([(0.0, "p_0000.csv")], path),
        "report": lambda path: write_report(report, path),
        "svg": lambda path: write_profiles_svg([(0.0, field)], path, title="t"),
    }[writer]
    out = tmp_path / "out"
    with staged_output(out) as staging:
        stage = staging.path("kept").parent
        write(staging.path("kept"))
    for path in (tmp_path / "loose",   # no run
                 out / "late",         # a published run
                 stage / "late"):      # the staging directory of a finished run
        with pytest.raises(ValueError, match="not in the staging directory of a run in progress"):
            write(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert [p.name for p in out.iterdir()] == ["kept"]


def test_staged_output_publishes_a_new_directory_in_one_rename(tmp_path):
    out = tmp_path / "nested" / "out"
    with staged_output(out) as staging:
        staging.path("a.txt").write_text("a")
        staging.path("b.txt").write_text("b")
        stage = staging.path("a.txt").parent
        assert stage.parent == out.parent and not out.exists()
    assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.txt"]
    assert not stage.exists()
    assert [p.name for p in out.parent.iterdir()] == ["out"]


def test_staged_output_moves_files_into_an_existing_directory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.txt").write_text("old")
    (out / "keep.txt").write_text("keep")
    with staged_output(out) as staging:
        staging.path("a.txt").write_text("new")
    assert (out / "a.txt").read_text() == "new"
    assert (out / "keep.txt").read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("existing", [False, True])
def test_staged_output_leaves_out_as_it_was_on_failure(tmp_path, existing):
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "a.txt").write_text("old")
    with pytest.raises(RuntimeError, match="boom"):
        with staged_output(out) as staging:
            staging.path("a.txt").write_text("new")
            raise RuntimeError("boom")
    if existing:
        assert [p.name for p in out.iterdir()] == ["a.txt"]
        assert (out / "a.txt").read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if existing else [])


def test_staged_snapshots_match_reference_formatter(tmp_path):
    # the snapshots of one run all go through its one forked writer and
    # appear at publish
    grid = sl.Grid1D(-1.0, 2.0, 14)
    values = [np.linspace(-1, 1, grid.nx) * k / 3 for k in range(5)]
    out = tmp_path / "out"
    with staged_output(out) as staging:
        for k, v in enumerate(values):
            write_snapshot(sl.Field(v, grid), staging.path(f"p_{k}.csv"))
    assert sorted(p.name for p in out.iterdir()) == [f"p_{k}.csv" for k in range(5)]
    for k, v in enumerate(values):
        assert (out / f"p_{k}.csv").read_bytes() == _reference_snapshot(grid.x, v).encode()


def test_staged_output_touches_nothing_before_the_first_file(tmp_path):
    out = tmp_path / "missing" / "out"
    with pytest.raises(ValueError):
        with staged_output(out):
            raise ValueError("rejected before the run")
    with staged_output(out):
        pass
    assert list(tmp_path.iterdir()) == []
