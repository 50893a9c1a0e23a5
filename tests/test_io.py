import math

import numpy as np
import pytest

import singlimit as sl
from singlimit.output import (
    read_snapshot,
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
    path = tmp_path / "snap.csv"
    write_snapshot(field, path)
    x, values = read_snapshot(path)
    assert np.array_equal(x, grid.x)
    assert np.array_equal(values, field.values)


def test_snapshot_constant_serializes_uniformly(grid, tmp_path):
    field = sl.Field.constant(1.0, grid)
    path = tmp_path / "snap.csv"
    write_snapshot(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == grid.nx + 1
    assert {line.split(",")[1] for line in lines[1:]} == {"1"}


def test_snapshot_write_is_deterministic(grid, tmp_path):
    field = sl.Field(np.sin(grid.x), grid)
    write_snapshot(field, tmp_path / "a.csv")
    write_snapshot(field, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert b"\r" not in (tmp_path / "a.csv").read_bytes()


def test_read_snapshot_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_manifest_format(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest([(0.0, "p_0000.csv"), (2.5, "p_0001.csv")], path)
    lines = path.read_text().splitlines()
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
    path = tmp_path / "report.csv"
    write_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,err_p,err_m,speed,limit_speed"
    assert len(lines) == 5
    eps_column = [float(line.split(",")[0]) for line in lines[1:]]
    assert eps_column == [0.3, 0.1, 0.05, 0.02]
    assert all(b < a for a, b in zip(eps_column, eps_column[1:]))


def test_report_rejects_misaligned_columns():
    with pytest.raises(ValueError):
        sl.ConvergenceReport((0.3, 0.1), (0.1,), (0.1, 0.2), (1.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        sl.ConvergenceReport((0.1, 0.3), (0.1, 0.2), (0.1, 0.2), (1.0, 1.0), 1.0)


def test_svg_plot(grid, tmp_path):
    series = [(t, sl.Field(np.exp(-(grid.x - 0.1 * t) ** 2), grid)) for t in (0.0, 5.0, 10.0)]
    path = tmp_path / "plot.svg"
    write_profiles_svg(series, path, title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 3
    assert "t = 5" in text
