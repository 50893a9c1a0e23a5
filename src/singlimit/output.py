"""On-disk result formats: CSV snapshots, manifests, sweep reports, SVG plots.

All floats are serialized with 17 significant digits so files round-trip
bit-exactly, with LF line endings; each file is written atomically (temp
file + rename).  A command publishes its run through `staged_output`: the
files go into a private staging directory next to the output directory as
they are produced, and appear there only once the run has succeeded, so a
run that fails leaves the output directory as it was.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import tempfile
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .experiments import ConvergenceReport
from .solver import Field

__all__ = [
    "staged_output",
    "write_snapshot",
    "read_snapshot",
    "write_manifest",
    "write_report",
    "write_profiles_svg",
]


_FLOAT = "%.17g"


def _fmt(value: float) -> str:
    return _FLOAT % value


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Staging:
    """The staging directory of one run, made on first use."""

    def __init__(self, out: Path):
        self.out = out
        self._dir: Path | None = None

    def path(self, name: str) -> Path:
        """Where the run writes its file `name`."""
        if self._dir is None:
            self.out.parent.mkdir(parents=True, exist_ok=True)
            stage = self.out.parent / f".{self.out.name}.{os.urandom(6).hex()}.staging"
            stage.mkdir()
            self._dir = stage
        return self._dir / name

    def publish(self) -> None:
        if self._dir is None:
            return
        if self.out.exists():
            for name in os.listdir(self._dir):
                os.replace(self._dir / name, self.out / name)
            self._dir.rmdir()
        else:
            os.rename(self._dir, self.out)
        self._dir = None

    def discard(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


@contextlib.contextmanager
def staged_output(out: str | Path) -> Iterator[_Staging]:
    """Publish the files of one run into the directory `out` all at once.

    The block writes each file to `staging.path(name)`.  The first call
    makes a private staging directory next to `out`, so a block that fails
    before it touches no file.  When the block succeeds, the staging
    directory is renamed onto `out` if `out` does not exist, one atomic
    rename for the whole run; otherwise each file is moved into `out` with
    os.replace, and files of `out` the run did not write stay.  When the
    block raises, the staging directory is removed and `out` is left as it
    was.
    """
    staging = _Staging(Path(out))
    try:
        yield staging
        staging.publish()
    finally:
        staging.discard()


@functools.lru_cache(maxsize=8)
def _snapshot_template(x_bytes: bytes) -> str:
    """The snapshot file for node coordinates `x_bytes` (float64), with its
    x column already formatted and one `%` slot per value.  Keyed by the
    coordinates' bytes rather than by the grid: equal grids can differ in
    the sign of a zero endpoint, which the x column shows."""
    x = np.frombuffer(x_bytes)
    return "x,value\n" + "".join(f"{_fmt(xi)},{_FLOAT}\n" for xi in x.tolist())


def write_snapshot(field: Field, path: str | Path) -> None:
    """One row per grid node, header `x,value`; the snapshot's time is
    recorded by the caller's manifest, not in the file."""
    template = _snapshot_template(field.grid.x.tobytes())
    _atomic_write(path, template % tuple(field.values.tolist()))


def read_snapshot(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", newline="") as handle:
        header = handle.readline().strip()
        if header != "x,value":
            raise ValueError(f"{path}: not a snapshot file (header {header!r})")
        start = handle.tell()
        if not handle.readline():
            raise ValueError(f"{path}: snapshot file has no rows")
        handle.seek(start)
        try:
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if data.shape[1] != 2:
        raise ValueError(f"{path}: snapshot rows have {data.shape[1]} columns, expected 2")
    return data[:, 0], data[:, 1]


def write_manifest(entries: Sequence[tuple[float, str]], path: str | Path) -> None:
    rows = ["time,filename"]
    rows.extend(f"{_fmt(t)},{name}" for t, name in entries)
    _atomic_write(path, "\n".join(rows) + "\n")


def write_report(report: ConvergenceReport, path: str | Path) -> None:
    rows = ["epsilon,err_p,err_m,speed,limit_speed"]
    for eps, ep, em, sp in zip(report.epsilons, report.err_p, report.err_m, report.speeds):
        rows.append(",".join(_fmt(v) for v in (eps, ep, em, sp, report.limit_speed)))
    _atomic_write(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# plotting (convenience only)

_SVG_W, _SVG_H = 860, 520
_MARGIN = 60


def _px(x, lo, hi, size, invert=False):
    frac = (x - lo) / (hi - lo)
    if invert:
        frac = 1.0 - frac
    return _MARGIN + frac * (size - 2 * _MARGIN)


def write_profiles_svg(series: Sequence[tuple[float, Field]], path: str | Path,
                       title: str) -> None:
    """One polyline per snapshot of a frequency profile, labeled with its
    time, under `title`; the frequency axis is fixed at [0, 1]."""
    if not series:
        raise ValueError("nothing to plot")
    grid = series[0][1].grid
    ylo, yhi = 0.0, 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    x0, x1 = _MARGIN, _SVG_W - _MARGIN
    y0, y1 = _SVG_H - _MARGIN, _MARGIN
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = grid.xmin + frac * (grid.xmax - grid.xmin)
        px = _px(xv, grid.xmin, grid.xmax, _SVG_W)
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:g}</text>'
        )
        yv = ylo + frac * (yhi - ylo)
        py = _px(yv, ylo, yhi, _SVG_H, invert=True)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.3g}</text>'
        )

    n = max(len(series) - 1, 1)
    for k, (t, f) in enumerate(series):
        shade = int(30 + 180 * (1 - k / n))
        color = f"rgb({shade},{shade},255)"
        pts = " ".join(
            f"{_px(x, grid.xmin, grid.xmax, _SVG_W):.2f},"
            f"{_px(v, ylo, yhi, _SVG_H, invert=True):.2f}"
            for x, v in zip(grid.x, f.values)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        ly = _MARGIN + 16 * (k + 1)
        parts.append(
            f'<text x="{x1 - 4}" y="{ly}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11" fill="{color}">t = {t:g}</text>'
        )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")
