"""On-disk result formats: CSV snapshots, manifests, sweep reports, SVG plots.

All floats are serialized with 17 significant digits so files round-trip
bit-exactly, with LF line endings.  Publishing a run is the one atomic step:
`staged_output` makes a command's run a private staging directory next to
the output directory as the run starts (an output directory at or under a
file fails first), each writer takes the run and a file name and writes
that file in place into it (a run that has ended is a ValueError), and the
files appear in the output directory only once the run has succeeded.  A
failed run leaves the output directory as it was; a killed one leaves its
`.<out>.<hex>.staging` directory, never a partial output directory.  The
run's snapshots are formatted and written by one writer process, forked
(POSIX `fork`) at the first snapshot, while the caller steps on; publishing
waits for it, and a snapshot it failed to write fails the run with an
OSError.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import os
import shutil
import signal
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


def _write_text(path: str | Path, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


class _Staging:
    """One run's staging directory and the process writing its snapshots."""

    def __init__(self, out: Path):
        self.out = out
        self._dir = out.parent / f".{out.name}.{os.urandom(6).hex()}.staging"
        self._dir.mkdir(parents=True)
        self._writer: _Writer | None = None
        self._ended = False

    def path(self, name: str) -> Path:
        """Where the run writes its file `name`; a ValueError once it has ended."""
        if self._ended:
            raise ValueError(f"the run into {self.out} has ended; it takes no file {name!r}")
        return self._dir / name

    def publish(self) -> None:
        if self._writer is not None:
            writer, self._writer = self._writer, None
            writer.close()
        if self.out.exists():
            for name in os.listdir(self._dir):
                os.replace(self._dir / name, self.out / name)
            self._dir.rmdir()
        else:
            os.rename(self._dir, self.out)

    def discard(self) -> None:
        self._ended = True
        if self._writer is not None:
            self._writer.stop()
            self._writer = None
        shutil.rmtree(self._dir, ignore_errors=True)


class _Writer:
    """One forked process that formats and writes a run's snapshot files.

    Fork shares the caller's loaded code, so the process imports nothing.
    Each `put` sends one file over a pipe, whose bounded buffer holds the
    caller back while the process lags."""

    def __init__(self):
        import multiprocessing  # here, so that commands writing no snapshot never load it

        context = multiprocessing.get_context("fork")
        self._conn, child_end = context.Pipe()
        self._process = context.Process(target=_serve, args=(child_end, self._conn))
        self._process.start()
        child_end.close()

    def put(self, field: Field, path: Path) -> None:
        try:
            self._conn.send((str(path), field.grid.x.tobytes(), field.values.tobytes()))
        except OSError:  # the process is gone
            raise self._reap() from None

    def close(self) -> None:
        """Wait until every file sent is written; raise the first write error."""
        with contextlib.suppress(OSError):  # the process is gone; _reap says how
            self._conn.send(None)
        error = self._reap()
        if error is not None:
            raise error

    def stop(self) -> None:
        """End the process at once, unwritten files and all."""
        self._process.kill()
        self._reap()

    def _reap(self) -> OSError | None:
        """The process's answer, once it has exited: its first write error,
        None, or an error saying it exited without answering."""
        answered = False
        try:
            error, answered = self._conn.recv(), True
        except (EOFError, OSError):
            pass
        finally:
            self._conn.close()
            self._process.join()
        if not answered:
            error = OSError(f"snapshot writer exited with status {self._process.exitcode}")
        return error


def _serve(conn, caller_end) -> None:
    """The writer process: write each file received, in order, until None
    arrives, then answer with the first OSError, or None.  After an error it
    reads on but writes nothing, so the caller never blocks on a full pipe.
    It ignores SIGINT (an interrupted caller stops it) and leaves through
    os._exit, so no exit handler or `finally` of the forked caller runs."""
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        caller_end.close()  # so that the pipe ends when the caller does
        error = None
        while (job := conn.recv()) is not None:
            if error is None:
                try:
                    _write_snapshot_file(*job)
                except OSError as exc:
                    error = exc
        conn.send(error)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def staged_output(out: str | Path) -> Iterator[_Staging]:
    """Publish the files of one run into the directory `out` all at once.

    The block hands the yielded run and a file name to the writers of this
    module, which write the file in place to `run.path(name)`.  On entry,
    the first of `out` and its ancestors that exists must be a directory,
    else NotADirectoryError names it and the block never runs; then the
    staging directory is made next to `out`, parents and all.  When the
    block succeeds, it is renamed onto `out` if `out` does not exist, one
    atomic rename for the whole run; otherwise each file is moved into `out`
    with os.replace, and files of `out` the run did not write stay.  When
    the block raises, the staging directory is removed and `out` is left as
    it was, though parents of `out` made on entry stay, empty.  Snapshots go
    to the run's writer process (see write_snapshot): publishing first waits
    for it and raises its first write error, before any rename, and a block
    that raises stops and reaps it first.  Once the block has ended, the run
    takes no more files: each writer raises ValueError.
    """
    out = Path(out)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(found))
    staging = _Staging(out)
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


def _write_snapshot_file(path: str, x_bytes: bytes, values_bytes: bytes) -> None:
    values = np.frombuffer(values_bytes).tolist()
    _write_text(path, _snapshot_template(x_bytes) % tuple(values))


def write_snapshot(field: Field, run: _Staging, name: str) -> None:
    """One row per grid node, header `x,value`; the snapshot's time is
    recorded by the caller's manifest, not in the file.  The snapshot goes
    to the writer process of `run`, a run in progress, and its file `name`
    appears when the run publishes."""
    path = run.path(name)
    if run._writer is None:
        run._writer = _Writer()
    run._writer.put(field, path)


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


def write_manifest(entries: Sequence[tuple[float, str]], run: _Staging, name: str) -> None:
    rows = ["time,filename"]
    rows.extend(f"{_fmt(t)},{snapshot}" for t, snapshot in entries)
    _write_text(run.path(name), "\n".join(rows) + "\n")


def write_report(report: ConvergenceReport, run: _Staging, name: str) -> None:
    rows = ["epsilon,err_p,err_m,speed,limit_speed"]
    for eps, ep, em, sp in zip(report.epsilons, report.err_p, report.err_m, report.speeds):
        rows.append(",".join(_fmt(v) for v in (eps, ep, em, sp, report.limit_speed)))
    _write_text(run.path(name), "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# plotting (convenience only)

_SVG_W, _SVG_H = 860, 520
_MARGIN = 60


def _px(x, lo, hi, size, invert=False):
    frac = (x - lo) / (hi - lo)
    if invert:
        frac = 1.0 - frac
    return _MARGIN + frac * (size - 2 * _MARGIN)


def write_profiles_svg(series: Sequence[tuple[float, Field]], run: _Staging, name: str,
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
    _write_text(run.path(name), "\n".join(parts) + "\n")
