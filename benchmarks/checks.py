"""Output checks of the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
right.  With a reference (the values stored in ``reference.json``, recorded
at the commit that added the benchmark) the numbers must also match it to
within ``RTOL``; without one (the smoke runs at a tiny horizon) only the
structure and finiteness of the output are checked.  A run that exits 0 with
wrong numbers fails here.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Bit-identical output is expected; the slack admits a reordered
# floating-point sum, never a different answer.
RTOL = 1e-6
ATOL = 1e-12

REPORT_HEADER = "epsilon,err_p,err_m,speed,limit_speed"
DEFAULT_LADDER = (0.3, 0.1, 0.05, 0.02)  # experiment.epsilons of the empty config
SNAPSHOT_TAGS = ("p", "ni", "nu")


def _close(actual: float, expected: float) -> bool:
    return math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL)


def check_report(path: Path, reference: dict | None) -> list[str]:
    """report.csv of `converge`: one finite, non-negative (err_p, err_m) row
    per eps of the default ladder, matching the reference when given."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"report unreadable: {exc}"]
    if not lines or lines[0] != REPORT_HEADER:
        return [f"report header {lines[:1]!r} is not {REPORT_HEADER!r}"]
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            return [f"report line {number} is not numeric: {line!r}"]
        if len(rows[-1]) != 5:
            return [f"report line {number} has {len(rows[-1])} columns, not 5"]
    if len(rows) != len(DEFAULT_LADDER):
        return [f"report has {len(rows)} rows for {len(DEFAULT_LADDER)} eps values"]

    problems = []
    for k, (row, eps) in enumerate(zip(rows, DEFAULT_LADDER)):
        if not _close(row[0], eps):
            problems.append(f"row {k}: epsilon {row[0]!r}, expected {eps!r}")
        for name, value in (("err_p", row[1]), ("err_m", row[2])):
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"eps={eps:g}: {name} = {value!r} is not a finite norm")
            elif reference is not None and not _close(value, reference[name][k]):
                problems.append(
                    f"eps={eps:g}: {name} = {value!r}, reference {reference[name][k]!r}")
    return problems


def check_speed(stdout: str, reference: dict | None) -> list[str]:
    """The `speed <value>` line printed by `wavespeed`."""
    values = [line.split()[1] for line in stdout.splitlines()
              if line.startswith("speed ") and len(line.split()) == 2]
    if len(values) != 1:
        return [f"expected one 'speed <value>' line, found {len(values)}"]
    try:
        speed = float(values[0])
    except ValueError:
        return [f"speed {values[0]!r} is not a number"]
    if not math.isfinite(speed):
        return [f"speed {speed!r} is not finite"]
    if reference is not None and not _close(speed, reference["speed"]):
        return [f"speed {speed!r}, reference {reference['speed']!r}"]
    return []


def check_snapshots(out_dir: Path, stdout: str, frame_times: list[float], nodes: int,
                    reference: dict | None) -> list[str]:
    """Output of `simulate --model system --svg`: a p, ni and nu snapshot per
    output time, each listed once in manifest.csv at its time and parsing
    back through `read_snapshot`; the SVG plot; and, against the reference,
    the count and the final p profile."""
    from singlimit.output import read_snapshot

    expected = {f"{tag}_{k:04d}.csv": t
                for tag in SNAPSHOT_TAGS for k, t in enumerate(frame_times)}
    problems = []
    if reference is not None and len(expected) != reference["count"]:
        problems.append(f"workload expects {len(expected)} snapshots, "
                        f"reference {reference['count']}")
    if f"wrote {len(expected)} snapshots" not in stdout:
        problems.append(f"stdout does not report {len(expected)} snapshots")

    found = {p.name for p in out_dir.glob("*.csv")} - {"manifest.csv"}
    if found != set(expected):
        missing, extra = sorted(set(expected) - found), sorted(found - set(expected))
        problems.append(f"snapshot files differ: missing {missing[:3]}, extra {extra[:3]}")

    try:
        manifest = (out_dir / "manifest.csv").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return problems + [f"manifest unreadable: {exc}"]
    if manifest[:1] != ["time,filename"]:
        problems.append("manifest header is not 'time,filename'")
    listed: dict[str, float] = {}
    for line in manifest[1:]:
        time_text, _, name = line.partition(",")
        if name in listed:
            problems.append(f"manifest lists {name} twice")
        try:
            listed[name] = float(time_text)
        except ValueError:
            problems.append(f"manifest time {time_text!r} of {name} is not a number")
    if set(listed) != found:
        problems.append(f"manifest lists {len(listed)} files, directory holds {len(found)}")
    for name, t in listed.items():
        if name in expected and abs(t - expected[name]) > 1e-9 * max(1.0, expected[name]):
            problems.append(f"manifest time of {name} is {t!r}, expected {expected[name]!r}")

    final, final_p = f"p_{len(frame_times) - 1:04d}.csv", None
    for name in sorted(found & set(expected)):
        try:
            _, values = read_snapshot(out_dir / name)
        except ValueError as exc:
            problems.append(f"{name} does not read back: {exc}")
            continue
        if values.shape != (nodes,) or not np.all(np.isfinite(values)):
            problems.append(f"{name}: {values.shape[0]} values or non-finite, {nodes} expected")
        elif name.startswith("p_") and (values.min() < 0.0 or values.max() > 1.0):
            problems.append(f"{name}: frequency outside [0, 1]")
        if name == final:
            final_p = values

    svg = out_dir / "profiles.svg"
    if not svg.is_file() or not svg.read_text(encoding="utf-8").startswith("<svg"):
        problems.append("profiles.svg missing or not an SVG document")

    if reference is not None and final_p is not None:
        ref = np.asarray(reference["final_p"], dtype=float)
        if final_p.shape != ref.shape or not np.allclose(final_p, ref, rtol=RTOL, atol=ATOL):
            worst = np.max(np.abs(final_p - ref)) if final_p.shape == ref.shape else math.inf
            problems.append(f"{final} differs from the reference (max |diff| {worst:.3e})")
    return problems
