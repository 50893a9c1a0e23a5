"""Record the output values the benchmark checks against.

    python3 benchmarks/record_reference.py

Runs each workload once and writes ``reference.json`` next to this file: the
sweep's err_p/err_m per eps, the front's speed, and the snapshot count and
final p profile.  The stored file was recorded when the benchmark was added;
record again only for a change that is meant to alter the numerical results,
and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from singlimit.output import read_snapshot
    from workloads import WORKLOADS

    work_dir = run.ROOT / ".bench_tmp" / "reference"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    reference = {}
    try:
        for name, workload in WORKLOADS.items():
            rep = run.run_workload(workload, work_dir, None)
            if not rep.ok:
                print(f"{name}: {rep.problems}", file=sys.stderr)
                return 1
            out = work_dir / "out"
            if name == "sweep":
                rows = [line.split(",") for line in
                        (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]]
                reference[name] = {"epsilons": [float(r[0]) for r in rows],
                                   "err_p": [float(r[1]) for r in rows],
                                   "err_m": [float(r[2]) for r in rows]}
            elif name == "front":
                stdout = (work_dir / "stdout.txt").read_text(encoding="utf-8")
                reference[name] = {"speed": float(stdout.split()[1])}
            else:
                final = f"p_{len(workload.frame_times()) - 1:04d}.csv"
                reference[name] = {
                    "count": len(list(out.glob("*.csv"))) - 1,  # minus manifest.csv
                    "final_p": read_snapshot(out / final)[1].tolist(),
                }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
