"""Entry point of the singlimit benchmark.

    python3 benchmarks/run.py --workload {sweep,front,snapshots} --seed N \\
        --seconds S --trace {0,1}

Runs one workload of ``workloads.py`` through the singlimit command line of
this checkout (``src/`` on ``PYTHONPATH``), one fresh process at a time, for
about S seconds, and checks every output against ``reference.json``.

--trace 0  end-to-end metrics from untraced runs: the median fresh-process
           wall time of the command with its output check (wall_s) and of the
           same command with --show-config (setup_s), throughput in node
           steps per second, and peak resident memory.
--trace 1  per-layer metrics, named ``<workload>.<metric>``: every workload
           runs once untraced and once traced at the module boundaries of
           ``tracer.HOOKS``; the pair gives the tracing overhead.  --workload
           then only names the scratch directory.

The metric names and units are those of BENCHMARK.json at the checkout root.
The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is a JSON record of the
environment, inputs and sample counts.  The seed only names the scratch
directory (``.bench_tmp/`` in the checkout), which is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread for every BLAS/OpenMP pool, and no sweep process pool: the
# benchmark measures the sequential program, whatever the core count.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CLEARED = ("SINGLIMIT_THREADS", "PYTHONPATH")
CHILD_TIMEOUT_S = 60.0


@dataclass
class Rep:
    """One fresh-process run of the command."""

    exit_code: int
    wall_s: float     # command plus output check
    process_s: float  # command alone
    cpu_s: float      # user plus system CPU time of the command
    peak_rss_mb: float
    problems: list[str]
    trace: dict | None = None
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    env.update(THREAD_PINS, PYTHONPATH=str(SRC))
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float, float]:
    """Run launch.py with argv; return (exit code, wall s, CPU s, peak RSS MB).

    CPU time and peak resident set come from wait4, which reports the
    RUSAGE_CHILDREN figures of that one child."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "launch.py"), *argv],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _failure(code: int, log_path: Path) -> list[str]:
    tail = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return [f"exit code {code}: {' | '.join(tail)}"]


def run_workload(workload, work_dir: Path, reference: dict | None,
                 traced: bool = False) -> Rep:
    out_dir, log = work_dir / "out", work_dir / "stdout.txt"
    shutil.rmtree(out_dir, ignore_errors=True)
    config = work_dir / f"{workload.name}.cfg"
    config.write_text(workload.config, encoding="utf-8")
    trace_file = work_dir / "trace.json"
    trace_file.unlink(missing_ok=True)
    argv = ["--trace-out", str(trace_file)] if traced else []
    argv += ["--", *workload.argv(config, out_dir)]

    start = time.perf_counter()
    code, process_s, cpu, rss = run_child(argv, log)
    if code == 0:
        problems = workload.check(out_dir, log.read_text(encoding="utf-8"), reference)
    else:
        problems = _failure(code, log)
    wall = time.perf_counter() - start

    rep = Rep(code, wall, process_s, cpu, rss, problems)
    if traced and trace_file.is_file():
        rep.trace = json.loads(trace_file.read_text(encoding="utf-8"))
        if out_dir.is_dir():
            rep.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
    return rep


def run_setup(workload, work_dir: Path) -> Rep:
    """The workload command with --show-config: start-up, import, argument
    and config parsing, and no computation."""
    config, log = work_dir / f"{workload.name}.cfg", work_dir / "setup.txt"
    config.write_text(workload.config, encoding="utf-8")
    code, wall, cpu, rss = run_child(["--", *workload.argv(config, work_dir / "out"),
                                      "--show-config"], log)
    if code != 0:
        problems = _failure(code, log)
    elif "time.t_end = " not in log.read_text(encoding="utf-8"):
        problems = ["--show-config printed no configuration"]
    else:
        problems = []
    return Rep(code, wall, wall, cpu, rss, problems)


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=100)
            return {"percentile": q, "value": cuts[q - 1]}
    return None


def host_steal_s() -> float | None:
    """Steal time of all CPUs so far, from /proc/stat: time the host ran
    other guests while this machine's CPUs had work to do."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _repeat(deadline: float, run_one, minimum: int = 1) -> list:
    """Call run_one until the next call, if it takes as long as the last,
    would end after the deadline; at least `minimum` calls."""
    results = []
    while True:
        start = time.perf_counter()
        results.append(run_one())
        now = time.perf_counter()
        if len(results) >= minimum and now + (now - start) > deadline:
            return results


def measure(workload, work_dir: Path, reference: dict | None, seconds: float):
    """Closed loop, one client: pairs of one setup run and one workload run
    while they fit in `seconds`, then setup runs in the time left."""
    warmup = run_setup(workload, work_dir)  # compiles bytecode, fills the page cache
    deadline = time.perf_counter() + seconds
    pairs = _repeat(deadline, lambda: (run_setup(workload, work_dir),
                                       run_workload(workload, work_dir, reference)))
    setups, reps = [s for s, _ in pairs], [r for _, r in pairs]
    typical = statistics.median(s.wall_s for s in setups)
    while time.perf_counter() + typical <= deadline:
        setups.append(run_setup(workload, work_dir))

    wall = statistics.median(r.wall_s for r in reps)
    setup = statistics.median(r.wall_s for r in setups)
    values = {
        "wall_s": wall,
        "setup_s": setup,
        "node_steps_per_s": workload.node_steps / (wall - setup),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    samples = {"workload_runs": len(reps), "setup_runs": len(setups),
               "wall_s": [r.wall_s for r in reps], "cpu_s": [r.cpu_s for r in reps],
               "wall_s_tail": tail_percentile([r.wall_s for r in reps]),
               "setup_s_tail": tail_percentile([r.wall_s for r in setups])}
    return values, [warmup, *setups, *reps], samples


# Metrics of each traced layer; a layer not listed reports its self time in ms.
LAYER_METRICS = {
    "model.reaction_rates": ("calls", "us_per_call", "p50_us", "p99_us"),
    "solver.solve": ("calls", "us_per_call", "p50_us", "p99_us"),
    "model.limit_reaction": ("calls", "us_per_call"),
    "reduction.to_reduced": ("calls", "us_per_call"),
    "output.write_snapshot": ("calls", "us_per_call"),
    "solver.run_system": ("self_us_per_step",),
    "solver.run_scalar": ("self_us_per_step",),
    "experiments.run_convergence_sweep": ("self_ms",),
}


def _layer_value(kind: str, stats: dict, steps_per_call: int) -> float:
    calls = stats["calls"]
    if kind == "calls":
        return calls
    if kind in ("ms", "self_ms"):
        return stats["self_ns"] / 1e6
    if calls == 0:
        return 0.0
    if kind == "us_per_call":
        return stats["self_ns"] / calls / 1e3
    if kind == "self_us_per_step":
        return stats["self_ns"] / (calls * steps_per_call) / 1e3
    return stats[kind.replace("_us", "_ns")] / 1e3  # p50_us, p99_us


def layer_metrics(rep: Rep, workload) -> dict[str, float]:
    """Per-layer metrics of one traced run of the workload, from self times,
    for the layers the workload runs."""
    empty = {"calls": 0, "self_ns": 0, "p50_ns": 0.0, "p99_ns": 0.0}
    values = {}
    for layer in workload.layers:
        stats = rep.trace["layers"].get(layer, empty)
        for kind in LAYER_METRICS.get(layer, ("ms",)):
            values[f"{layer}.{kind}"] = _layer_value(kind, stats, workload.steps)
    if workload.writes_out:
        values["output.bytes_written"] = rep.bytes_written
    values["cli.untraced_s"] = rep.process_s - rep.trace["top_level_ns"] / 1e9
    values["trace.unbound_hooks"] = len(rep.trace["unbound"])
    return values


def trace(workloads: dict, work_dir: Path, references: dict | None, seconds: float):
    """Every workload once untraced and once traced, in rounds while a round
    fits in `seconds`; at least one round.  Metrics are named
    `<workload>.<metric>`, with medians over the traced runs, so each traced
    run of the benchmark measures every layer on every workload that runs
    it."""
    def one_round():
        return {name: (run_workload(w, work_dir, references and references[name]),
                       run_workload(w, work_dir, references and references[name],
                                    traced=True))
                for name, w in workloads.items()}

    rounds = _repeat(time.perf_counter() + seconds, one_round)
    values, reps, unbound, idle = {}, [], set(), {}
    for name, workload in workloads.items():
        plain = [r[name][0] for r in rounds]
        traced = [r[name][1] for r in rounds]
        reps += plain + traced
        for rep in traced:
            if rep.trace is None:
                rep.problems.append(f"{name}: the traced run wrote no trace")
        per_rep = [layer_metrics(r, workload) for r in traced if r.trace is not None]
        if not per_rep:
            raise RuntimeError(f"{name}: no traced run wrote a trace: {traced[0].problems}")
        for metric in per_rep[0]:
            values[f"{name}.{metric}"] = statistics.median(v[metric] for v in per_rep)
        plain_wall = statistics.median(r.wall_s for r in plain)
        traced_wall = statistics.median(r.wall_s for r in traced)
        values[f"{name}.trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall

        called = {layer for r in traced if r.trace
                  for layer, stats in r.trace["layers"].items() if stats["calls"]}
        idle[name] = [layer for layer in workload.layers if layer not in called]
        if idle[name]:
            for rep in traced:
                rep.problems.append(f"{name}: layers not called: {idle[name]}")
        unbound.update(u for r in traced if r.trace for u in r.trace["unbound"])
    samples = {"rounds": len(rounds), "unbound_hooks": sorted(unbound),
               "layers_not_called": idle}
    return values, reps, samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "singlimit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "cleared_env": list(CLEARED),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def inputs(workload) -> dict:
    frames = len(workload.frame_times())
    return {
        "config": workload.config,
        "command": ["singlimit", *workload.command],
        "columns": workload.columns,
        "nodes": workload.nodes,
        "steps": workload.steps,
        "node_steps": workload.node_steps,
        "snapshot_times": frames,
        "snapshot_files": 3 * frames if workload.name == "snapshots" else 0,
        # computed from array sizes, not measured: three bands, the
        # right-hand side and the solution, 8 bytes per node each
        "solve_bytes_per_call_computed": 5 * 8 * workload.nodes,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(THREAD_PINS)  # before numpy loads, for the checks in this process
    args = parse_args(argv)
    if not (SRC / "singlimit" / "cli.py").is_file():
        print(f"error: no singlimit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import singlimit

    if Path(singlimit.__file__).resolve().parent != SRC / "singlimit":
        print(f"error: imported singlimit from {singlimit.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    # a traced run covers every workload; --workload then only names the scratch directory
    measured = WORKLOADS if args.trace else {args.workload: WORKLOADS[args.workload]}

    work_dir = ROOT / ".bench_tmp" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    steal_before = host_steal_s()
    try:
        if args.trace:
            values, reps, samples = trace(measured, work_dir, references, args.seconds)
        else:
            values, reps, samples = measure(WORKLOADS[args.workload], work_dir,
                                            references[args.workload], args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    failed = [r for r in reps if not r.ok]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples,
        "host_steal_s": None if steal_before is None else host_steal_s() - steal_before,
        "fail_rate": len(failed) / len(reps),
        "problems": [p for r in failed for p in r.problems][:10],
        "environment": environment(),
        "inputs": {name: inputs(w) for name, w in measured.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
