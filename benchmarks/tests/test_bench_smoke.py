"""Every workload at a tiny horizon, traced and untraced, through the same
code paths as the benchmark: all hooks bind, every expected layer is called,
the outputs pass their structural checks, and the metric names are exactly
those of BENCHMARK.json."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from workloads import SMOKE  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(SMOKE)


def test_traced_smoke_run(tmp_path):
    values, reps, samples = run.trace(SMOKE, tmp_path, None, seconds=0)
    assert samples["rounds"] == 1 and len(reps) == 2 * len(SMOKE)
    assert [r.problems for r in reps] == [[] for _ in reps]
    assert all(r.ok for r in reps)
    assert samples["unbound_hooks"] == []
    assert samples["layers_not_called"] == {name: [] for name in SMOKE}
    assert set(values) == _names("per_layer")
    for name, value in values.items():
        if name.endswith("trace.unbound_hooks"):
            assert value == 0
        elif not name.endswith("trace.overhead_pct"):
            assert value > 0, name


def test_untraced_smoke_run(tmp_path):
    values, reps, _ = run.measure(SMOKE["front"], tmp_path, None, seconds=0)
    assert all(r.ok for r in reps)
    assert set(values) == _names("end_to_end")
    # at this horizon the run is about as short as set-up, so throughput is noise
    assert min(values["wall_s"], values["setup_s"], values["peak_rss_mb"]) > 0
