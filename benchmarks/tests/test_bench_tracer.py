"""Self-time arithmetic and hook binding of the benchmark's tracer."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import HOOKS, Tracer, percentile, self_times, summarize, top_level_ns  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # layer 0 [0, 100] holds two layer-1 children; the second holds a layer-2 span
    spans = [(0, -1, 0, 100), (1, 0, 10, 30), (1, 0, 40, 70), (2, 2, 45, 55),
             (0, -1, 200, 260)]
    assert self_times(spans) == [50, 20, 20, 10, 60]
    assert top_level_ns(spans) == 160

    summary = summarize(spans, ["outer", "middle", "leaf"])
    assert summary["outer"] == {"calls": 2, "self_ns": 110, "p50_ns": 50.0, "p99_ns": 60.0}
    assert summary["middle"]["calls"] == 2 and summary["middle"]["self_ns"] == 40
    assert summary["leaf"]["self_ns"] == 10


def test_percentile_is_nearest_rank():
    assert percentile([], 50) == 0.0
    assert percentile([5, 1, 3, 2, 4], 50) == 3.0
    assert percentile(list(range(1, 101)), 99) == 99.0
    assert percentile(list(range(1, 101)), 100) == 100.0


def test_wrappers_record_nested_spans_and_restore():
    import singlimit.solver as solver
    from singlimit import ScaledModel, WolbachiaParams

    original = solver.reaction_rates
    tracer = Tracer()
    tracer.install({"model.reaction_rates": HOOKS["model.reaction_rates"],
                    "gone": ("singlimit.solver", "no_such_function"),
                    "nowhere": ("singlimit.no_such_module", "f")})
    try:
        assert solver.reaction_rates is not original
        model = ScaledModel(WolbachiaParams(1.12, 0.27, 10 / 9, 0.1, 0.8, 1.0), 0.1)
        solver.reaction_rates(model, 1.0, 2.0)
    finally:
        tracer.uninstall()
    assert solver.reaction_rates is original
    assert tracer.unbound == ["gone (singlimit.solver.no_such_function)",
                              "nowhere (singlimit.no_such_module.f)"]
    summary = tracer.summary()
    assert summary["layers"]["model.reaction_rates"]["calls"] == 1
    assert summary["top_level_ns"] > 0
