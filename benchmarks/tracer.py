"""Layer-boundary tracer for the singlimit benchmark.

A hook names a layer, such as ``solver.solve``, and the module attribute its
callers resolve, such as ``singlimit.solver.solve_banded``.  Installing the
hooks replaces that callable, in every loaded ``singlimit`` module whose
global of the same name is the same object, by a wrapper that records one
span per call: the hook, the span that was open when it was called (its
parent), and its start and end from ``time.perf_counter_ns``.  Spans stay in
memory; ``summarize`` turns them into per-layer call counts and self times,
where a span's self time is its duration minus that of its direct children.

A hook whose module or attribute is missing is listed in ``unbound``, so a
layer that a later change renames reads as unbound, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer name -> (module, attribute) that callers resolve at call time
HOOKS = {
    "model.reaction_rates": ("singlimit.model", "reaction_rates"),
    "model.limit_reaction": ("singlimit.model", "limit_reaction"),
    "model.check_assumptions": ("singlimit.model", "check_assumptions"),
    "solver.solve": ("singlimit.solver", "solve_banded"),
    "solver.run_system": ("singlimit.solver", "run_system"),
    "solver.run_scalar": ("singlimit.solver", "run_scalar"),
    "reduction.to_reduced": ("singlimit.reduction", "to_reduced"),
    "reduction.error_norms": ("singlimit.reduction", "error_norms"),
    "experiments.run_convergence_sweep": ("singlimit.experiments", "run_convergence_sweep"),
    "experiments.estimate_wave_speed": ("singlimit.experiments", "estimate_wave_speed"),
    "experiments.make_initial_data": ("singlimit.experiments", "make_initial_data"),
    "output.write_snapshot": ("singlimit.output", "write_snapshot"),
    "output.write_profiles_svg": ("singlimit.output", "write_profiles_svg"),
    "output.write_manifest": ("singlimit.output", "write_manifest"),
    "output.write_report": ("singlimit.output", "write_report"),
    "config.parse_config": ("singlimit.config", "parse_config"),
}

PACKAGE = "singlimit"


class Tracer:
    """Spans recorded by the wrappers of one set of installed hooks.

    ``spans[i]`` is ``(layer index, parent span index or -1, start_ns,
    end_ns)``; ``layers[layer index]`` is the layer name.
    """

    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.unbound: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, hooks: dict[str, tuple[str, str]]) -> None:
        for layer, (module_name, attr) in hooks.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.unbound.append(f"{layer} ({module_name}.{attr})")
                continue
            wrapper = self._wrap(len(self.layers), original)
            self.layers.append(layer)
            for name, mod in list(sys.modules.items()):
                if (name == PACKAGE or name.startswith(PACKAGE + ".")) \
                        and vars(mod).get(attr) is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, layer: int, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (layer, parent, start, end)

        return traced

    def summary(self) -> dict:
        return {"layers": summarize(self.spans, self.layers),
                "top_level_ns": top_level_ns(self.spans),
                "unbound": list(self.unbound)}


def self_times(spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def top_level_ns(spans) -> int:
    """Total duration of the spans that have no traced parent."""
    return sum(end - start for _, parent, start, end in spans if parent < 0)


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def summarize(spans, layers) -> dict[str, dict]:
    """Per layer: calls, self time in ns, and the median and 99th percentile
    of the per-call self time in ns."""
    per_layer: dict[str, list[int]] = {name: [] for name in layers}
    for (layer, _, _, _), own in zip(spans, self_times(spans)):
        per_layer[layers[layer]].append(own)
    return {
        name: {"calls": len(own), "self_ns": sum(own),
               "p50_ns": percentile(own, 50), "p99_ns": percentile(own, 99)}
        for name, own in per_layer.items()
    }
