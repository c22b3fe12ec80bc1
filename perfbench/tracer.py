"""Spans and counters recorded from outside the package.

`Tracer.install` rebinds public functions of the scheduler's modules to
wrappers that open a span per call, so every module that imported a wrapped
function by name sees the wrapper too.  Spans stay in memory; `chrome_trace`
writes them as Chrome trace-event JSON (loadable by Perfetto or
chrome://tracing) and `layer_metrics` reduces them to per-layer self times
and counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

#: (module, function) pairs wrapped in a traced pass.
WRAPPED = (
    ("frontend", "compute_dependences"),
    ("farkas", "eliminate"),
    ("farkas", "legality_constraints"),
    ("farkas", "bounding_constraints"),
    ("ratlp", "solve_lp"),
    ("ratlp", "solve_lexmin"),
    ("ratlp", "solve_ilp"),
    ("model", "satisfaction_level"),
    ("pluto", "find_hyperplane"),
    ("fcg", "fusion_probe"),
    ("fcg", "build_fcg"),
    ("fcg", "color_fcg"),
    ("postpass", "scale_and_shift"),
    ("postpass", "introduce_skew"),
)

#: Every per-layer metric a traced pass reports, in the order printed.
LAYER_METRICS = (
    "farkas.eliminate.self_s", "farkas.eliminate.calls",
    "farkas.eliminate.rows_in", "farkas.eliminate.rows_out",
    "farkas.systems_built",
    "farkas.legality_constraints.self_s", "farkas.bounding_constraints.self_s",
    "ratlp.solve_lexmin.self_s", "ratlp.solve_lexmin.calls",
    "ratlp.solve_lexmin.stages",
    "ratlp.solve_ilp.self_s", "ratlp.solve_ilp.calls",
    "ratlp.solve_lp.self_s", "ratlp.solve_lp.calls",
    "ratlp.tableau_cells",
    "model.satisfaction_level.self_s", "model.satisfaction_level.calls",
    "pluto.find_hyperplane.self_s", "pluto.find_hyperplane.calls",
    "fcg.fusion_probe.self_s", "fcg.fusion_probe.total_s",
    "fcg.fusion_probe.calls", "fcg.fusion_probe.feasible_ratio",
    "fcg.build_fcg.calls", "fcg.build_fcg.self_s", "fcg.color_fcg.self_s",
    "postpass.scale_and_shift.self_s",
    "postpass.introduce_skew.self_s", "postpass.introduce_skew.levels_skewed",
    "frontend.compute_dependences.self_s", "frontend.compute_dependences.calls",
    "frontend.compute_dependences.deps",
    "other.self_s",
)

def _tableau_cells(problem) -> int:
    """Rows times columns of the problem's system with one slack column per
    row: the size of the tableau the simplex starts from, before splitting
    free variables or adding artificials."""
    system = problem.system
    return len(system.rows) * (len(system.variables) + len(system.rows))


def _args_counters(name, args, kwargs):
    if name == "farkas.eliminate":
        return {"rows_in": len(args[0].rows)}
    if name.startswith("ratlp."):
        problem = args[0] if args else kwargs["problem"]
        out = {"cells": _tableau_cells(problem)}
        if name == "ratlp.solve_lexmin":
            out["stages"] = len(problem.objectives)
        return out
    return {}


def _result_counters(name, result):
    if name == "farkas.eliminate":
        return {"rows_out": len(result.rows)}
    if name == "fcg.fusion_probe":
        return {"feasible": int(bool(result))}
    if name == "postpass.introduce_skew":
        return {"levels_skewed": len(result.skewed)}
    if name == "frontend.compute_dependences":
        return {"deps": len(result)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    child_s: float = 0.0
    args: dict | None = None


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, args: dict) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.args = args
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    @contextlib.contextmanager
    def op(self, name: str):
        """One timed operation: a root span around the wrapped calls."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, {})

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            counters = _args_counters(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
                counters.update(_result_counters(name, result))
                return result
            finally:
                self._close(index, counters)
        return wrapper

    def install(self) -> None:
        """Rebind every wrapped function in every loaded polysched module."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "polysched" or n.startswith("polysched.")}
        for mod_name, fn_name in WRAPPED:
            original = getattr(mods[f"polysched.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods.values():
                if getattr(mod, fn_name, None) is original:
                    self._originals.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._originals):
            setattr(mod, fn_name, original)
        self._originals.clear()

    # -- reductions -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Self time, total time, calls and summed counters per span name.
        Root spans count as `other`: pass time inside no wrapped call."""
        out = {"self_s": {}, "total_s": {}, "calls": {}, "sums": {}}
        for span in self.spans:
            dur = span.end - span.start
            name = span.name if span.parent >= 0 else "other"
            for kind, value in (("self_s", dur - span.child_s),
                                ("total_s", dur), ("calls", 1)):
                out[kind][name] = out[kind].get(name, 0) + value
            for key, value in (span.args or {}).items():
                out["sums"][f"{name}.{key}"] = out["sums"].get(f"{name}.{key}", 0) + value
        return out

    def chrome_trace(self, pid: int, label: str) -> list[dict]:
        """Complete ("X") trace events, microseconds from the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0].start
        events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                   "args": {"name": label}}]
        for i, span in enumerate(self.spans):
            events.append({
                "ph": "X", "name": span.name, "pid": pid, "tid": 0,
                "ts": (span.start - t0) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": dict(span.args or {}, id=i, parent=span.parent),
            })
        return events


def layer_metrics(totals: list[dict]) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the `totals` of several passes."""
    merged = {"self_s": {}, "total_s": {}, "calls": {}, "sums": {}}
    for t in totals:
        for kind, table in t.items():
            for name, value in table.items():
                merged[kind][name] = merged[kind].get(name, 0) + value
    calls, sums = merged["calls"], merged["sums"]
    probes = calls.get("fcg.fusion_probe", 0)
    derived = {
        "farkas.systems_built": calls.get("farkas.legality_constraints", 0)
        + calls.get("farkas.bounding_constraints", 0),
        "ratlp.tableau_cells": sum(v for k, v in sums.items() if k.endswith(".cells")),
        "fcg.fusion_probe.total_s": merged["total_s"].get("fcg.fusion_probe", 0.0),
        "fcg.fusion_probe.feasible_ratio":
            sums.get("fcg.fusion_probe.feasible", 0) / probes if probes else 0.0,
    }
    out = {}
    for metric in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        if metric in derived:
            out[metric] = derived[metric]
        elif stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "self_s":
            out[metric] = merged["self_s"].get(layer, 0.0)
        else:
            out[metric] = sums.get(metric, 0)
    return out
