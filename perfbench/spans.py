"""Per-layer spans recorded from outside the program.

The program has no span recorder of its own, so the traced run wraps the
calls the program makes into each layer:

* a public *function* is rebound in every loaded ``repro.*`` module that
  holds that same object (so ``from .x import f`` call sites are caught);
* a *method* is wrapped on the live component instance of one runtime.

A hook whose target no longer exists is reported ``absent`` and the run
goes on. Spans are kept in memory and written out as JSON lines at the
end. A layer's ``busy_s`` counts only its outermost spans (a same-layer
call nested inside it is not counted again); ``self_s`` is ``busy_s``
minus the time its direct child spans of other layers cover.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: Function hooks: (layer, public module, attribute, work units of one call).
#: ``units(args, result)`` returns the count the layer's work is measured in.
FUNCTION_HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("selection", "repro.selection", "auto_select", None),
    ("models.roll", "repro.models.ets", "advance_cohort", lambda a, r: len(a[0])),
    ("models.forecast", "repro.models.ets", "forecast_cohort_arrays", lambda a, r: len(a[0])),
    ("service.thresholds", "repro.service.thresholds", "predict_breach_arrays", None),
    ("service.thresholds", "repro.service.thresholds", "breach_probability_arrays", None),
    ("planner.enumerate", "repro.planner", "enumerate_blueprints", None),
    ("planner.enumerate", "repro.planner", "enumerate_consolidations", None),
    ("planner.score", "repro.planner", "rank_blueprints", lambda a, r: len(a[0])),
    ("planner.search", "repro.planner", "plan_estate", None),
)


def _raised(args, result) -> int:
    return int(result is not None and getattr(result.kind, "value", "") == "raised")


#: Method hooks on a StreamRuntime: (layer, component path, method, units).
RUNTIME_HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("stream.ingest", "bus", "push_chunk", lambda a, r: len(a[0])),
    ("stream.aggregate", "aggregator", "advance", lambda a, r: len(r)),
    ("stream.scheduler", "scheduler", "on_windows", lambda a, r: len(a[0])),
    ("service.selection", "planner", "report", lambda a, r: len(r.modelled)),
    ("stream.alerts", "alerts", "observe", _raised),
    ("agent.repository", "scheduler.repository", "store_windows", lambda a, r: int(r)),
    ("agent.repository", "scheduler.repository", "store_models", lambda a, r: int(r)),
    ("planner.escalation", "escalator", "on_tick", lambda a, r: len(r)),
)


_MISSING = object()


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    units: int
    op: int


class Recorder:
    """In-memory span store plus the hook installer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        #: Called with (layer, args, result) after every outermost span.
        self.observer: Callable | None = None

    # -- recording -------------------------------------------------------
    def wrap(self, layer: str, fn: Callable, units: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            if self._open.get(layer):
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(layer, time.perf_counter(), 0.0, parent, 0, self.op)
            self.spans.append(span)
            self._stack.append(index)
            self._open[layer] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._open[layer] = 0
            span.units = 1 if units is None else units(args, result)
            if self.observer is not None:
                self.observer(layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------
    def _absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def hook_functions(self, hooks=FUNCTION_HOOKS) -> None:
        """Rebind each hooked function in every ``repro.*`` module holding it."""
        _import_all("repro")
        for layer, module, attr, units in hooks:
            try:
                original = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self._absent(f"{module}.{attr}")
                continue
            traced = self.wrap(layer, original, units)
            for name, mod in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")) or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, traced)

    def hook_runtime(self, runtime, hooks=RUNTIME_HOOKS) -> None:
        """Wrap methods on the live components of one StreamRuntime."""
        for layer, path, method, units in hooks:
            target = runtime
            for part in path.split("."):
                target = getattr(target, part, None)
            bound = getattr(target, method, None)
            if target is None or not callable(bound):
                self._absent(f"StreamRuntime.{path}.{method}")
                continue
            self._undo.append((target, method, vars(target).get(method, _MISSING)))
            setattr(target, method, self.wrap(layer, bound, units))

    def unhook(self) -> None:
        for target, key, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(target, key)
            else:
                setattr(target, key, previous)
        self._undo.clear()

    # -- reading ---------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: busy_s, self_s, calls and units."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            row = out.setdefault(
                span.layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "units": 0}
            )
            duration = span.end - span.start
            row["busy_s"] += duration
            row["self_s"] += duration - children
            row["calls"] += 1
            row["units"] += span.units
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "op": s.op,
                            "layer": s.layer,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "units": s.units,
                        }
                    )
                    + "\n"
                )


def _import_all(package: str) -> None:
    """Load every submodule so late-imported call sites are rebound too."""
    pkg = importlib.import_module(package)
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        if info.name.endswith(".__main__"):  # the CLI entry runs on import
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:  # optional backends (numba, duckdb) may be absent
            continue


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of one recorded span over a bare call, in seconds."""

    def noop():
        return None

    recorder = Recorder()
    traced = recorder.wrap("calibrate", noop, None)
    best = float("inf")
    for _ in range(3):
        recorder.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(samples):
            traced()
        best = min(best, (time.perf_counter() - t0 - bare) / samples)
    return max(best, 0.0)
