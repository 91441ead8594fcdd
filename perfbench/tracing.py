"""Layer spans recorded from outside the program, for the traced run.

:func:`install` wraps the public entry points of each ``src/repro``
layer (the table :data:`ENTRY_POINTS`) at class level, so every instance
built afterwards records a span per call: name, start, end, parent span
and run id.  Spans stay in memory and are written out once, at the end
(:meth:`Tracer.write`).  A layer's self time is its spans' durations
minus the time their child spans cover (:func:`layer_totals`).

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

__all__ = ["ENTRY_POINTS", "Span", "Tracer", "install", "layer_totals"]

#: (span id, parent span id or 0, layer name, start, end) — perf_counter seconds
Span = Tuple[int, int, str, float, float]

#: ``count(counters, layer, args, result)`` adds a layer's work counters
Counter = Callable[[Dict[str, float], str, tuple, object], None]


def _calls(counters, layer, args, result):
    counters[f"{layer}.calls"] += 1


def _returned(key: str) -> Counter:
    """Count calls plus ``len(result)`` under ``<layer>.<key>``."""

    def count(counters, layer, args, result):
        counters[f"{layer}.calls"] += 1
        counters[f"{layer}.{key}"] += len(result) if result is not None else 0

    return count


def _batch_rows(counters, layer, args, result):
    # evaluate_many(measurements_list, rulebase)
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.rows"] += len(args[1])


def _one_row(counters, layer, args, result):
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.rows"] += 1


def _column_rows(counters, layer, args, result):
    # fuzzify_columns({variable: column}) — one row per column entry
    columns = args[1]
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.rows"] += len(next(iter(columns.values()))) if columns else 0


def _rank_situations(counters, layer, args, result):
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.situations"] += len(args[1])


def _rank_one(counters, layer, args, result):
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.situations"] += 1


def _candidates(counters, layer, args, result):
    # rank(platform, action, candidates)
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.candidates"] += len(args[3])


def _acted(counters, layer, args, result):
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.acted"] += result is not None


def _executed(counters, layer, args, result):
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.ok"] += bool(getattr(result, "succeeded", False))


def _flushed(counters, layer, args, result):
    counters[f"{layer}.calls"] += 1
    counters[f"{layer}.rows"] += result or 0


def _published(counters, layer, args, result):
    counters[f"{layer}.events"] += 1


def _sent(counters, layer, args, result):
    counters["net.transport.messages"] += 1


def _received(counters, layer, args, result):
    # recv has its own layer so its self time is the time spent waiting
    counters["net.transport.messages"] += result is not None


def _heartbeat(counters, layer, args, result):
    counters[f"{layer}.heartbeats"] += 1


def _uncounted(counters, layer, args, result):
    pass


#: layer -> [(module, attribute path, counter)]; the attribute is a class
#: method ``Class.method`` or a module-level function ``function``
ENTRY_POINTS: Dict[str, List[Tuple[str, str, Counter]]] = {
    "sim.workload": [
        ("repro.sim.workload", "WorkloadModel.initialize", _calls),
        ("repro.sim.workload", "WorkloadModel.tick", _calls),
    ],
    "sim.faults": [("repro.sim.faults", "FaultInjector.tick", _returned("records"))],
    "sim.results": [
        ("repro.sim.results", "ResultCollector.observe", _calls),
        ("repro.sim.results", "ResultCollector.finalize", _calls),
    ],
    "core.federation": [
        ("repro.core.federation", "FederatedControlPlane.tick", _calls)
    ],
    "core.failover": [("repro.core.failover", "ControllerSupervisor.tick", _calls)],
    "core.autoglobe": [("repro.core.autoglobe", "AutoGlobeController.tick", _calls)],
    "monitoring.advisor": [("repro.monitoring.advisor", "Advisor.inspect", _calls)],
    "monitoring.lms": [
        ("repro.monitoring.lms", "LoadMonitoringSystem.tick", _returned("situations"))
    ],
    "core.action_selection": [
        ("repro.core.action_selection", "ActionSelector.rank", _rank_one),
        ("repro.core.action_selection", "ActionSelector.rank_many", _rank_one),
        (
            "repro.core.action_selection",
            "ActionSelector.rank_situations",
            _rank_situations,
        ),
    ],
    "fuzzy.inference": [
        ("repro.fuzzy.controller", "FuzzyController.evaluate", _one_row),
        ("repro.fuzzy.controller", "FuzzyController.evaluate_many", _batch_rows),
        ("repro.fuzzy.inference", "InferenceEngine.fuzzify_columns", _column_rows),
    ],
    "core.server_selection": [
        ("repro.core.server_selection", "ServerSelector.rank", _candidates)
    ],
    "core.decision": [("repro.core.decision", "DecisionLoop.handle", _acted)],
    "serviceglobe.executor": [
        ("repro.serviceglobe.executor", "ActionExecutor.execute", _executed)
    ],
    "telemetry.bus": [("repro.telemetry.bus", "EventBus.publish", _published)],
    # ingest (encoding each envelope) and commit (one transaction per
    # batch) are separate layers: ingest calls commit when a batch fills
    "ops.store.ingest": [("repro.ops.store", "TelemetryStore._on_envelope", _uncounted)],
    "ops.store": [("repro.ops.store", "TelemetryStore.flush", _flushed)],
    "ops.api": [("repro.ops.api", "OpsBridge.refresh", _calls)],
    "net.transport": [("repro.net.transport", "TcpEndpoint.send", _sent)],
    "net.transport.recv": [("repro.net.transport", "TcpEndpoint.recv", _received)],
    "net.session": [("repro.net.session", "SessionManager.heartbeat", _heartbeat)],
    "setup.lint": [("repro.analysis", "analyze_landscape", _calls)],
    "setup.platform": [("repro.serviceglobe.platform", "Platform.__init__", _calls)],
}


class Tracer:
    """Span recorder; one per process, shared by every wrapped layer."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, count: Counter = _calls) -> Callable:
        """Return ``fn`` recording one span (and its counters) per call."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, parent_layer = stack[-1] if stack else (0, "")
            span_id = next(self._ids)
            stack.append((span_id, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # list.append is atomic under the GIL; the counters'
                # read-modify-write below is not
                self.spans.append((span_id, parent, layer, start, end))
            if parent_layer != layer:
                # a layer re-entering itself (a batch falling back to
                # per-row calls) is one call of that layer
                with self._lock:
                    count(self.counters, layer, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns an undo."""
    undo: List[Tuple[object, str, object]] = []
    for layer, points in ENTRY_POINTS.items():
        for module_name, attribute, count in points:
            owner: object = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            undo.append((owner, name, original))
            setattr(owner, name, tracer.wrap(layer, original, count))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``total_s`` from a list of spans.

    A span's self time is its duration minus the durations of its
    direct children; children always nest inside their parent on the
    same thread, so the difference is the time the layer itself ran.
    ``total_s`` counts only outermost spans of a layer, so a layer that
    calls itself is not counted twice.
    """
    layer_of: Dict[int, str] = {}
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, layer, start, end in spans:
        layer_of[span_id] = layer
        if parent:
            child_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0}
    )
    for span_id, parent, layer, start, end in spans:
        duration = end - start
        entry = totals[layer]
        entry["self_s"] += duration - child_time.get(span_id, 0.0)
        if layer_of.get(parent) != layer:
            entry["total_s"] += duration
    return dict(totals)

