"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``.

They check the benchmark's machinery, not the program's speed, and
start no simulation.
"""

from __future__ import annotations

import socket
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import digest  # noqa: E402
import operator_client  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from operator_client import OperatorLoad  # noqa: E402
from workloads import REGISTRY, input_seeds  # noqa: E402


def test_registry_lists_exactly_the_four_workloads():
    assert list(REGISTRY) == [
        "paper-chaos-80h",
        "landscape-10k",
        "federation-4d-live",
        "federation-2proc",
    ]
    assert all(name == w.name for name, w in REGISTRY.items())


def test_input_seeds_start_with_the_run_seed_and_never_overlap():
    assert input_seeds(7, 3) == [7, 1007, 2007]
    runs = [set(input_seeds(seed, 5)) for seed in range(1000)]
    assert sum(len(seeds) for seeds in runs) == len(set().union(*runs))


def _summary():
    return {
        "action_count": 2,
        "overload_minutes_per_day": 146.4,
        "availability_by_service": {"FI": {"availability": 0.99}},
        "perf": {"controller_tick_seconds": 3.45, "ticks": 1440},
    }


def test_digest_rejects_a_summary_with_one_field_changed():
    rows = [[720, "scaleOut", "FI", "FI#002", None, "Blade3", 0.81, "ok", 1, 0.0, ""]]
    reference = digest.decision_digest(rows, _summary())
    for path, value in (
        (("action_count",), 3),
        (("overload_minutes_per_day",), 146.5),
        (("availability_by_service", "FI", "availability"), 0.98),
    ):
        changed = _summary()
        target = changed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert digest.decision_digest(rows, changed) != reference, path
    moved = [rows[0][:6] + [0.82] + rows[0][7:]]
    assert digest.decision_digest(moved, _summary()) != reference


def test_digest_ignores_timing_fields():
    rows = [[720, "start", "FI", "FI#003", None, "Blade1", None, "ok", 1, 0.0, ""]]
    slower = _summary()
    slower["perf"]["controller_tick_seconds"] = 9.99
    assert digest.decision_digest(rows, slower) == digest.decision_digest(rows, _summary())


def test_self_time_subtracts_child_spans():
    spans = [
        # id, parent, layer, start, end
        (1, 0, "core.autoglobe", 0.0, 10.0),
        (2, 1, "fuzzy.inference", 1.0, 4.0),
        (3, 1, "core.server_selection", 5.0, 9.0),
        (4, 3, "fuzzy.inference", 6.0, 8.0),
        (5, 0, "sim.workload", 10.0, 11.5),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["core.autoglobe"]["self_s"] == 3.0
    assert totals["core.server_selection"]["self_s"] == 2.0
    assert totals["fuzzy.inference"]["self_s"] == 5.0
    assert totals["sim.workload"]["self_s"] == 1.5
    covered = sum(entry["self_s"] for entry in totals.values())
    assert covered == 11.5  # the self times partition the traced wall clock


def test_tracer_nests_spans_and_counts_a_layer_once_per_outer_call():
    tracer = tracing.Tracer("test")

    def inner(self, rows):
        return len(rows)

    def outer(self, rows):
        return sum(traced_inner(self, [row]) for row in rows)

    traced_inner = tracer.wrap("fuzzy.inference", inner, tracing._batch_rows)
    traced_outer = tracer.wrap("fuzzy.inference", outer, tracing._batch_rows)
    assert traced_outer(None, [1, 2, 3]) == 3
    assert tracer.counters["fuzzy.inference.calls"] == 1
    assert tracer.counters["fuzzy.inference.rows"] == 3
    outer_span = [s for s in tracer.spans if s[1] == 0]
    assert len(outer_span) == 1 and len(tracer.spans) == 4
    assert all(s[1] == outer_span[0][0] for s in tracer.spans if s[1] != 0)


def test_install_wraps_every_entry_point_and_undoes_it():
    from repro.core.autoglobe import AutoGlobeController

    original = AutoGlobeController.tick
    uninstall = tracing.install(tracing.Tracer("test"))
    try:
        assert AutoGlobeController.tick is not original
        assert AutoGlobeController.tick.__wrapped__ is original
    finally:
        uninstall()
    assert AutoGlobeController.tick is original


def test_operator_counts_a_refused_or_slow_request_as_failed(monkeypatch):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # the port is closed again: nothing listens there
    load = OperatorLoad("127.0.0.1", port, rate=1000.0)
    calls = iter([False, False, True])
    load.poll(lambda wait_s: next(calls))
    assert load.attempted == 2
    assert load.failed == 2
    assert load.latencies_ms == []
    assert load.failures == {"ConnectionRefusedError": 2}

    # a 200 answer that arrives after the timeout fails too: the socket
    # timeout bounds each recv, not the whole request
    def slow_ok(method, path):
        time.sleep(0.02)
        return 200, {}

    monkeypatch.setattr(operator_client, "REQUEST_TIMEOUT_S", 0.01)
    monkeypatch.setattr(load.client, "request", slow_ok)
    calls = iter([False, True])
    load.poll(lambda wait_s: next(calls))
    assert load.attempted == 3
    assert load.failed == 3
    assert load.latencies_ms == []
    assert load.failures == {"ConnectionRefusedError": 2, "timeout": 1}


def test_percentiles_need_ten_samples_beyond_them():
    assert not run.has_tail(999, 0.99)
    assert run.has_tail(1000, 0.99)
    assert run.has_tail(200, 0.95)
    assert run.percentile(list(range(1, 101)), 0.99) == 99
    assert run.percentile([5.0], 0.5) == 5.0


def test_checks_flag_digest_mismatch_and_verification_errors():
    rep = {"digest": "a" * 64, "verify_errors": []}
    assert run.check_rep(rep, "a" * 64) is None
    assert "digest" in run.check_rep(rep, "b" * 64)
    assert "AG301" in run.check_rep({**rep, "verify_errors": ["AG301"]}, "a" * 64)
    assert run.check_rep({"error": "exit 1: boom"}, None) == "exit 1: boom"
