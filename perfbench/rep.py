"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, because a 10k-host
heap left behind by one run slows the next one in the same process.
It prints one JSON line: the repetition's timings, its output check
(decision digest and AG3xx verification, both computed after the timed
region) and, when traced, its per-layer totals.

Usage: ``rep.py WORKLOAD SEED WORKDIR [--trace]``
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here, before any import of repro

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from digest import action_row, decision_digest  # noqa: E402
from workloads import CHAOS_SEED, REGISTRY, Workload, build_landscape  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
AGENT_HOOKS = BENCH_DIR / "agent_hooks"


def peak_rss_mb() -> float:
    """Peak resident set of this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


class LoopClock:
    """Times one runner's tick loop through instance-level wrappers.

    The loop starts at the first ``workload.tick`` (set-up ends there),
    each ``controller.tick`` is one latency sample, and the loop ends
    when the collector finalizes.  Wrapping instance attributes leaves
    the classes, and every other runner, untouched.
    """

    def __init__(self, runner) -> None:
        self.first_tick: Optional[float] = None
        self.loop_end: Optional[float] = None
        self.ticks_ms: List[float] = []
        clock = time.perf_counter
        workload_tick = runner.workload.tick
        controller_tick = runner.controller.tick
        finalize = runner.collector.finalize

        def timed_workload_tick(now):
            if self.first_tick is None:
                self.first_tick = clock()
            return workload_tick(now)

        def timed_controller_tick(now):
            began = clock()
            try:
                return controller_tick(now)
            finally:
                self.ticks_ms.append((clock() - began) * 1e3)

        def timed_finalize(*args, **kwargs):
            self.loop_end = clock()
            return finalize(*args, **kwargs)

        runner.workload.tick = timed_workload_tick
        runner.controller.tick = timed_controller_tick
        runner.collector.finalize = timed_finalize


def start_operator(port: int) -> subprocess.Popen:
    """Spawn the operator process and wait until its subscription is live."""
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "operator_client.py"), str(port)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline().strip()
    if line != "ready":
        process.kill()
        process.wait()
        raise RuntimeError(f"operator process failed to start: {line!r}")
    return process


def stop_operator(process: subprocess.Popen) -> Dict[str, Any]:
    """Stop the operator's polling and collect its result."""
    out, _ = process.communicate("stop\n", timeout=60)
    if process.returncode != 0:
        raise RuntimeError(f"operator process exited with {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def verify_events(events, complete: bool, summary) -> List[str]:
    """AG3xx verification over a list of trace events; error codes found."""
    from repro.analysis.verify import TraceVerifier

    verifier = TraceVerifier()
    for event in events:
        verifier.feed(event)
    report = verifier.report("perfbench", complete=complete, summary=summary)
    return [diagnostic.code for diagnostic in report.errors]


def escrow_phases(events) -> Dict[str, int]:
    """Escrow phase counts off the ``escrow`` topic of a trace."""
    counts: Dict[str, int] = {}
    for event in events:
        if event.topic == "escrow":
            phase = str(event.record.get("phase"))
            counts[phase] = counts.get(phase, 0) + 1
    return counts


def run_inprocess(workload: Workload, seed: int, workdir: Path, tracer) -> Dict[str, Any]:
    from repro.sim.export import summary_json_payload
    from repro.sim.results import accounting_summary
    from repro.sim.runner import SimulationRunner
    from repro.sim.scenarios import Scenario, default_chaos
    from repro.telemetry.bus import WILDCARD

    build = build_landscape if tracer is None else tracer.wrap("setup.landscape", build_landscape)
    landscape = build(workload)
    store_path = workdir / "store.db" if workload.store else None
    runner = SimulationRunner(
        Scenario.FULL_MOBILITY,
        user_factor=workload.user_factor,
        horizon=workload.horizon,
        seed=seed,
        landscape=landscape,
        collect_host_series=False,
        lint=workload.lint,
        chaos=default_chaos(CHAOS_SEED) if workload.chaos else None,
        store_path=store_path,
        serve=("127.0.0.1", 0) if workload.serve else None,
    )
    built = time.perf_counter()
    loop = LoopClock(runner)
    events: List[Any] = []
    if store_path is None:
        # the trace the verifier reads afterwards; appending a reference
        # is the cheapest subscriber there is
        runner.platform.bus.subscribe(WILDCARD, events.append)
    operator = None
    api: Dict[str, Any] = {}
    #: seconds the benchmark's own teardown spent inside the timed loop
    teardown = [0.0]
    if workload.serve:
        operator = start_operator(runner.ops_server.port)
        close = runner.close

        def close_after_operator():
            # the runner closes before its collector finalizes, so this
            # runs inside the timed loop; only the program's own server
            # and store shutdown stays counted.  The operator stops
            # before the server does, so no request meets a closed port.
            began = time.perf_counter()
            try:
                api["server"] = runner.ops_server.stats()
                api.update(stop_operator(operator))
            finally:
                teardown[0] = time.perf_counter() - began
                close()

        runner.close = close_after_operator
    run_called = time.perf_counter()
    try:
        result = runner.run()
    finally:
        if operator is not None and operator.poll() is None:
            operator.kill()
            operator.wait()
    setup_s = (built - STARTED) + (loop.first_tick - run_called)
    loop_s = loop.loop_end - loop.first_tick - teardown[0]
    rss = peak_rss_mb()

    # -- outside the timed region: the output check ---------------------------------
    summary = summary_json_payload(result)
    digest = decision_digest((action_row(a) for a in result.actions), summary)
    if store_path is not None:
        from repro.ops.store import read_store

        header, trace = read_store(store_path)
        complete = header.complete
    else:
        from repro.telemetry.records import record_to_dict
        from repro.telemetry.trace import TraceEvent

        trace = [
            TraceEvent(seq=e.seq, topic=e.topic, record=record_to_dict(e.record))
            for e in events
        ]
        complete = len(trace) == runner.platform.bus.last_seq
    errors = verify_events(trace, complete, accounting_summary(result))
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "sim_minutes": workload.horizon,
        "ticks_ms": loop.ticks_ms,
        "peak_rss_mb": rss,
        "digest": digest,
        "verify_errors": errors,
        "overload_min_per_day": result.overload_minutes_per_day,
        "availability_pct": result.mean_availability * 100.0,
        "escrow_phases": escrow_phases(trace),
    }
    if api:
        out["api"] = api
    return out


def run_federation(
    workload: Workload, seed: int, workdir: Path, tracer
) -> Dict[str, Any]:
    """``run_multiproc`` with timing hooks in the server and every agent."""
    from repro.net.orchestrator import run_multiproc
    from repro.net.server import FederationServer
    from repro.sim.scenarios import Scenario
    from repro.telemetry.trace import read_trace

    clock = time.perf_counter
    marks: Dict[str, float] = {}
    handle_hello = FederationServer._handle_hello
    finalize = FederationServer.finalize

    def timed_hello(self, endpoint, message):
        session = handle_hello(self, endpoint, message)
        marks["last_handshake"] = clock()
        return session

    def timed_finalize(self, *args, **kwargs):
        marks["loop_end"] = clock()
        return finalize(self, *args, **kwargs)

    FederationServer._handle_hello = timed_hello
    FederationServer.finalize = timed_finalize
    agent_dir = workdir / "agents"
    agent_dir.mkdir(parents=True, exist_ok=True)
    # run_multiproc hands this environment to every agent: the hook
    # directory's sitecustomize times (and, traced, wraps) each agent
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(AGENT_HOOKS), os.environ.get("PYTHONPATH", "")]
    )
    os.environ["PERFBENCH_AGENT_DIR"] = str(agent_dir)
    os.environ["PERFBENCH_TRACE"] = "1" if tracer is not None else "0"
    try:
        result = run_multiproc(
            workload.agents,
            workdir / "state",
            workdir / "out",
            scenario=Scenario.FULL_MOBILITY,
            user_factor=workload.user_factor,
            horizon=workload.horizon,
            seed=seed,
        )
    finally:
        FederationServer._handle_hello = handle_hello
        FederationServer.finalize = finalize
    setup_s = marks["last_handshake"] - STARTED
    loop_s = marks["loop_end"] - marks["last_handshake"]
    rss = peak_rss_mb()

    agents = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(agent_dir.glob("*.json"))
    ]
    if len(agents) != workload.agents:
        raise RuntimeError(f"expected {workload.agents} agent reports, got {len(agents)}")
    _header, trace = read_trace(result.trace_path)
    rows = [
        [event.record.get(key) for key in sorted(event.record)]
        for event in trace
        if event.topic == "actions"
    ]
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "sim_minutes": workload.horizon,
        "ticks_ms": [tick for agent in agents for tick in agent["ticks_ms"]],
        "peak_rss_mb": max([rss] + [agent["peak_rss_mb"] for agent in agents]),
        "digest": decision_digest(rows, result.summary),
        "verify_errors": [d.code for d in result.report.errors],
        "overload_min_per_day": float(result.summary["total_overload_minutes"])
        / (workload.horizon / 1440.0),
        "availability_pct": float(result.summary["mean_availability"]) * 100.0,
        "escrow_phases": escrow_phases(trace),
        "agents": [
            {key: agent[key] for key in ("counters", "layers") if key in agent}
            for agent in agents
        ],
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("workload", choices=sorted(REGISTRY))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = REGISTRY[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(run_id=f"{workload.name}/{args.seed}/{os.getpid()}")
        tracing.install(tracer)
    if workload.agents:
        out = run_federation(workload, args.seed, args.workdir, tracer)
    else:
        out = run_inprocess(workload, args.seed, args.workdir, tracer)
    if tracer is not None:
        out["layers"] = tracing.layer_totals(tracer.spans)
        out["counters"] = dict(tracer.counters)
        tracer.write(args.workdir / "spans.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
