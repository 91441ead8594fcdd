"""Timing hooks for the agent processes of ``federation-2proc``.

``run_multiproc`` starts each agent with the caller's ``PYTHONPATH``;
``rep.py`` puts this directory first on it, so Python imports this
module at the start of every agent.  When ``PERFBENCH_AGENT_DIR`` is
set it times every supervisor tick (and with ``PERFBENCH_TRACE=1``
installs the layer spans of ``tracing.py``), and at exit writes one
JSON report per process into that directory.  Without the variable it
does nothing.
"""

import os

if os.environ.get("PERFBENCH_AGENT_DIR"):
    import atexit
    import json
    import resource
    import sys
    import time
    from pathlib import Path

    def _install(out_dir: Path, traced: bool) -> None:
        from repro.core.failover import ControllerSupervisor

        ticks_ms = []
        clock = time.perf_counter
        supervisor_tick = ControllerSupervisor.tick
        tracer = None
        if traced:
            sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
            import tracing

            tracer = tracing.Tracer(run_id=f"agent/{os.getpid()}")
            tracing.install(tracer)
            # install() wrapped ControllerSupervisor.tick; time that wrapper
            supervisor_tick = ControllerSupervisor.tick

        def timed_tick(self, now):
            began = clock()
            try:
                return supervisor_tick(self, now)
            finally:
                ticks_ms.append((clock() - began) * 1e3)

        ControllerSupervisor.tick = timed_tick

        def report() -> None:
            out = {
                "ticks_ms": ticks_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            if tracer is not None:
                out["layers"] = tracing.layer_totals(tracer.spans)
                out["counters"] = dict(tracer.counters)
                tracer.write(out_dir / f"spans-{os.getpid()}.jsonl")
            (out_dir / f"{os.getpid()}.json").write_text(json.dumps(out), encoding="utf-8")

        atexit.register(report)

    _install(Path(os.environ["PERFBENCH_AGENT_DIR"]), os.environ.get("PERFBENCH_TRACE") == "1")
