#!/usr/bin/env python3
"""AutoGlobe benchmark: named workloads, end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, traced
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-references   # rewrite references.json

Each repetition of a workload runs in a fresh process (``rep.py``); a
run makes at least :data:`MIN_REPS` of them and repeats them until
``--seconds`` have passed.  Every repetition's outputs are checked: its
decision digest must equal the recorded reference for the seed (or, for
a seed without one, the run's first repetition), and AG3xx verification
of its trace must report no errors.  The human-readable report goes to
stdout; the last line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
per-layer ones.  Run from the repository root; it builds nothing and
needs only ``src/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: everything a run leaves behind (ignored by git)
OUT_DIR = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"

sys.path.insert(0, str(BENCH_DIR))
from workloads import DEFAULT_SEED, HELD_OUT_SEED, REGISTRY, Workload, input_seeds  # noqa: E402

#: full repetitions per run, however short ``--seconds`` is, so that
#: every end-to-end metric rests on at least this many
MIN_REPS = 3
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: one repetition may not take longer than this
REP_TIMEOUT_S = 170

#: unit of every end-to-end metric a run can report, in report order
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_min_per_s": "min/s",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
    "tick_ms_max": "ms",
    "api_ms_p50": "ms",
    "api_ms_p95": "ms",
    "api_late_ms_max": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "overload_min_per_day": "min/day",
    "availability_pct": "%",
}


# -- statistics -----------------------------------------------------------------------


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    # round first: 0.99 * 100 is 99.00000000000001 in floating point
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[rank - 1]


def has_tail(samples: int, share: float) -> bool:
    """True when ``share``'s percentile has TAIL_SAMPLES samples beyond it."""
    return samples * (1.0 - share) >= TAIL_SAMPLES


# -- repetitions ----------------------------------------------------------------------


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code: recorded with every run."""
    commit = "unknown"
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_rep(workload: Workload, seed: int, index: int, traced: bool = False) -> Dict[str, Any]:
    """One repetition in a fresh process; ``{"error": ...}`` when it fails."""
    workdir = OUT_DIR / "work" / f"{workload.name}-{seed}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    command = [sys.executable, str(BENCH_DIR / "rep.py"), workload.name, str(seed), str(workdir)]
    if traced:
        command.append("--trace")
    # its own session, so a timeout also stops the operator or agent
    # processes the repetition started
    process = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        try:
            stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return {"error": f"repetition timed out after {REP_TIMEOUT_S}s"}
        if process.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"exit {process.returncode}: {tail[0]}"}
        if traced:
            keep = OUT_DIR / "spans" / workload.name
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir(parents=True)
            for spans in workdir.rglob("spans*.jsonl"):
                shutil.move(str(spans), str(keep / spans.name))
        return json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_rep(rep: Dict[str, Any], expected: Optional[str]) -> Optional[str]:
    """Why a full repetition's output is wrong, or None when it is right."""
    if "error" in rep:
        return rep["error"]
    if rep["verify_errors"]:
        return "AG3xx verification errors: " + ",".join(sorted(set(rep["verify_errors"])))
    if expected is not None and rep["digest"] != expected:
        return f"decision digest {rep['digest'][:12]} != expected {expected[:12]}"
    return None


def load_references() -> Dict[str, Dict[str, str]]:
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


class Run:
    """The repetitions of one workload for one run seed, with their checks.

    An untraced run executes one repetition per workload seed of
    :func:`~workloads.input_seeds`.  Until it has :data:`MIN_REPS`
    repetitions and ``seconds`` have passed it repeats them, starting
    with the run seed: a repeat must reproduce the first digest, which
    checks determinism for a seed without a recorded reference.  A
    slower machine thus gets fewer repeats, never other inputs.
    A traced run alternates untraced and traced repetitions of the run
    seed alone, so the tracing overhead compares equal inputs.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.references = load_references().get(workload.name, {})
        #: workload seed -> untraced repetitions that passed their checks
        self.reps: Dict[int, List[Dict[str, Any]]] = {}
        self.traced: List[Dict[str, Any]] = []
        self.failures: List[str] = []
        self.attempted = 0

    def _full(self, seed: int, traced: bool = False) -> None:
        rep = run_rep(self.workload, seed, self.attempted, traced=traced)
        self.attempted += 1
        if "digest" in rep:
            # a seed without a reference: its first repetition is the reference
            self.references.setdefault(str(seed), rep["digest"])
        problem = check_rep(rep, self.references.get(str(seed)))
        if problem is not None:
            self.failures.append(f"seed {seed}: {problem}")
        if "error" in rep:
            return
        # a repetition with wrong outputs still measured its timings; the
        # failure is counted, and the report shows both
        if traced:
            self.traced.append(rep)
        else:
            self.reps.setdefault(seed, []).append(rep)

    def measure(self, seconds: float, trace: bool) -> None:
        started = time.monotonic()
        if trace:
            while True:
                self._full(self.seed)
                self._full(self.seed, traced=True)
                if time.monotonic() - started >= seconds:
                    break
        else:
            seeds = input_seeds(self.seed, self.workload.inputs)
            for seed in seeds:
                self._full(seed)
            # repeat from the run seed on; the first repeat checks that
            # the run seed reproduces its digest
            for seed in itertools.cycle(seeds):
                if self.attempted >= MIN_REPS and time.monotonic() - started >= seconds:
                    break
                self._full(seed)

    # -- results ------------------------------------------------------------------------

    def all_reps(self) -> List[Dict[str, Any]]:
        return [rep for reps in self.reps.values() for rep in reps]

    def api(self) -> Dict[str, Any]:
        latencies: List[float] = []
        lateness: List[float] = []
        attempted = failed = 0
        for rep in self.all_reps() + self.traced:
            api = rep.get("api")
            if api:
                latencies += api["latencies_ms"]
                lateness += api["lateness_ms"]
                attempted += api["attempted"]
                failed += api["failed"]
        return {"latencies": latencies, "lateness": lateness, "attempted": attempted,
                "failed": failed}

    def operations(self) -> Dict[str, int]:
        api = self.api()
        return {
            "attempted": self.attempted + api["attempted"],
            "failed": len(self.failures) + api["failed"],
        }

    def end_to_end(self) -> Dict[str, float]:
        """Every end-to-end metric this workload has, by name.

        Throughput is total simulated minutes over total loop time, with
        each workload seed's loop time the median of its repetitions; tick
        latency percentiles are over every tick of the run.
        """
        if not self.reps:
            return {}
        loop_s = {seed: statistics.median(r["loop_s"] for r in reps)
                  for seed, reps in self.reps.items()}
        reps = self.all_reps()
        ticks = [tick for rep in reps for tick in rep["ticks_ms"]]
        metrics: Dict[str, float] = {
            "setup_s": statistics.median(rep["setup_s"] for rep in reps),
            "sim_min_per_s": self.workload.horizon * len(loop_s) / sum(loop_s.values()),
            "tick_ms_p50": statistics.median(ticks),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
        if has_tail(len(ticks), 0.99):
            metrics["tick_ms_p99"] = percentile(ticks, 0.99)
        if self.workload.landscape == "10k":
            # the watch-time burst: the decision latency against the 60 s budget
            metrics["tick_ms_max"] = statistics.median(max(r["ticks_ms"]) for r in reps)
        api = self.api()
        if api["latencies"]:
            metrics["api_ms_p50"] = percentile(api["latencies"], 0.50)
            if has_tail(len(api["latencies"]), 0.95):
                metrics["api_ms_p95"] = percentile(api["latencies"], 0.95)
            metrics["api_late_ms_max"] = max(api["lateness"])
        operations = self.operations()
        metrics["error_rate"] = operations["failed"] / max(operations["attempted"], 1)
        first = self.reps.get(self.seed, reps)[0]
        metrics["overload_min_per_day"] = first["overload_min_per_day"]
        metrics["availability_pct"] = first["availability_pct"]
        return metrics

    def samples(self) -> Dict[str, int]:
        reps = self.all_reps()
        return {"seeds": len(self.reps), "reps": len(reps), "traced_reps": len(self.traced),
                "ticks": sum(len(rep["ticks_ms"]) for rep in reps),
                "requests": len(self.api()["latencies"])}

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics: medians over the traced repetitions."""
        if not self.traced or not self.reps:
            return {}
        per_rep = [layer_metrics(rep) for rep in self.traced]
        metrics = {
            name: statistics.median(values[name] for values in per_rep)
            for name in per_rep[0]
        }
        untraced = statistics.median(rep["loop_s"] for rep in self.all_reps())
        traced = statistics.median(rep["loop_s"] for rep in self.traced)
        metrics["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        return metrics


def layer_metrics(rep: Dict[str, Any]) -> Dict[str, float]:
    """One traced repetition's per-layer metrics, named as in BENCHMARK.json."""
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    # agent processes report their own spans; a layer's work is the sum
    for source in [rep] + rep.get("agents", []):
        for layer, totals in source.get("layers", {}).items():
            entry = layers.setdefault(layer, {"self_s": 0.0, "total_s": 0.0})
            entry["self_s"] += totals["self_s"]
            entry["total_s"] += totals["total_s"]
        for key, value in source.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    escrows = rep["escrow_phases"]
    server = rep.get("api", {}).get("server", {"clients": []})
    metrics = {
        "sim.workload.self_s": self_s("sim.workload"),
        "sim.faults.self_s": self_s("sim.faults"),
        "sim.faults.records": count("sim.faults.records"),
        "sim.results.self_s": self_s("sim.results"),
        "core.autoglobe.self_s": self_s("core.autoglobe"),
        "core.failover.self_s": self_s("core.failover"),
        "core.federation.self_s": self_s("core.federation"),
        "monitoring.advisor.calls": count("monitoring.advisor.calls"),
        "monitoring.advisor.self_s": self_s("monitoring.advisor"),
        "monitoring.lms.self_s": self_s("monitoring.lms"),
        "monitoring.lms.situations": count("monitoring.lms.situations"),
        "core.action_selection.calls": count("core.action_selection.calls"),
        "core.action_selection.situations": count("core.action_selection.situations"),
        "core.action_selection.self_s": self_s("core.action_selection"),
        "fuzzy.inference.calls": count("fuzzy.inference.calls"),
        "fuzzy.inference.rows_per_call": ratio(
            count("fuzzy.inference.rows"), count("fuzzy.inference.calls")
        ),
        "fuzzy.inference.self_s": self_s("fuzzy.inference"),
        "core.server_selection.calls": count("core.server_selection.calls"),
        "core.server_selection.candidates_per_call": ratio(
            count("core.server_selection.candidates"), count("core.server_selection.calls")
        ),
        "core.server_selection.self_s": self_s("core.server_selection"),
        "core.decision.calls": count("core.decision.calls"),
        "core.decision.acted_ratio": ratio(
            count("core.decision.acted"), count("core.decision.calls")
        ),
        "serviceglobe.executor.calls": count("serviceglobe.executor.calls"),
        "serviceglobe.executor.ok_ratio": ratio(
            count("serviceglobe.executor.ok"), count("serviceglobe.executor.calls")
        ),
        "serviceglobe.executor.self_s": self_s("serviceglobe.executor"),
        "telemetry.bus.events": count("telemetry.bus.events"),
        "telemetry.bus.self_s": self_s("telemetry.bus"),
        "ops.store.calls": count("ops.store.calls"),
        "ops.store.rows": count("ops.store.rows"),
        "ops.store.self_s": self_s("ops.store") + self_s("ops.store.ingest"),
        "ops.api.refresh_self_s": self_s("ops.api"),
        "ops.api.ws_frames": float(sum(c["delivered"] for c in server["clients"])),
        "ops.api.ws_dropped": float(sum(c["dropped"] for c in server["clients"])),
        "core.federation.escrows": float(escrows.get("prepare", 0)),
        "core.federation.escrow_commit_ratio": ratio(
            escrows.get("commit", 0), escrows.get("prepare", 0)
        ),
        "net.transport.messages": count("net.transport.messages"),
        "net.transport.recv_wait_s": self_s("net.transport.recv"),
        "net.session.heartbeats": count("net.session.heartbeats"),
        "setup.lint_s": self_s("setup.lint"),
        "setup.landscape_s": self_s("setup.landscape"),
        "setup.platform_s": self_s("setup.platform"),
    }
    if not rep.get("agents"):
        # in one process the layers' self times partition the timed wall
        # clock; what no span covers is the untraced remainder
        covered = sum(entry["self_s"] for entry in layers.values())
        metrics["trace.untraced_s"] = rep["setup_s"] + rep["loop_s"] - covered
    return metrics


# -- reporting ------------------------------------------------------------------------


def unit_of(metric: str) -> str:
    """A metric's unit: from its name's suffix, or the end-to-end table."""
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def print_run(run: Run, metrics: Dict[str, float], env: Dict[str, Any], why: str) -> None:
    workload = run.workload
    ops = run.operations()
    print(f"== {workload.name} (seed {run.seed}) — {why}")
    print(f"   env: commit {env['commit']}, python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"   samples: {run.samples()}")
    print(f"   operations: {ops['attempted']} attempted, {ops['failed']} failed")
    for problem in sorted(set(run.failures)):
        print(f"   FAILED {problem}")
    for name, value in metrics.items():
        print(f"   {name:42s} {value:16.6f} {unit_of(name)}")


def append_history(run: Run, trace: bool, metrics: Dict[str, float], env) -> None:
    """The perf trajectory: one line per run, appended, never overwritten."""
    OUT_DIR.mkdir(exist_ok=True)
    line = {
        "workload": run.workload.name, "seed": run.seed, "trace": trace,
        "env": env, "samples": run.samples(), **run.operations(), "metrics": metrics,
    }
    with open(OUT_DIR / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")


def record_references() -> int:
    """Rewrite ``references.json``: every workload seed of the pinned run seeds."""
    references: Dict[str, Dict[str, str]] = {}
    for workload in REGISTRY.values():
        for run_seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for seed in input_seeds(run_seed, workload.inputs):
                rep = run_rep(workload, seed, 0)
                problem = check_rep(rep, None)
                if problem is not None:
                    print(f"{workload.name} seed {seed}: {problem}", file=sys.stderr)
                    return 1
                references.setdefault(workload.name, {})[str(seed)] = rep["digest"]
                print(f"{workload.name} seed {seed}: {rep['digest']}", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(REGISTRY),
                        help="one workload (default: every workload in the registry)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from the current program")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.record_references:
        return record_references()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = bool(args.trace)
    env = environment()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    attempted = failed = 0
    reported: Dict[str, Dict[str, Any]] = {}
    for name in [args.workload] if args.workload else list(REGISTRY):
        run = Run(REGISTRY[name], args.seed)
        run.measure(seconds, trace)
        metrics = run.per_layer() if trace else run.end_to_end()
        print_run(run, metrics, env, why.get(name, "not in BENCHMARK.json"))
        append_history(run, trace, metrics, env)
        ops = run.operations()
        attempted += ops["attempted"]
        failed += ops["failed"]
        if args.workload:
            # exactly the metrics BENCHMARK.json declares for this mode
            wanted = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in metrics]
            if missing:
                print(f"perfbench: {name} measured no {', '.join(missing)}", file=sys.stderr)
                return 1
            reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}
        else:
            reported.update({f"{name}/{metric}": {"value": value, "unit": unit_of(metric)}
                             for metric, value in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
