"""One operator watching a served run: the load of ``federation-4d-live``.

Open loop: GET requests alternate ``/state`` and ``/situations`` at a
fixed rate (:data:`RATE`), one at a time on a fresh connection each (the
ops API answers ``Connection: close``).  Each request is timed from the moment
it was due, so a stall also counts against the requests queued behind
it, and the generator reports how late it sent them.  A second thread
holds one ``/events`` WebSocket subscription and counts its frames.
Two threads, at most two connections.

Run as a process: ``operator_client.py PORT``.  It prints
``ready`` once subscribed, then polls until a line arrives on stdin (or
stdin closes), and prints one JSON result line.
"""

from __future__ import annotations

import json
import select
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

__all__ = ["OperatorLoad", "main"]

PATHS = ("/state", "/situations")
#: GET requests per second.  The poll loop of the CI ops-smoke job sends
#: two GETs (``/situations``, ``/approvals``) and sleeps 0.1 s, so at most
#: 20 per second; this sends that rate, open loop.
RATE = 20.0
#: a request slower than this, from sending to the end of its answer,
#: counts as failed
REQUEST_TIMEOUT_S = 2.0


class OperatorLoad:
    """Open-loop GET generator plus one WebSocket subscriber."""

    def __init__(self, host: str, port: int, rate: float = RATE) -> None:
        from repro.ops.console import OpsClient

        if rate <= 0:
            raise ValueError("rate must be positive requests per second")
        self.client = OpsClient(host, port, timeout=REQUEST_TIMEOUT_S)
        self.interval = 1.0 / rate
        self.latencies_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}
        self.ws_frames = 0
        self._ws_ready = threading.Event()
        self._ws_thread = None

    # -- requests -----------------------------------------------------------------------

    def request(self, path: str) -> bool:
        """One GET; True on a 200 answer, False on anything else."""
        self.attempted += 1
        try:
            status, _body = self.client.request("GET", path)
        except (OSError, ValueError) as exc:
            # refused, reset, timed out, or a truncated/garbled answer
            return self._fail(type(exc).__name__)
        if status != 200:
            return self._fail(f"HTTP {status}")
        return True

    def _fail(self, reason: str) -> bool:
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        return False

    def poll(self, should_stop: Callable[[float], bool]) -> None:
        """Send requests on schedule until ``should_stop(wait_s)`` says so.

        ``should_stop`` is called before every request with the seconds
        left until it is due; it may block up to that long.
        """
        clock = time.perf_counter
        start = clock()
        index = 0
        while True:
            due = start + index * self.interval
            if should_stop(max(0.0, due - clock())):
                return
            sent = max(clock(), due)
            ok = self.request(PATHS[index % len(PATHS)])
            done = clock()
            if ok and done - sent > REQUEST_TIMEOUT_S:
                # the socket timeout bounds each connect and recv, not
                # the whole request
                ok = self._fail("timeout")
            self.lateness_ms.append((sent - due) * 1e3)
            if ok:
                self.latencies_ms.append((done - due) * 1e3)
            index += 1

    # -- WebSocket ----------------------------------------------------------------------

    def subscribe(self, timeout: float = 10.0) -> None:
        """Open the ``/events`` subscription; returns once it is live."""
        self._ws_thread = threading.Thread(
            target=self._read_events, name="operator-events", daemon=True
        )
        self._ws_thread.start()
        if not self._ws_ready.wait(timeout):
            raise RuntimeError("events subscription did not come up")

    def _read_events(self) -> None:
        stream = self.client.events()
        try:
            # the server sends a hello frame right after the upgrade
            next(stream)
            self._ws_ready.set()
            for _message in stream:
                self.ws_frames += 1
        except (OSError, StopIteration):
            pass  # the run ended and the server went away
        finally:
            self._ws_ready.set()

    def result(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "latencies_ms": self.latencies_ms,
            "lateness_ms": self.lateness_ms,
            "ws_frames": self.ws_frames,
        }


def _stdin_stop(wait_s: float) -> bool:
    """True once stdin has a line or is closed; waits up to ``wait_s``."""
    readable, _, _ = select.select([sys.stdin], [], [], wait_s)
    return bool(readable)


def main(argv: Tuple[str, ...] = tuple(sys.argv[1:])) -> int:
    load = OperatorLoad("127.0.0.1", int(argv[0]))
    load.subscribe()
    print("ready", flush=True)
    load.poll(_stdin_stop)
    print(json.dumps(load.result()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
