"""Decision digests: the output check every benchmark run passes.

A digest is a sha256 over the run's ordered action audit rows plus its
finalized summary, with the timing fields removed.  Two runs of the
same workload and seed must produce the same digest: a change that only
makes the program faster leaves it unmoved, and a change that moves a
decision shows up as a mismatch against ``references.json``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["TIMING_KEYS", "action_row", "decision_digest", "without_timing"]

#: summary keys holding wall-clock measurements, not simulated outcomes
TIMING_KEYS = frozenset({"perf"})


def without_timing(value: Any) -> Any:
    """``value`` with every :data:`TIMING_KEYS` entry removed, recursively."""
    if isinstance(value, Mapping):
        return {
            key: without_timing(item)
            for key, item in value.items()
            if key not in TIMING_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [without_timing(item) for item in value]
    return value


def action_row(outcome: Any) -> list:
    """One :class:`~repro.serviceglobe.actions.ActionOutcome` as a row.

    The same columns the ``actions.csv`` export writes, at full float
    precision; ``duration`` is simulated minutes, not wall time.
    """
    return [
        outcome.time,
        outcome.action.value,
        outcome.service_name,
        outcome.instance_id,
        outcome.source_host,
        outcome.target_host,
        outcome.applicability,
        outcome.status,
        outcome.attempts,
        outcome.duration,
        outcome.note,
    ]


def decision_digest(rows: Iterable[Sequence[Any]], summary: Mapping[str, Any]) -> str:
    """sha256 hex digest of ordered action rows plus the timing-free summary."""
    payload = {"actions": [list(row) for row in rows], "summary": without_timing(summary)}
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
