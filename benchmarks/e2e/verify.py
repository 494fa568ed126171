"""Correctness check behind ``failed`` / ``failed_ops_share``.

Every simulation point of every pass is reduced to a digest: the sha256
of the canonical JSON of ``repro.campaign.store.result_to_json(result)``
plus, where the harness holds the simulator, the ordered
``DeadlockEvent`` stream.  ``obs_level`` is normalised out of the
embedded config first — observation levels are bit-identical by contract,
so the traced pass must digest like the untraced reps.

A pass is then a ``{label: digest}`` map, and a point *fails* when its
digest is missing from a pass or differs from what was expected:

* the first rep's map, for every later rep and the traced pass (a
  deterministic simulator repeats exactly);
* an independently computed reference where the workload has one (the
  campaign drains against in-process direct runs);
* ``expected_digests.json`` for seed 1, written by ``run.py --pin``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence

from repro.campaign.store import result_to_json

from benchmarks.e2e.workloads import Point

__all__ = [
    "PINNED_PATH",
    "PINNED_SEED",
    "point_digest",
    "digest_map",
    "load_pinned",
]

PINNED_PATH = Path(__file__).resolve().parent / "expected_digests.json"
#: the seed whose digests are pinned in ``expected_digests.json``
PINNED_SEED = 1


def _event_json(event) -> list:
    """A DeadlockEvent as JSON; vertices are ints or tuples, so sets are
    ordered by ``repr``."""
    return [
        event.cycle,
        sorted(map(repr, event.knot)),
        sorted(event.deadlock_set),
        sorted(map(repr, event.resource_set)),
        event.knot_cycle_density,
        event.density_saturated,
        sorted(event.dependent),
        sorted(event.transient_dependent),
    ]


def point_digest(point: Point) -> str:
    payload = result_to_json(point.result)
    payload["config"]["obs_level"] = 0
    doc = {"result": payload}
    if point.events is not None:
        doc["events"] = [_event_json(e) for e in point.events]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_map(points: Sequence[Point]) -> dict[str, str]:
    return {p.label: point_digest(p) for p in points}


def load_pinned(sizes_name: str, workload: str) -> Optional[dict[str, str]]:
    """The pinned ``{label: digest}`` map, or ``None`` when nothing is
    pinned for this workload at these sizes."""
    try:
        pinned = json.loads(PINNED_PATH.read_text())
    except FileNotFoundError:
        return None
    return pinned.get(sizes_name, {}).get(workload)
