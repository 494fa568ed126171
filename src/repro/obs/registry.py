"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry is the accounting surface of the observability subsystem
(:mod:`repro.obs`): a run at ``obs_level >= 1`` holds a live
:class:`MetricsRegistry`; at level 0 there is none, and instrumented call
sites check ``sim.obs.enabled`` first.

Snapshots are plain JSON-able dicts so slot processes can persist them
beside each point's result (:mod:`repro.campaign.store`), and a sweep
parent folds them into a whole-sweep rollup with :func:`merge_snapshots`.
Merging is associative and commutative — counters and histogram buckets
add, gauges keep their maximum — so per-config and whole-sweep rollups
agree regardless of completion order (asserted by
``tests/obs/test_registry.py``).
"""

from __future__ import annotations

import bisect
import copy
from typing import Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "merge_into",
    "DEFAULT_BUCKETS",
]

#: default histogram bucket upper bounds: a coarse log-ish ladder that
#: covers per-pass counts (blocked messages, regions, knot sizes) without
#: per-metric tuning
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000,
)


class Counter:
    """A monotonically-increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; merges across processes by maximum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bin.

    ``buckets`` are strictly-increasing upper bounds; an observation lands
    in the first bucket whose bound is >= the value, or in the overflow
    bin past the last bound.  Fixed bounds make cross-process merging an
    element-wise sum.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(bounds)
        if not bounds or any(
            b >= c for b, c in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram bounds must be non-empty and strictly "
                f"increasing, got {bounds}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Named instruments, created on first use.

    Names are free-form slash-separated paths (``"detector/region_hits"``);
    the convention groups instruments by the subsystem that owns them.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            self.counters[name] = c = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            self.gauges[name] = g = Gauge()
        return g

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            self.histograms[name] = h = Histogram(bounds)
        return h

    def set_counters(self, values: dict[str, int], prefix: str = "") -> None:
        """Bulk-load externally-maintained counters (e.g. detector stats)."""
        for name, value in values.items():
            c = self.counter(prefix + name)
            c.value = int(value)

    def snapshot(self) -> dict:
        """A plain JSON-able copy of every instrument's current state."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "count": h.count,
                }
                for n, h in sorted(self.histograms.items())
            },
        }


def _merge_histogram(into: dict, frm: dict, name: str) -> None:
    if into["bounds"] != frm["bounds"]:
        raise ValueError(
            f"histogram {name!r} bucket bounds differ across snapshots: "
            f"{into['bounds']} vs {frm['bounds']}"
        )
    into["counts"] = [a + b for a, b in zip(into["counts"], frm["counts"])]
    into["total"] += frm["total"]
    into["count"] += frm["count"]


def merge_into(merged: Optional[dict], snap: Optional[dict]) -> Optional[dict]:
    """Fold one registry snapshot into an accumulator, incrementally.

    The one-step form of :func:`merge_snapshots`, used where snapshots
    arrive over time rather than as a finished collection (the campaign
    service merges each completed point's snapshot into its live rollup
    as results stream in).  Returns the updated accumulator; the input
    ``merged`` may be mutated.  ``None`` snapshots are identity.
    """
    if snap is None:
        return merged
    if merged is None:
        return copy.deepcopy(snap)
    for name, value in snap.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    for name, value in snap.get("gauges", {}).items():
        prev = merged["gauges"].get(name)
        merged["gauges"][name] = value if prev is None else max(prev, value)
    for name, hist in snap.get("histograms", {}).items():
        mine = merged["histograms"].get(name)
        if mine is None:
            merged["histograms"][name] = copy.deepcopy(hist)
        else:
            _merge_histogram(mine, hist, name)
    if "phases" in snap:
        phases = merged.setdefault("phases", {})
        for name, row in snap["phases"].items():
            mine = phases.get(name)
            if mine is None:
                phases[name] = dict(row)
            else:
                mine["total_s"] += row["total_s"]
                mine["calls"] += row["calls"]
    if "trace" in snap:
        tr = merged.setdefault("trace", {"events": 0, "dropped": 0})
        tr["events"] = tr.get("events", 0) + snap["trace"].get("events", 0)
        tr["dropped"] = tr.get("dropped", 0) + snap["trace"].get("dropped", 0)
    return merged


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> Optional[dict]:
    """Fold registry snapshots into one rollup (associative, commutative).

    Counters and histogram bins sum, gauges keep the maximum, and phase
    tables (the profiler's ``"phases"`` section, when present) sum both
    accumulated seconds and call counts.  ``None`` entries (points run with
    observability off) are skipped; all-``None`` input merges to ``None``.
    """
    merged: Optional[dict] = None
    for snap in snapshots:
        merged = merge_into(merged, snap)
    return merged
