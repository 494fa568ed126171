"""Unit tests for the metrics registry (counters/gauges/histograms)."""

import json
import random

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)


class TestHistogramBucketing:
    def test_value_lands_in_first_bucket_with_bound_gte_value(self):
        h = Histogram(bounds=(1, 5, 10))
        h.observe(0)  # <= 1  -> bin 0
        h.observe(1)  # == 1  -> bin 0 (bounds are inclusive upper bounds)
        h.observe(2)  # <= 5  -> bin 1
        h.observe(5)  # == 5  -> bin 1
        h.observe(7)  # <= 10 -> bin 2
        h.observe(11)  # overflow bin
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.total == 26

    def test_overflow_bin_exists_beyond_last_bound(self):
        h = Histogram(bounds=(10,))
        assert len(h.counts) == 2
        h.observe(1e9)
        assert h.counts == [0, 1]

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(5, 5))
        with pytest.raises(ValueError):
            Histogram(bounds=(5, 1))


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set(self):
        g = Gauge()
        g.set(3.0)
        g.set(2.0)
        assert g.value == 2.0

    def test_registry_instruments_are_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_set_counters_bulk_load_with_prefix(self):
        reg = MetricsRegistry()
        reg.set_counters({"hits": 3, "misses": 1}, prefix="cache/")
        snap = reg.snapshot()
        assert snap["counters"] == {"cache/hits": 3, "cache/misses": 1}

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2.5)
        reg.histogram("h").observe(3)
        text = json.dumps(reg.snapshot())
        restored = json.loads(text)
        assert restored["counters"] == {"c": 1}
        assert restored["gauges"] == {"g": 2.5}
        assert restored["histograms"]["h"]["count"] == 1


def _random_snapshot(rng):
    reg = MetricsRegistry()
    for name in ("a", "b", "c"):
        if rng.random() < 0.8:
            reg.counter(name).inc(rng.randrange(10))
    for name in ("g1", "g2"):
        if rng.random() < 0.8:
            reg.gauge(name).set(rng.randrange(100))
    h = reg.histogram("h", bounds=(1, 5, 10))
    for _ in range(rng.randrange(6)):
        h.observe(rng.randrange(15))
    snap = reg.snapshot()
    snap["phases"] = {
        "engine/allocate": {
            # dyadic fractions add exactly in binary floating point, keeping
            # the associativity assertion exact rather than approximate
            "total_s": rng.randrange(40) / 8,
            "calls": rng.randrange(1, 50),
        }
    }
    snap["trace"] = {"events": rng.randrange(100), "dropped": rng.randrange(3)}
    return snap


class TestMergeSnapshots:
    def test_counters_sum_gauges_max_bins_sum(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(5)
        a.histogram("h", bounds=(1, 5)).observe(3)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.counter("only_b").inc(1)
        b.gauge("g").set(4)
        b.histogram("h", bounds=(1, 5)).observe(7)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"c": 5, "only_b": 1}
        assert merged["gauges"] == {"g": 5}
        assert merged["histograms"]["h"]["counts"] == [0, 1, 1]
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["total"] == 10

    def test_none_entries_skipped_and_all_none_is_none(self):
        assert merge_snapshots([None, None]) is None
        reg = MetricsRegistry()
        reg.counter("c").inc()
        merged = merge_snapshots([None, reg.snapshot(), None])
        assert merged["counters"] == {"c": 1}

    def test_merge_does_not_mutate_inputs(self):
        a = MetricsRegistry()
        a.counter("c").inc(1)
        b = MetricsRegistry()
        b.counter("c").inc(2)
        sa, sb = a.snapshot(), b.snapshot()
        merge_snapshots([sa, sb])
        assert sa["counters"] == {"c": 1}
        assert sb["counters"] == {"c": 2}

    def test_mismatched_histogram_bounds_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", bounds=(1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", bounds=(1, 3)).observe(1)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_is_associative(self):
        """(a+b)+c == a+(b+c) over randomized snapshots — the property that
        makes pool-order-independent sweep rollups correct."""
        rng = random.Random(42)
        for _ in range(25):
            a, b, c = (_random_snapshot(rng) for _ in range(3))
            left = merge_snapshots([merge_snapshots([a, b]), c])
            right = merge_snapshots([a, merge_snapshots([b, c])])
            assert left == right

    def test_merge_is_commutative_up_to_float_ordering(self):
        rng = random.Random(7)
        a, b = _random_snapshot(rng), _random_snapshot(rng)
        ab = merge_snapshots([a, b])
        ba = merge_snapshots([b, a])
        assert ab["counters"] == ba["counters"]
        assert ab["gauges"] == ba["gauges"]
        assert ab["histograms"] == ba["histograms"]
        assert ab["trace"] == ba["trace"]
        for name in ab["phases"]:
            assert ab["phases"][name]["calls"] == ba["phases"][name]["calls"]
            assert ab["phases"][name]["total_s"] == pytest.approx(
                ba["phases"][name]["total_s"]
            )
