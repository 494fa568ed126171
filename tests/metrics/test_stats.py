"""Unit tests for statistics collection and derived metrics."""

import pytest

from repro.config import tiny_default
from repro.metrics.stats import RunResult, StatsCollector
from repro.network.message import Message
from repro.network.topology import KAryNCube


def make_result(**kw):
    defaults = dict(config=tiny_default(), measured_cycles=1000)
    defaults.update(kw)
    return RunResult(**defaults)


class TestRunResultDerived:
    def test_normalized_deadlocks(self):
        r = make_result(delivered=90, recovered=10, deadlocks=5)
        assert r.delivered_total == 100
        assert r.normalized_deadlocks == pytest.approx(0.05)

    def test_normalized_deadlocks_zero_delivered(self):
        assert make_result(deadlocks=0).normalized_deadlocks == 0.0
        assert make_result(deadlocks=3).normalized_deadlocks == float("inf")

    def test_set_size_aggregates(self):
        r = make_result(deadlock_set_sizes=[2, 4, 6], resource_set_sizes=[8, 16])
        assert r.avg_deadlock_set_size == 4.0
        assert r.avg_resource_set_size == 12.0

    def test_empty_aggregates_are_zero(self):
        r = make_result()
        assert r.avg_deadlock_set_size == 0.0
        assert r.avg_knot_cycle_density == 0.0
        assert r.avg_cycle_count == 0.0
        assert r.avg_latency == 0.0

    def test_throughput(self):
        r = make_result(delivered_flits=16000, measured_cycles=1000)
        per_node = 16000 / (1000 * 16)
        assert r.throughput_flits_per_node_cycle == pytest.approx(per_node)
        assert r.normalized_throughput(per_node * 2) == pytest.approx(0.5)
        assert r.normalized_throughput(0.0) == 0.0

    def test_latency(self):
        r = make_result(latency_sum=500, latency_count=10)
        assert r.avg_latency == 50.0

    def test_summary_is_single_line(self):
        assert "\n" not in make_result().summary()


class TestStatsCollector:
    def test_warmup_events_excluded(self):
        cfg = tiny_default(warmup_cycles=100)
        collector = StatsCollector(cfg, KAryNCube(4, 2))
        m = Message(0, 0, 1, 8, created_cycle=0)
        m.completed_cycle = 50
        collector.on_delivered(m, cycle=50)  # during warmup
        collector.on_generated(cycle=100)  # boundary: still warmup
        assert collector._result.delivered == 0
        assert collector._result.generated == 0
        collector.on_delivered(m, cycle=101)
        assert collector._result.delivered == 1

    def test_recovered_vs_aborted(self):
        cfg = tiny_default(warmup_cycles=0)
        collector = StatsCollector(cfg, KAryNCube(4, 2))
        m1 = Message(0, 0, 1, 8, created_cycle=0)
        m1.remove_from_network(10, delivered=True)
        collector.on_recovered(m1, cycle=10)
        m2 = Message(1, 0, 1, 8, created_cycle=0)
        m2.remove_from_network(10, delivered=False)
        collector.on_recovered(m2, cycle=10)
        assert collector._result.recovered == 1
        assert collector._result.aborted == 1
        # only the Disha-delivered flits count toward throughput
        assert collector._result.delivered_flits == 8
