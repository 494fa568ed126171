"""Tests for engine arbitration (service order) policies."""

import pytest

from repro.config import tiny_default
from repro.errors import ConfigurationError
from repro.network.simulator import NetworkSimulator


def run(arbitration, seed=1, **overrides):
    params = dict(
        arbitration=arbitration,
        load=0.8,
        measure_cycles=1200,
        warmup_cycles=100,
        seed=seed,
        validation_level=2,
    )
    params.update(overrides)
    return NetworkSimulator(tiny_default(**params)).run()


class TestPolicies:
    @pytest.mark.parametrize(
        "policy", ["random", "oldest-first", "round-robin"]
    )
    def test_all_policies_deliver(self, policy):
        result = run(policy)
        assert result.delivered > 0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_default(arbitration="coin-flip").validate()

    def test_policies_are_deterministic(self):
        for policy in ("oldest-first", "round-robin", "random"):
            a = run(policy, seed=4)
            b = run(policy, seed=4)
            assert a.delivered == b.delivered
            assert a.deadlocks == b.deadlocks

    def test_policies_differ_behaviourally(self):
        """Different arbitration produces (generally) different schedules."""
        results = {p: run(p, seed=2) for p in ("random", "oldest-first")}
        # identical workload, different outcome ordering: latency sums differ
        assert (
            results["random"].latency_sum
            != results["oldest-first"].latency_sum
        )


class TestServiceOrderUnit:
    def _sim(self, policy):
        return NetworkSimulator(tiny_default(arbitration=policy))

    def test_oldest_first_sorts_by_id(self):
        from repro.network.message import Message

        sim = self._sim("oldest-first")
        msgs = [Message(i, 0, 1, 2, 0) for i in (5, 2, 9)]
        assert [m.id for m in sim._service_order(msgs)] == [2, 5, 9]

    def test_round_robin_rotates(self):
        from repro.network.message import Message

        sim = self._sim("round-robin")
        msgs = [Message(i, 0, 1, 2, 0) for i in range(4)]
        first = [m.id for m in sim._service_order(list(msgs))]
        second = [m.id for m in sim._service_order(list(msgs))]
        assert sorted(first) == [0, 1, 2, 3]
        assert first != second  # the starting point rotated

    def test_round_robin_empty(self):
        sim = self._sim("round-robin")
        assert sim._service_order([]) == []


class TestStarvationMetrics:
    def test_max_blocked_duration_tracked(self):
        result = run("random", load=1.0, routing="dor", num_vcs=1, seed=3)
        assert result.max_blocked_duration > 0
        assert result.max_latency >= result.avg_latency

    def test_oldest_first_bounds_blocked_tail(self):
        """Age priority should not make the starvation tail worse."""
        rnd = run("random", load=1.0, seed=6)
        old = run("oldest-first", load=1.0, seed=6)
        # soft check: same order of magnitude (both bounded by run length)
        assert old.max_blocked_duration <= max(
            2 * rnd.max_blocked_duration, 400
        )
