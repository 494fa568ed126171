"""Lease scheduler semantics, driven directly with a fake clock.

The scheduler is a pure single-threaded state machine (no I/O, injectable
clock), so every distributed-failure scenario — dead workers, silent
workers, slow workers racing their own reclaimed leases — reduces to a
deterministic unit test here.  The cross-process versions of the same
scenarios live in ``test_service_tcp.py``.
"""

import pytest

from repro.campaign.service import protocol
from repro.campaign.service.scheduler import LEASE_EXPIRED_KIND, LeaseScheduler


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def scheduler(clock, **kw):
    kw.setdefault("lease_ttl", 10.0)
    return LeaseScheduler(clock=clock, **kw)


def submit(sched, digest, *, load=0.3):
    return sched.submit(digest, {"cfg": digest}, f"label-{digest}", load, 1)


class TestClaiming:
    def test_claims_are_fifo(self, clock):
        sched = scheduler(clock)
        for digest in ("d1", "d2", "d3"):
            submit(sched, digest)
        got = [sched.claim("w")["digest"] for _ in range(2)]
        assert got == ["d1", "d2"]
        # d1 is reaped and requeued behind d3, which was queued before it
        sched.complete("w", "d2")
        clock.advance(10.1)
        assert sched.reap() == ["d1"]
        submit(sched, "d4")
        got = [sched.claim("w")["digest"] for _ in range(3)]
        assert got == ["d3", "d1", "d4"]
        assert sched.claim("w") is None

    def test_duplicate_submit_is_refused(self, clock):
        sched = scheduler(clock)
        assert submit(sched, "d1") is True
        assert submit(sched, "d1") is False
        assert sched.counters["submitted"] == 1

    def test_lease_carries_config_and_attempt(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        lease = sched.claim("w")
        assert lease["config"] == {"cfg": "d1"}
        assert lease["attempt"] == 1


class TestLeaseLifecycle:
    def test_heartbeat_extends_the_lease(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        clock.advance(8.0)
        assert sched.heartbeat("w1", "d1") is True
        clock.advance(8.0)  # 16s since grant, but only 8 since heartbeat
        assert sched.reap() == []
        assert sched.points["d1"].status == "leased"

    def test_silent_lease_is_reaped_and_requeued(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        clock.advance(10.1)
        assert sched.reap() == ["d1"]
        assert sched.points["d1"].status == "pending"
        assert sched.counters["leases_reclaimed"] == 1
        # a sibling picks it up; attempt count reflects the history
        assert sched.claim("w2")["attempt"] == 2

    def test_requeue_limit_degrades_to_terminal_failure(self, clock):
        sched = scheduler(clock, requeue_limit=2)
        submit(sched, "d1")
        for n in (1, 2):
            assert sched.claim(f"w{n}")["digest"] == "d1"
            clock.advance(10.1)
            sched.reap()
        point = sched.points["d1"]
        assert point.status == "failed"
        assert point.kind == LEASE_EXPIRED_KIND
        assert sched.is_drained()

    def test_disconnect_requeues_immediately(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.connect_worker("w1")
        sched.claim("w1")
        assert sched.disconnect_worker("w1") == ["d1"]
        assert sched.points["d1"].status == "pending"
        # no TTL wait: a sibling claims right away
        assert sched.claim("w2")["digest"] == "d1"

    def test_heartbeat_for_lost_lease_is_refused(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        clock.advance(10.1)
        sched.reap()
        assert sched.heartbeat("w1", "d1") is False


class TestResultArbitration:
    def test_live_lease_completion_is_ok(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        assert sched.complete("w1", "d1") == "ok"
        assert sched.is_drained(["d1"])

    def test_slow_worker_result_accepted_while_point_open(self, clock):
        """Reclaimed-but-correct: determinism makes the stale result safe."""
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        clock.advance(10.1)
        sched.reap()  # w1's lease reclaimed; point pending again
        assert sched.complete("w1", "d1") == "stale"
        assert sched.points["d1"].status == "done"
        # the requeued copy never needs to run
        assert sched.claim("w2") is None

    def test_result_after_completion_is_duplicate(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        sched.complete("w1", "d1")
        assert sched.complete("w2", "d1") == "duplicate"
        assert sched.counters["duplicate_results"] == 1

    def test_worker_reported_failure_is_terminal(self, clock):
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        assert sched.fail("w1", "d1", "sim exploded", kind="error") == "failed"
        point = sched.points["d1"]
        assert point.status == "failed" and point.error == "sim exploded"

    def test_stale_failure_is_dropped(self, clock):
        """A reclaimed worker's failure must not kill a point that is
        being retried elsewhere."""
        sched = scheduler(clock)
        submit(sched, "d1")
        sched.claim("w1")
        clock.advance(10.1)
        sched.reap()
        assert sched.fail("w1", "d1", "late crash") == "stale"
        assert sched.points["d1"].status == "pending"

    def test_unknown_digest_reports(self, clock):
        sched = scheduler(clock)
        assert sched.complete("w1", "nope") == "unknown"
        assert sched.fail("w1", "nope", "err") == "unknown"


class TestStatusSnapshot:
    def test_snapshot_is_json_able_and_complete(self, clock):
        import json

        sched = scheduler(clock)
        submit(sched, "d1")
        submit(sched, "d2")
        sched.claim("w1")
        status = sched.status()
        json.dumps(status)  # must serialize
        assert status["points"]["total"] == 2
        assert status["points"]["leased"] == 1
        assert status["leases"]["d1"]["worker"] == "w1"
        assert status["workers"]["w1"]["leases"] == ["d1"]


class TestProtocolFraming:
    def test_encode_decode_round_trip(self):
        message = {"type": "result", "digest": "d1", "artifact": {"a": [1, 2]}}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_non_objects_and_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2, 3]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"no_type": 1}\n')

    def test_encoded_messages_are_single_lines(self):
        line = protocol.encode({"type": "x", "s": "multi\nline"})
        assert line.count(b"\n") == 1 and line.endswith(b"\n")
