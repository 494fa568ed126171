"""The service's local slots: woken by events, robust to a failing point,
and leaving no process behind.

Local slots idle on :attr:`CampaignService.work_ready` with
``idle_poll_s`` only as a fallback.  The wake-up tests stretch that
fallback to 30 s, so a drain that finishes at all within their budget was
woken, not polled.
"""

import functools
import multiprocessing
import socket
import time

import pytest

from repro import faults
from repro.campaign.service import (
    CampaignService,
    LocalForkExecutor,
    ServiceRunner,
    protocol,
)
from repro.campaign.service import executor as executor_module
from repro.campaign.service import server as server_module
from repro.config import tiny_default

FAST = dict(measure_cycles=300, warmup_cycles=50)
LOADS = [0.3, 0.6, 0.9, 1.2]


def wait_for(predicate, timeout_s=10.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached before timeout")


@pytest.fixture
def slow_poll(monkeypatch):
    """Local slots that would sleep 30 s if nothing woke them."""
    monkeypatch.setattr(
        server_module,
        "LocalForkExecutor",
        functools.partial(LocalForkExecutor, idle_poll_s=30.0),
    )


class TestWakeUp:
    def test_submit_wakes_slots_that_went_idle_first(self, tmp_path, slow_poll):
        base = tiny_default(**FAST)
        configs = [base.replace(load=load) for load in LOADS]
        with CampaignService(tmp_path / "store", local_workers=2) as svc:
            # both slots have found the scheduler empty and are waiting
            wait_for(lambda: len(svc.scheduler.workers) == 2)
            time.sleep(0.1)
            started = time.monotonic()
            out = ServiceRunner(svc, wait_timeout_s=20.0).run_points(configs)
            elapsed = time.monotonic() - started
        assert out["executed"] == 4 and not out["failures"]
        assert elapsed < 10.0  # a polled drain would need 30 s

    def test_reaped_lease_wakes_an_idle_slot(self, tmp_path, slow_poll):
        """A worker claims a point and goes silent; the reaper's requeue
        must reach the idle local slot at once."""
        base = tiny_default(**FAST)
        # long enough that the silent worker claims `stolen` while the one
        # local slot is still busy with `first`
        first = base.replace(load=0.3, measure_cycles=6_000)
        stolen = base.replace(load=0.6)
        with CampaignService(
            tmp_path / "store", local_workers=1, lease_ttl=0.5
        ) as svc:
            # fork the slot process before this process opens the worker's
            # socket: a slot forked later would inherit that socket and keep
            # the connection open, from the server's side, until stop()
            warm_up = svc.submit_points([base.replace(load=0.9)])
            svc.wait_points(warm_up["digests"], timeout=15)
            with socket.create_connection(("127.0.0.1", svc.port)) as sock:
                fh = sock.makefile("rb")
                protocol.send_line(
                    sock,
                    {
                        "type": "hello",
                        "worker": "silent",
                        # an old worker's key; the server ignores it
                        "tenant": "bulk",
                        "schema_version": svc.store.schema_version,
                        "protocol_version": protocol.PROTOCOL_VERSION,
                    },
                )
                assert protocol.recv_line(fh)["type"] == "welcome"
                submitted = svc.submit_points([first, stolen])
                protocol.send_line(sock, {"type": "claim"})
                lease = protocol.recv_line(fh)
                assert lease["type"] == "lease"
                assert lease["digest"] == submitted["digests"][1]
                # no heartbeat ever follows; the connection stays open, so
                # only the reaper can give the point back
                statuses = svc.wait_points(submitted["digests"], timeout=15)
                fh.close()
            assert all(s["status"] == "done" for s in statuses.values())
            assert svc.scheduler.counters["leases_reclaimed"] >= 1
            assert svc.scheduler.points[lease["digest"]].worker == "local/0"


class TestSlotSurvivesAFailingPoint:
    def test_exception_from_execute_point_fails_the_point_not_the_slot(
        self, tmp_path, monkeypatch
    ):
        real = executor_module.execute_point
        calls = []

        def disk_full_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "execute_point", disk_full_once)
        base = tiny_default(**FAST)
        svc = CampaignService(tmp_path / "store", local_workers=1).start()
        try:
            runner = ServiceRunner(svc, wait_timeout_s=20.0)
            out = runner.run_points([base.replace(load=0.3)])
            (failure,) = out["failures"]
            assert failure.error == "OSError: disk full"
            assert failure.kind == "error"
            # the one slot is still there to take the next point
            out = runner.run_points([base.replace(load=0.6)])
            assert out["executed"] == 1 and not out["failures"]
        finally:
            svc.stop()  # returns cleanly: no slot task died


class TestNoProcessLeftBehind:
    def test_stop_with_a_hung_point_in_flight_kills_its_slot(
        self, tmp_path, monkeypatch
    ):
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv(faults.ENV_VAR, "hang-point")
        monkeypatch.setenv(faults.DIR_ENV_VAR, str(markers))
        config = tiny_default(**FAST)
        svc = CampaignService(tmp_path / "store", local_workers=1).start()
        try:
            svc.submit_points([config])
            # the marker file says the slot process is inside the hang
            wait_for(lambda: any(markers.iterdir()))
            assert len(multiprocessing.active_children()) == 1
        finally:
            svc.stop()
        assert multiprocessing.active_children() == []
