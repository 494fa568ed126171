"""The service's local slots: woken by events, robust to a failing point,
retrying and killing points by the runner's rule, writing the runner's
bytes straight into the store, and leaving no process behind.

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
from repro.campaign import CampaignRunner, ResultStore
from repro.campaign.service import (
    CampaignService,
    LocalForkExecutor,
    ServiceRunner,
    protocol,
)
from repro.campaign.service import executor as executor_module
from repro.campaign.service import server as server_module
from repro.config import tiny_default
from repro.obs.registry import merge_into

FAST = dict(measure_cycles=300, warmup_cycles=50)
LOADS = [0.3, 0.6, 0.9, 1.2]


def artifact_bytes(store):
    return {p.name: p.read_bytes() for p in store.points_dir.glob("*.json")}


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
    def test_exception_from_run_lease_fails_the_point_not_the_slot(
        self, tmp_path, monkeypatch
    ):
        real = executor_module.run_lease
        calls = []

        def disk_full_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "run_lease", disk_full_once)
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


#: one point fault per row: the knobs both backends run it under, and the
#: manifest entry it must leave for the faulted point (L=0.30); the point
#: after it (L=0.60) must still complete
FAULT_TABLE = [
    ("flaky-point", dict(retries=2, backoff_s=0.01), dict(status="done", attempts=2)),
    (
        "crash-point",
        dict(retries=1, backoff_s=0.01),
        dict(
            status="failed", kind="error", attempts=2,
            error="RuntimeError: injected crash-point for {label}",
        ),
    ),
    (
        "hang-point",
        dict(retries=0, timeout_s=0.5),
        dict(
            status="failed", kind="timeout", attempts=1,
            error="point exceeded 0.5s wall-clock timeout; worker killed",
        ),
    ),
]


def _entries(store, digests):
    """The manifest fields a fault decides, per digest."""
    points = store.load_manifest()["points"]
    return [
        {key: points[d].get(key) for key in ("status", "kind", "attempts", "error")}
        for d in digests
    ]


class TestLocalSlotFailurePath:
    """Local slots retry, back off and kill hung points through the same
    rule as :class:`CampaignRunner`, and record the same outcome."""

    @pytest.mark.parametrize("fault,knobs,expected", FAULT_TABLE)
    def test_same_fault_same_manifest_entry(
        self, tmp_path, monkeypatch, fault, knobs, expected
    ):
        base = tiny_default(**FAST)
        configs = [base.replace(load=0.3), base.replace(load=0.6)]
        monkeypatch.setenv(faults.ENV_VAR, fault)
        monkeypatch.setenv(faults.MATCH_ENV_VAR, "L=0.30")
        stores = {}
        for backend in ("runner", "service"):
            # first-attempt markers are per backend, so each sees the fault
            markers = tmp_path / f"markers-{backend}"
            markers.mkdir()
            monkeypatch.setenv(faults.DIR_ENV_VAR, str(markers))
            store = stores[backend] = ResultStore(tmp_path / backend)
            if backend == "runner":
                CampaignRunner(store, max_workers=1, **knobs).run_points(configs)
            else:
                with CampaignService(store, local_workers=1, **knobs) as svc:
                    ServiceRunner(svc, wait_timeout_s=30.0).run_points(configs)
        digests = [stores["runner"].digest(c) for c in configs]
        entry = {"kind": None, "error": None, **expected}
        if entry["error"] is not None:
            entry["error"] = entry["error"].format(label=configs[0].label())
        after = dict(status="done", kind=None, attempts=1, error=None)
        assert _entries(stores["runner"], digests) == [entry, after]
        assert _entries(stores["service"], digests) == [entry, after]


class TestStoreBytes:
    def test_two_local_slots_write_the_cold_drain_bytes_in_place(
        self, tmp_path, monkeypatch
    ):
        """Local slots write each artifact straight into the service's
        store: the bytes are a cold runner drain's, and the service's
        check-and-write path for shipped artifacts is never taken."""
        base = tiny_default(**FAST)
        configs = [
            base.replace(load=load, seed=seed) for seed in (1, 2) for load in LOADS
        ]
        cold = ResultStore(tmp_path / "cold")
        CampaignRunner(cold, max_workers=2).run_points(configs)
        shipped = []
        monkeypatch.setattr(
            ResultStore, "write_artifact", lambda store, payload: shipped.append(1)
        )
        with CampaignService(tmp_path / "service", local_workers=2) as svc:
            out = ServiceRunner(svc, wait_timeout_s=30.0).run_points(configs)
            assert svc.status_snapshot()["obs"] is None  # nothing observed
        assert out["executed"] == len(configs) and not out["failures"]
        assert shipped == []
        assert artifact_bytes(svc.store) == artifact_bytes(cold)

    def test_an_observed_point_reaches_the_merged_snapshot(self, tmp_path):
        config = tiny_default(obs_level=1, **FAST)
        with CampaignService(tmp_path / "store", local_workers=1) as svc:
            ServiceRunner(svc, wait_timeout_s=30.0).run_points([config])
            merged = svc.status_snapshot()["obs"]
        assert merged == merge_into(None, svc.store.load(config).obs)


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
