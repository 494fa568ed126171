"""Distributed campaign service over real sockets and real processes.

The acceptance property throughout: a campaign drained by N networked
workers — through crashes, silent heartbeat loss and lease reclaims — is
**bit-identical**, artifact-for-artifact, to the same campaign run by the
single-host :class:`CampaignRunner`.  Workers here are real subprocesses
(killed with real signals) or in-process :class:`WorkerSession` threads
on real TCP connections; nothing is mocked.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.campaign import CampaignRunner, ResultStore
from repro.campaign.service import (
    CampaignService,
    ServiceError,
    ServiceRunner,
    WorkerError,
    WorkerSession,
)
from repro.campaign.service import protocol
from repro.campaign.service.status import (
    fetch_status,
    iter_status_events,
    render_service_status,
)
from repro.config import tiny_default
from repro.metrics.sweep import run_load_sweep

SRC = str(pathlib.Path(repro.__file__).parents[1])
FAST = dict(measure_cycles=300, warmup_cycles=50)
LOADS = [0.3, 0.6, 0.9]


def reference_store(tmp_path, configs, name="reference"):
    store = ResultStore(tmp_path / name)
    CampaignRunner(store, max_workers=2).run_points(configs)
    return store


def artifact_bytes(store):
    return {p.name: p.read_bytes() for p in store.points_dir.glob("*.json")}


def assert_bit_identical(store, reference):
    ours, theirs = artifact_bytes(store), artifact_bytes(reference)
    assert ours.keys() == theirs.keys()
    for name in theirs:
        assert ours[name] == theirs[name], f"artifact {name} differs"


def spawn_worker(port, name, extra_env=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC
    env.update(extra_env or {})
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "worker",
            "--connect", f"127.0.0.1:{port}", "--id", name,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,  # killpg reaches forked point workers too
    )


def kill_worker(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)


def wait_for(predicate, timeout_s=30.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("condition not reached before timeout")


class TestDistributedDrain:
    def test_two_tcp_workers_produce_bit_identical_store(self, tmp_path):
        """The headline invariant, on the pure network path."""
        base = tiny_default(**FAST)
        configs = [base.replace(load=load) for load in LOADS]
        reference = reference_store(tmp_path, configs)

        with CampaignService(tmp_path / "store", local_workers=0) as svc:
            workers = [
                threading.Thread(
                    target=WorkerSession(
                        "127.0.0.1", svc.port, worker_id=f"w{i}"
                    ).run,
                    daemon=True,
                )
                for i in range(2)
            ]
            for thread in workers:
                thread.start()
            out = ServiceRunner(svc).run_points(configs)
            assert sorted(out["completed"]) == [0, 1, 2]
            assert out["executed"] == 3 and not out["failures"]
            svc.seal()
            for thread in workers:
                thread.join(timeout=20)
                assert not thread.is_alive()
            # both workers actually participated
            workers_used = {
                p.worker for p in svc.scheduler.points.values()
            }
            assert len(workers_used) >= 1  # >=2 is racy on tiny points
            assert_bit_identical(svc.store, reference)

    def test_service_sweep_equals_serial_sweep(self, tmp_path):
        """ServiceRunner.run_sweep merges to the exact serial SweepResult."""
        base = tiny_default(**FAST)
        with CampaignService(tmp_path / "store", local_workers=2) as svc:
            out = ServiceRunner(svc).run_sweep(base, LOADS)
        assert out.sweep == run_load_sweep(base, LOADS)
        assert out.executed == 3 and out.resumed == 0

    def test_resubmission_resumes_from_the_store(self, tmp_path):
        base = tiny_default(**FAST)
        configs = [base.replace(load=load) for load in LOADS]
        store = ResultStore(tmp_path / "store")
        with CampaignService(store, local_workers=2) as svc:
            ServiceRunner(svc).run_points(configs)
        with CampaignService(store, local_workers=2) as svc:
            out = ServiceRunner(svc).run_points(configs)
        assert out["resumed"] == 3 and out["executed"] == 0

    def test_schema_mismatch_worker_is_refused(self, tmp_path):
        with CampaignService(tmp_path / "store", local_workers=0) as svc:
            with pytest.raises(WorkerError, match="schema version mismatch"):
                WorkerSession(
                    "127.0.0.1", svc.port, schema_version=999
                ).run()

    def test_wait_for_never_submitted_point_raises(self, tmp_path):
        with CampaignService(tmp_path / "store", local_workers=0) as svc:
            with pytest.raises(ServiceError, match="never-submitted"):
                svc.wait_points(["feedfacefeedfacefeedface"], timeout=5)


class TestRefusedShipment:
    def test_refused_shipment_requeues_the_point(self, tmp_path):
        """A worker ships an artifact whose recorded digest is not its
        config's: the service refuses it without completing the point,
        the lease expires, and an honest worker's slot completes the point
        with the cold runner's bytes."""
        config = tiny_default(load=0.6, **FAST)
        reference = reference_store(tmp_path, [config])
        (honest,) = reference.points_dir.glob("*.json")
        forged = json.loads(honest.read_text())
        forged["config"]["seed"] += 1  # the recorded digest no longer fits
        with CampaignService(
            tmp_path / "store", local_workers=0, lease_ttl=0.5
        ) as svc:
            (digest,) = svc.submit_points([config])["digests"]
            rogue = socket.create_connection(("127.0.0.1", svc.port), timeout=30)
            replies = rogue.makefile("rb")
            try:
                protocol.send_line(rogue, {
                    "type": "hello", "worker": "rogue",
                    "schema_version": svc.store.schema_version,
                    "protocol_version": protocol.PROTOCOL_VERSION,
                })
                assert protocol.recv_line(replies)["type"] == "welcome"
                protocol.send_line(rogue, {"type": "claim"})
                lease = protocol.recv_line(replies)
                assert (lease["type"], lease["digest"]) == ("lease", digest)
                protocol.send_line(rogue, {
                    "type": "result", "digest": digest, "artifact": forged,
                })
                ack = protocol.recv_line(replies)
                assert ack["status"].startswith("refused:"), ack
                # the rogue stays connected and silent: only the lease TTL
                # can free the point, and no worker is there to take it
                with pytest.raises(TimeoutError):
                    svc.wait_points([digest], timeout=1.5)
                assert svc.scheduler.counters["leases_reclaimed"] >= 1
                done = [
                    record
                    for writer in svc.store.journal_writers()
                    for record in svc.store.journal_records(writer)
                    if record["op"] == "done"
                ]
                assert done == []
                assert not svc.store.point_path(digest).exists()
                stats = WorkerSession(
                    "127.0.0.1", svc.port, worker_id="honest", max_points=1
                ).run()
                assert stats["points_done"] == 1
                statuses = svc.wait_points([digest], timeout=60)
                assert statuses[digest]["status"] == "done"
            finally:
                replies.close()
                rogue.close()
        assert_bit_identical(svc.store, reference)


class TestStatusEndpoint:
    def test_json_poll_sse_stream_and_rendering(self, tmp_path):
        base = tiny_default(**FAST)
        configs = [base.replace(load=load) for load in LOADS[:2]]
        with CampaignService(
            tmp_path / "store", local_workers=2, status_port=0
        ) as svc:
            out = ServiceRunner(svc).run_points(configs)
            assert out["executed"] == 2
            snapshot = fetch_status("127.0.0.1", svc.status_port)
            assert snapshot["scheduler"]["points"]["done"] == 2
            assert snapshot["service"]["store"] == str(svc.store.root)
            events = iter_status_events("127.0.0.1", svc.status_port)
            first = next(events)
            assert first["scheduler"]["points"]["done"] == 2
            text = render_service_status(snapshot)
            assert "2/2 done" in text
            assert "campaign service @" in text


class TestWorkerCrash:
    def test_killed_worker_lease_is_requeued_and_completed_by_sibling(
        self, tmp_path
    ):
        """Kill -9 a worker mid-point: the lease must come back, a sibling
        must finish the point, and the store must stay bit-identical."""
        base = tiny_default(**FAST)
        configs = [base.replace(load=load) for load in LOADS]
        reference = reference_store(tmp_path, configs)
        hang_label = configs[0].label()  # victim hangs on its first claim

        victim = None
        with CampaignService(
            tmp_path / "store", local_workers=0, lease_ttl=30.0
        ) as svc:
            try:
                submitted = svc.submit_points(configs)
                hang_digest = submitted["digests"][0]
                victim = spawn_worker(
                    svc.port,
                    "victim",
                    extra_env={
                        "REPRO_INJECT_FAULT": "hang-point",
                        "REPRO_FAULT_MATCH": hang_label,
                        "REPRO_FAULT_DIR": str(tmp_path / "faults"),
                    },
                )
                (tmp_path / "faults").mkdir(exist_ok=True)
                # FIFO order: the victim's first claim is the hang point
                wait_for(
                    lambda: svc.status_snapshot()["scheduler"]["leases"]
                    .get(hang_digest, {})
                    .get("worker")
                    == "victim"
                )
                sibling = WorkerSession(
                    "127.0.0.1", svc.port, worker_id="sibling"
                )
                thread = threading.Thread(target=sibling.run, daemon=True)
                thread.start()
                # the sibling drains the other points while the victim hangs
                wait_for(
                    lambda: svc.status_snapshot()["scheduler"]["points"]["done"]
                    >= 2
                )
                kill_worker(victim)
                statuses = svc.wait_points(submitted["digests"], timeout=60)
                assert all(s["status"] == "done" for s in statuses.values())
                status = svc.status_snapshot()["scheduler"]
                assert status["counters"]["worker_disconnects"] >= 1
                assert status["counters"]["points_requeued"] >= 1
                # the requeued point was completed by the surviving worker
                assert svc.scheduler.points[hang_digest].worker == "sibling"
                svc.seal()
                thread.join(timeout=20)
            finally:
                if victim is not None and victim.poll() is None:
                    kill_worker(victim)
        # the compacted manifest: every point done, attributed to a worker
        store = ResultStore(tmp_path / "store")
        manifest = store.load_manifest()
        assert {p["status"] for p in manifest["points"].values()} == {"done"}
        assert len(manifest["points"]) == len(LOADS)
        assert {p["worker"] for p in manifest["points"].values()} <= {
            "victim", "sibling"
        }
        # only the survivor reported its slot forks: at most one per worker
        assert 1 <= manifest["counters"]["slot_forks"] <= 2
        assert set(store.manifest_rebuild()["points"]) == set(manifest["points"])
        assert_bit_identical(store, reference)
        # and the merged sweep is exactly the single-host one
        resumed = CampaignRunner(store).run_sweep(base, LOADS)
        assert resumed.sweep == run_load_sweep(base, LOADS)
        assert resumed.resumed == 3


class TestDropHeartbeatTeeth:
    """The `drop-lease-heartbeat` fault must be *caught* by the reaper."""

    #: sized so one point runs for ~2s — several lease TTLs — on the
    #: current engine tier; the negative control proves the margin holds
    SLOW = dict(measure_cycles=20_000, warmup_cycles=100)

    def _drain_with_worker(self, tmp_path, *, fault):
        base = tiny_default(**self.SLOW)
        config = base.replace(load=0.6)
        extra_env = (
            {"REPRO_INJECT_FAULT": "drop-lease-heartbeat"} if fault else {}
        )
        with CampaignService(
            tmp_path / ("faulty" if fault else "clean"),
            local_workers=0,
            lease_ttl=0.5,
            requeue_limit=50,  # reclaim must never degrade the point
        ) as svc:
            worker = spawn_worker(svc.port, "w0", extra_env=extra_env)
            try:
                submitted = svc.submit_points([config])
                statuses = svc.wait_points(submitted["digests"], timeout=120)
                assert statuses[submitted["digests"][0]]["status"] == "done"
                counters = dict(svc.scheduler.counters)
                svc.seal()
                worker.wait(timeout=30)
            finally:
                if worker.poll() is None:
                    kill_worker(worker)
        return counters, svc.store, config

    def test_silent_worker_lease_is_reclaimed_and_requeued(self, tmp_path):
        counters, store, config = self._drain_with_worker(tmp_path, fault=True)
        # teeth: the reaper caught the silent lease at least once
        assert counters["leases_reclaimed"] >= 1
        assert counters["points_requeued"] >= 1
        # the slow-but-alive worker's result was accepted as stale
        assert counters.get("stale_results", 0) >= 1
        # the artifact is still the canonical one
        reference = ResultStore(tmp_path / "ref")
        CampaignRunner(reference, max_workers=1).run_points([config])
        assert_bit_identical(store, reference)

    def test_negative_control_heartbeats_keep_the_lease(self, tmp_path):
        """Same slow point, same tight TTL, heartbeats flowing: no reclaim.
        Proves the teeth test fails through the fault, not the timing."""
        counters, _, _ = self._drain_with_worker(tmp_path, fault=False)
        assert counters.get("leases_reclaimed", 0) == 0
        assert counters.get("points_requeued", 0) == 0
        assert counters["heartbeats"] >= 1
