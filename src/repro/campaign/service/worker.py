"""The remote campaign worker: claim → execute → report, over TCP.

``repro campaign worker --connect HOST:PORT`` runs :func:`run_worker`,
which connects a :class:`WorkerSession` to a campaign service and drains
points until the service says ``done``.  Points run the runner's own
point job under its one retry / timeout rule (:func:`~repro.campaign.
service.executor.run_lease`), so the artifact a remote worker ships back
is byte-identical to what the service's host would have written itself.
The session holds one :class:`~repro.metrics.sweep.SlotPool` and one
scratch :class:`~repro.campaign.store.ResultStore` from connect to
disconnect: every lease runs on the same reused point process unless a
timeout or a crash retires it, writes its artifact into that store, and
the session reads it back once to ship it.

While the main thread is blocked inside a point, a side thread heartbeats
the lease so the scheduler knows the worker is alive (heartbeats are
unacknowledged — see :mod:`repro.campaign.service.protocol`).  The
``drop-lease-heartbeat`` injectable fault (:mod:`repro.faults`) suppresses
those heartbeats for matching points, which is how the test-suite proves
the scheduler's reaper actually detects silent workers and requeues their
points.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from typing import Optional

from repro.campaign.service import protocol
from repro.campaign.service.executor import run_lease
from repro.campaign.store import SCHEMA_VERSION, ResultStore
from repro.errors import ReproError
from repro.faults import active_faults, point_fault_matches
from repro.metrics.sweep import SlotPool

__all__ = ["WorkerSession", "run_worker", "WorkerError"]


class WorkerError(ReproError):
    """The service refused this worker or the session broke irrecoverably."""


class WorkerSession:
    """One worker's connection to a campaign service.

    Parameters
    ----------
    host / port:
        The service's worker-protocol endpoint.
    worker_id:
        Stable identity reported to the scheduler; defaults to
        ``hostname/pid``.
    retries / backoff_s / timeout_s:
        Per-point slot machinery knobs (worker-side retries are internal
        to a lease — the scheduler only sees the final outcome).
    max_points:
        Stop after executing this many points (``None`` = until drained);
        used by tests and batch-queue wrappers.
    exit_when_done:
        When ``False``, keep polling after a ``done`` — for workers that
        outlive one campaign.  The default exits cleanly.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: Optional[str] = None,
        schema_version: int = SCHEMA_VERSION,
        retries: int = 2,
        backoff_s: float = 0.25,
        timeout_s: Optional[float] = None,
        max_points: Optional[int] = None,
        exit_when_done: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.worker_id = worker_id or f"{socket.gethostname()}/{os.getpid()}"
        self.schema_version = schema_version
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.max_points = max_points
        self.exit_when_done = exit_when_done
        self.heartbeat_s = 5.0  # overwritten by the welcome message
        self.stats = {"claims": 0, "points_done": 0, "points_failed": 0}
        self._sock: Optional[socket.socket] = None
        self._fh = None
        self._send_lock = threading.Lock()
        self._pool: Optional[SlotPool] = None
        self._store: Optional[ResultStore] = None

    # -- wire helpers ------------------------------------------------------------
    def _send(self, message: dict) -> None:
        with self._send_lock:
            protocol.send_line(self._sock, message)

    def _recv(self) -> dict:
        message = protocol.recv_line(self._fh)
        if message is None:
            raise WorkerError("service closed the connection")
        if message["type"] == "error":
            raise WorkerError(f"service error: {message.get('detail')}")
        return message

    # -- session -----------------------------------------------------------------
    def run(self) -> dict:
        """Drain points until done (or ``max_points``); returns stats."""
        self._sock = socket.create_connection((self.host, self.port), timeout=30.0)
        self._sock.settimeout(None)
        self._fh = self._sock.makefile("rb")
        self._pool = SlotPool()  # one slot process for the whole session
        scratch = tempfile.TemporaryDirectory(prefix="repro-worker-")
        self._store = ResultStore(scratch.name, schema_version=self.schema_version)
        try:
            self._send(
                {
                    "type": "hello",
                    "worker": self.worker_id,
                    "schema_version": self.schema_version,
                    "protocol_version": protocol.PROTOCOL_VERSION,
                }
            )
            welcome = self._recv()
            if welcome["type"] != "welcome":
                raise WorkerError(f"expected welcome, got {welcome['type']!r}")
            self.heartbeat_s = float(welcome.get("heartbeat_s", self.heartbeat_s))
            while True:
                if (
                    self.max_points is not None
                    and self.stats["points_done"] + self.stats["points_failed"]
                    >= self.max_points
                ):
                    break
                self._send({"type": "claim"})
                reply = self._recv()
                if reply["type"] == "done":
                    if self.exit_when_done:
                        break
                    time.sleep(0.5)
                elif reply["type"] == "idle":
                    time.sleep(float(reply.get("retry_after_s", 0.5)))
                elif reply["type"] == "lease":
                    self._run_lease(reply)
                else:
                    raise WorkerError(
                        f"unexpected claim reply {reply['type']!r}"
                    )
            try:
                self._send({"type": "bye"})
            except OSError:
                pass
        finally:
            self._pool.close()
            scratch.cleanup()
            try:
                self._fh.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._fh = None
        return dict(self.stats)

    def _run_lease(self, lease: dict) -> None:
        self.stats["claims"] += 1
        digest = lease["digest"]
        # the drop-lease-heartbeat fault silences this lease's heartbeats so
        # the suite can prove the reaper notices (sampled per lease, here)
        silent = "drop-lease-heartbeat" in active_faults() and point_fault_matches(
            lease.get("label", "")
        )
        stop = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop, args=(digest, stop, silent), daemon=True
        )
        beater.start()
        try:
            outcome = run_lease(lease, self._pool, self._store, self)
        finally:
            stop.set()
            beater.join(timeout=5.0)
        if outcome["ok"]:
            self._send(
                {
                    "type": "result",
                    "digest": digest,
                    "artifact": self._store.read_artifact(digest),
                    "attempts": outcome["attempts"],
                    "slot_forks": outcome["slot_forks"],
                }
            )
            self._recv()  # ack; stale/duplicate verdicts are fine to ignore
            self.stats["points_done"] += 1
        else:
            self._send(
                {
                    "type": "point-failed",
                    "digest": digest,
                    "error": outcome["error"],
                    "kind": outcome["kind"],
                    "attempts": outcome["attempts"],
                    "slot_forks": outcome["slot_forks"],
                }
            )
            self._recv()
            self.stats["points_failed"] += 1

    def _heartbeat_loop(
        self, digest: str, stop: threading.Event, silent: bool
    ) -> None:
        while not stop.wait(self.heartbeat_s):
            if silent:
                continue
            try:
                self._send({"type": "heartbeat", "digest": digest})
            except OSError:
                return  # main thread will see the broken socket


def run_worker(
    host: str,
    port: int,
    **kwargs,
) -> dict:
    """Connect one :class:`WorkerSession` and drain; returns its stats."""
    return WorkerSession(host, port, **kwargs).run()
