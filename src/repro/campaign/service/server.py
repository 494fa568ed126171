"""The campaign service: scheduler + executors + store, behind one facade.

:class:`CampaignService` runs an asyncio event loop on a background
thread and exposes a small synchronous API (``start`` / ``submit_points``
/ ``wait_points`` / ``status_snapshot`` / ``stop``), so the serve CLI,
the :class:`~repro.campaign.service.runner.ServiceRunner` adapter and the
test-suite all drive it without touching asyncio themselves.

On the loop live:

* the **TCP worker server** (line-delimited JSON, see
  :mod:`repro.campaign.service.protocol`) remote machines connect to;
* the **local fork executor** (:class:`~repro.campaign.service.executor.
  LocalForkExecutor`) — N in-process slots claiming from the same
  scheduler, so one box can drain a campaign with zero network setup;
  each keeps one persistent point process, forked on its first lease
  (never in :meth:`CampaignService.start`), and idles on the
  ``work_ready`` event rather than polling;
* the **reaper**, which expires silent leases and requeues their points
  (work stealing's liveness half);
* the **compactor**, the store's single manifest writer: every completed
  or failed point is journaled append-only the moment it is known, and
  the compactor periodically folds the journal into ``manifest.json`` —
  N result producers, one index writer, no torn manifests;
* the **status server** (:mod:`repro.campaign.service.status`), polling
  JSON + SSE, when a status port is configured.

The core invariant — a campaign drained by any mix of local slots and
remote workers is bit-identical (artifact-for-artifact, digest-for-digest)
to a single-host :class:`~repro.campaign.runner.CampaignRunner` run — is
enforced by construction: every backend runs the runner's own point job
under its one retry rule (:func:`~repro.campaign.service.executor.
run_lease`).  A local slot's point process writes the artifact straight
into the service's store, once, through the same atomic store path a
runner uses; a remote worker ships the canonical artifact JSON, which the
service checks (schema, digest) before it writes it.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Optional, Sequence

from repro.campaign.service import protocol
from repro.campaign.service.executor import LocalForkExecutor
from repro.campaign.service.scheduler import LeaseScheduler
from repro.campaign.store import (
    ResultStore,
    StoreSchemaError,
    config_to_json,
    count_record,
    done_record,
    failed_record,
    new_writer_id,
)
from repro.config import SimulationConfig
from repro.errors import ReproError
from repro.obs.registry import merge_into

__all__ = ["CampaignService", "ServiceError"]

#: how often the compactor folds the journal into the manifest
_COMPACT_INTERVAL_S = 2.0

#: how long an ``idle`` reply tells a TCP worker to wait before claiming again
_IDLE_RETRY_S = 0.5


class ServiceError(ReproError):
    """Campaign-service lifecycle or protocol misuse."""


class CampaignService:
    """A running sweep service over one result store.

    Parameters
    ----------
    store:
        The shared :class:`~repro.campaign.store.ResultStore` (or path).
    host / port:
        Worker-protocol TCP bind address (``port=0`` = ephemeral; the
        resolved port is on ``self.port`` after :meth:`start`).
    status_port:
        Bind the polling-JSON/SSE status endpoint here (``0`` =
        ephemeral, ``None`` = no status server).
    lease_ttl / requeue_limit:
        Scheduler knobs — see :class:`~repro.campaign.service.scheduler.
        LeaseScheduler`.
    local_workers:
        Local fork-executor slots (0 = rely on remote workers entirely).
    retries / backoff_s / timeout_s:
        Per-point slot machinery knobs applied by the *local* executor
        (remote workers bring their own).
    """

    def __init__(
        self,
        store: ResultStore | str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        status_port: Optional[int] = None,
        lease_ttl: float = 15.0,
        requeue_limit: int = 3,
        local_workers: int = 0,
        retries: int = 2,
        backoff_s: float = 0.25,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.store.load_manifest()  # fail fast on schema mismatch
        self.scheduler = LeaseScheduler(
            lease_ttl=lease_ttl, requeue_limit=requeue_limit
        )
        self.host = host
        self.port = port
        self.status_port = status_port
        self.local_workers = local_workers
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.writer_id = new_writer_id()
        self.started_at: Optional[float] = None
        self.obs_merged: Optional[dict] = None  #: live merged point snapshots
        self._sealed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._status_server = None
        self._executor: Optional[LocalForkExecutor] = None
        self._tasks: list[asyncio.Task] = []
        self._change: Optional[asyncio.Event] = None
        #: set whenever a point may have become claimable; idle local slots
        #: wait on it instead of polling the scheduler
        self.work_ready: Optional[asyncio.Event] = None
        self._connections = 0

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "CampaignService":
        """Bind the servers and start the background event loop."""
        if self._thread is not None:
            raise ServiceError("service already started")
        ready = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self._a_start())
            except BaseException as exc:  # bind failures surface in start()
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="campaign-service", daemon=True
        )
        self._thread.start()
        ready.wait()
        if failure:
            self._thread = None
            raise ServiceError(f"service failed to start: {failure[0]}")
        self.started_at = time.time()
        return self

    async def _a_start(self) -> None:
        self._change = asyncio.Event()
        self.work_ready = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.status_port is not None:
            from repro.campaign.service.status import StatusServer

            self._status_server = StatusServer(self, self.host, self.status_port)
            await self._status_server.start()
            self.status_port = self._status_server.port
        self._executor = LocalForkExecutor(
            self,
            self.local_workers,
            retries=self.retries,
            backoff_s=self.backoff_s,
            timeout_s=self.timeout_s,
        )
        self._executor.start()
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._reaper()),
            loop.create_task(self._compactor()),
        ]

    def stop(self, grace_s: float = 5.0) -> None:
        """Seal, let connected workers drain to a ``done``, then tear down."""
        if self._loop is None:
            return
        self.seal()
        deadline = time.monotonic() + max(0.0, grace_s)
        while self._connections > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        future = asyncio.run_coroutine_threadsafe(self._a_stop(), self._loop)
        future.result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    async def _a_stop(self) -> None:
        if self._executor is not None:
            await self._executor.stop()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if self._status_server is not None:
            await self._status_server.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            self.store.compact_manifest()
        except (OSError, StoreSchemaError):  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def seal(self) -> None:
        """No more submissions are coming: drained workers may exit."""
        self._sealed = True
        if self._loop is not None and self._change is not None:
            self._loop.call_soon_threadsafe(self._change.set)

    # -- synchronous API ---------------------------------------------------------
    def _run(self, coro, timeout: Optional[float] = None):
        if self._loop is None:
            raise ServiceError("service is not running (call start() first)")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def submit_points(self, configs: Sequence[SimulationConfig]) -> dict:
        """Queue fresh points; stored points are resumed, not re-run.

        Returns ``{"digests": [...], "submitted": [...], "resumed": [...]}``
        with digests in config order.
        """
        prepared = []
        for config in configs:
            digest = self.store.digest(config)
            prepared.append(
                (
                    digest,
                    config_to_json(config),
                    config.label(),
                    config.load,
                    config.seed,
                    self.store.find(config, digest) is not None,
                )
            )
        return self._run(self._a_submit(prepared))

    async def _a_submit(self, prepared) -> dict:
        digests, submitted, resumed = [], [], []
        for digest, config_json, label, load, seed, stored in prepared:
            digests.append(digest)
            if stored:
                resumed.append(digest)
                continue
            if self.scheduler.submit(digest, config_json, label, load, seed):
                submitted.append(digest)
        if resumed:
            self.store.journal_append(
                self.writer_id, count_record("resumed", len(resumed))
            )
        self._change.set()
        self.work_ready.set()
        return {"digests": digests, "submitted": submitted, "resumed": resumed}

    def wait_points(
        self, digests: Sequence[str], timeout: Optional[float] = None
    ) -> dict:
        """Block until every digest is terminal; returns their statuses.

        The result maps digest → ``{"status": "done"|"failed", ...}`` with
        error/kind/attempts detail for failures.
        """
        return self._run(self._a_wait(list(digests)), timeout)

    async def _a_wait(self, digests: list[str]) -> dict:
        unknown = [d for d in digests if d not in self.scheduler.points]
        stored = {d for d in unknown if (self.store.point_path(d)).exists()}
        missing = [d for d in unknown if d not in stored]
        if missing:
            raise ServiceError(
                f"waiting on never-submitted point(s): {missing[:3]}..."
                if len(missing) > 3
                else f"waiting on never-submitted point(s): {missing}"
            )
        tracked = [d for d in digests if d in self.scheduler.points]
        while not self.scheduler.is_drained(tracked):
            self._change.clear()
            if self.scheduler.is_drained(tracked):
                break
            await self._change.wait()
        out = {}
        for digest in digests:
            point = self.scheduler.points.get(digest)
            if point is None:
                out[digest] = {"status": "done", "resumed": True}
            elif point.status == "done":
                out[digest] = {"status": "done", "attempts": point.lease_attempts}
            else:
                out[digest] = {
                    "status": "failed",
                    "error": point.error,
                    "kind": point.kind,
                    "attempts": point.lease_attempts,
                    "label": point.label,
                    "load": point.load,
                    "seed": point.seed,
                }
        return out

    def status_snapshot(self) -> dict:
        """JSON-able live state: scheduler, store, merged obs, uptime."""
        return self._run(self._a_status())

    async def _a_status(self) -> dict:
        return self._status_unlocked()

    def _status_unlocked(self) -> dict:
        """Status body; only call on the event-loop thread."""
        return {
            "service": {
                "store": str(self.store.root),
                "schema_version": self.store.schema_version,
                "uptime_s": round(time.time() - self.started_at, 3)
                if self.started_at
                else 0.0,
                "sealed": self._sealed,
                "connections": self._connections,
                "worker_port": self.port,
            },
            "scheduler": self.scheduler.status(),
            "obs": self.obs_merged,
        }

    # -- point completion (event-loop thread only) --------------------------------
    def finish_point(self, worker: str, digest: str, outcome: dict) -> str:
        """Fold one executed point back in: store, journal, scheduler.

        Called by every backend with a :func:`~repro.campaign.service.
        executor.run_lease` outcome.  A local slot already wrote the
        artifact into this store; a remote worker's shipped one
        (``outcome["artifact"]``) is checked and written here.  Success
        journals a ``done`` record (the manifest itself is only ever written
        by the compactor); terminal failure journals a ``failed`` record.
        Returns the scheduler verdict.
        """
        point = self.scheduler.points.get(digest)
        if outcome.get("slot_forks"):
            self.store.journal_append(
                self.writer_id, count_record("slot_forks", outcome["slot_forks"])
            )
        if outcome.get("ok"):
            verdict = self.scheduler.complete(worker, digest)
            if verdict in ("ok", "stale") and point is not None:
                artifact = outcome.get("artifact")
                if artifact is not None:
                    self.store.write_artifact(artifact)
                elif point.config.get("obs_level", 0) >= 1:
                    # only an observed point has a snapshot worth reading back
                    artifact = self.store.read_artifact(digest)
                self.store.journal_append(
                    self.writer_id,
                    done_record(
                        digest, point.label, point.load, point.seed,
                        attempts=outcome.get("attempts", 1), worker=worker,
                    ),
                )
                obs = (artifact or {}).get("obs")
                if obs is not None:
                    self.obs_merged = merge_into(self.obs_merged, obs)
        else:
            verdict = self.scheduler.fail(
                worker,
                digest,
                outcome.get("error", "worker reported failure"),
                outcome.get("kind", "error"),
            )
            if verdict == "failed" and point is not None:
                self.store.journal_append(
                    self.writer_id,
                    failed_record(
                        digest, point.label, point.load, point.seed,
                        error=point.error, kind=point.kind,
                        attempts=outcome.get("attempts", 1), worker=worker,
                    ),
                )
        self._change.set()
        return verdict

    # -- background tasks --------------------------------------------------------
    async def _reaper(self) -> None:
        """Expire silent leases; the scheduler requeues their points."""
        interval = max(0.05, min(1.0, self.scheduler.lease_ttl / 4.0))
        while True:
            await asyncio.sleep(interval)
            reclaimed = self.scheduler.reap()
            if reclaimed:
                self.store.journal_append(
                    self.writer_id, count_record("reclaims", len(reclaimed))
                )
                self._change.set()
                self.work_ready.set()

    async def _compactor(self) -> None:
        """Fold the journal into the manifest — the single index writer."""
        while True:
            await asyncio.sleep(_COMPACT_INTERVAL_S)
            try:
                self.store.compact_manifest()
            except (OSError, StoreSchemaError):  # pragma: no cover - defensive
                pass

    # -- the TCP worker protocol --------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        worker_id: Optional[str] = None

        def reply(message: dict) -> None:
            writer.write(protocol.encode(message))

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    reply({"type": "error", "detail": str(exc)})
                    await writer.drain()
                    break
                kind = message["type"]
                if kind == "hello":
                    schema = message.get("schema_version")
                    if schema != self.store.schema_version:
                        reply(
                            {
                                "type": "error",
                                "detail": (
                                    f"schema version mismatch: worker has "
                                    f"{schema}, service store has "
                                    f"{self.store.schema_version}"
                                ),
                            }
                        )
                        await writer.drain()
                        break
                    worker_id = str(message.get("worker") or "anonymous")
                    self.scheduler.connect_worker(worker_id)
                    reply(
                        {
                            "type": "welcome",
                            "schema_version": self.store.schema_version,
                            "protocol_version": protocol.PROTOCOL_VERSION,
                            "lease_ttl": self.scheduler.lease_ttl,
                            "heartbeat_s": self.scheduler.lease_ttl / 3.0,
                        }
                    )
                elif worker_id is None:
                    reply({"type": "error", "detail": "hello required first"})
                elif kind == "claim":
                    lease = self.scheduler.claim(worker_id)
                    if lease is not None:
                        reply({"type": "lease", **lease})
                    elif self._sealed and self.scheduler.is_drained():
                        reply({"type": "done"})
                    else:
                        reply({"type": "idle", "retry_after_s": _IDLE_RETRY_S})
                elif kind == "heartbeat":
                    self.scheduler.heartbeat(worker_id, message.get("digest", ""))
                    continue  # deliberately unacknowledged
                elif kind == "result":
                    try:
                        status = self.finish_point(
                            worker_id,
                            message["digest"],
                            {
                                "ok": True,
                                "artifact": message["artifact"],
                                "attempts": message.get("attempts", 1),
                                "slot_forks": message.get("slot_forks", 0),
                            },
                        )
                    except (StoreSchemaError, KeyError) as exc:
                        status = f"refused: {exc}"
                    reply({"type": "ack", "status": status})
                elif kind == "point-failed":
                    status = self.finish_point(
                        worker_id,
                        message["digest"],
                        {
                            "ok": False,
                            "error": message.get("error", ""),
                            "kind": message.get("kind", "error"),
                            "attempts": message.get("attempts", 1),
                            "slot_forks": message.get("slot_forks", 0),
                        },
                    )
                    reply({"type": "ack", "status": status})
                elif kind == "bye":
                    break
                else:
                    reply({"type": "error", "detail": f"unknown type {kind!r}"})
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # worker died mid-exchange; the finally block reclaims
        finally:
            self._connections -= 1
            if worker_id is not None:
                requeued = self.scheduler.disconnect_worker(worker_id)
                if requeued:
                    self._change.set()
                    self.work_ready.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
