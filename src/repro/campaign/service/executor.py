"""Pluggable point-execution backends for the campaign service.

Both backends — the in-process :class:`LocalForkExecutor` and the remote
TCP worker (:mod:`repro.campaign.service.worker`) — funnel through
:func:`execute_point`, which reuses the *existing* per-point machinery of
:class:`~repro.campaign.runner.CampaignRunner` verbatim: a killable slot
process, retry with exponential backoff, a per-point wall-clock timeout,
and the injected point faults (``crash-point`` / ``flaky-point`` /
``hang-point``).  The slot comes from a :class:`~repro.metrics.sweep.
SlotPool` the backend holds for its lifetime, so a lease costs no fork:
the process that ran the last point runs the next one.  The point runs
against a private throwaway :class:`~repro.campaign.store.ResultStore`,
and the raw artifact JSON is lifted out of it — so a point executed by
any backend on any machine produces byte-identical artifact payloads
(simulations are deterministic given their config; JSON serialization is
canonical).

Local slots do not poll: an idle one waits on the service's
``work_ready`` event, set whenever a point may have become claimable
(submission, or a reaped or disconnected lease), with ``idle_poll_s``
only as the fallback timeout.
"""

from __future__ import annotations

import asyncio
import functools
import tempfile
from typing import Optional

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore, config_from_json
from repro.metrics.sweep import SlotPool

__all__ = ["execute_point", "LocalForkExecutor"]


def execute_point(
    config_json: dict,
    pool: SlotPool,
    *,
    schema_version: int,
    retries: int = 2,
    backoff_s: float = 0.25,
    timeout_s: Optional[float] = None,
) -> dict:
    """Run one point through the slot/retry/timeout machinery.

    The point runs on a slot of the caller's ``pool``, which the caller
    keeps open across points so leases stop costing a fork each.

    Returns ``{"ok": True, "artifact": payload, "attempts": n,
    "slot_forks": f}`` on success — ``payload`` being the exact artifact
    JSON a single-host campaign would have written, ``f`` the slot
    processes this point had to start — or ``{"ok": False, "error": ...,
    "kind": ..., "attempts": n, "slot_forks": f}`` after retries are
    exhausted.
    """
    config = config_from_json(config_json)
    with tempfile.TemporaryDirectory(prefix="repro-point-") as tmp:
        store = ResultStore(tmp, schema_version=schema_version)
        runner = CampaignRunner(
            store,
            retries=retries,
            backoff_s=backoff_s,
            timeout_s=timeout_s,
            max_workers=1,
        )
        forks_before = pool.forks
        out = runner.run_points([config], pool=pool)
        slot_forks = pool.forks - forks_before
        if out["completed"]:
            digest = store.digest(config)
            manifest_entry = store.load_manifest()["points"].get(digest, {})
            return {
                "ok": True,
                "artifact": store.read_artifact(digest),
                "attempts": manifest_entry.get("attempts", 1),
                "slot_forks": slot_forks,
            }
        failure = out["failures"][0]
        return {
            "ok": False,
            "error": failure.error,
            "kind": failure.kind,
            "attempts": failure.attempts,
            "slot_forks": slot_forks,
        }


class LocalForkExecutor:
    """N in-process slots draining the scheduler through slot processes.

    The local twin of a remote TCP worker: each slot loops claim → run →
    report against the service's scheduler directly (no sockets), running
    the blocking submit/wait machinery on the default thread-pool executor
    so the event loop stays responsive.  Each slot owns one
    :class:`~repro.metrics.sweep.SlotPool` — hence one reused point
    process — for its lifetime.  While a point runs, the slot heartbeats
    its lease from the event-loop side — the same liveness contract
    remote workers honour.  A point whose execution raises is reported
    failed and the slot keeps looping.
    """

    def __init__(
        self,
        service,
        slots: int,
        *,
        retries: int = 2,
        backoff_s: float = 0.25,
        timeout_s: Optional[float] = None,
        idle_poll_s: float = 0.2,
    ) -> None:
        self.service = service
        self.slots = max(0, slots)
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.idle_poll_s = idle_poll_s
        self._tasks: list[asyncio.Task] = []
        self._stopping = asyncio.Event()

    def start(self) -> None:
        for slot in range(self.slots):
            self._tasks.append(
                asyncio.get_running_loop().create_task(self._run_slot(slot))
            )

    async def stop(self) -> None:
        self._stopping.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                if not task.cancelled():
                    raise  # stop() itself was cancelled, not the slot
        self._tasks.clear()

    async def _run_slot(self, slot: int) -> None:
        service = self.service
        worker = f"local/{slot}"
        service.scheduler.connect_worker(worker)
        loop = asyncio.get_running_loop()
        heartbeat_s = service.scheduler.lease_ttl / 3.0
        # closing kills a point still in flight on the executor thread
        with SlotPool() as pool:
            while not self._stopping.is_set():
                lease = service.scheduler.claim(worker)
                if lease is None:
                    # woken the moment work may have appeared; the poll is
                    # only the fallback
                    service.work_ready.clear()
                    try:
                        await asyncio.wait_for(
                            service.work_ready.wait(), self.idle_poll_s
                        )
                    except asyncio.TimeoutError:
                        pass
                    continue
                run = loop.run_in_executor(
                    None,
                    functools.partial(
                        execute_point,
                        lease["config"],
                        pool,
                        schema_version=service.store.schema_version,
                        retries=self.retries,
                        backoff_s=self.backoff_s,
                        timeout_s=self.timeout_s,
                    ),
                )
                while True:
                    done, _ = await asyncio.wait([run], timeout=heartbeat_s)
                    if done:
                        break
                    service.scheduler.heartbeat(worker, lease["digest"])
                try:
                    outcome = run.result()
                except Exception as exc:  # noqa: BLE001 - the slot must keep looping
                    outcome = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                        "kind": "error",
                        "attempts": 1,
                    }
                service.finish_point(worker, lease["digest"], outcome)
