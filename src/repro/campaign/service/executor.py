"""Point execution for the campaign service: one lease, one point job.

Both backends — the in-process :class:`LocalForkExecutor` and the remote
TCP worker (:mod:`repro.campaign.service.worker`) — run a lease through
:func:`run_lease`: the runner's own point job on a slot of a
:class:`~repro.metrics.sweep.SlotPool` the backend holds for its lifetime
(so a lease costs no fork), under the runner's one retry rule
(:func:`~repro.campaign.runner.drive`: retry with exponential backoff, the
per-point wall-clock timeout kill, the injected point faults).  The slot
writes the artifact into the store the caller names — a local slot into
the service's own store, once and in its final place; a remote worker into
one store of its own for the session, from which it ships the artifact.
Simulations are deterministic given their config and the JSON is
canonical, so every backend on any machine writes byte-identical
artifacts.

Local slots do not poll: an idle one waits on the service's
``work_ready`` event, set whenever a point may have become claimable
(submission, or a reaped or disconnected lease), with ``idle_poll_s``
only as the fallback timeout.
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from typing import Optional

from repro.campaign.runner import _Task, drive
from repro.campaign.store import ResultStore, config_from_json
from repro.metrics.sweep import SlotPool

__all__ = ["run_lease", "LocalForkExecutor"]


def run_lease(lease: dict, pool: SlotPool, store: ResultStore, policy) -> dict:
    """Run one leased point on ``pool``'s slot, writing into ``store``.

    ``policy`` carries ``retries``, ``backoff_s`` and ``timeout_s``.
    Returns ``{"ok": True, "attempts": n, "slot_forks": f}`` once the
    artifact is at ``store.point_path(lease["digest"])`` — ``f`` being the
    slot processes this point had to start — or ``{"ok": False, "error":
    ..., "kind": ..., "attempts": n, "slot_forks": f}`` after retries are
    exhausted.
    """
    task = _Task(0, config_from_json(lease["config"]), lease["digest"])
    events = []
    drive(policy, store, pool, deque([task]), lambda event, _: events.append(event))
    outcome = {
        "ok": task.error is None,
        "attempts": task.attempts,
        "slot_forks": events.count("slot_forks"),
    }
    if task.error is not None:
        outcome.update(error=task.error, kind=task.kind)
    return outcome


class LocalForkExecutor:
    """N in-process slots draining the scheduler through slot processes.

    The local twin of a remote TCP worker: each slot loops claim → run →
    report against the service's scheduler directly (no sockets), running
    the blocking :func:`run_lease` on the default thread-pool executor so
    the event loop stays responsive.  Each slot owns one
    :class:`~repro.metrics.sweep.SlotPool` — hence one reused point
    process — for its lifetime, and its point process writes each artifact
    straight into the service's store.  While a point runs, the slot
    heartbeats its lease from the event-loop side — the same liveness
    contract remote workers honour.  A point whose execution raises is
    reported failed and the slot keeps looping.
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
        finished = None  # (digest, outcome) of the lease not yet reported
        # closing kills a point still in flight on the executor thread
        with SlotPool() as pool:
            while not self._stopping.is_set():
                lease = service.scheduler.claim(worker)
                if lease is not None:
                    run = loop.run_in_executor(
                        None,
                        functools.partial(run_lease, lease, pool, service.store, self),
                    )
                if finished is not None:
                    # reported once the next lease runs, so the two overlap
                    service.finish_point(worker, *finished)
                    finished = None
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
                finished = lease["digest"], outcome
        if finished is not None:
            service.finish_point(worker, *finished)
