"""Work-stealing lease scheduler for distributed sweep campaigns.

:class:`LeaseScheduler` owns the pending-point queue of a campaign
service.  Executors — local fork slots and remote TCP workers alike —
**claim** points rather than being assigned them, which makes the system
work-stealing by construction: a fast machine simply claims more often.

Every claim grants a **lease**: an exclusive, time-bounded right to run
one point.  The worker extends its lease by heartbeating; a worker that
dies (or silently stops heartbeating — see the ``drop-lease-heartbeat``
injectable fault in :mod:`repro.faults`) lets its lease expire, and the
reaper (:meth:`LeaseScheduler.reap`) reclaims it and **requeues** the
point for the next claimer.  Because simulations are deterministic given
their config, a point completed after a reclaim is bit-identical to the
one the dead worker would have produced — requeueing is always safe, and
a *stale* result arriving later (the original worker was slow, not dead)
is either accepted (point still open) or dropped (point already done)
without ever corrupting the store.

Scheduling order is FIFO: points are claimed in submission order, and a
requeued point goes to the back of the queue.

The scheduler is a plain single-threaded state machine: the campaign
service calls it only from its asyncio event-loop thread, tests drive it
directly with a fake clock.  It performs no I/O — artifact and journal
writes are the service's job.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["LeaseScheduler", "SchedulerPoint", "Lease"]

#: terminal failure kind for a point whose lease expired too many times
LEASE_EXPIRED_KIND = "lease-expired"


@dataclass
class SchedulerPoint:
    """One sweep point tracked by the scheduler."""

    digest: str
    config: dict  #: canonical config JSON (what the worker receives)
    label: str
    load: float
    seed: int
    status: str = "pending"  #: pending | leased | done | failed
    lease_attempts: int = 0  #: lease grants so far (worker retries are internal)
    worker: Optional[str] = None  #: current or last lease holder
    error: Optional[str] = None
    kind: Optional[str] = None


@dataclass
class Lease:
    """An exclusive, time-bounded right to execute one point."""

    digest: str
    worker: str
    granted_at: float
    expires_at: float


@dataclass
class _WorkerInfo:
    connected_at: float
    leases: set = field(default_factory=set)
    last_seen: float = 0.0


class LeaseScheduler:
    """FIFO pending-point queue with leases, heartbeats and requeue.

    Parameters
    ----------
    lease_ttl:
        Seconds a lease survives without a heartbeat before the reaper
        reclaims it and requeues the point.
    requeue_limit:
        Maximum lease grants per point.  A point whose leases keep dying
        past this bound degrades to a terminal ``lease-expired`` failure
        instead of cycling forever through crashing workers.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        lease_ttl: float = 15.0,
        requeue_limit: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self.lease_ttl = lease_ttl
        self.requeue_limit = max(1, requeue_limit)
        self._clock = clock
        self.points: dict[str, SchedulerPoint] = {}
        self.leases: dict[str, Lease] = {}
        self.workers: dict[str, _WorkerInfo] = {}
        self.counters: dict[str, int] = {}
        #: digests in claim order; entries for points no longer pending
        #: are dropped lazily on pop
        self._queue: deque[str] = deque()

    # -- bookkeeping helpers -----------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- submission --------------------------------------------------------------
    def submit(
        self, digest: str, config: dict, label: str, load: float, seed: int
    ) -> bool:
        """Queue a point; returns ``False`` if the digest is already known."""
        if digest in self.points:
            return False
        self.points[digest] = SchedulerPoint(
            digest=digest, config=config, label=label, load=load, seed=seed
        )
        self._queue.append(digest)
        self._count("submitted")
        return True

    # -- worker registry ---------------------------------------------------------
    def connect_worker(self, worker: str) -> None:
        now = self._clock()
        self.workers[worker] = _WorkerInfo(connected_at=now, last_seen=now)
        self._count("worker_connects")

    def disconnect_worker(self, worker: str) -> list[str]:
        """Drop a worker and immediately requeue every lease it held.

        A closed TCP connection is a stronger death signal than a missed
        heartbeat, so the points go back to pending without waiting out
        the lease TTL.  Returns the requeued digests.
        """
        info = self.workers.pop(worker, None)
        if info is None:
            return []
        requeued = []
        for digest in sorted(info.leases):
            if self._release_to_pending(digest, why="worker_disconnect"):
                requeued.append(digest)
        self._count("worker_disconnects")
        return requeued

    # -- the lease lifecycle -----------------------------------------------------
    def claim(self, worker: str) -> Optional[dict]:
        """Grant the oldest pending point to ``worker``, or ``None``."""
        if worker not in self.workers:
            self.connect_worker(worker)
        info = self.workers[worker]
        info.last_seen = self._clock()
        while self._queue:
            point = self.points[self._queue.popleft()]
            if point.status == "pending":  # else it completed after a requeue
                break
        else:
            return None
        now = self._clock()
        point.status = "leased"
        point.worker = worker
        point.lease_attempts += 1
        self.leases[point.digest] = Lease(
            digest=point.digest, worker=worker,
            granted_at=now, expires_at=now + self.lease_ttl,
        )
        info.leases.add(point.digest)
        self._count("leases_granted")
        return {
            "digest": point.digest,
            "config": point.config,
            "label": point.label,
            "attempt": point.lease_attempts,
        }

    def heartbeat(self, worker: str, digest: str) -> bool:
        """Extend a live lease; ``False`` if it is gone or owned elsewhere."""
        info = self.workers.get(worker)
        if info is not None:
            info.last_seen = self._clock()
        lease = self.leases.get(digest)
        if lease is None or lease.worker != worker:
            return False
        lease.expires_at = self._clock() + self.lease_ttl
        self._count("heartbeats")
        return True

    def complete(self, worker: str, digest: str) -> str:
        """Record a point's completion; returns how the report was treated.

        * ``"ok"`` — the reporting worker held the live lease;
        * ``"stale"`` — its lease was reclaimed meanwhile, but the point
          is still open, so the (deterministic, hence identical) result is
          accepted anyway;
        * ``"duplicate"`` — the point already completed; drop the report;
        * ``"unknown"`` — no such point was ever submitted.
        """
        point = self.points.get(digest)
        if point is None:
            self._count("unknown_reports")
            return "unknown"
        if point.status == "done":
            self._count("duplicate_results")
            return "duplicate"
        lease = self.leases.get(digest)
        verdict = "ok" if lease is not None and lease.worker == worker else "stale"
        if verdict == "stale":
            self._count("stale_results")
        self._drop_lease(digest)
        point.status = "done"
        point.worker = worker
        point.error = None
        point.kind = None
        self._count("completed")
        return verdict

    def fail(self, worker: str, digest: str, error: str, kind: str = "error") -> str:
        """Record a worker-reported terminal point failure.

        The worker's own retry/backoff machinery already re-attempted the
        point, so a reported failure is terminal — unlike a *lease* death,
        which requeues.  Stale reports (lease reclaimed, point requeued or
        finished elsewhere) are dropped: another attempt is in flight.
        """
        point = self.points.get(digest)
        if point is None:
            self._count("unknown_reports")
            return "unknown"
        lease = self.leases.get(digest)
        if point.status != "leased" or lease is None or lease.worker != worker:
            self._count("stale_failures")
            return "stale"
        self._drop_lease(digest)
        point.status = "failed"
        point.error = error
        point.kind = kind
        self._count("failed")
        return "failed"

    def reap(self) -> list[str]:
        """Reclaim every expired lease; requeue (or terminally fail) points.

        The liveness half of work stealing: this is what detects a worker
        that died — or stopped heartbeating — mid-point and puts the point
        back where a sibling can claim it.  Returns the affected digests.
        """
        now = self._clock()
        expired = [
            digest for digest, lease in self.leases.items()
            if now >= lease.expires_at
        ]
        for digest in expired:
            self._release_to_pending(digest, why="lease_expired")
        return expired

    def _drop_lease(self, digest: str) -> None:
        lease = self.leases.pop(digest, None)
        if lease is None:
            return
        info = self.workers.get(lease.worker)
        if info is not None:
            info.leases.discard(digest)

    def _release_to_pending(self, digest: str, *, why: str) -> bool:
        """Reclaim one lease: requeue the point or fail it past the limit."""
        point = self.points.get(digest)
        self._drop_lease(digest)
        if point is None or point.status != "leased":
            return False
        self._count("leases_reclaimed")
        if point.lease_attempts >= self.requeue_limit:
            point.status = "failed"
            point.error = (
                f"lease expired {point.lease_attempts} time(s) "
                f"(last holder {point.worker}); requeue limit reached"
            )
            point.kind = LEASE_EXPIRED_KIND
            self._count("failed")
            return False
        point.status = "pending"
        self._queue.append(digest)
        self._count("points_requeued")
        return True

    # -- introspection -----------------------------------------------------------
    def is_drained(self, digests: Optional[list[str]] = None) -> bool:
        """Are the given points (default: all) terminally done or failed?"""
        pool = (
            self.points.values()
            if digests is None
            else [self.points[d] for d in digests if d in self.points]
        )
        return all(p.status in ("done", "failed") for p in pool)

    def status(self) -> dict:
        """JSON-able snapshot for the live status endpoint."""
        now = self._clock()
        by_status: dict[str, int] = {}
        for point in self.points.values():
            by_status[point.status] = by_status.get(point.status, 0) + 1
        return {
            "points": {
                "total": len(self.points),
                "pending": by_status.get("pending", 0),
                "leased": by_status.get("leased", 0),
                "done": by_status.get("done", 0),
                "failed": by_status.get("failed", 0),
            },
            "workers": {
                worker: {
                    "leases": sorted(info.leases),
                    "connected_s": round(now - info.connected_at, 3),
                    "idle_s": round(now - info.last_seen, 3),
                }
                for worker, info in sorted(self.workers.items())
            },
            "leases": {
                digest: {
                    "worker": lease.worker,
                    "expires_in_s": round(lease.expires_at - now, 3),
                }
                for digest, lease in sorted(self.leases.items())
            },
            "failed_points": {
                p.digest: {"label": p.label, "error": p.error, "kind": p.kind}
                for p in self.points.values()
                if p.status == "failed"
            },
            "counters": dict(sorted(self.counters.items())),
            "lease_ttl": self.lease_ttl,
        }
