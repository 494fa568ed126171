"""Distributed campaign service: scheduler, workers, live status.

A campaign can outgrow one machine.  This package turns the resumable
single-host campaign (:mod:`repro.campaign`) into a small distributed
system while preserving its core guarantee — a sweep drained by N
networked workers is **bit-identical** (artifact-for-artifact) to the
same sweep run locally:

* :mod:`~repro.campaign.service.scheduler` — work-stealing lease
  scheduler: FIFO pending-point queue, lease TTL + heartbeats, reaping
  and requeueing;
* :mod:`~repro.campaign.service.server` — :class:`CampaignService`, the
  asyncio facade tying scheduler + executors + store together, including
  journal-fed single-writer manifest compaction;
* :mod:`~repro.campaign.service.executor` — :func:`run_lease`, the one
  point job every backend runs a lease through, and the in-process
  :class:`LocalForkExecutor` backend;
* :mod:`~repro.campaign.service.worker` — the remote TCP worker
  (``repro campaign worker --connect``) and its LDJSON protocol
  (:mod:`~repro.campaign.service.protocol`);
* :mod:`~repro.campaign.service.status` — polling-JSON + SSE live status
  (``repro campaign watch``);
* :mod:`~repro.campaign.service.runner` — :class:`ServiceRunner`, the
  :class:`~repro.campaign.runner.CampaignRunner` look-alike experiments
  use to drain their sweeps through a service.
"""

from repro.campaign.service.executor import LocalForkExecutor, run_lease
from repro.campaign.service.runner import ServiceRunner
from repro.campaign.service.scheduler import Lease, LeaseScheduler, SchedulerPoint
from repro.campaign.service.server import CampaignService, ServiceError
from repro.campaign.service.worker import WorkerError, WorkerSession, run_worker

__all__ = [
    "CampaignService",
    "ServiceError",
    "LeaseScheduler",
    "SchedulerPoint",
    "Lease",
    "LocalForkExecutor",
    "run_lease",
    "WorkerSession",
    "WorkerError",
    "run_worker",
    "ServiceRunner",
]
