"""Resumable, fault-tolerant sweep campaigns.

Regenerating a paper figure is hundreds of independent simulations; this
package makes that workload durable.  :class:`~repro.campaign.store.
ResultStore` is a content-addressed on-disk store (one atomic JSON
artifact per completed :class:`~repro.config.SimulationConfig`, keyed by a
stable config digest + schema version, indexed by a manifest), and
:class:`~repro.campaign.runner.CampaignRunner` drives sweep points through
killable, reused slot processes with retry/backoff, per-point wall-clock
timeouts, graceful degradation (a point that exhausts its retries becomes
a recorded :class:`~repro.campaign.store.PointFailure`, not an abort) and
resume (points already in the store are never re-run; determinism makes
the merged sweep bit-identical to an uninterrupted run).

The :mod:`repro.campaign.service` subpackage scales a campaign past one
machine: an asyncio lease scheduler with work stealing, remote TCP
workers (``repro campaign serve`` / ``repro campaign worker``), journaled
concurrent-writer store updates, and a live status endpoint — all while
keeping the drained sweep bit-identical to a single-host run.

Entry points: ``repro campaign run|status|resume|clean|serve|worker|
watch|rebuild`` on the CLI, ``--store/--retries/--timeout`` on
``repro experiment``, and
:func:`repro.experiments.base.experiment_sweep` for programmatic use.
"""

from repro.campaign.runner import CampaignRunner, CampaignSweep
from repro.campaign.store import (
    SCHEMA_VERSION,
    PointFailure,
    ResultStore,
    StoredPoint,
    StoreSchemaError,
    config_digest,
    new_writer_id,
)

__all__ = [
    "CampaignRunner",
    "CampaignSweep",
    "ResultStore",
    "StoredPoint",
    "PointFailure",
    "StoreSchemaError",
    "config_digest",
    "new_writer_id",
    "SCHEMA_VERSION",
]
