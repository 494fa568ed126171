"""ServiceRunner: drive experiment sweeps through a campaign service.

:func:`~repro.experiments.base.set_campaign_runner` accepts anything with
the :class:`~repro.campaign.runner.CampaignRunner` surface (``run_sweep``
/ ``run_points`` / ``store`` / ``registry``).  :class:`ServiceRunner`
implements that surface on top of a live :class:`~repro.campaign.service.
server.CampaignService`: points are submitted to the scheduler, drained
by whatever mix of local slots and remote TCP workers is attached, and
collected back *from the store* — the same materialize-through-the-store
rule :class:`CampaignRunner` follows, which is what makes a distributed
sweep's merged :class:`~repro.metrics.sweep.SweepResult` bit-identical to
a single-host run's.

``repro campaign serve`` wires one of these up so an entire experiment
can be drained by remote workers with no experiment-code changes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.campaign.runner import CampaignSweep, run_sweep
from repro.campaign.store import PointFailure, StoredPoint
from repro.config import SimulationConfig
from repro.metrics.stats import RunResult
from repro.obs.registry import MetricsRegistry

__all__ = ["ServiceRunner"]


class ServiceRunner:
    """A :class:`CampaignRunner` look-alike backed by a running service.

    Parameters
    ----------
    service:
        A started :class:`~repro.campaign.service.server.CampaignService`.
    wait_timeout_s:
        Upper bound on one batch drain (``None`` = wait forever).
    """

    def __init__(
        self,
        service,
        *,
        wait_timeout_s: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.store = service.store
        self.wait_timeout_s = wait_timeout_s
        self.registry = registry if registry is not None else MetricsRegistry()

    def run_sweep(self, base, loads, label="", *, progress=None) -> CampaignSweep:
        """Submit a load sweep, wait for the drain, merge from the store."""
        return run_sweep(self, base, loads, label, progress=progress)

    def run_points(
        self,
        configs: Sequence[SimulationConfig],
        *,
        progress: Callable[[SimulationConfig, RunResult], None] | None = None,
    ) -> dict:
        """Submit, drain, and collect a batch; CampaignRunner-shaped result.

        Unlike the local runner's incremental callbacks, ``progress``
        fires after the drain completes (results arrive from many workers
        at once; per-point streaming lives on the status endpoint).
        """
        self.registry.counter("campaign/points_total").inc(len(configs))
        submitted = self.service.submit_points(configs)
        statuses = self.service.wait_points(
            submitted["digests"], timeout=self.wait_timeout_s
        )
        resumed = len(submitted["resumed"])
        if resumed:
            self.registry.counter("campaign/points_resumed").inc(resumed)

        completed: dict[int, StoredPoint] = {}
        failures: list[PointFailure] = []
        executed = 0
        for index, config in enumerate(configs):
            digest = submitted["digests"][index]
            status = statuses[digest]
            if status["status"] == "done":
                point = self.store.load(config, digest)
                completed[index] = point
                if not status.get("resumed"):
                    executed += 1
                if progress is not None:
                    progress(config, point.result)
            else:
                failures.append(
                    PointFailure(
                        label=status.get("label", config.label()),
                        digest=digest,
                        load=config.load,
                        seed=config.seed,
                        error=status.get("error") or "point failed",
                        attempts=status.get("attempts", 1),
                        kind=status.get("kind") or "error",
                    )
                )
        self.registry.counter("campaign/points_executed").inc(executed)
        if failures:
            self.registry.counter("campaign/failures").inc(len(failures))
        return {
            "completed": completed,
            "failures": failures,
            "resumed": resumed,
            "executed": executed,
            "remaining": 0,
        }
