"""Multi-seed replication with confidence intervals.

Deadlock formation is a rare-event process: a single 8,000-cycle run of a
sub-saturation network may see zero or five deadlocks by chance.  The
paper reports single runs; this module adds the statistical hygiene a
modern reproduction needs — N independent seeds per configuration, sample
mean, standard deviation and a t-distribution confidence interval for
every headline metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.config import SimulationConfig
from repro.metrics.stats import RunResult

__all__ = ["MetricEstimate", "ReplicatedResult", "replicate"]

# Two-sided 95% Student-t critical values by degrees of freedom (1..30).
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def _t95(df: int) -> float:
    if df <= 0:
        return float("inf")
    return _T95.get(df, 1.96)  # normal approximation past 30 dof


@dataclass(frozen=True)
class MetricEstimate:
    """Sample statistics for one metric over replicated runs."""

    name: str
    samples: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((x - m) ** 2 for x in self.samples) / (self.n - 1))

    @property
    def stderr(self) -> float:
        return self.std / math.sqrt(self.n) if self.n else 0.0

    @property
    def ci95(self) -> tuple[float, float]:
        """Two-sided 95% confidence interval for the mean."""
        if self.n < 2:
            return (float("-inf"), float("inf"))
        half = _t95(self.n - 1) * self.stderr
        return (self.mean - half, self.mean + half)

    def __str__(self) -> str:
        lo, hi = self.ci95
        return f"{self.name}={self.mean:.4g} [{lo:.4g}, {hi:.4g}] (n={self.n})"


#: metric extractors applied to every replicated RunResult
DEFAULT_METRICS: dict[str, Callable[[RunResult], float]] = {
    "normalized_deadlocks": lambda r: r.normalized_deadlocks,
    "deadlocks": lambda r: float(r.deadlocks),
    "delivered": lambda r: float(r.delivered_total),
    "avg_latency": lambda r: r.avg_latency,
    "avg_blocked_fraction": lambda r: r.avg_blocked_fraction,
    "avg_deadlock_set": lambda r: r.avg_deadlock_set_size,
    "avg_cycle_count": lambda r: r.avg_cycle_count,
}


@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregated outcome of N same-config, different-seed runs."""

    config: SimulationConfig
    runs: tuple[RunResult, ...]
    estimates: dict[str, MetricEstimate]

    def __getitem__(self, metric: str) -> MetricEstimate:
        return self.estimates[metric]

    def summary(self) -> str:
        parts = [str(self.estimates[k]) for k in sorted(self.estimates)]
        return f"{self.config.label()}: " + "; ".join(parts)


def replicate(
    base: SimulationConfig,
    seeds: Sequence[int] = range(5),
    *,
    metrics: Optional[dict[str, Callable[[RunResult], float]]] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> ReplicatedResult:
    """Run ``base`` once per seed and aggregate the metrics.

    Seeds replace ``base.seed``; all other fields (including the traffic
    stream derivation) follow each run's own seed, so replicas are fully
    independent.

    With ``parallel=True`` the seeds run on ``max_workers`` campaign slot
    processes (:class:`~repro.campaign.runner.CampaignRunner` over a
    throwaway store, no retries); the runs are identical to the serial
    path's.  If any seed fails, one :class:`~repro.errors.SimulationError`
    names every failed seed and its error; no partial result is returned.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    configs = [base.replace(seed=s) for s in seeds]
    if parallel:
        runs = _run_on_slots(configs, max_workers)
    else:
        from repro.network.simulator import NetworkSimulator

        runs = [NetworkSimulator(cfg).run() for cfg in configs]
    metrics = metrics or DEFAULT_METRICS
    estimates = {
        name: MetricEstimate(name, tuple(fn(r) for r in runs))
        for name, fn in metrics.items()
    }
    return ReplicatedResult(config=base, runs=tuple(runs), estimates=estimates)


def _run_on_slots(
    configs: list[SimulationConfig], max_workers: Optional[int]
) -> list[RunResult]:
    import tempfile

    from repro.campaign.runner import CampaignRunner
    from repro.errors import SimulationError

    with tempfile.TemporaryDirectory(prefix="repro-replicate-") as tmp:
        runner = CampaignRunner(tmp, max_workers=max_workers, retries=0)
        out = runner.run_points(configs)
    if out["failures"]:
        raise SimulationError(
            f"{len(out['failures'])} replicated seed(s) failed:\n"
            + "\n".join(
                f"  {f.label} seed={f.seed}: {f.error}" for f in out["failures"]
            )
        )
    return [out["completed"][i].result for i in range(len(configs))]
