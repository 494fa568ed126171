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
from repro.metrics.sweep import fan_out

__all__ = ["MetricEstimate", "ReplicatedResult", "replicate"]

# Two-sided 95% Student-t critical values by degrees of freedom: every df
# up to 30, then the classic table rows 40, 60 and 120.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}
_Z95 = 1.960  #: the normal limit, as df -> infinity


def _t95(df: int) -> float:
    if df <= 0:
        return float("inf")
    if df in _T95:
        return _T95[df]
    # between table rows (and past 120, toward the normal limit) the
    # critical value is close to linear in 1/df
    lo = max(d for d in _T95 if d < df)
    hi = min((d for d in _T95 if d > df), default=math.inf)
    t_lo, t_hi = _T95[lo], _T95.get(hi, _Z95)
    return t_lo + (t_hi - t_lo) * (1 / lo - 1 / df) / (1 / lo - 1 / hi)


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
    max_workers: Optional[int] = None,
) -> ReplicatedResult:
    """Run ``base`` once per seed and aggregate the metrics.

    Seeds replace ``base.seed``; all other fields (including the traffic
    stream derivation) follow each run's own seed, so replicas are fully
    independent.  The seeds fan out over at most ``max_workers`` processes
    (default: every available CPU; :func:`~repro.metrics.sweep.fan_out`),
    which changes where a run happens, never its result.  A failing seed
    raises its own error; no partial result is returned.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    points = fan_out([base.replace(seed=s) for s in seeds], max_workers)
    runs = [result for result, _ in points]
    metrics = metrics or DEFAULT_METRICS
    estimates = {
        name: MetricEstimate(name, tuple(fn(r) for r in runs))
        for name, fn in metrics.items()
    }
    return ReplicatedResult(config=base, runs=tuple(runs), estimates=estimates)
