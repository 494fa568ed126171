"""Statistics, run results, load sweeps, multi-seed replication."""

from repro.metrics.replication import MetricEstimate, ReplicatedResult, replicate
from repro.metrics.stats import RunResult, StatsCollector
from repro.metrics.sweep import SweepResult, run_load_sweep

__all__ = [
    "RunResult",
    "StatsCollector",
    "SweepResult",
    "run_load_sweep",
    "MetricEstimate",
    "ReplicatedResult",
    "replicate",
]
