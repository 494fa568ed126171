"""Statistics, run results, load sweeps, multi-seed replication."""

from repro.metrics.analysis import (
    DeadlockAnalysis,
    analyze_records,
    blocked_vs_cycles_series,
    deadlock_probability_given_cycles,
    interarrival_times,
)
from repro.metrics.replication import MetricEstimate, ReplicatedResult, replicate
from repro.metrics.stats import RunResult, StatsCollector
from repro.metrics.sweep import SweepResult, default_loads, run_load_sweep

__all__ = [
    "RunResult",
    "StatsCollector",
    "SweepResult",
    "default_loads",
    "run_load_sweep",
    "MetricEstimate",
    "ReplicatedResult",
    "replicate",
    "DeadlockAnalysis",
    "analyze_records",
    "interarrival_times",
    "deadlock_probability_given_cycles",
    "blocked_vs_cycles_series",
]
