"""Section 3.6 — effect of non-uniform traffic on deadlocks.

The paper reports that bit-reversal, matrix-transpose, perfect-shuffle and
hot-spot traffic give deadlock frequencies and characteristics similar to
uniform traffic (mostly within 10%), with one structural exception:
single-cycle deadlocks under DOR require a *circular overlap* of messages
within a row or column ring, and some permutations make that overlap
impossible, suppressing DOR deadlocks entirely.

The runner measures both routing subjects under every pattern at a fixed
set of loads and reports normalized deadlock frequency plus the deadlock
characteristics, so the "similar to uniform" claim and the DOR exception
can both be checked.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config, scaled_loads

__all__ = ["run"]

EXPERIMENT_ID = "SEC3.6"
DESCRIPTION = (
    "Deadlock frequency and characteristics under non-uniform traffic "
    "patterns, relative to uniform"
)

PATTERNS = ("uniform", "bit-reversal", "transpose", "perfect-shuffle", "hot-spot")


def run(
    scale: str = "bench",
    loads: Sequence[float] | None = None,
    routing: str = "dor",
    patterns: Sequence[str] = PATTERNS,
    **overrides,
) -> ExperimentResult:
    loads = list(loads) if loads is not None else scaled_loads(scale)
    base = scaled_config(scale, routing=routing, num_vcs=1, **overrides)

    sweeps = {}
    for pattern in patterns:
        cfg = base.replace(traffic=pattern)
        sweeps[pattern] = experiment_sweep(cfg, loads, label=pattern)

    uniform_total = sum(sweeps["uniform"].deadlock_counts) if "uniform" in sweeps else 0
    obs: dict[str, float] = {"uniform_total_deadlocks": float(uniform_total)}
    for pattern in patterns:
        if pattern == "uniform":
            continue
        total = sum(sweeps[pattern].deadlock_counts)
        obs[f"{pattern}_total_deadlocks"] = float(total)
        obs[f"{pattern}_vs_uniform_ratio"] = (
            total / uniform_total if uniform_total else float("nan")
        )
    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, sweeps, obs)
