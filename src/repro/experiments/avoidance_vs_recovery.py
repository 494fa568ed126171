"""Recovery vs avoidance comparison (the question the paper motivates).

Section 1 of the paper frames its whole study around one engineering
decision: *when should routing be recovery-based instead of
avoidance-based?*  Its conclusion — "recovery-based routing is viable since
the unrestricted use of only a few virtual channels is sufficient to make
deadlock highly improbable" — implies unrestricted routing plus recovery
should match or beat restricted avoidance routing on the same resources.

This experiment runs, on identical hardware budgets (same topology, VCs,
buffers) and identical workloads:

* **unrestricted TFAR + Disha-style recovery** (the recovery camp),
* **dateline DOR** (avoidance via VC ordering),
* **Duato-protocol adaptive routing** (avoidance via escape channels),

and reports throughput, latency and deadlock counts per load.  The
avoidance algorithms must report zero deadlocks (they are provably
deadlock-free — this doubles as a detector validation); the interesting
output is the throughput/latency cost of their routing restrictions versus
the deadlock-handling cost of recovery.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config, scaled_loads

__all__ = ["run"]

EXPERIMENT_ID = "TAB-AVOID"
DESCRIPTION = (
    "Recovery-based (unrestricted TFAR + Disha) vs avoidance-based "
    "(dateline DOR, Duato) routing on an equal resource budget"
)


def run(
    scale: str = "bench",
    loads: Sequence[float] | None = None,
    num_vcs: int = 3,
    **overrides,
) -> ExperimentResult:
    loads = list(loads) if loads is not None else scaled_loads(scale)
    base = scaled_config(scale, num_vcs=num_vcs, **overrides)

    recovery = experiment_sweep(
        base.replace(routing="tfar", recovery="disha"),
        loads,
        label=f"TFAR{num_vcs}+recovery",
    )
    dateline = experiment_sweep(
        base.replace(routing="dor-dateline"),
        loads,
        label=f"dateline-DOR{num_vcs}",
    )
    duato = experiment_sweep(
        base.replace(routing="duato"), loads, label=f"Duato{num_vcs}"
    )

    def peak(sweep):
        return max(sweep.throughputs, default=0.0)

    obs = {
        "recovery_peak_throughput": peak(recovery),
        "dateline_peak_throughput": peak(dateline),
        "duato_peak_throughput": peak(duato),
        "recovery_total_deadlocks": float(sum(recovery.deadlock_counts)),
        "dateline_total_deadlocks": float(sum(dateline.deadlock_counts)),
        "duato_total_deadlocks": float(sum(duato.deadlock_counts)),
    }
    sweeps = {s.label: s for s in (recovery, dateline, duato)}
    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, sweeps, obs)
