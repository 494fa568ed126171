"""Section 3.5 — effect of network node degree.

The paper compares a 16-ary 2-cube (2D, 256 nodes) against a 4-ary 4-cube
(4D, 256 nodes), both with TFAR and one VC.  Load is normalized per
topology (total link bandwidth over average internode distance), so the
comparison isolates node degree and dimensionality.

Reported shape: the 4D network forms fewer than 1% of the 2D network's
deadlocks before saturation, sustains load well beyond the 2D saturation
point, and the few deadlocks it does form are all single-cycle — the extra
physical channels cut contention while the added dimensions raise the
degree of dependency correlation a knot requires.

At bench scale the same node count is preserved: 8-ary 2-cube (64 nodes)
vs 2x2x2x... we use a 4-ary 3-cube (64 nodes) so both networks have equal
population and the dimension count is the only change.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config, scaled_loads

__all__ = ["run"]

EXPERIMENT_ID = "SEC3.5"
DESCRIPTION = (
    "Deadlock frequency vs node degree: low- vs high-dimensional tori of "
    "equal size (TFAR, 1 VC)"
)

#: (k, n) pairs per scale — equal node counts, different dimensionality.
GEOMETRIES = {
    "paper": ((16, 2), (4, 4)),
    "bench": ((8, 2), (4, 3)),
    "tiny": ((4, 2), (2, 4)),
}


def run(scale: str = "bench", loads: Sequence[float] | None = None, **overrides) -> ExperimentResult:
    loads = list(loads) if loads is not None else scaled_loads(scale)
    (k_lo, n_lo), (k_hi, n_hi) = GEOMETRIES[scale]
    base = scaled_config(scale, routing="tfar", num_vcs=1, **overrides)

    low = experiment_sweep(
        base.replace(k=k_lo, n=n_lo), loads, label=f"{k_lo}-ary {n_lo}-cube"
    )
    high = experiment_sweep(
        base.replace(k=k_hi, n=n_hi), loads, label=f"{k_hi}-ary {n_hi}-cube"
    )

    low_total = sum(low.deadlock_counts)
    high_total = sum(high.deadlock_counts)
    high_multi = sum(r.multi_cycle_deadlocks for r in high.results)
    obs = {
        "low_dim_total_deadlocks": float(low_total),
        "high_dim_total_deadlocks": float(high_total),
        "high_over_low_deadlock_ratio": (
            high_total / low_total if low_total else float("nan")
        ),
        "high_dim_multi_cycle_deadlocks": float(high_multi),
    }
    sweeps = {low.label: low, high.label: high}
    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, sweeps, obs)
