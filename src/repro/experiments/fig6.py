"""Figure 6 — effect of routing adaptivity (DOR vs TFAR, one VC).

Reported shape (paper, 16-ary 2-cube, bidirectional, 1 VC):

* TFAR suffers **no deadlocks below saturation**, ~1 per 100 delivered at
  saturation;
* DOR forms deadlocks earlier and, in absolute terms, up to ~6x more of
  them, yet sustains higher throughput — its deadlocks are local,
  single-cycle, quickly broken;
* TFAR's rare deadlocks are *multi-cycle* and much larger: deadlock sets
  5–7x and resource sets 7–10x DOR's, knot cycle densities 10–30x;
* TFAR also exhibits many cyclic non-deadlocks (cycles without knots),
  which DOR structurally cannot (its fan-out is 1, so every cycle it forms
  is a knot).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config, scaled_loads

__all__ = ["run"]

EXPERIMENT_ID = "FIG6"
DESCRIPTION = (
    "Normalized deadlocks/cycles and deadlock/resource set sizes vs load "
    "for DOR vs TFAR (1 VC, bidirectional torus, uniform traffic)"
)


def run(scale: str = "bench", loads: Sequence[float] | None = None, **overrides) -> ExperimentResult:
    loads = list(loads) if loads is not None else scaled_loads(scale)
    base = scaled_config(scale, num_vcs=1, **overrides)

    dor = experiment_sweep(base.replace(routing="dor"), loads, label="DOR")
    tfar = experiment_sweep(base.replace(routing="tfar"), loads, label="TFAR")

    dor_total = sum(dor.deadlock_counts)
    tfar_total = sum(tfar.deadlock_counts)

    def _ratio(a: float, b: float) -> float:
        return a / b if b else float("inf") if a else 0.0

    # Compare characteristics over the loads where both formed deadlocks.
    tfar_sets = [s for s in tfar.deadlock_set_sizes if s > 0]
    dor_sets = [s for s in dor.deadlock_set_sizes if s > 0]
    tfar_res = [s for s in tfar.resource_set_sizes if s > 0]
    dor_res = [s for s in dor.resource_set_sizes if s > 0]
    tfar_dens = [r.avg_knot_cycle_density for r in tfar.results if r.deadlocks]
    dor_dens = [r.avg_knot_cycle_density for r in dor.results if r.deadlocks]

    def _mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    obs = {
        "dor_total_deadlocks": float(dor_total),
        "tfar_total_deadlocks": float(tfar_total),
        "actual_deadlock_ratio_dor_over_tfar": _ratio(dor_total, tfar_total),
        "deadlock_set_ratio_tfar_over_dor": _ratio(_mean(tfar_sets), _mean(dor_sets)),
        "resource_set_ratio_tfar_over_dor": _ratio(_mean(tfar_res), _mean(dor_res)),
        "knot_density_ratio_tfar_over_dor": _ratio(_mean(tfar_dens), _mean(dor_dens)),
        "dor_multi_cycle_deadlocks": float(
            sum(r.multi_cycle_deadlocks for r in dor.results)
        ),
        "tfar_multi_cycle_deadlocks": float(
            sum(r.multi_cycle_deadlocks for r in tfar.results)
        ),
    }
    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, {"DOR": dor, "TFAR": tfar}, obs)
