"""Figure 7 — effect of virtual channels (DOR/TFAR x 1..4 VCs).

Reported shape (paper, 16-ary 2-cube, bidirectional, uniform traffic):

* DOR2 forms no deadlocks *before* saturation — the second VC more than
  doubles the load at which deadlocks begin versus DOR1;
* with 3 or more VCs DOR suffers **no deadlocks at all**; TFAR needs only
  2 VCs for the same effect (adaptivity amplifies each added VC);
* extra VCs cut congestion (blocked-message percentage) dramatically and
  delay the appearance of dependency cycles to higher loads, but once
  saturation is reached the cycle count grows explosively — enormous
  cyclic non-deadlocks form even though knots never do.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config, scaled_loads

__all__ = ["run"]

EXPERIMENT_ID = "FIG7"
DESCRIPTION = (
    "Normalized deadlocks vs load and dependency cycles vs blocked "
    "messages for DOR/TFAR with 1-4 VCs"
)


def run(
    scale: str = "bench",
    loads: Sequence[float] | None = None,
    vc_counts: Sequence[int] = (1, 2, 3, 4),
    **overrides,
) -> ExperimentResult:
    loads = list(loads) if loads is not None else scaled_loads(scale)
    base = scaled_config(scale, **overrides)

    sweeps = {}
    for routing in ("dor", "tfar"):
        for vcs in vc_counts:
            label = f"{routing.upper()}{vcs}"
            cfg = base.replace(routing=routing, num_vcs=vcs)
            sweeps[label] = experiment_sweep(cfg, loads, label=label)

    obs: dict[str, float] = {}
    for label, sweep in sweeps.items():
        obs[f"{label}_total_deadlocks"] = float(sum(sweep.deadlock_counts))
        obs[f"{label}_max_cycles"] = float(
            max((r.max_cycle_count for r in sweep.results), default=0)
        )
        obs[f"{label}_min_blocked_pct"] = 100.0 * min(
            sweep.blocked_fractions, default=0.0
        )

    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, sweeps, obs)
