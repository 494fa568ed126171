"""Figure 5 — effect of physical links (uni- vs bidirectional torus).

The paper compares a uni- and a bidirectional torus, both running
dimension-order routing with one virtual channel, under uniform traffic.

Reported shape (paper, 16-ary 2-cube):

* the unidirectional torus suffers *more* normalized deadlocks at every
  load (≈7 vs ≈1 per 100 messages delivered below saturation; 60% vs 11%
  deep into saturation), despite carrying less traffic, because every
  message in a uni ring shares the same 50%-utilized links and the
  correlated dependencies deadlock needs form easily;
* deadlock sets stay small (a bi-torus cycle needs at least 3 messages, a
  uni-torus cycle only 2 in principle — the paper observes up to ~4 and ~3
  below saturation, converging to about 6 deep in saturation);
* all deadlocks are single-cycle.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config, scaled_loads

__all__ = ["run"]

EXPERIMENT_ID = "FIG5"
DESCRIPTION = (
    "Normalized deadlocks and deadlock-set size vs load for uni- vs "
    "bidirectional tori (DOR, 1 VC, uniform traffic)"
)


def run(scale: str = "bench", loads: Sequence[float] | None = None, **overrides) -> ExperimentResult:
    """Reproduce both panels of Figure 5."""
    loads = list(loads) if loads is not None else scaled_loads(scale)
    base = scaled_config(scale, routing="dor", num_vcs=1, **overrides)

    bi = experiment_sweep(base.replace(bidirectional=True), loads, label="bi-directional")
    uni = experiment_sweep(base.replace(bidirectional=False), loads, label="uni-directional")

    obs = {
        "uni_total_deadlocks": float(sum(uni.deadlock_counts)),
        "bi_total_deadlocks": float(sum(bi.deadlock_counts)),
    }
    # Headline comparisons at the highest load both series completed (deep
    # saturation); a degraded campaign may have lost a point of either.
    deep = max(set(uni.loads) & set(bi.loads), default=None)
    if deep is not None:
        u, b = uni.at_load(deep), bi.at_load(deep)
        obs["uni_norm_deadlocks_deep"] = u.normalized_deadlocks
        obs["bi_norm_deadlocks_deep"] = b.normalized_deadlocks
        obs["uni_avg_deadlock_set_deep"] = u.avg_deadlock_set_size
        obs["bi_avg_deadlock_set_deep"] = b.avg_deadlock_set_size
    sweeps = {"bi-directional": bi, "uni-directional": uni}
    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, sweeps, obs)
