"""Detector ablation — true knot detection vs timeout heuristics.

The paper's key methodological claim is that earlier recovery schemes
([4, 5]) only *approximate* deadlock with timeout heuristics and therefore
"provided little insight into the frequency of true deadlocks".  This
ablation quantifies exactly that: during a simulation with the true (knot)
detector, every blocked message's blocked-duration is recorded together
with whether it is genuinely in a deadlock set.  Replaying a family of
timeout thresholds over those records yields, per threshold:

* **false positives** — messages a timeout heuristic would have declared
  deadlocked (and recovered, wasting work) that were merely congested;
* **false negatives** — genuinely deadlocked messages the heuristic has
  not flagged yet;
* precision / recall of the heuristic against ground truth.

Small thresholds flag most of a saturated network; large thresholds let
real deadlocks stall the network for thousands of cycles.  There is no
good middle — which is the motivation for true detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.base import ExperimentResult, scaled_config
from repro.metrics.sweep import SweepResult
from repro.network.simulator import NetworkSimulator

__all__ = ["run", "TimeoutEvaluation", "evaluate_thresholds"]

EXPERIMENT_ID = "ABL-DET"
DESCRIPTION = (
    "True knot detection vs timeout-heuristic approximation: false "
    "positive/negative rates per threshold"
)

DEFAULT_THRESHOLDS = (50, 100, 250, 500, 1000, 2000)


@dataclass(frozen=True)
class TimeoutEvaluation:
    """Confusion-matrix summary of one timeout threshold."""

    threshold: int
    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        flagged = self.true_positives + self.false_positives
        return self.true_positives / flagged if flagged else 1.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def false_positive_rate(self) -> float:
        negatives = self.false_positives + self.true_negatives
        return self.false_positives / negatives if negatives else 0.0


def evaluate_thresholds(
    sim: NetworkSimulator, thresholds: Sequence[int]
) -> list[TimeoutEvaluation]:
    """Replay timeout heuristics over the recorded blocked durations."""
    out = []
    for t in thresholds:
        tp = fp = fn = tn = 0
        for record in sim.detector.records:
            for _mid, duration, in_deadlock in record.blocked_durations:
                flagged = duration >= t
                if flagged and in_deadlock:
                    tp += 1
                elif flagged:
                    fp += 1
                elif in_deadlock:
                    fn += 1
                else:
                    tn += 1
        out.append(TimeoutEvaluation(t, tp, fp, fn, tn))
    return out


def run(
    scale: str = "bench",
    load: float = 0.9,
    thresholds: Sequence[int] = DEFAULT_THRESHOLDS,
    routing: str = "dor",
    **overrides,
) -> ExperimentResult:
    """ABL-DET: replay timeout thresholds over one true-detection run.

    Runs the live simulator directly, not through ``experiment_sweep``:
    the replay reads the simulator's per-message blocked-duration records,
    which a campaign artifact does not carry.
    """
    cfg = scaled_config(
        scale,
        routing=routing,
        num_vcs=1,
        load=load,
        record_blocked_durations=True,
        **overrides,
    )
    sim = NetworkSimulator(cfg)
    result = sim.run()
    evals = evaluate_thresholds(sim, thresholds)

    obs: dict[str, float] = {"true_deadlocks": float(result.deadlocks)}
    for ev in evals:
        obs[f"t{ev.threshold}_precision"] = ev.precision
        obs[f"t{ev.threshold}_recall"] = ev.recall
        obs[f"t{ev.threshold}_true_positives"] = float(ev.true_positives)
        obs[f"t{ev.threshold}_false_positives"] = float(ev.false_positives)
        obs[f"t{ev.threshold}_false_negatives"] = float(ev.false_negatives)
    sweep = SweepResult(
        label=f"{routing.upper()} true-detection run",
        loads=[load],
        results=[result],
        capacity=sim.topology.capacity_flits_per_node_cycle,
    )
    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, {sweep.label: sweep}, obs)
