"""The experiment table: one declaration per figure or section of the paper.

Every experiment of the evaluation has one shape: a few configuration
series, each swept over load, then read for a handful of comparisons.  So
each is declared, not hand-written:

* ``base`` — the :func:`~repro.experiments.base.scaled_config` overrides
  every series shares;
* ``series`` — per scale, the ``(label, overrides)`` pairs in run order,
  or a function of the base config returning them (when a label or an
  override depends on it);
* ``loads`` — the load grid per scale;
* ``observe(sweeps) -> observations`` — the named scalars the claims table
  reads.  It sees only completed points: a point a degraded campaign lost
  is absent from its sweep.  Its docstring is the experiment's paper shape.

:func:`run_experiment` runs a declaration by id: one
:func:`~repro.experiments.base.experiment_sweep` per series, in
declaration order, so an installed campaign runner checkpoints every
point.  ``ABL-DET`` alone is ``live``: its observations replay a live
simulator's blocked-duration records, which a sweep does not carry, so
its ``observe`` runs the series itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.config import SimulationConfig
from repro.experiments.base import (
    LOAD_GRID,
    SCALES,
    ExperimentResult,
    experiment_sweep,
    scaled_config,
)
from repro.metrics.sweep import SweepResult
from repro.network.simulator import NetworkSimulator, build_topology

__all__ = [
    "Experiment", "ALL_EXPERIMENTS", "run_experiment",
    "TimeoutEvaluation", "evaluate_thresholds",
]


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table; calling it runs it."""

    id: str  #: the ``ALL_EXPERIMENTS`` key and CLI id
    description: str
    #: scale -> ``[(label, overrides), ...]``, or a function of the base
    #: config returning that list
    series: Mapping[str, object]
    #: ``observe(sweeps) -> observations`` (``live``: ``observe(loads,
    #: series) -> (sweeps, observations)``)
    observe: Callable
    base: Mapping[str, object] = field(default_factory=dict)
    loads: Mapping[str, Sequence[float]] = field(default_factory=lambda: LOAD_GRID)
    live: bool = False

    def series_for(
        self, scale: str, base: SimulationConfig
    ) -> list[tuple[str, SimulationConfig]]:
        """``(label, config)`` of every series at ``scale``, in run order."""
        series = self.series[scale]
        if callable(series):
            series = series(base)
        return [(label, base.replace(**overrides)) for label, overrides in series]

    def __call__(
        self, scale: str = "bench", loads: Sequence[float] | None = None, **overrides
    ) -> ExperimentResult:
        """Run this experiment at ``scale``: ``overrides`` are config fields
        applied over ``base``, and ``loads`` replaces the load grid."""
        base = scaled_config(scale, **{**self.base, **overrides})
        loads = list(self.loads[scale] if loads is None else loads)
        series = self.series_for(scale, base)
        if self.live:
            sweeps, observations = self.observe(loads, series)
        else:
            sweeps = {
                label: experiment_sweep(config, loads, label) for label, config in series
            }
            observations = self.observe(sweeps)
        return ExperimentResult(self.id, self.description, sweeps, observations)


#: id -> declaration, in the order ``repro experiment all`` runs them
ALL_EXPERIMENTS: dict[str, Experiment] = {}


def run_experiment(
    experiment_id: str,
    scale: str = "bench",
    loads: Sequence[float] | None = None,
    **overrides,
) -> ExperimentResult:
    """Run the experiment declared as ``experiment_id`` (see
    :meth:`Experiment.__call__`)."""
    return ALL_EXPERIMENTS[experiment_id](scale, loads, **overrides)


def experiment(
    experiment_id: str, description: str, series: Mapping[str, object], **fields
):
    """Declare the decorated ``observe`` as ``experiment_id``'s."""

    def declare(observe: Callable) -> Callable:
        ALL_EXPERIMENTS[experiment_id] = Experiment(
            experiment_id, description, series, observe, **fields
        )
        return observe

    return declare


def per_scale(every, **rows) -> dict[str, object]:
    """``every`` at each scale, except the scales ``rows`` name."""
    return {scale: rows.get(scale, every) for scale in SCALES}


def per_point(observe_point: Callable) -> Callable:
    """An ``observe`` that reads each completed point on its own:
    ``observe_point(result, capacity) -> observations``, merged in series
    order."""

    def observe(sweeps: Mapping[str, SweepResult]) -> dict[str, float]:
        obs: dict[str, float] = {}
        for sweep in sweeps.values():
            for result in sweep.results:
                obs.update(observe_point(result, sweep.capacity))
        return obs

    return observe


def _arms(label: str, name: str, *values) -> list[tuple[str, dict]]:
    """One series per value of config field ``name``, labelled
    ``label.format(value)``."""
    return [(label.format(value), {name: value}) for value in values]


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _mean_positive(xs: Sequence[float]) -> float:
    return _mean([x for x in xs if x > 0])


def _ratio(a: float, b: float) -> float:
    return a / b if b else float("inf") if a else 0.0


def _total(sweep: SweepResult) -> float:
    return float(sum(sweep.deadlock_counts))


def _peak(sweep: SweepResult) -> float:
    return max(sweep.throughputs, default=0.0)


# -- the paper's figures and sections ------------------------------------------


@experiment(
    "FIG5",
    "Normalized deadlocks and deadlock-set size vs load for uni- vs "
    "bidirectional tori (DOR, 1 VC, uniform traffic)",
    per_scale([("bi-directional", dict(bidirectional=True)),
               ("uni-directional", dict(bidirectional=False))]),
    base=dict(routing="dor", num_vcs=1),
)
def _fig5(sweeps):
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
    bi, uni = sweeps["bi-directional"], sweeps["uni-directional"]
    obs = {"uni_total_deadlocks": _total(uni), "bi_total_deadlocks": _total(bi)}
    # Headline comparisons at the highest load both series completed (deep
    # saturation); a degraded campaign may have lost a point of either.
    deep = max(set(uni.loads) & set(bi.loads), default=None)
    if deep is not None:
        u, b = uni.at_load(deep), bi.at_load(deep)
        obs["uni_norm_deadlocks_deep"] = u.normalized_deadlocks
        obs["bi_norm_deadlocks_deep"] = b.normalized_deadlocks
        obs["uni_avg_deadlock_set_deep"] = u.avg_deadlock_set_size
        obs["bi_avg_deadlock_set_deep"] = b.avg_deadlock_set_size
    return obs


@experiment(
    "FIG6",
    "Normalized deadlocks/cycles and deadlock/resource set sizes vs load "
    "for DOR vs TFAR (1 VC, bidirectional torus, uniform traffic)",
    per_scale([("DOR", dict(routing="dor")), ("TFAR", dict(routing="tfar"))]),
    base=dict(num_vcs=1),
)
def _fig6(sweeps):
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
    dor, tfar = sweeps["DOR"], sweeps["TFAR"]

    # Compare characteristics over the loads where both formed deadlocks.
    def density(sweep):
        return _mean([r.avg_knot_cycle_density for r in sweep.results if r.deadlocks])

    return {
        "dor_total_deadlocks": _total(dor),
        "tfar_total_deadlocks": _total(tfar),
        "actual_deadlock_ratio_dor_over_tfar": _ratio(_total(dor), _total(tfar)),
        "deadlock_set_ratio_tfar_over_dor": _ratio(
            _mean_positive(tfar.deadlock_set_sizes), _mean_positive(dor.deadlock_set_sizes)
        ),
        "resource_set_ratio_tfar_over_dor": _ratio(
            _mean_positive(tfar.resource_set_sizes), _mean_positive(dor.resource_set_sizes)
        ),
        "knot_density_ratio_tfar_over_dor": _ratio(density(tfar), density(dor)),
        "dor_multi_cycle_deadlocks": float(
            sum(r.multi_cycle_deadlocks for r in dor.results)
        ),
        "tfar_multi_cycle_deadlocks": float(
            sum(r.multi_cycle_deadlocks for r in tfar.results)
        ),
    }


@experiment(
    "FIG7",
    "Normalized deadlocks vs load and dependency cycles vs blocked "
    "messages for DOR/TFAR with 1-4 VCs",
    per_scale([(f"{routing.upper()}{vcs}", dict(routing=routing, num_vcs=vcs))
               for routing in ("dor", "tfar") for vcs in (1, 2, 3, 4)]),
)
def _fig7(sweeps):
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
    obs: dict[str, float] = {}
    for label, sweep in sweeps.items():
        obs[f"{label}_total_deadlocks"] = _total(sweep)
        obs[f"{label}_max_cycles"] = float(
            max((r.max_cycle_count for r in sweep.results), default=0)
        )
        obs[f"{label}_min_blocked_pct"] = 100.0 * min(
            sweep.blocked_fractions, default=0.0
        )
    return obs


@experiment(
    "FIG8",
    "Normalized deadlocks vs load and vs network population for buffer "
    "depths from deep wormhole to virtual cut-through (TFAR, 1 VC)",
    # the paper's depths (2..32 flits of a 32-flit message) as the same
    # fractions of the scale's message length
    per_scale(_arms("buffer={}", "buffer_depth", 2, 4, 6, 8, 16, 32),
              bench=_arms("buffer={}", "buffer_depth", 1, 2, 3, 4, 8, 16),
              tiny=_arms("buffer={}", "buffer_depth", 1, 8)),
    base=dict(routing="tfar", num_vcs=1),
)
def _fig8(sweeps):
    """Figure 8 — effect of buffer depth (wormhole through virtual cut-through).

    The paper sweeps edge-buffer depths of 2, 4, 6, 8, 16 and 32 flits with
    TFAR and one VC; a depth equal to the 32-flit message length is virtual
    cut-through switching, intermediate depths are buffered wormhole.

    Reported shape:

    * depths 2/4/6 saturate at a similar load; depth 8 about 5% higher; depths
      16 and 32 saturate ~75% higher — deeper buffers compact messages onto
      fewer channels, cutting resource contention below saturation;
    * past saturation all wormhole variants deadlock heavily, with the
      cut-through network (buffer >= message) forming the fewest deadlocks;
    * normalized per message *in the network* (Figure 8b), the shallow-buffer
      networks are clearly worst: each message simultaneously holds more
      channels, so the correlated dependencies deadlock needs come cheap.

    At other scales the depths are chosen as the same fractions of the
    message length the paper used (6.25%..100%).
    """
    obs: dict[str, float] = {}
    for label, sweep in sweeps.items():
        key = label.replace("buffer=", "buf")
        sat = sweep.saturation_load
        obs[f"{key}_saturation_load"] = sat if sat is not None else float("nan")
        obs[f"{key}_total_deadlocks"] = _total(sweep)
        pops = sum(r.avg_messages_in_network for r in sweep.results)
        dls = sum(float(r.deadlocks) for r in sweep.results)
        obs[f"{key}_deadlocks_per_msg_in_net"] = dls / pops if pops else 0.0
    return obs


def _cubes(*geometries: tuple[int, int]) -> list[tuple[str, dict]]:
    return [(f"{k}-ary {n}-cube", dict(k=k, n=n)) for k, n in geometries]


@experiment(
    "SEC3.5",
    "Deadlock frequency vs node degree: low- vs high-dimensional tori of "
    "equal size (TFAR, 1 VC)",
    # equal node counts, different dimensionality
    per_scale(_cubes((16, 2), (4, 4)), bench=_cubes((8, 2), (4, 3)),
              tiny=_cubes((4, 2), (2, 4))),
    base=dict(routing="tfar", num_vcs=1),
)
def _node_degree(sweeps):
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
    low, high = sweeps.values()
    low_total, high_total = _total(low), _total(high)
    return {
        "low_dim_total_deadlocks": low_total,
        "high_dim_total_deadlocks": high_total,
        "high_over_low_deadlock_ratio": (
            high_total / low_total if low_total else float("nan")
        ),
        "high_dim_multi_cycle_deadlocks": float(
            sum(r.multi_cycle_deadlocks for r in high.results)
        ),
    }


@experiment(
    "SEC3.6",
    "Deadlock frequency and characteristics under non-uniform traffic "
    "patterns, relative to uniform",
    per_scale(_arms("{}", "traffic", "uniform", "bit-reversal", "transpose",
                    "perfect-shuffle", "hot-spot")),
    base=dict(routing="dor", num_vcs=1),
)
def _traffic_patterns(sweeps):
    """Section 3.6 — effect of non-uniform traffic on deadlocks.

    The paper reports that bit-reversal, matrix-transpose, perfect-shuffle and
    hot-spot traffic give deadlock frequencies and characteristics similar to
    uniform traffic (mostly within 10%), with one structural exception:
    single-cycle deadlocks under DOR require a *circular overlap* of messages
    within a row or column ring, and some permutations make that overlap
    impossible, suppressing DOR deadlocks entirely.

    Every pattern is measured at the same loads, with normalized deadlock
    frequency plus the deadlock characteristics, so the "similar to uniform"
    claim and the DOR exception can both be checked.
    """
    uniform_total = _total(sweeps["uniform"])
    obs = {"uniform_total_deadlocks": uniform_total}
    for pattern, sweep in sweeps.items():
        if pattern != "uniform":
            obs[f"{pattern}_total_deadlocks"] = _total(sweep)
            obs[f"{pattern}_vs_uniform_ratio"] = (
                _total(sweep) / uniform_total if uniform_total else float("nan")
            )
    return obs


@experiment(
    "TAB-AVOID",
    "Recovery-based (unrestricted TFAR + Disha) vs avoidance-based "
    "(dateline DOR, Duato) routing on an equal resource budget",
    per_scale(lambda c: [
        (f"TFAR{c.num_vcs}+recovery", dict(routing="tfar", recovery="disha")),
        (f"dateline-DOR{c.num_vcs}", dict(routing="dor-dateline")),
        (f"Duato{c.num_vcs}", dict(routing="duato")),
    ]),
    base=dict(num_vcs=3),
)
def _avoidance_vs_recovery(sweeps):
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
    recovery, dateline, duato = sweeps.values()
    return {
        "recovery_peak_throughput": _peak(recovery),
        "dateline_peak_throughput": _peak(dateline),
        "duato_peak_throughput": _peak(duato),
        "recovery_total_deadlocks": _total(recovery),
        "dateline_total_deadlocks": _total(dateline),
        "duato_total_deadlocks": _total(duato),
    }


# -- ablations of the design choices DESIGN.md calls out, and extensions ----------


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


#: the timeout thresholds ABL-DET replays
REPLAYED_THRESHOLDS = (50, 100, 250, 500, 1000, 2000)


@experiment(
    "ABL-DET",
    "True knot detection vs timeout-heuristic approximation: false "
    "positive/negative rates per threshold",
    per_scale(lambda c: [(f"{c.routing.upper()} true-detection run", {})]),
    base=dict(routing="dor", num_vcs=1, record_blocked_durations=True),
    loads=per_scale([0.9]),
    live=True,
)
def _detector_ablation(loads, series):
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

    The one run steps a live simulator, not ``experiment_sweep``: the replay
    reads its per-message blocked-duration records, which a campaign
    artifact does not carry.
    """
    [(label, config)] = series
    [load] = loads
    sim = NetworkSimulator(config.replace(load=load))
    result = sim.run()
    obs = {"true_deadlocks": float(result.deadlocks)}
    for ev in evaluate_thresholds(sim, REPLAYED_THRESHOLDS):
        obs[f"t{ev.threshold}_precision"] = ev.precision
        obs[f"t{ev.threshold}_recall"] = ev.recall
        obs[f"t{ev.threshold}_true_positives"] = float(ev.true_positives)
        obs[f"t{ev.threshold}_false_positives"] = float(ev.false_positives)
        obs[f"t{ev.threshold}_false_negatives"] = float(ev.false_negatives)
    capacity = sim.topology.capacity_flits_per_node_cycle
    return {label: SweepResult(label, [load], [result], capacity)}, obs


@experiment(
    "ABL-REC",
    "Recovery teardown: instant vs flit-by-flit removal",
    per_scale(_arms("{}", "recovery_teardown", "instant", "flit-by-flit")),
    base=dict(routing="dor", num_vcs=1),
    loads=per_scale([0.8, 1.2]),
)
def _teardown(sweeps):
    """ABL-REC: instant vs flit-by-flit victim teardown.

    The paper removes victims "flit-by-flit"; instant removal is the common
    simulator shortcut.  Measures whether the shortcut distorts results —
    deadlock counts should be close.
    """
    obs = {f"{mode}_total_deadlocks": _total(s) for mode, s in sweeps.items()}
    for mode, s in sweeps.items():
        obs[f"{mode}_peak_throughput"] = _peak(s)
    return obs


@experiment(
    "ABL-SEL",
    "Channel selection policy: straight-through-first (paper default) vs "
    "uniform random",
    per_scale(_arms("{}", "selection", "straight", "random")),
    base=dict(routing="tfar", num_vcs=2),
    loads=per_scale([0.5, 0.9]),
)
def _selection(sweeps):
    """ABL-SEL: the paper's straight-through-first channel selection vs
    uniform random selection."""
    obs = {}
    for policy, s in sweeps.items():
        obs[f"{policy}_peak_throughput"] = _peak(s)
        obs[f"{policy}_total_deadlocks"] = _total(s)
        obs[f"{policy}_mean_latency"] = _mean([r.avg_latency for r in s.results])
    return obs


@experiment(
    "ABL-INT",
    "Deadlock-detection invocation period (paper: every 50 cycles) vs "
    "recovery responsiveness",
    per_scale(_arms("interval={}", "detection_interval", 10, 50, 200, 1000),
              tiny=_arms("interval={}", "detection_interval", 25, 400)),
    base=dict(routing="dor", num_vcs=1),
    loads=per_scale([1.0]),
)
@per_point
def _detection_interval(result, capacity):
    """ABL-INT: detection period vs deadlock persistence and throughput.

    How the paper's 50-cycle detection period trades detection latency
    against deadlock persistence: long periods leave knots wedged between
    detections, so latency rises and fewer (but longer-lived) deadlocks
    are counted.
    """
    i = result.config.detection_interval
    return {
        f"i{i}_deadlocks": float(result.deadlocks),
        f"i{i}_throughput": result.normalized_throughput(capacity),
        f"i{i}_latency": result.avg_latency,
    }


def _timeouts(*thresholds: int) -> list[tuple[str, dict]]:
    return [("true-detection", dict(detection_mode="knot"))] + [
        (f"timeout={t}", dict(detection_mode="timeout", timeout_threshold=t))
        for t in thresholds
    ]


@experiment(
    "ABL-TIMEOUT",
    "End-to-end: knot-based recovery vs timeout-presumed deadlock recovery "
    "(the schemes the paper critiques)",
    per_scale(_timeouts(100, 500, 2000), tiny=_timeouts(75, 600)),
    base=dict(routing="dor", num_vcs=1),
    loads=per_scale([1.0]),
)
@per_point
def _timeout_mode(result, capacity):
    """ABL-TIMEOUT: true-detection recovery vs timeout-heuristic recovery.

    End-to-end comparison of true (knot) detection+recovery against
    timeout-heuristic recovery at several thresholds: throughput,
    recoveries performed, and how many of the heuristic's recoveries were
    unnecessary.  Small thresholds recover many merely-congested messages
    (unnecessary work); large thresholds let true deadlocks wedge the
    network between firings.
    """
    if result.config.detection_mode == "knot":
        return {
            "true_throughput": result.normalized_throughput(capacity),
            "true_recoveries": float(result.recovered),
        }
    t = result.config.timeout_threshold
    return {
        f"t{t}_throughput": result.normalized_throughput(capacity),
        f"t{t}_recoveries": float(result.timeout_recoveries),
        f"t{t}_unnecessary": float(result.unnecessary_recoveries),
        f"t{t}_true_deadlocks_seen": float(result.deadlocks),
    }


@experiment(
    "EXT-LEN",
    "Message length vs deadlock formation (fixed 2-flit buffers; "
    "flit-normalized load)",
    per_scale(_arms("len={}", "message_length", 4, 8, 16, 32),
              tiny=_arms("len={}", "message_length", 2, 8)),
    base=dict(routing="dor", num_vcs=1),
    loads=per_scale([0.9]),
)
@per_point
def _message_length(result, capacity):
    """EXT-LEN: deadlock frequency vs message length at fixed buffer depth.

    The paper fixes 32-flit messages; this extension varies length with the
    2-flit buffers held constant, so longer messages hold proportionally
    more channels simultaneously — the same mechanism Figure 8 probes from
    the buffer side.  Load is flit-normalized, so all points offer the
    same flit rate: longer worms hold more channels each (resource sets
    grow with length) but fewer worms compete, and the message-normalized
    deadlock rate reflects both forces.
    """
    length = result.config.message_length
    return {
        f"len{length}_norm_deadlocks": result.normalized_deadlocks,
        f"len{length}_avg_resource_set": result.avg_resource_set_size,
        f"len{length}_blocked_pct": 100 * result.avg_blocked_fraction,
    }


#: EXT-GRAN's observation -> the ``detector/*`` counter it reads
GRANULARITY_COUNTERS = (
    ("true_deadlocked_detections", "passes_cwg_knot"),
    ("pwfg_knotted_detections", "passes_pwfg_knot"),
    ("pwfg_cyclic_detections", "passes_pwfg_cycle"),
    ("pwfg_cyclic_no_knot_detections", "passes_pwfg_cycle_no_knot"),
    ("pwfg_free_wait_knots", "pwfg_knots_free_wait"),
    ("cwg_self_wait_knots", "cwg_knots_self_wait"),
)


@experiment(
    "EXT-GRAN",
    "Exact channel-level (CWG knot) vs message-level (packet wait-for graph) "
    "deadlock verdicts per detection",
    # the detector books the verdicts only at obs_level >= 1
    per_scale(lambda c: [
        ("TFAR1 granularity probe", dict(obs_level=max(1, c.obs_level)))
    ]),
    base=dict(routing="tfar", num_vcs=1),
    loads=per_scale([1.0]),
)
def _granularity(sweeps):
    """EXT-GRAN: channel- vs message-granularity deadlock analysis.

    At every detection instant, before recovery acts, compares the exact
    CWG-knot verdict with that of the coarser packet wait-for graph (Dally
    & Aoki), which some avoidance schemes reason about — quantifying the
    paper's §2.3 "overly restrictive" remark.  The detector books both
    verdicts as ``detector/*`` counters at ``obs_level >= 1``
    (:func:`~repro.core.detector.granularity_verdicts`); they are this
    sweep point's observations.  Message-level cycles appear without a
    true deadlock (``pwfg_cyclic_no_knot_detections``): forbidding them,
    as some avoidance schemes do, sacrifices routing freedom needlessly.
    """
    (sweep,) = sweeps.values()
    if sweep.obs is None:  # no completed point
        return {}
    c = sweep.obs["sweep"]["counters"]
    passes = c["detector/full_passes"] + c["detector/shortcircuit_passes"]
    obs = {"detections": float(passes)}
    for name, counter in GRANULARITY_COUNTERS:
        obs[name] = float(c.get(f"detector/{counter}", 0))
    differ = c.get("detector/passes_verdicts_differ", 0)
    obs["verdict_agreement_rate"] = 1.0 - differ / passes if passes else 1.0
    return obs


def _failed_links(*counts: int) -> Callable[[SimulationConfig], list]:
    """Series removing the first ``count`` links of a fixed-seed shuffle of
    the base topology's links."""

    def series(base: SimulationConfig) -> list[tuple[str, dict]]:
        links = [(l.src, l.dst) for l in build_topology(base.replace(failed_links=())).links]
        random.Random(17).shuffle(links)
        return [(f"faults={n}", dict(failed_links=tuple(links[:n]))) for n in counts]

    return series


@experiment(
    "EXT-FAULT",
    "Irregular topology: failed links exhaust adaptivity and raise deadlock "
    "susceptibility (TFAR, 1 VC)",
    per_scale(_failed_links(0, 2, 4, 8), tiny=_failed_links(0, 2)),
    base=dict(routing="tfar", num_vcs=1),
    loads=per_scale([0.8]),
)
@per_point
def _faults(result, capacity):
    """EXT-FAULT: failed links vs deadlock susceptibility (future work §5).

    Removes progressively more physical channels from a torus (chosen by a
    fixed-seed shuffle) and reruns TFAR with one VC at fixed load.  Each
    removed link deletes routing alternatives along its rings — the
    Figure 2 exhausted-adaptivity mechanism — so the correlated
    dependencies a knot needs form more easily, and blocking and deadlock
    susceptibility rise as the topology degrades.
    """
    n = len(result.config.failed_links)
    return {
        f"f{n}_norm_deadlocks": result.normalized_deadlocks,
        f"f{n}_blocked_pct": 100 * result.avg_blocked_fraction,
        f"f{n}_latency": result.avg_latency,
    }


@experiment(
    "ABL-ARB",
    "Arbitration (service order): random vs oldest-first vs round-robin at "
    "saturation",
    per_scale(_arms("{}", "arbitration", "random", "oldest-first", "round-robin")),
    base=dict(routing="dor", num_vcs=1),
    loads=per_scale([1.0]),
)
@per_point
def _arbitration(result, capacity):
    """ABL-ARB: service-order (arbitration) policy vs fairness and deadlock.

    Identical workloads served in random, age-priority, or round-robin
    order.  Arbitration shapes the starvation tail (max blocked duration)
    and, by changing which correlated wait patterns persist, can shift
    deadlock frequency at saturation.
    """
    policy = result.config.arbitration
    return {
        f"{policy}_deadlocks": float(result.deadlocks),
        f"{policy}_max_blocked": float(result.max_blocked_duration),
        f"{policy}_max_latency": float(result.max_latency),
        f"{policy}_throughput": result.normalized_throughput(capacity),
    }


def _zoo(torus: tuple, dragonfly: tuple, mesh_nodes: int) -> list[tuple[str, dict]]:
    """TOPO-CMP's series on one geometry; the TSV torus's third dimension
    has link latency 4."""
    return [
        ("torus3d/dor", dict(topology="torus3d", dims=torus, routing="dor")),
        ("torus3d-tsv/dor", dict(topology="torus3d", dims=torus,
                                 link_latencies=(1, 1, 4), routing="dor")),
        ("dragonfly/df-min", dict(topology="dragonfly", dims=dragonfly,
                                  routing="df-min")),
        ("fullmesh/fm-2hop", dict(topology="fullmesh", dims=(mesh_nodes,),
                                  routing="fm-2hop")),
    ]


@experiment(
    "TOPO-CMP",
    "Deadlock formation across topology classes: 3D torus (uniform & TSV), "
    "dragonfly, full mesh at matched node count (1 VC, deadlock-capable "
    "routing per class)",
    # Node counts are matched exactly at bench scale (36 nodes everywhere).
    # At tiny/paper scale the dragonfly's canonical a*(a*h+1) router count
    # forces an approximate match (12 vs 16, 264 vs 256); the torus keeps a
    # radix-4 ring at every scale because bidirectional DOR on radix <= 3
    # rings takes at most one hop per dimension and is therefore
    # structurally deadlock-free — no ring would ever close a knot.
    per_scale(_zoo((8, 8, 4), (8, 4, 4), 256), bench=_zoo((4, 3, 3), (4, 2, 2), 36),
              tiny=_zoo((4, 2, 2), (3, 1, 1), 16)),
    base=dict(num_vcs=1),
)
def _topology_comparison(sweeps):
    """TOPO-CMP — deadlock character across topology classes.

    The paper characterizes deadlocks on k-ary n-cubes only.  This study asks
    how far that characterization transfers: the same knot detector and the
    same load sweep are run over the topology zoo — a 3D torus (with and
    without a slow "TSV" dimension), a dragonfly, and a full mesh — at a
    matched node count, each under its natural *deadlock-capable* routing
    function:

    * ``torus3d`` / dimension-order routing — the paper's regime lifted to
      three dimensions; wraparound rings supply the cyclic dependencies.
    * ``torus3d-tsv`` — identical geometry with a latency-4 third dimension
      (through-silicon-via model): same dependency structure, less bandwidth
      where cycles close.
    * ``dragonfly`` / minimal routing — cycles thread local→global→local
      channels across groups rather than rings.
    * ``fullmesh`` / 2-hop misrouting — direct routing is provably
      deadlock-free, so the prone variant misroutes through one random
      intermediate (a Valiant degenerate); cycles need three worms parked
      at intermediates, which is reachable but rare.

    Load is normalized per topology (aggregate link bandwidth over average
    internode distance, the same normalization the paper and SEC3.5 use), so
    each class is stressed relative to its own capacity; the absolute
    capacities are reported as observations.  Expected shape: the torus
    forms deadlocks readily, the TSV variant no more than the uniform one at
    equal normalized load (per-dimension latency changes bandwidth, not the
    dependency structure knots need), the dragonfly forms them through
    local->global->local chains rather than rings, and the full mesh forms
    none (or almost none) — wealth of paths, poverty of cycles.
    """
    obs = {}
    for label, sweep in sweeps.items():
        key = label.split("/", 1)[0].replace("-", "_")
        obs[f"{key}_total_deadlocks"] = _total(sweep)
        obs[f"{key}_mean_knot_size"] = _mean_positive(sweep.deadlock_set_sizes)
        obs[f"{key}_mean_cycle_density"] = _mean_positive(
            [r.avg_knot_cycle_density for r in sweep.results]
        )
        obs[f"{key}_capacity_flits"] = sweep.capacity
    return obs
