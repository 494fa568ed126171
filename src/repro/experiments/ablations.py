"""Ablations of the design choices DESIGN.md calls out.

Four ablation runners, all comparing matched configurations on identical
workloads (same traffic RNG stream):

* :func:`run_teardown` — instant vs flit-by-flit recovery teardown.  The
  paper removes victims "flit-by-flit"; instant removal is the common
  simulator shortcut.  Measures whether the shortcut distorts results.
* :func:`run_selection` — the paper's straight-through-preferring channel
  selection vs uniform random selection.
* :func:`run_detection_interval` — how the paper's 50-cycle detection
  period trades detection latency against deadlock persistence.
* :func:`run_timeout_mode` — end-to-end comparison of true (knot)
  detection+recovery against timeout-heuristic recovery at several
  thresholds: throughput, recoveries performed, and how many of the
  heuristic's recoveries were unnecessary.

Every point of every runner here goes through
:func:`~repro.experiments.base.experiment_sweep`, so an installed campaign
runner checkpoints and resumes it and ``--obs-level`` rolls it up.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config

__all__ = [
    "run_teardown",
    "run_selection",
    "run_detection_interval",
    "run_timeout_mode",
    "run_message_length",
    "run_granularity",
    "run_faults",
    "run_arbitration",
]


def run_teardown(
    scale: str = "bench", loads: Sequence[float] = (0.8, 1.2), **overrides
) -> ExperimentResult:
    """ABL-REC: instant vs flit-by-flit victim teardown.

    Flit-by-flit is the paper's literal procedure; instant is the usual
    simulator shortcut — deadlock counts should be close.
    """
    base = scaled_config(scale, routing="dor", num_vcs=1, **overrides)
    sweeps = {}
    for mode in ("instant", "flit-by-flit"):
        sweeps[mode] = experiment_sweep(
            base.replace(recovery_teardown=mode), list(loads), label=mode
        )
    obs = {
        f"{mode}_total_deadlocks": float(sum(s.deadlock_counts))
        for mode, s in sweeps.items()
    }
    for mode, s in sweeps.items():
        obs[f"{mode}_peak_throughput"] = max(s.throughputs, default=0.0)
    description = "Recovery teardown: instant vs flit-by-flit removal"
    return ExperimentResult("ABL-REC", description, sweeps, obs)


def run_selection(
    scale: str = "bench", loads: Sequence[float] = (0.5, 0.9), **overrides
) -> ExperimentResult:
    """ABL-SEL: straight-through-first vs random channel selection."""
    base = scaled_config(scale, routing="tfar", num_vcs=2, **overrides)
    sweeps = {}
    for policy in ("straight", "random"):
        sweeps[policy] = experiment_sweep(
            base.replace(selection=policy), list(loads), label=policy
        )
    obs = {}
    for policy, s in sweeps.items():
        obs[f"{policy}_peak_throughput"] = max(s.throughputs, default=0.0)
        obs[f"{policy}_total_deadlocks"] = float(sum(s.deadlock_counts))
        obs[f"{policy}_mean_latency"] = sum(
            r.avg_latency for r in s.results
        ) / len(s.results)
    description = ("Channel selection policy: straight-through-first "
                   "(paper default) vs uniform random")
    return ExperimentResult("ABL-SEL", description, sweeps, obs)


def run_detection_interval(
    scale: str = "bench",
    load: float = 1.0,
    intervals: Sequence[int] = (10, 50, 200, 1000),
    **overrides,
) -> ExperimentResult:
    """ABL-INT: detection period vs deadlock persistence and throughput.

    Long periods leave knots wedged between detections: latency rises and
    fewer (but longer-lived) deadlocks are counted.
    """
    base = scaled_config(scale, routing="dor", num_vcs=1, load=load, **overrides)
    sweeps = {}
    obs = {}
    for interval in intervals:
        label = f"interval={interval}"
        sweep = sweeps[label] = experiment_sweep(
            base.replace(detection_interval=interval), [load], label
        )
        for result in sweep.results:  # none when a campaign degraded it
            obs[f"i{interval}_deadlocks"] = float(result.deadlocks)
            obs[f"i{interval}_throughput"] = result.normalized_throughput(
                sweep.capacity
            )
            obs[f"i{interval}_latency"] = result.avg_latency
    description = ("Deadlock-detection invocation period (paper: every 50 "
                   "cycles) vs recovery responsiveness")
    return ExperimentResult("ABL-INT", description, sweeps, obs)


def run_timeout_mode(
    scale: str = "bench",
    load: float = 1.0,
    thresholds: Sequence[int] = (100, 500, 2000),
    **overrides,
) -> ExperimentResult:
    """ABL-TIMEOUT: true-detection recovery vs timeout-heuristic recovery.

    Small thresholds recover many merely-congested messages (unnecessary
    work); large thresholds let true deadlocks wedge the network between
    firings.
    """
    base = scaled_config(scale, routing="dor", num_vcs=1, load=load, **overrides)
    sweeps = {}
    obs = {}

    sweep = sweeps["true-detection"] = experiment_sweep(
        base.replace(detection_mode="knot"), [load], "true-detection"
    )
    for truth in sweep.results:  # none when a campaign degraded it
        obs["true_throughput"] = truth.normalized_throughput(sweep.capacity)
        obs["true_recoveries"] = float(truth.recovered)

    for t in thresholds:
        label = f"timeout={t}"
        sweep = sweeps[label] = experiment_sweep(
            base.replace(detection_mode="timeout", timeout_threshold=t),
            [load],
            label,
        )
        for result in sweep.results:
            obs[f"t{t}_throughput"] = result.normalized_throughput(sweep.capacity)
            obs[f"t{t}_recoveries"] = float(result.timeout_recoveries)
            obs[f"t{t}_unnecessary"] = float(result.unnecessary_recoveries)
            obs[f"t{t}_true_deadlocks_seen"] = float(result.deadlocks)
    description = ("End-to-end: knot-based recovery vs timeout-presumed "
                   "deadlock recovery (the schemes the paper critiques)")
    return ExperimentResult("ABL-TIMEOUT", description, sweeps, obs)


def run_message_length(
    scale: str = "bench",
    load: float = 0.9,
    lengths: Sequence[int] = (4, 8, 16, 32),
    **overrides,
) -> ExperimentResult:
    """EXT-LEN: deadlock frequency vs message length at fixed buffer depth.

    The paper fixes 32-flit messages; this extension varies length with the
    2-flit buffers held constant, so longer messages hold proportionally
    more channels simultaneously — the same mechanism Figure 8 probes from
    the buffer side.  Load is flit-normalized, so all points offer the
    same flit rate: longer worms hold more channels each (resource sets
    grow with length) but fewer worms compete, and the message-normalized
    deadlock rate reflects both forces.
    """
    base = scaled_config(scale, routing="dor", num_vcs=1, load=load, **overrides)
    sweeps = {}
    obs = {}
    for length in lengths:
        label = f"len={length}"
        sweep = sweeps[label] = experiment_sweep(
            base.replace(message_length=length), [load], label
        )
        for result in sweep.results:  # none when a campaign degraded it
            obs[f"len{length}_norm_deadlocks"] = result.normalized_deadlocks
            obs[f"len{length}_avg_resource_set"] = result.avg_resource_set_size
            obs[f"len{length}_blocked_pct"] = 100 * result.avg_blocked_fraction
    description = ("Message length vs deadlock formation (fixed 2-flit "
                   "buffers; flit-normalized load)")
    return ExperimentResult("EXT-LEN", description, sweeps, obs)


def run_granularity(
    scale: str = "bench",
    load: float = 1.0,
    **overrides,
) -> ExperimentResult:
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
    base = scaled_config(
        scale, routing="tfar", num_vcs=1, load=load, **overrides
    )
    sweep = experiment_sweep(
        base.replace(obs_level=max(1, base.obs_level)),
        [load],
        "TFAR1 granularity probe",
    )
    obs = {}
    if sweep.obs is not None:  # none when a campaign degraded the point
        c = sweep.obs["sweep"]["counters"]
        passes = c["detector/full_passes"] + c["detector/shortcircuit_passes"]
        obs["detections"] = float(passes)
        for name, counter in (
            ("true_deadlocked_detections", "passes_cwg_knot"),
            ("pwfg_knotted_detections", "passes_pwfg_knot"),
            ("pwfg_cyclic_detections", "passes_pwfg_cycle"),
            ("pwfg_cyclic_no_knot_detections", "passes_pwfg_cycle_no_knot"),
            ("pwfg_free_wait_knots", "pwfg_knots_free_wait"),
            ("cwg_self_wait_knots", "cwg_knots_self_wait"),
        ):
            obs[name] = float(c.get(f"detector/{counter}", 0))
        differ = c.get("detector/passes_verdicts_differ", 0)
        obs["verdict_agreement_rate"] = 1.0 - differ / passes if passes else 1.0
    description = ("Exact channel-level (CWG knot) vs message-level "
                   "(packet wait-for graph) deadlock verdicts per detection")
    return ExperimentResult("EXT-GRAN", description, {sweep.label: sweep}, obs)


def run_faults(
    scale: str = "bench",
    load: float = 0.8,
    fault_counts: Sequence[int] = (0, 2, 4, 8),
    **overrides,
) -> ExperimentResult:
    """EXT-FAULT: failed links vs deadlock susceptibility (future work §5).

    Removes progressively more physical channels from a torus (chosen by a
    fixed-seed shuffle, skipping sets that would disconnect the network)
    and reruns TFAR with one VC at fixed load.  Each removed link deletes
    routing alternatives along its rings — the Figure 2 exhausted-
    adaptivity mechanism — so the correlated dependencies a knot needs
    form more easily, and blocking and deadlock susceptibility rise as the
    topology degrades.
    """
    import random as _random

    from repro.errors import TopologyError
    from repro.network.simulator import build_topology

    base = scaled_config(scale, routing="tfar", num_vcs=1, load=load, **overrides)
    healthy = build_topology(base.replace(failed_links=()))
    links = [(l.src, l.dst) for l in healthy.links]
    _random.Random(17).shuffle(links)

    sweeps = {}
    obs = {}
    for count in fault_counts:
        label = f"faults={count}"
        try:
            sweep = experiment_sweep(
                base.replace(failed_links=tuple(links[:count])), [load], label
            )
        except TopologyError:
            obs[f"f{count}_skipped_disconnected"] = 1.0
            continue
        sweeps[label] = sweep
        for result in sweep.results:  # none when a campaign degraded it
            obs[f"f{count}_norm_deadlocks"] = result.normalized_deadlocks
            obs[f"f{count}_blocked_pct"] = 100 * result.avg_blocked_fraction
            obs[f"f{count}_latency"] = result.avg_latency
    description = ("Irregular topology: failed links exhaust adaptivity "
                   "and raise deadlock susceptibility (TFAR, 1 VC)")
    return ExperimentResult("EXT-FAULT", description, sweeps, obs)


def run_arbitration(
    scale: str = "bench",
    load: float = 1.0,
    policies: Sequence[str] = ("random", "oldest-first", "round-robin"),
    **overrides,
) -> ExperimentResult:
    """ABL-ARB: service-order (arbitration) policy vs fairness and deadlock.

    Identical workloads served in random, age-priority, or round-robin
    order.  Arbitration shapes the starvation tail (max blocked duration)
    and, by changing which correlated wait patterns persist, can shift
    deadlock frequency at saturation.
    """
    base = scaled_config(scale, routing="dor", num_vcs=1, load=load, **overrides)
    sweeps = {}
    obs = {}
    for policy in policies:
        sweep = sweeps[policy] = experiment_sweep(
            base.replace(arbitration=policy), [load], policy
        )
        for result in sweep.results:  # none when a campaign degraded it
            obs[f"{policy}_deadlocks"] = float(result.deadlocks)
            obs[f"{policy}_max_blocked"] = float(result.max_blocked_duration)
            obs[f"{policy}_max_latency"] = float(result.max_latency)
            obs[f"{policy}_throughput"] = result.normalized_throughput(
                sweep.capacity
            )
    description = ("Arbitration (service order): random vs oldest-first "
                   "vs round-robin at saturation")
    return ExperimentResult("ABL-ARB", description, sweeps, obs)
