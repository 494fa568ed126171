#!/usr/bin/env python3
"""Deterministic performance baseline: writes ``BENCH_core.json``.

One row per question, each gated on a ratio of two timings taken in the
same session, so a whole-machine slowdown (a shared host reads up to ~30%
slow from one run to the next) cancels out of the gate instead of failing
it:

* ``scenarios`` — **cycles/sec** of the legacy and production engines on
  three engine scenarios, both engines timed through the same cycle
  window in each round.  Each production/legacy **speedup** — the median
  of the per-round ratios — is gated within 20% of the committed one,
  and the saturated one (16-ary 2-cube, TFAR, load 0.9 — the
  configuration every figure sweep spends its time in) also at ≥ 5×
  (``acceptance``), as shipped: the detector's per-pass CWG build is
  part of every timed cycle;
* ``detector_by_size`` — **detector µs/pass against CWG size**: full
  passes, as shipped and reference, census off and on, on frozen
  saturated snapshots of a tiny 4-ary, an 8-ary bench and the 16-ary
  acceptance network, and of the 16-ary virtual cut-through network of
  FIG8, each with its CWG vertex, worm and blocked counts.  The saturated
  row's two reference/as-shipped ratios (census off, on) and the
  cut-through row's census-on ratio, each the median of per-round ratios,
  are gated within 20% of the committed ones;
* ``phase_breakdown`` — the **per-phase split** of the acceptance scenario
  (``obs_level=1`` profiler): where the engine's time goes, including the
  detector's share of a cycle against its ≤ 25% target.  Recorded for
  diagnosis and printed by ``--check`` when a gate fails, not gated;
* ``obs_overhead`` — the **CPU-time cost of ``obs_level=1``** over
  observability off on the moderate 8-ary scenario: the median of 15
  lockstep per-rep ratios, gated at ≤ 1.10×;
* ``campaign_fanout`` — the **campaign layer's per-point cost** where it
  dominates: 48 points of ~20 ms run direct-serial, cold-drained at 1
  and 2 workers and service-drained on 1 and 2 local slots in one
  session, ``overhead_ms_per_point`` each, gated on two same-session
  ratios (cold W=1 ≤ 1.35× direct, service W=2 ≤ 1.5× cold W=2);
* ``shape_cache`` — **what a warm network shape spares**: the exact
  ``routing.candidates`` call and topology build counts of a tiny
  six-load sweep run twice in one process from a cold shape cache, the
  second run's counts gated at 0, and the paper-default constructor's
  cold / warm times and their ratio (median of per-round ratios),
  recorded ungated.

The committed ``BENCH_core.json`` is this repo's perf trajectory: regenerate
it with ``python scripts/bench_baseline.py`` after engine work (it measures
:data:`RECORD_RUNS` times and commits each relatively gated ratio at the
median), and gate
regressions with ``python scripts/bench_baseline.py --check`` (used by
``scripts/ci_check.sh``), which re-times every row and fails when a gate in
:data:`RELATIVE_GATES` or :data:`BAR_GATES` fails.

Timings are wall-clock and machine-dependent; the gated quantities are
ratios, so they transfer across machines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import bench_default, paper_default, tiny_default  # noqa: E402
from repro.core.detector import DeadlockDetector  # noqa: E402
from repro.metrics.sweep import run_load_sweep  # noqa: E402
from repro.network import simulator  # noqa: E402
from repro.network.simulator import NetworkSimulator, network_shape  # noqa: E402
from repro.obs.profiler import phase_rows, phase_table, share_pct  # noqa: E402
from repro.routing import TrueFullyAdaptiveRouting  # noqa: E402
from repro.validation.reference import ReferenceDetector, ReferenceEngine  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_core.json"

#: engine scenarios: name -> (config factory kwargs, warmup cycles, timed cycles)
ENGINE_SCENARIOS = {
    "engine_saturated_16ary": dict(
        factory=paper_default,
        overrides=dict(
            routing="tfar",
            num_vcs=1,
            load=0.9,
            count_cycles=False,
        ),
        # The scenario's name is the *saturated steady state*: at load 0.9
        # the 16-ary network saturates around cycle ~300 but keeps deepening
        # (longer blocked chains, bigger knots, higher parked fractions)
        # until per-window rates flatten out around cycle ~2500.  Paper
        # campaigns run tens of thousands of cycles, so >95% of their
        # wall-clock is spent in that deep regime — warm past the transient
        # so the recorded rates (and speedup ratios) describe the state a
        # sweep actually pays for.  The transient itself is covered by the
        # two moderate scenarios below.  The timed window is long enough
        # that each round's production side runs >= 0.5 s: at 400 cycles
        # (~70 ms) the host's scheduling noise moved the ratio by 25%.
        warm=2550,
        cycles=6000,
    ),
    "engine_moderate_8ary": dict(
        factory=bench_default,
        overrides=dict(routing="dor", num_vcs=1, load=0.4),
        warm=300,
        cycles=1500,
    ),
    "engine_four_vcs_8ary": dict(
        factory=bench_default,
        overrides=dict(routing="tfar", num_vcs=4, load=0.8),
        warm=300,
        cycles=1500,
    ),
}

#: the scenario whose production/legacy ratio is the acceptance criterion,
#: and its bar
ACCEPTANCE_SCENARIO = "engine_saturated_16ary"
ACCEPTANCE_REQUIRED_SPEEDUP = 5.0

#: engine name -> the class that builds it
ENGINES = {"legacy": ReferenceEngine, "production": NetworkSimulator}


def _timed_engines(spec: dict, reps: int = 5) -> dict[str, list[float]]:
    """Seconds per round for each engine, both engines in every round.

    All sims are constructed and warmed first; then round *k* times every
    engine back to back through the same cycle window (the engines are
    bit-identical, so they do the same work) before round *k+1* starts.
    A slow spell of the host lands inside one round, so it moves one
    per-round ratio (:func:`_median_ratio`), not one side of every ratio.
    """
    cfg = spec["factory"](
        warmup_cycles=0,
        measure_cycles=1,
        seed=1,
        # benchmarks time the engine, never the correctness net: pin the
        # runtime invariant checker off even if the project default changes
        validation_level=0,
        **spec["overrides"],
    )
    sims = {name: engine(cfg) for name, engine in ENGINES.items()}
    for sim in sims.values():
        for _ in range(spec["warm"]):
            sim.step()
    cycles = spec["cycles"]
    times: dict[str, list[float]] = {name: [] for name in sims}
    for _ in range(reps):
        for name, sim in sims.items():
            t0 = time.perf_counter()
            for _ in range(cycles):
                sim.step()
            times[name].append(time.perf_counter() - t0)
    return times


def _median_ratio(numerator_s: list[float], denominator_s: list[float]) -> float:
    """The median over rounds of one round's ``numerator / denominator``.

    Both sides of a round's ratio are timed back to back, so a slow spell
    of the host that hits one round moves that round's ratio only, and
    the median drops it; a best-of per side would let a spell that misses
    one side's best round inflate the ratio of the bests.
    """
    return statistics.median(n / d for n, d in zip(numerator_s, denominator_s))


#: detector µs/pass against CWG size: name -> (config factory, overrides,
#: warm cycles, full passes per timing).  Each network is warmed into
#: saturation and then frozen, so every mode times the same CWG.
DETECTOR_SIZES = {
    "tiny_4ary": dict(
        factory=tiny_default,
        overrides=dict(routing="tfar", num_vcs=1, load=1.0),
        warm=300,
        passes=200,
    ),
    "bench_8ary": dict(
        factory=bench_default,
        overrides=dict(routing="tfar", num_vcs=1, load=0.9),
        warm=1000,
        passes=100,
    ),
    # the acceptance scenario's own snapshot; enough passes that a round
    # of the as-shipped pass (~0.5-1 ms each) spans tens of milliseconds,
    # longer than the host's scheduling hiccups
    "saturated_16ary": dict(
        factory=paper_default,
        overrides=ENGINE_SCENARIOS[ACCEPTANCE_SCENARIO]["overrides"],
        warm=ENGINE_SCENARIOS[ACCEPTANCE_SCENARIO]["warm"],
        passes=100,
    ),
    # FIG8 virtual cut-through at paper scale, where nearly every worm
    # holds one VC and every census pass runs Johnson to its 50,000 cap;
    # the warm-up skips the census (it only observes, so the trajectory is
    # the same) and the timed modes switch it on themselves
    "vct_16ary": dict(
        factory=paper_default,
        overrides=dict(
            routing="tfar", num_vcs=1, load=0.8, buffer_depth=32,
            count_cycles=False,
        ),
        warm=1000,
        passes=1,
    ),
}

#: the detector of each timed mode of a size row: (class, census on?)
DETECTOR_MODES = {
    "as_shipped": (DeadlockDetector, False),
    "reference": (ReferenceDetector, False),
    "as_shipped_census": (DeadlockDetector, True),
    "reference_census": (ReferenceDetector, True),
}


def _detector_by_size(rounds: int = 5) -> dict:
    """Full-pass detector cost against CWG size, as shipped vs reference.

    Every pass is full (the blocked epoch is bumped before each, so the
    short-circuit never fires).  Every mode is timed in every round; the
    speedups are medians of per-round ratios, as in :func:`_timed_engines`,
    and ``us_per_pass`` records each mode's best round.
    """
    rows = {}
    for name, spec in DETECTOR_SIZES.items():
        cfg = spec["factory"](
            warmup_cycles=0,
            measure_cycles=1,
            seed=1,
            validation_level=0,
            **spec["overrides"],
        )
        sim = NetworkSimulator(cfg)
        for _ in range(spec["warm"]):
            sim.step()
        g = DeadlockDetector.build_cwg(sim)
        us: dict[str, list[float]] = {mode: [] for mode in DETECTOR_MODES}
        for _ in range(rounds):
            for mode, (detector_class, census) in DETECTOR_MODES.items():
                detector = detector_class(count_cycles=census)
                t0 = time.perf_counter()
                for _ in range(spec["passes"]):
                    sim.blocked_epoch += 1
                    detector.detect(sim)
                elapsed = time.perf_counter() - t0
                us[mode].append(1e6 * elapsed / spec["passes"])
        rows[name] = {
            "cwg_vertices": g.num_vertices,
            "worms": len(g.chains),
            "blocked": len(g.requests),
            "us_per_pass": {mode: round(min(t), 1) for mode, t in us.items()},
            "speedup": round(
                _median_ratio(us["reference"], us["as_shipped"]), 3
            ),
            "speedup_census": round(
                _median_ratio(us["reference_census"], us["as_shipped_census"]),
                3,
            ),
        }
    return rows


def format_detector_by_size(rows: dict) -> str:
    lines = ["detector us/pass by CWG size (shipped / reference, census off; on):"]
    for name, row in rows.items():
        us = row["us_per_pass"]
        lines.append(
            f"  {name:<16} {row['cwg_vertices']:>4} vertices "
            f"{row['worms']:>4} worms  "
            f"{us['as_shipped']:>8.0f} / {us['reference']:>8.0f}  "
            f"({row['speedup']:.2f}x);  {us['as_shipped_census']:>8.0f} / "
            f"{us['reference_census']:>8.0f}  ({row['speedup_census']:.2f}x)"
        )
    return "\n".join(lines)


#: same-session ratio bars of the fan-out regime (see _campaign_fanout)
FANOUT_COLD_W1_MAX_RATIO = 1.35
FANOUT_SERVICE_W2_MAX_RATIO = 1.5


def _campaign_fanout(reps: int = 5) -> dict:
    """Per-point cost of the campaign layer where it dominates.

    48 points of ~20 ms each (the configs of the repo benchmark's
    ``campaign_fanout_tiny``), so slot start, artifact write, manifest
    update and lease hand-off are a large share of the pass.  One session
    times the points run in-process on one core (``direct``),
    cold-drained by :class:`~repro.campaign.CampaignRunner` at 1 and 2
    workers, and drained by a :class:`~repro.campaign.service.CampaignService`
    on 1 and 2 local slots (submit → drain; service start/stop excluded),
    interleaved and best-of-``reps``.  ``overhead_ms_per_point`` is each
    mode's wall-clock over ``direct``, per point — at 2 workers it goes
    negative once the second core pays for the layer.  Every mode's
    results must equal the direct run's.

    ``--check`` gates two same-session ratios (:func:`_paired_ratio`):
    cold W=1 over direct (the cost of durability with no parallelism to
    hide it) and service W=2 over cold W=2 (the service must not be much
    slower than no service).
    """
    import tempfile

    from repro.campaign import CampaignRunner
    from repro.campaign.service import CampaignService, ServiceRunner

    configs = [
        tiny_default(
            warmup_cycles=100, measure_cycles=200, seed=seed, load=load
        )
        for seed in range(7, 15)
        for load in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8)
    ]
    n = len(configs)

    def direct() -> tuple[list, float]:
        t0 = time.perf_counter()
        results = [NetworkSimulator(config).run() for config in configs]
        return results, time.perf_counter() - t0

    def cold(workers: int) -> tuple[list, float]:
        with tempfile.TemporaryDirectory(prefix="bench_fanout_") as tmp:
            t0 = time.perf_counter()
            out = CampaignRunner(tmp, max_workers=workers).run_points(configs)
            elapsed = time.perf_counter() - t0
        return [out["completed"][i].result for i in range(n)], elapsed

    def service(workers: int) -> tuple[list, float]:
        with tempfile.TemporaryDirectory(prefix="bench_fanout_") as tmp:
            with CampaignService(tmp, local_workers=workers) as svc:
                t0 = time.perf_counter()
                out = ServiceRunner(svc).run_points(configs)
                elapsed = time.perf_counter() - t0
        return [out["completed"][i].result for i in range(n)], elapsed

    # run order: each gated pair back to back, so a slow spell of the
    # machine lands on both sides of its ratio
    modes = {
        "direct": direct,
        "cold_w1": lambda: cold(1),
        "cold_w2": lambda: cold(2),
        "service_w2": lambda: service(2),
        "service_w1": lambda: service(1),
    }
    times: dict[str, list[float]] = {name: [] for name in modes}
    reference, _ = direct()  # also warms imports and routing tables
    for _ in range(reps):
        for name, run in modes.items():
            results, elapsed = run()
            assert results == reference, f"{name} diverged from the direct run"
            times[name].append(elapsed)

    best = {name: min(seconds) for name, seconds in times.items()}
    record = {
        "scenario": "campaign_fanout_48_tiny_points",
        "points": n,
        "required_max_cold_w1_ratio": FANOUT_COLD_W1_MAX_RATIO,
        "required_max_service_w2_ratio": FANOUT_SERVICE_W2_MAX_RATIO,
        "cold_w1_over_direct": round(
            _paired_ratio(times["cold_w1"], times["direct"]), 2
        ),
        "service_w2_over_cold_w2": round(
            _paired_ratio(times["service_w2"], times["cold_w2"]), 2
        ),
    }
    for name, seconds in best.items():
        record[name] = {
            "wall_s": round(seconds, 3),
            "overhead_ms_per_point": round(
                1e3 * (seconds - best["direct"]) / n, 2
            ),
        }
    return record


def _paired_ratio(numerator_s: list[float], denominator_s: list[float]) -> float:
    """Ratio of two timings taken back to back, rep by rep, in one session.

    The smaller of two estimates that fail differently on a shared host:
    the ratio of the best-of mins (each min may come from a different
    quiet moment, so it inherits that luck) and the median over reps of
    the same-rep ratio (adjacent timings share their moment; the median
    drops the reps where noise hit only one side).  Noise that inflates a
    gated ratio has to fool both.
    """
    return min(
        min(numerator_s) / min(denominator_s),
        statistics.median(n / d for n, d in zip(numerator_s, denominator_s)),
    )


def format_campaign_fanout(record: dict) -> str:
    modes = ("direct", "cold_w1", "cold_w2", "service_w1", "service_w2")
    return (
        f"campaign fan-out ({record['points']} tiny points): "
        + ", ".join(
            f"{m} {record[m]['wall_s']:.2f}s "
            f"({record[m]['overhead_ms_per_point']:+.1f} ms/pt)"
            for m in modes
        )
        + f"; cold W=1 {record['cold_w1_over_direct']:.2f}x direct, "
        f"service W=2 {record['service_w2_over_cold_w2']:.2f}x cold W=2"
    )


#: the detector's target share of a saturated cycle (reported, not gated)
DETECTOR_SHARE_TARGET_PCT = 25.0


def _phase_breakdown() -> dict:
    """Per-phase wall-clock split of the acceptance scenario.

    Runs the saturated 16-ary scenario once with ``obs_level=1`` (phase
    profiler on), discards the warmup cycles, and records where the engine's
    time goes — generate / allocate / move / detect, plus the detector's
    knot and census stages, as :func:`~repro.obs.profiler.phase_rows`
    rows (self time next to the inclusive total, shares of the top-level
    total that sum to 100%).  ``detector_share_pct`` is ``engine/detect``'s
    inclusive time over that total.  Shares are ratios and transfer across
    machines; they are recorded for diagnosis (printed when the benchmark
    gate fails), not gated themselves.
    """
    spec = ENGINE_SCENARIOS[ACCEPTANCE_SCENARIO]
    cfg = spec["factory"](
        warmup_cycles=0,
        measure_cycles=1,
        seed=1,
        validation_level=0,
        obs_level=1,
        **spec["overrides"],
    )
    sim = NetworkSimulator(cfg)
    for _ in range(spec["warm"]):
        sim.step()
    warm = sim.obs.profiler.snapshot()
    for _ in range(spec["cycles"]):
        sim.step()
    zero = {"total_s": 0.0, "calls": 0}
    snap = {  # the timed cycles only: the warmup's totals subtracted
        name: {key: row[key] - warm.get(name, zero)[key] for key in zero}
        for name, row in sim.obs.profiler.snapshot().items()
    }
    phases = phase_rows(snap)
    return {
        "scenario": ACCEPTANCE_SCENARIO,
        "timed_cycles": spec["cycles"],
        "phases": phases,
        # the self times partition the top-level total
        "detector_share_pct": share_pct(
            phases["engine/detect"]["total_ms"],
            sum(row["self_ms"] for row in phases.values()),
        ),
        "detector_share_target_pct": DETECTOR_SHARE_TARGET_PCT,
    }


#: the bar on obs_level=1's CPU-time cost over obs_level=0 (see _obs_overhead)
OBS_OVERHEAD_MAX_RATIO = 1.10


def _obs_overhead(warm: int = 200, cycles: int = 400, reps: int = 15) -> dict:
    """CPU-time cost of ``obs_level=1`` over observability off.

    Two simulators of the moderate 8-ary scenario, one per level, step in
    lockstep (same seed, same warm-up), so each rep times both through the
    *same* ``cycles``-cycle window, alternating which goes first.  Each
    side is timed with ``time.process_time`` (this process's CPU time,
    blind to other load on the host) and the ratio is the median of the
    per-rep on/off ratios, so a burst of machine noise moves one rep, not
    the verdict.  The bar keeps ``--obs-level 1`` safe to leave on for
    real sweeps.
    """
    sims = {}
    for level in (0, 1):
        sims[level] = NetworkSimulator(
            bench_default(
                routing="dor",
                num_vcs=1,
                load=0.4,
                warmup_cycles=0,
                measure_cycles=1,
                seed=1,
                obs_level=level,
                validation_level=0,
            )
        )
        for _ in range(warm):
            sims[level].step()
    ratios = []
    for rep in range(reps):
        spent = {}
        for level in (0, 1) if rep % 2 == 0 else (1, 0):
            sim = sims[level]
            t0 = time.process_time()
            for _ in range(cycles):
                sim.step()
            spent[level] = time.process_time() - t0
        ratios.append(spent[1] / spent[0])
    return {
        "scenario": "bench_8ary_dor_load0.4",
        "warm_cycles": warm,
        "cycles": cycles,
        "reps": reps,
        "ratio": round(statistics.median(ratios), 3),
        "required_max_ratio": OBS_OVERHEAD_MAX_RATIO,
    }


#: the shape-cache row's sweep: tiny TFAR, six loads
SHAPE_SWEEP_LOADS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)


def _shape_cache(rounds: int = 9) -> dict:
    """What a warm network shape spares: work counted, construction timed.

    The tiny sweep runs twice from a cleared shape cache with the
    relation's ``candidates`` and the simulator module's ``build_topology``
    counted: the first run builds the shape and routes every key once, the
    second finds both in the shape the first left, so each of its counts
    must read 0 (both gated, exactly).  Each round then times the
    paper-default 16-ary constructor once on a cleared cache and once warm;
    those times and their ratio are recorded but not gated, since a faster
    topology build would lower the ratio without anything regressing.
    """
    network_shape.cache_clear()
    counts = []
    with mock.patch.object(
        TrueFullyAdaptiveRouting, "candidates", autospec=True,
        side_effect=TrueFullyAdaptiveRouting.candidates,
    ) as calls, mock.patch.object(
        simulator, "build_topology", wraps=simulator.build_topology
    ) as builds:
        for _ in range(2):
            calls.reset_mock()
            builds.reset_mock()
            run_load_sweep(tiny_default(routing="tfar"), SHAPE_SWEEP_LOADS)
            counts.append((calls.call_count, builds.call_count))
    ratios, cold_s, warm_s = [], [], []
    for _ in range(rounds):
        network_shape.cache_clear()
        for side in (cold_s, warm_s):
            t0 = time.perf_counter()
            NetworkSimulator(paper_default())
            side.append(time.perf_counter() - t0)
        ratios.append(cold_s[-1] / warm_s[-1])
    (cold_calls, cold_builds), (warm_calls, warm_builds) = counts
    return {
        "sweep": f"tiny_tfar_{len(SHAPE_SWEEP_LOADS)}_loads",
        "cold_calls": cold_calls,
        "warm_calls": warm_calls,
        "required_max_warm_calls": 0,
        "cold_topology_builds": cold_builds,
        "warm_topology_builds": warm_builds,
        "required_max_warm_topology_builds": 0,
        "construct": "paper_default_16ary",
        "construct_cold_ms": round(statistics.median(cold_s) * 1e3, 2),
        "construct_warm_ms": round(statistics.median(warm_s) * 1e3, 2),
        "construct_cold_over_warm": round(statistics.median(ratios), 3),
    }


def measure() -> dict:
    scenarios = {}
    for name, spec in ENGINE_SCENARIOS.items():
        times = _timed_engines(spec)
        cycles = spec["cycles"]
        scenarios[name] = {
            "cycles_per_sec_legacy": round(cycles / min(times["legacy"]), 1),
            "cycles_per_sec_production": round(
                cycles / min(times["production"]), 1
            ),
            "speedup": round(
                _median_ratio(times["legacy"], times["production"]), 3
            ),
        }
    return {
        "scenarios": scenarios,
        "acceptance": {
            "scenario": ACCEPTANCE_SCENARIO,
            "required_speedup": ACCEPTANCE_REQUIRED_SPEEDUP,
            "speedup": scenarios[ACCEPTANCE_SCENARIO]["speedup"],
        },
        "detector_by_size": _detector_by_size(),
        "phase_breakdown": _phase_breakdown(),
        "obs_overhead": _obs_overhead(),
        "campaign_fanout": _campaign_fanout(),
        "shape_cache": _shape_cache(),
    }


#: ratios a fresh run must hold within ``tolerance`` of their committed
#: value: key path -> what the ratio compares
RELATIVE_GATES = {
    **{
        ("scenarios", name, "speedup"): "production / legacy cycles per sec"
        for name in ENGINE_SCENARIOS
    },
    ("detector_by_size", "saturated_16ary", "speedup"): (
        "reference / as-shipped detector pass, census off"
    ),
    ("detector_by_size", "saturated_16ary", "speedup_census"): (
        "reference / as-shipped detector pass, census on"
    ),
    ("detector_by_size", "vct_16ary", "speedup_census"): (
        "reference / as-shipped detector pass, census on, cut-through"
    ),
}

#: ratios gated against a fixed bar recorded in the baseline:
#: (fresh value path, committed bar path, the bar is a floor)
BAR_GATES = (
    (
        ("scenarios", ACCEPTANCE_SCENARIO, "speedup"),
        ("acceptance", "required_speedup"),
        True,
    ),
    (
        ("obs_overhead", "ratio"),
        ("obs_overhead", "required_max_ratio"),
        False,
    ),
    (
        ("campaign_fanout", "cold_w1_over_direct"),
        ("campaign_fanout", "required_max_cold_w1_ratio"),
        False,
    ),
    (
        ("campaign_fanout", "service_w2_over_cold_w2"),
        ("campaign_fanout", "required_max_service_w2_ratio"),
        False,
    ),
    (
        ("shape_cache", "warm_calls"),
        ("shape_cache", "required_max_warm_calls"),
        False,
    ),
    (
        ("shape_cache", "warm_topology_builds"),
        ("shape_cache", "required_max_warm_topology_builds"),
        False,
    ),
)


def _at(record, path: tuple):
    for key in path:
        record = record[key]
    return record


def check(baseline: dict, fresh: dict, tolerance: float = 0.20) -> list[str]:
    """Regression messages comparing a fresh run against the baseline.

    Every gated quantity is a ratio of two timings taken interleaved in
    one session — never a raw cycles/sec or µs figure, which would compare
    two sessions of a host whose speed drifts by tens of percent.
    """
    problems = []
    for path, what in RELATIVE_GATES.items():
        base, now = _at(baseline, path), _at(fresh, path)
        floor = base * (1.0 - tolerance)
        if now < floor:
            problems.append(
                f"{'.'.join(path)} regressed to {now:.2f}x "
                f"(committed {base:.2f}x, floor {floor:.2f}x): {what}"
            )
    for value_path, bar_path, is_floor in BAR_GATES:
        now, bar = _at(fresh, value_path), _at(baseline, bar_path)
        if (now < bar) if is_floor else (now > bar):
            problems.append(
                f"{'.'.join(value_path)} at {now:.2f}x is past its bar "
                f"{'.'.join(bar_path)} = {bar:.2f}x"
            )
    return problems


#: ``measure()`` runs a rewrite takes: each relatively gated ratio is
#: committed at their median, so one run at the edge of the host's
#: run-to-run spread does not set a floor the typical run misses
RECORD_RUNS = 3


def _record_medians(fresh: dict, others: list[dict]) -> None:
    """Set every :data:`RELATIVE_GATES` ratio of ``fresh`` to its median
    over ``fresh`` and ``others``."""
    for path in RELATIVE_GATES:
        values = [_at(run, path) for run in (fresh, *others)]
        _at(fresh, path[:-1])[path[-1]] = statistics.median(values)
    fresh["acceptance"]["speedup"] = _at(
        fresh, ("scenarios", ACCEPTANCE_SCENARIO, "speedup")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh quick run against the committed baseline "
        "instead of rewriting it; exit 1 when a gate fails",
    )
    parser.add_argument(
        "--out", type=Path, default=BASELINE_PATH, help="baseline path"
    )
    args = parser.parse_args()

    fresh = measure()
    if not args.check:
        _record_medians(fresh, [measure() for _ in range(RECORD_RUNS - 1)])
    for name, row in fresh["scenarios"].items():
        print(
            f"{name}: legacy={row['cycles_per_sec_legacy']:.0f} "
            f"production={row['cycles_per_sec_production']:.0f} cycles/sec "
            f"({row['speedup']:.2f}x)"
        )
    print(format_detector_by_size(fresh["detector_by_size"]))
    breakdown = fresh["phase_breakdown"]
    print(
        f"detector share of a saturated cycle: "
        f"{breakdown['detector_share_pct']}% "
        f"(target <= {breakdown['detector_share_target_pct']:.0f}%)"
    )
    overhead = fresh["obs_overhead"]
    print(
        f"obs_level=1 / off CPU time: {overhead['ratio']:.3f}x, median of "
        f"{overhead['reps']} reps x {overhead['cycles']} cycles "
        f"(bar <= {overhead['required_max_ratio']:.2f}x)"
    )
    print(format_campaign_fanout(fresh["campaign_fanout"]))
    shapes = fresh["shape_cache"]
    print(
        f"shape cache: {shapes['cold_calls']} / {shapes['warm_calls']} "
        f"candidate calls, {shapes['cold_topology_builds']} / "
        f"{shapes['warm_topology_builds']} topology builds (cold / warm "
        f"sweep); paper-default constructor "
        f"{shapes['construct_cold_ms']:.1f} / {shapes['construct_warm_ms']:.1f}"
        f" ms cold / warm ({shapes['construct_cold_over_warm']:.2f}x)"
    )

    if not args.check:
        args.out.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
        # against itself only the fixed bars can fail
        problems = check(fresh, fresh)
        for p in problems:
            print(f"WARNING: {p}")
        return 1 if problems else 0

    if not args.out.exists():
        print(f"no baseline at {args.out}; run without --check first")
        return 1
    baseline = json.loads(args.out.read_text())
    problems = check(baseline, fresh)
    if problems:
        for p in problems:
            print(f"REGRESSION: {p}")
        # the fresh split says *where* the regression lives; the
        # committed one is the shape to compare against
        for label, record in (
            ("fresh", breakdown),
            ("committed", baseline["phase_breakdown"]),
        ):
            print()
            print(phase_table(record["phases"], f"{label} phase breakdown"))
        return 1
    print("benchmark check passed (every gate of the committed baseline holds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
