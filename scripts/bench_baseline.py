#!/usr/bin/env python3
"""Deterministic performance baseline: writes ``BENCH_core.json``.

Runs the core engine/detector scenarios in a quick, seed-fixed mode and
records:

* **cycles/sec** for each engine scenario on both engines (legacy,
  production), reps interleaved across engines so a background-load
  transient slows every engine's same-numbered rep instead of skewing
  one engine's whole measurement,
* the production-vs-legacy **speedup** of each, gated at ≥ 5× on the
  saturated acceptance scenario (16-ary 2-cube, TFAR, load 0.9 — the
  configuration every figure sweep spends its time in), as shipped: the
  detector's per-pass CWG rebuild is part of every timed cycle,
* per scenario, the frozen cycles/sec and speedup of the two **superseded
  tiers** (the scalar fast path and the numpy kernel engine, each timed at
  its last commit beside that session's legacy rate); the production
  engine's speedup may never fall below the fast path's,
* the **cumulative ablation** of the same scenario (``--ablation``
  prints it standalone and merges the record into the baseline):
  legacy → +production → +detector-caching,
* **detector µs/pass** of the as-shipped pass with and without the
  blocked-epoch short-circuit,
* **detector-census µs/pass** (the same saturated 16-ary with
  ``count_cycles=True``, passes driven by the engine itself so the CWGs
  are realistic) **as shipped** (every flag at its default: the contracted
  pipeline) and uncached (``detector_caching=False``, the plain
  reference) — their same-session ratio is an acceptance criterion
  (≥ 2×) — with the as-shipped row also gated at ≥ 1.5× faster than the
  frozen µs/pass it cost before the contracted pipeline became the
  default pass,
* the **per-phase breakdown** of the acceptance scenario (``obs_level=1``
  profiler): where the engine's time goes, recorded for diagnosis and
  printed by ``--check`` when the gate fails,
* the **campaign overhead**: wall-clock of a checkpointed
  :class:`repro.campaign.CampaignRunner` sweep vs the direct parallel
  sweep it wraps, gated at <5% — durability must be close to free — and
  its **fan-out regime**, where the layer dominates: 48 points of ~20 ms
  run direct-serial, cold-drained at 1 and 2 workers and service-drained
  on 1 and 2 local slots in one session, ``overhead_ms_per_point`` each,
  gated on two same-session ratios (cold W=1 ≤ 1.35× direct, service
  W=2 ≤ 1.5× cold W=2)
  (``--campaign-only`` re-measures just this record and merges it into
  the committed baseline).

The committed ``BENCH_core.json`` is this repo's perf trajectory: regenerate
it with ``python scripts/bench_baseline.py`` after engine work, and gate
regressions with ``python scripts/bench_baseline.py --check`` (used by
``scripts/ci_check.sh``), which re-times the scenarios and fails when a
production/legacy speedup drops >20% below the committed one.

Timings are wall-clock and machine-dependent; *speedups* and the check
tolerance are ratios, so they transfer across machines — and across the
whole-machine slowdowns a shared host shows from one run to the next,
which is why ``--check`` gates the engine rows on ratios only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import bench_default, paper_default  # noqa: E402
from repro.network.simulator import NetworkSimulator  # noqa: E402

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
        # two moderate scenarios below.
        warm=2550,
        cycles=400,
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

#: the scenario whose fast/legacy ratio is the acceptance criterion, and
#: its bar.  Timed as shipped, the row reads ~7.2x: the detector's
#: per-pass CWG rebuild, the same code on both engines, is in every
#: timed cycle (see ``LEDGER_NOTES``).
ACCEPTANCE_SCENARIO = "engine_saturated_16ary"
ACCEPTANCE_REQUIRED_SPEEDUP = 5.0

#: engine name -> config flag overrides
ENGINE_FLAGS = {
    "legacy": dict(engine_fast_path=False),
    "production": dict(engine_fast_path=True),
}

#: the engine tiers the production engine replaced: tier -> scenario ->
#: (cycles/sec, legacy cycles/sec of the same session), each last measured
#: at the tier's final commit on the machine of the baseline committed with
#: it.  The code is gone, so the figures are frozen; every baseline records
#: them, as a rate and as a speedup over that session's legacy rate.
SUPERSEDED = {
    # the scalar fast path, the default engine until PR 12
    "fast_path": {
        "engine_saturated_16ary": (2947.0, 958.8),
        "engine_moderate_8ary": (6583.9, 3996.1),
        "engine_four_vcs_8ary": (4539.8, 3048.5),
    },
    # the numpy KernelEngine (engine_kernels=True), deleted in PR 19
    "kernels": {
        "engine_saturated_16ary": (10451.3, 859.2),
        "engine_moderate_8ary": (6632.7, 3666.3),
        "engine_four_vcs_8ary": (3660.1, 3134.4),
    },
}

#: written into the baseline verbatim
LEDGER_NOTES = {
    "superseded_kernels": (
        "cycles_per_sec_superseded_kernels is the deleted numpy KernelEngine "
        "at its last commit, timed in the same session as this file's "
        "scenarios.  Its one paying idea — whole-phase quiescence skips with "
        "word-exact RNG replay — now lives in the production engine, which "
        "is why production reads well above it on the two 8-ary rows, "
        "where nothing parks, the skips never fire and the tier only paid "
        "for its structure-of-arrays mirrors."
    ),
    "saturated_row_as_shipped": (
        "engine_saturated_16ary used to run with cwg_maintenance="
        "'incremental': the deleted incremental CWG tracker made a "
        "census-off detector pass nearly free and slowed legacy with its "
        "hooks, so the row read 12.1x legacy.  The row now runs as shipped, "
        "the detector rebuilding the CWG every pass on both engines "
        "(the parent of the deletion read 7.2x as shipped too), and the "
        "superseded tiers' frozen figures on this row, timed with the "
        "tracker, are not comparable with it."
    ),
}


def _timed_engines(
    spec: dict, engines: dict | None = None, reps: int = 3
) -> dict[str, float]:
    """Best-of-``reps`` cycles/sec per engine, reps interleaved.

    All sims are constructed and warmed first; then rep *k* times every
    engine back to back before rep *k+1* starts.  A background-load
    transient therefore slows the same-numbered rep of every engine
    instead of polluting one engine's entire measurement, and the
    best-of minimum for each engine comes from the same quiet window —
    which is what makes the recorded *ratios* machine-transferable.
    """
    if engines is None:
        engines = ENGINE_FLAGS
    sims = {}
    for name, flags in engines.items():
        cfg = spec["factory"](
            warmup_cycles=0,
            measure_cycles=1,
            seed=1,
            # benchmarks time the engine, never the correctness net: pin
            # the runtime invariant checker off even if the project
            # default changes
            validation_level=0,
            **{**spec["overrides"], **flags},
        )
        sims[name] = NetworkSimulator(cfg)
    for sim in sims.values():
        for _ in range(spec["warm"]):
            sim.step()
    cycles = spec["cycles"]
    best = {name: float("inf") for name in sims}
    for _ in range(reps):
        for name, sim in sims.items():
            t0 = time.perf_counter()
            for _ in range(cycles):
                sim.step()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: cycles / dt for name, dt in best.items()}


def _ablation() -> dict:
    """Cumulative optimization ablation on the acceptance scenario.

    Each level adds one optimization layer on top of the previous:
    plain legacy engine, + the production engine's activity tracking,
    inline arbitration stream and whole-phase skips, + detector caching
    (the contracted pipeline).
    """
    levels = {
        "legacy": dict(engine_fast_path=False, detector_caching=False),
        "+production": dict(engine_fast_path=True, detector_caching=False),
        "+detector-caching": dict(
            engine_fast_path=True, detector_caching=True
        ),
    }
    spec = ENGINE_SCENARIOS[ACCEPTANCE_SCENARIO]
    rates = _timed_engines(spec, engines=levels)
    base = rates["legacy"]
    return {
        "scenario": ACCEPTANCE_SCENARIO,
        "levels": {
            name: {
                "cycles_per_sec": round(rate, 1),
                "speedup_vs_legacy": round(rate / base, 3),
            }
            for name, rate in rates.items()
        },
    }


def format_ablation(record: dict) -> str:
    """Printable table of an ``ablation`` record."""
    lines = [f"ablation ({record['scenario']}):"]
    for name, row in record["levels"].items():
        lines.append(
            f"  {name:<19} {row['cycles_per_sec']:>9.1f} cycles/sec  "
            f"{row['speedup_vs_legacy']:>6.2f}x"
        )
    return "\n".join(lines)


def _detector_us_per_pass(engine_fast_path: bool) -> float:
    """Mean as-shipped detector cost per pass on a warmed saturated network.

    With the fast path, passes where the blocked epoch did not advance are
    short-circuited — the number reported is the realized average, which is
    what a sweep actually pays.
    """
    cfg = paper_default(
        warmup_cycles=0,
        measure_cycles=1,
        seed=1,
        routing="tfar",
        num_vcs=1,
        load=0.9,
        count_cycles=False,
        engine_fast_path=engine_fast_path,
        validation_level=0,
    )
    sim = NetworkSimulator(cfg)
    for _ in range(200):
        sim.step()
    passes = 40
    t0 = time.perf_counter()
    for _ in range(passes):
        sim.detector.detect(sim)
        sim.blocked_epoch += 1  # force a fresh pass every other call
        sim.detector.detect(sim)
    elapsed = time.perf_counter() - t0
    return 1e6 * elapsed / (2 * passes)


#: the two detector configurations of the census ledger row.  ``as_shipped``
#: leaves every flag at its default (the contracted pipeline): it is what a
#: user who sets nothing — and every ``benchmarks/e2e`` workload — actually
#: runs.  ``uncached`` is the plain reference pass.
CENSUS_MODES = {
    "as_shipped": dict(),
    "uncached": dict(detector_caching=False),
}

#: µs/pass of the as-shipped row at the parent commit, where a default pass
#: ran ``find_knots`` + uncontracted ``count_simple_cycles`` (two global
#: Tarjans, Johnson on the full CWG).  Measured in the same session and on
#: the same machine as the committed baseline; that code path is now the
#: ``detector_caching=False`` reference only, so the figure is frozen and
#: ``--check`` fails unless the as-shipped row stays >= 1.5x faster.
AS_SHIPPED_CENSUS_US_BEFORE_PIPELINE = 25629.5
AS_SHIPPED_CENSUS_REQUIRED_SPEEDUP = 1.5


def _detector_census_us_per_pass(mode: str) -> float:
    """Mean census-enabled detector cost per pass, engine-driven.

    The detector is exercised by the engine's own ``detection_interval``
    cadence (not back-to-back manual calls) so the CWGs between passes
    are exactly what a real sweep produces.  Both modes yield
    bit-identical events and censuses, hence identical trajectories — the
    realized averages are directly comparable.
    """
    cfg = paper_default(
        warmup_cycles=0,
        measure_cycles=1,
        seed=1,
        routing="tfar",
        num_vcs=1,
        load=0.9,
        count_cycles=True,
        validation_level=0,
        **CENSUS_MODES[mode],
    )
    sim = NetworkSimulator(cfg)
    for _ in range(1200):
        sim.step()
    state = [0.0, 0]
    orig = sim.detector.detect

    def timed(s):
        t0 = time.perf_counter()
        record = orig(s)
        state[0] += time.perf_counter() - t0
        state[1] += 1
        return record

    sim.detector.detect = timed
    passes = 20
    for _ in range(passes * cfg.detection_interval):
        sim.step()
    return 1e6 * state[0] / state[1]


def _campaign_overhead(reps: int = 3) -> dict:
    """Campaign wrapper cost vs the direct parallel sweep it wraps.

    Runs the same seeded 4-point tiny sweep through
    :func:`~repro.metrics.parallel.run_load_sweep_parallel` and through a
    fresh-store :class:`~repro.campaign.CampaignRunner` (slot
    processes + atomic artifact writes + manifest updates), best-of-``reps``
    each.  The overhead is a ratio and transfers across machines; the
    acceptance bar is <5% — durability must be close to free.
    """
    import tempfile

    from repro.campaign import CampaignRunner
    from repro.config import tiny_default
    from repro.metrics.parallel import run_load_sweep_parallel

    # points must be long enough to be representative: real sweep points run
    # seconds-to-minutes, so per-point fixed costs (worker spawn, artifact
    # write, manifest update — tens of ms) are measured against ~1 s points,
    # not against sub-100 ms toys where fixed costs dominate by construction
    loads = [0.3, 0.6, 0.9, 1.2]
    cfg = tiny_default(
        warmup_cycles=200, measure_cycles=12_000, seed=1, validation_level=0
    )
    # both paths resolve workers the same way (cores - 1, floor 1), so the
    # comparison measures the durability wrapper, not a concurrency delta
    from repro.metrics.parallel import _resolve_workers

    workers = _resolve_workers(None)

    # interleave the reps: a background-load transient then slows a
    # direct/campaign pair together instead of skewing one phase
    pairs: list[tuple[float, float]] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        direct = run_load_sweep_parallel(cfg, loads, max_workers=workers)
        rep_direct = time.perf_counter() - t0

        with tempfile.TemporaryDirectory(prefix="bench_campaign_") as tmp:
            runner = CampaignRunner(tmp, max_workers=workers)
            t0 = time.perf_counter()
            out = runner.run_sweep(cfg, loads)
            pairs.append((rep_direct, time.perf_counter() - t0))
    assert out.sweep == direct, "campaign sweep diverged from direct sweep"

    # machine noise only ever ADDS time, so two estimators bracket the
    # true ratio from above: the ratio of the best-of mins (robust to
    # sustained noise that slows whole reps) and the best same-rep paired
    # ratio (robust to spotty noise that hits one phase of one rep).  The
    # smaller of the two is the least noise-contaminated estimate.
    direct_s = min(d for d, _ in pairs)
    campaign_s = min(c for _, c in pairs)
    # clamped at 1.0: a sub-unity ratio just means the overhead is below
    # the noise floor, not that durability speeds the sweep up
    ratio = max(
        1.0, min(campaign_s / direct_s, min(c / d for d, c in pairs))
    )

    return {
        "scenario": "campaign_tiny_parallel_sweep",
        "points": len(loads),
        "workers": workers,
        "direct_s": round(direct_s, 3),
        "campaign_s": round(campaign_s, 3),
        "overhead_pct": round(100.0 * (ratio - 1.0), 1),
        "required_max_pct": 5.0,
        "fanout": _campaign_fanout(),
    }


#: same-session ratio gates of the fan-out regime (see _campaign_fanout)
FANOUT_COLD_W1_MAX_RATIO = 1.35
FANOUT_SERVICE_W2_MAX_RATIO = 1.5


def _campaign_fanout(reps: int = 5) -> dict:
    """Per-point cost of the campaign layer where it dominates.

    The opposite regime from the 4-point record: 48 points of ~20 ms
    each (the configs of the repo benchmark's ``campaign_fanout_tiny``),
    so slot start, artifact write, manifest update and lease hand-off are
    a large share of the pass.  One session times the points run
    in-process on one core (``direct``), cold-drained by
    :class:`~repro.campaign.CampaignRunner` at 1 and 2 workers, and
    drained by a :class:`~repro.campaign.service.CampaignService` on 1
    and 2 local slots (submit → drain; service start/stop excluded),
    interleaved and best-of-``reps``.  ``overhead_ms_per_point`` is each
    mode's wall-clock over ``direct``, per point — at 2 workers it goes
    negative once the second core pays for the layer.

    ``--check`` gates two same-session ratios (:func:`_paired_ratio`):
    cold W=1 over direct (the cost of durability with no parallelism to
    hide it) and service W=2 over cold W=2 (the service must not be much
    slower than no service).
    """
    import tempfile

    from repro.campaign import CampaignRunner
    from repro.campaign.service import CampaignService, ServiceRunner
    from repro.config import tiny_default
    from repro.network.simulator import NetworkSimulator

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


def _share_pct(part_s: float, total_s: float) -> float:
    """Percentage share rounded to 1 decimal, never collapsed to zero.

    Sub-permille phases (a cheap stage inside a heavy engine total) used
    to round to 0.0%, which reads as "never ran"; instead keep adding a
    decimal until the share survives rounding, so a 0.004% phase reports
    as 0.004 rather than 0.0.
    """
    if part_s <= 0.0 or total_s <= 0.0:
        return 0.0
    pct = 100.0 * part_s / total_s
    for decimals in range(1, 10):
        rounded = round(pct, decimals)
        if rounded:
            return rounded
    return pct


#: nested phase-name prefix -> the enclosing top-level phase.  The detector
#: accounts its pipeline stages under ``detect/*`` while it runs *inside*
#: the engine's ``engine/detect`` timer, so a child's wall-clock is counted
#: twice in a raw snapshot.
_NESTED_UNDER = {"detect/": "engine/detect"}


def _exclusive_times(snap: dict) -> dict[str, float]:
    """Exclusive (self) seconds per phase: parents minus their nested children.

    The raw profiler snapshot is inclusive — ``engine/detect`` contains the
    time the detector also books under ``detect/*`` — so summing shares over
    a raw snapshot exceeds 100%.  Subtracting each child group from its
    parent makes the rows disjoint: they add up to the engine total (and
    their shares to at most 100%).  Clamped at zero so timer jitter on a
    near-empty parent can't go negative.
    """
    exclusive = {name: rec["total_s"] for name, rec in snap.items()}
    for prefix, parent in _NESTED_UNDER.items():
        if parent not in exclusive:
            continue
        nested = sum(
            rec["total_s"]
            for name, rec in snap.items()
            if name.startswith(prefix)
        )
        exclusive[parent] = max(0.0, exclusive[parent] - nested)
    return exclusive


def _phase_rows(snap: dict) -> dict:
    """Per-phase rows of a profiler snapshot: inclusive total, exclusive
    self-time, calls, and the self-time's share of the engine total."""
    exclusive = _exclusive_times(snap)
    engine_total = sum(
        rec["total_s"] for name, rec in snap.items()
        if name.startswith("engine/")
    )
    return {
        name: {
            "total_ms": round(1e3 * rec["total_s"], 2),
            "self_ms": round(1e3 * exclusive[name], 2),
            "calls": rec["calls"],
            "share_pct": (
                _share_pct(exclusive[name], engine_total)
                if engine_total
                else 0.0
            ),
        }
        for name, rec in snap.items()
        if rec["calls"]
    }


def _phase_breakdown() -> dict:
    """Per-phase wall-clock split of the acceptance scenario.

    Runs the saturated 16-ary scenario once with ``obs_level=1`` (phase
    profiler on), discards the warmup cycles, and records where the engine's
    time goes — generate / allocate / move / detect, plus the detector's
    knot and census stages.  Each row reports its *exclusive*
    self-time (``self_ms``: nested ``detect/*`` children subtracted from
    ``engine/detect``) next to the raw inclusive total; shares are computed
    from the exclusive times so they sum to at most 100%.  Shares are ratios
    and transfer across machines; they are recorded for diagnosis (printed
    when the benchmark gate fails), not gated themselves.
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
    sim.obs.profiler.reset()
    for _ in range(spec["cycles"]):
        sim.step()
    return {
        "scenario": ACCEPTANCE_SCENARIO,
        "timed_cycles": spec["cycles"],
        "phases": _phase_rows(sim.obs.profiler.snapshot()),
    }


def format_phase_breakdown(breakdown: dict) -> str:
    """Printable view of a ``phase_breakdown`` record."""
    lines = [
        f"phase breakdown ({breakdown['scenario']}, "
        f"{breakdown['timed_cycles']} cycles):"
    ]
    phases = breakdown["phases"]
    for name in sorted(phases, key=lambda n: -phases[n]["total_ms"]):
        rec = phases[name]
        # records written before the exclusive-time fix lack self_ms
        self_ms = rec.get("self_ms", rec["total_ms"])
        lines.append(
            f"  {name:<22} {self_ms:>9.2f} ms self  "
            f"({rec['total_ms']:>9.2f} ms incl)  "
            f"{rec['calls']:>7} calls  {rec['share_pct']:>5.1f}%"
        )
    return "\n".join(lines)


def _scenario_row(name: str, rates: dict[str, float]) -> dict:
    """One ``scenarios`` row: the timed engines plus the frozen tiers."""
    legacy = rates["legacy"]
    row = {
        "cycles_per_sec_legacy": round(legacy, 1),
        "cycles_per_sec_production": round(rates["production"], 1),
        "speedup": round(rates["production"] / legacy, 3),
    }
    for tier, frozen in SUPERSEDED.items():
        rate, legacy_then = frozen[name]
        row[f"cycles_per_sec_superseded_{tier}"] = rate
        row[f"speedup_superseded_{tier}"] = round(rate / legacy_then, 3)
    return row


def measure() -> dict:
    results: dict = {"notes": LEDGER_NOTES, "scenarios": {}}
    for name, spec in ENGINE_SCENARIOS.items():
        results["scenarios"][name] = _scenario_row(name, _timed_engines(spec))
    results["detector_us_per_pass_fast"] = round(
        _detector_us_per_pass(engine_fast_path=True), 1
    )
    results["detector_us_per_pass_legacy"] = round(
        _detector_us_per_pass(engine_fast_path=False), 1
    )
    # modes interleaved, best-of-three each: a noisy spell slows one round
    # of both modes instead of one mode's whole figure
    runs: dict[str, list[float]] = {mode: [] for mode in CENSUS_MODES}
    for _ in range(3):
        for mode in CENSUS_MODES:
            runs[mode].append(_detector_census_us_per_pass(mode))
    census = {mode: min(times) for mode, times in runs.items()}
    results["detector_census"] = {
        "scenario": "detector_census_16ary",
        "us_per_pass_uncached": round(census["uncached"], 1),
        "us_per_pass_as_shipped": round(census["as_shipped"], 1),
        "us_per_pass_as_shipped_before_pipeline": (
            AS_SHIPPED_CENSUS_US_BEFORE_PIPELINE
        ),
        "speedup": round(census["uncached"] / census["as_shipped"], 3),
        "speedup_as_shipped": round(
            AS_SHIPPED_CENSUS_US_BEFORE_PIPELINE / census["as_shipped"], 3
        ),
    }
    results["acceptance"] = {
        "scenario": ACCEPTANCE_SCENARIO,
        "required_speedup": ACCEPTANCE_REQUIRED_SPEEDUP,
        "speedup": results["scenarios"][ACCEPTANCE_SCENARIO]["speedup"],
    }
    results["acceptance_detector"] = {
        "scenario": "detector_census_16ary",
        "required_speedup": 2.0,
        "speedup": results["detector_census"]["speedup"],
    }
    results["acceptance_detector_as_shipped"] = {
        "scenario": "detector_census_16ary",
        "required_speedup": AS_SHIPPED_CENSUS_REQUIRED_SPEEDUP,
        "speedup": results["detector_census"]["speedup_as_shipped"],
    }
    results["ablation"] = _ablation()
    results["phase_breakdown"] = _phase_breakdown()
    results["campaign_overhead"] = _campaign_overhead()
    return results


def check(baseline: dict, fresh: dict, tolerance: float = 0.20) -> list[str]:
    """Regression messages comparing a fresh run against the baseline.

    The engine rows are compared as production/legacy *speedups*, never as
    raw cycles/sec: both engines of a scenario are timed interleaved in one
    session, so a whole-machine slowdown (a shared host reads up to ~30%
    slow from one run to the next) cancels out of the ratio instead of
    failing the gate.
    """
    problems = []
    for name, base in baseline.get("scenarios", {}).items():
        now = fresh["scenarios"].get(name)
        if now is None:
            problems.append(f"{name}: scenario missing from fresh run")
            continue
        floor = base["speedup"] * (1.0 - tolerance)
        if now["speedup"] < floor:
            problems.append(
                f"{name}: production engine regressed to "
                f"{now['speedup']:.2f}x legacy "
                f"(baseline {base['speedup']:.2f}x, floor {floor:.2f}x)"
            )
        superseded = base.get("speedup_superseded_fast_path")
        if superseded is not None and now["speedup"] < superseded:
            problems.append(
                f"{name}: production engine at {now['speedup']:.2f}x legacy "
                f"is slower than the fast path it replaced "
                f"({superseded:.2f}x)"
            )
    base_census = baseline.get("detector_census")
    if base_census is not None:
        # same reasoning: the as-shipped pass against the uncached pass of
        # the same session, not against a µs/pass figure of another session
        now_census = fresh["detector_census"]
        floor = base_census["speedup"] * (1.0 - tolerance)
        if now_census["speedup"] < floor:
            problems.append(
                "detector_census_16ary: as-shipped pass regressed to "
                f"{now_census['speedup']:.2f}x the uncached pass "
                f"(baseline {base_census['speedup']:.2f}x, floor {floor:.2f}x)"
            )
    req = baseline.get("acceptance", {}).get(
        "required_speedup", ACCEPTANCE_REQUIRED_SPEEDUP
    )
    got = fresh["acceptance"]["speedup"]
    if got < req:
        problems.append(
            f"default-engine speedup {got:.2f}x below required {req:.1f}x "
            f"on {fresh['acceptance']['scenario']}"
        )
    req = baseline.get("acceptance_detector", {}).get("required_speedup", 2.0)
    got = fresh.get("acceptance_detector", {}).get("speedup")
    if got is not None and got < req:
        problems.append(
            f"detector caching speedup {got:.2f}x below required {req:.1f}x "
            f"on {fresh['acceptance_detector']['scenario']}"
        )
    gate = fresh["acceptance_detector_as_shipped"]
    if gate["speedup"] < gate["required_speedup"]:
        census = fresh["detector_census"]
        problems.append(
            f"as-shipped census pass at {census['us_per_pass_as_shipped']:.0f} "
            f"us is only {gate['speedup']:.2f}x faster than the "
            f"{census['us_per_pass_as_shipped_before_pipeline']:.0f} us it "
            f"cost before the contracted pipeline (required "
            f"{gate['required_speedup']:.1f}x) on {gate['scenario']}"
        )
    overhead = fresh.get("campaign_overhead")
    if overhead is not None:
        max_pct = baseline.get("campaign_overhead", {}).get(
            "required_max_pct", overhead["required_max_pct"]
        )
        if overhead["overhead_pct"] > max_pct:
            problems.append(
                f"campaign overhead {overhead['overhead_pct']:.1f}% above "
                f"the {max_pct:.0f}% bar on {overhead['scenario']} "
                f"(direct {overhead['direct_s']:.2f}s, campaign "
                f"{overhead['campaign_s']:.2f}s)"
            )
        problems.extend(_fanout_problems(overhead["fanout"]))
    return problems


def _fanout_problems(fanout: dict) -> list[str]:
    """The fan-out regime's two same-session ratio gates."""
    problems = []
    if fanout["cold_w1_over_direct"] > FANOUT_COLD_W1_MAX_RATIO:
        problems.append(
            f"campaign cold drain at 1 worker is "
            f"{fanout['cold_w1_over_direct']:.2f}x the direct serial run "
            f"(bar {FANOUT_COLD_W1_MAX_RATIO:.2f}x) on {fanout['scenario']}"
        )
    if fanout["service_w2_over_cold_w2"] > FANOUT_SERVICE_W2_MAX_RATIO:
        problems.append(
            f"campaign service drain on 2 slots is "
            f"{fanout['service_w2_over_cold_w2']:.2f}x the cold drain at 2 "
            f"workers (bar {FANOUT_SERVICE_W2_MAX_RATIO:.2f}x) on "
            f"{fanout['scenario']}"
        )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh quick run against the committed baseline "
        "instead of rewriting it; exit 1 on a >20%% speedup regression",
    )
    parser.add_argument(
        "--campaign-only",
        action="store_true",
        help="re-measure only the campaign_overhead record and merge it "
        "into the existing baseline (the full baseline takes minutes; "
        "the campaign wrapper does not affect the other numbers)",
    )
    parser.add_argument(
        "--ablation",
        action="store_true",
        help="re-measure only the cumulative optimization ablation "
        "(legacy / +production / +detector-caching) on the "
        "acceptance scenario, print the table and merge "
        "the record into the existing baseline",
    )
    parser.add_argument(
        "--out", type=Path, default=BASELINE_PATH, help="baseline path"
    )
    args = parser.parse_args()

    if args.ablation:
        record = _ablation()
        print(format_ablation(record))
        if args.out.exists():
            baseline = json.loads(args.out.read_text())
            baseline["ablation"] = record
            args.out.write_text(
                json.dumps(baseline, indent=2, sort_keys=True) + "\n"
            )
            print(f"merged ablation into {args.out}")
        else:
            print(f"no baseline at {args.out}; table printed only")
        return 0

    if args.campaign_only:
        if not args.out.exists():
            print(f"no baseline at {args.out}; run a full measure first")
            return 1
        overhead = _campaign_overhead()
        print(
            f"campaign overhead: {overhead['overhead_pct']:.1f}% "
            f"(direct {overhead['direct_s']:.2f}s, campaign "
            f"{overhead['campaign_s']:.2f}s, bar "
            f"{overhead['required_max_pct']:.0f}%)"
        )
        print(format_campaign_fanout(overhead["fanout"]))
        baseline = json.loads(args.out.read_text())
        baseline["campaign_overhead"] = overhead
        args.out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"merged campaign_overhead into {args.out}")
        problems = _fanout_problems(overhead["fanout"])
        for p in problems:
            print(f"REGRESSION: {p}")
        over_bar = overhead["overhead_pct"] > overhead["required_max_pct"]
        return 1 if over_bar or problems else 0

    fresh = measure()
    for name, row in fresh["scenarios"].items():
        print(
            f"{name}: legacy={row['cycles_per_sec_legacy']:.0f} "
            f"production={row['cycles_per_sec_production']:.0f} cycles/sec "
            f"({row['speedup']:.2f}x)"
        )
    print(format_ablation(fresh["ablation"]))
    print(
        f"detector: fast={fresh['detector_us_per_pass_fast']:.0f} "
        f"legacy={fresh['detector_us_per_pass_legacy']:.0f} us/pass"
    )
    census = fresh["detector_census"]
    print(
        f"detector census: as shipped="
        f"{census['us_per_pass_as_shipped']:.0f} "
        f"uncached={census['us_per_pass_uncached']:.0f} us/pass "
        f"({census['speedup']:.2f}x; "
        f"{census['speedup_as_shipped']:.2f}x vs "
        f"{census['us_per_pass_as_shipped_before_pipeline']:.0f} before)"
    )
    overhead = fresh["campaign_overhead"]
    print(
        f"campaign overhead: {overhead['overhead_pct']:.1f}% "
        f"(direct {overhead['direct_s']:.2f}s, campaign "
        f"{overhead['campaign_s']:.2f}s)"
    )
    print(format_campaign_fanout(overhead["fanout"]))

    if args.check:
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
            print()
            print("fresh " + format_phase_breakdown(fresh["phase_breakdown"]))
            committed = baseline.get("phase_breakdown")
            if committed is not None:
                print()
                print("committed " + format_phase_breakdown(committed))
            return 1
        print("benchmark check passed (within 20% of committed baseline)")
        return 0

    args.out.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    failed = False
    for key in ("acceptance", "acceptance_detector"):
        if fresh[key]["speedup"] < fresh[key]["required_speedup"]:
            print(
                f"WARNING: {fresh[key]['scenario']} speedup below "
                f"{fresh[key]['required_speedup']}x"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
