#!/usr/bin/env python3
"""Observability smoke gate (used by ``scripts/ci_check.sh``).

Four checks, all deterministic apart from timing noise:

1. **Trace validity** — runs a pinned small scenario (4-ary 2-cube, DOR,
   saturated) at ``obs_level=2``, exports the cycle-level trace as both
   Chrome-trace JSON and JSONL, and validates that the files parse, that
   the Chrome events carry the schema ``chrome://tracing`` / Perfetto
   expect (``ph`` in ``X``/``i``, numeric ``ts``/``dur``, string names),
   and that the expected span/instant names are present (the four engine
   phases plus ``block``/``wake`` instants at saturation).

2. **Overhead gate** — steps the bench smoke scenario (8-ary 2-cube,
   moderate load) at ``obs_level=0`` and ``obs_level=1`` in lockstep, 15
   reps of the same 400-cycle window each in alternating order, and fails
   when the median per-rep CPU-time ratio says enabled observability
   costs more than 10%.  This is the bound that keeps ``--obs-level 1``
   safe to leave on for real sweeps.

3. **Phase-share sanity** — recomputes the benchmark's ``phase_breakdown``
   record and fails if the per-phase shares sum above 100%.  The profiler
   nests the detector's ``detect/*`` accounting inside ``engine/detect``,
   so a naive (inclusive) share split double-counts that time — this check
   pins the exclusive-self-time accounting that keeps the rollup honest.
   The same check runs on the pinned scenario's *default-config* profile
   (rebuild maintenance + detector caching), which must carry the
   worm-level pipeline's ``detect/knots`` and ``detect/census`` phases.

4. **Pass accounting** — on that same default-config ``obs_level=1`` run,
   no ``detector/passes_*`` counter and no per-pass histogram may count
   more passes than the detector ran (``full_passes +
   shortcircuit_passes``), and ``detector/passes_cwg_knot`` must equal the
   number of detection records that hold a deadlock.

Exit status 0 = all checks pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import bench_default, tiny_default  # noqa: E402
from repro.network.simulator import NetworkSimulator  # noqa: E402

#: span names every traced run of the pinned scenario must contain
REQUIRED_SPANS = {
    "engine/generate",
    "engine/allocate",
    "engine/move",
    "engine/detect",
}
#: instant names the saturated pinned scenario must produce
REQUIRED_INSTANTS = {"block", "wake"}
#: profiler phases the as-shipped detector pass must book (self-timed, so
#: they appear in the phase profile, not as trace spans)
REQUIRED_DETECT_PHASES = {"detect/knots", "detect/census"}

OVERHEAD_LIMIT = 0.10  #: max fractional slowdown allowed for obs_level=1


def _trace_scenario():
    return tiny_default(
        routing="dor",
        num_vcs=1,
        load=1.0,
        warmup_cycles=100,
        measure_cycles=600,
        seed=7,
        obs_level=2,
        validation_level=0,
    )


def check_trace(verbose: bool = True) -> list[str]:
    """Run the pinned scenario and validate the exported traces."""
    problems: list[str] = []
    sim = NetworkSimulator(_trace_scenario())
    sim.run()
    tracer = sim.obs.tracer
    with tempfile.TemporaryDirectory() as tmp:
        chrome_path = Path(tmp) / "trace.json"
        jsonl_path = Path(tmp) / "trace.jsonl"
        tracer.write_chrome(chrome_path)
        tracer.write_jsonl(jsonl_path)

        doc = json.loads(chrome_path.read_text())
        events = doc.get("traceEvents")
        if not isinstance(events, list) or not events:
            return [f"chrome trace has no traceEvents list: {chrome_path}"]
        names = set()
        for ev in events:
            if not isinstance(ev.get("name"), str):
                problems.append(f"trace event without string name: {ev!r}")
                break
            if ev.get("ph") not in ("X", "i"):
                problems.append(f"unexpected event phase type: {ev!r}")
                break
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"trace event without numeric ts: {ev!r}")
                break
            if ev["ph"] == "X" and not isinstance(ev.get("dur"), (int, float)):
                problems.append(f"duration event without dur: {ev!r}")
                break
            names.add(ev["name"])
        missing = (REQUIRED_SPANS | REQUIRED_INSTANTS) - names
        if missing:
            problems.append(
                f"trace is missing expected event names: {sorted(missing)} "
                f"(got {sorted(names)})"
            )

        jsonl_rows = [
            json.loads(line)
            for line in jsonl_path.read_text().splitlines()
            if line
        ]
        if len(jsonl_rows) != len(events):
            problems.append(
                f"JSONL row count {len(jsonl_rows)} != chrome event "
                f"count {len(events)}"
            )
    if verbose and not problems:
        print(
            f"trace check: {len(events)} events, "
            f"{len(names)} distinct names, chrome+jsonl parse OK"
        )
    return problems


def _bench_sim(obs_level: int, warm: int) -> NetworkSimulator:
    cfg = bench_default(
        routing="dor",
        num_vcs=1,
        load=0.4,
        warmup_cycles=0,
        measure_cycles=1,
        seed=1,
        obs_level=obs_level,
        validation_level=0,
    )
    sim = NetworkSimulator(cfg)
    for _ in range(warm):
        sim.step()
    return sim


def check_overhead(
    warm: int = 200, cycles: int = 400, reps: int = 15, verbose: bool = True
) -> list[str]:
    """Gate: obs_level=1 may cost at most ``OVERHEAD_LIMIT`` more CPU time.

    The two simulators run in lockstep (same seed, same warm-up), so each
    rep times both through the *same* ``cycles``-cycle window, alternating
    which goes first.  Each side is timed with ``time.process_time`` —
    this process's CPU time, blind to other load on the host — and the
    gate reads the median of the per-rep on/off ratios, so a burst of
    machine noise moves one rep, not the verdict.
    """
    sims = {lvl: _bench_sim(lvl, warm) for lvl in (0, 1)}
    ratios = []
    for rep in range(reps):
        spent = {}
        for lvl in (0, 1) if rep % 2 == 0 else (1, 0):
            sim = sims[lvl]
            t0 = time.process_time()
            for _ in range(cycles):
                sim.step()
            spent[lvl] = time.process_time() - t0
        ratios.append(spent[1] / spent[0])
    overhead = statistics.median(ratios) - 1.0
    if verbose:
        print(
            f"overhead check: obs_level=1 / off CPU time, median of {reps} "
            f"reps x {cycles} cycles -> {100 * overhead:+.1f}% "
            f"(limit {100 * OVERHEAD_LIMIT:.0f}%)"
        )
    if overhead > OVERHEAD_LIMIT:
        return [
            f"obs_level=1 overhead {100 * overhead:.1f}% exceeds "
            f"{100 * OVERHEAD_LIMIT:.0f}% limit (median CPU-time ratio over "
            f"{reps} reps of {cycles} cycles)"
        ]
    return []


def _default_sim() -> NetworkSimulator:
    """The pinned scenario at obs_level=1, every other field as shipped."""
    sim = NetworkSimulator(_trace_scenario().replace(obs_level=1))
    sim.run()
    return sim


def check_phase_shares(
    default_sim: NetworkSimulator, verbose: bool = True
) -> list[str]:
    """Gate: the benchmark phase rollup's shares must sum to at most 100%.

    The detector books its region pipeline under ``detect/*`` while running
    inside the engine's ``engine/detect`` timer; the breakdown must report
    exclusive self-times or the shares double-count that nesting (a rollup
    that "sums to 122%" reads as free speedup hiding somewhere).
    """
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from bench_baseline import _phase_breakdown, _phase_rows

    profiles = {
        "phase_breakdown": _phase_breakdown()["phases"],
        "default-config profile": _phase_rows(
            default_sim.obs.profiler.snapshot()
        ),
    }
    problems: list[str] = []
    missing = REQUIRED_DETECT_PHASES - set(profiles["default-config profile"])
    if missing:
        problems.append(
            f"default-config profile is missing detector phases "
            f"{sorted(missing)}: the as-shipped pass no longer runs the "
            "worm-level pipeline"
        )
    for label, phases in profiles.items():
        total = sum(rec["share_pct"] for rec in phases.values())
        if verbose:
            print(
                f"phase-share check ({label}): {len(phases)} phases, "
                f"shares sum to {total:.1f}%"
            )
        # each share_pct row is rounded to 1 decimal, so the sum can
        # honestly exceed 100 by up to 0.05 per row — anything beyond that
        # is real double-counting
        if total > 100.0 + 0.05 * len(phases):
            problems.append(
                f"{label} shares sum to {total:.1f}% (> 100%): "
                "nested phases are being double-counted instead of reported "
                "as exclusive self-time"
            )
        if not any(rec["share_pct"] for rec in phases.values()):
            problems.append(f"{label} recorded no nonzero phase shares")
    return problems


def check_pass_accounting(
    default_sim: NetworkSimulator, verbose: bool = True
) -> list[str]:
    """Gate: per-pass instruments count each detector pass at most once."""
    snap = default_sim.obs.snapshot()
    stats = default_sim.detector.cache_stats()
    passes = stats["full_passes"] + stats["shortcircuit_passes"]
    counts = {
        name: value
        for name, value in snap["counters"].items()
        if name.startswith("detector/passes_")
    }
    counts.update(
        (name, hist["count"])
        for name, hist in snap["histograms"].items()
        if name.endswith("_per_pass")
    )
    problems = [
        f"{name} counts {value} passes, more than the detector's {passes}"
        for name, value in sorted(counts.items())
        if value > passes
    ]
    knotted = sum(1 for r in default_sim.detector.records if r.events)
    booked = counts.get("detector/passes_cwg_knot")
    if booked != knotted:
        problems.append(
            f"detector/passes_cwg_knot = {booked}, but {knotted} detection "
            "records hold a deadlock"
        )
    if verbose and not problems:
        print(
            f"pass-accounting check: {len(counts)} per-pass instruments "
            f"within {passes} passes, {knotted} knotted"
        )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-overhead",
        action="store_true",
        help="only validate the exported trace (no timing gate)",
    )
    args = parser.parse_args()
    problems = check_trace()
    if not args.skip_overhead:
        problems += check_overhead()
    default_sim = _default_sim()
    problems += check_phase_shares(default_sim)
    problems += check_pass_accounting(default_sim)
    for p in problems:
        print(f"OBS SMOKE FAILURE: {p}")
    if not problems:
        print("obs smoke: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
