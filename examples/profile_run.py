#!/usr/bin/env python3
"""Profile a simulation run with the observability subsystem.

Runs a deadlock-prone scenario with ``obs_level=2`` (metrics registry +
phase profiler + cycle-level trace ring buffer), then shows everything the
subsystem collects:

* the per-phase wall-clock table — where a simulated cycle's time goes
  (generate / allocate / move / detect / recover, plus the detector's
  knot and census stages);
* the detector's pass counters (full and short-circuited passes);
* per-pass histograms (blocked messages and knots per detection);
* a Chrome-trace export — open it at https://ui.perfetto.dev or in
  ``chrome://tracing`` to see phase lanes and block/wake/deadlock/recovery
  instants on a timeline.

Usage::

    python examples/profile_run.py [--trace-out profile_trace.json]

The same data is reachable from the CLI
(``python -m repro simulate ... --obs-level 2 --trace-out t.json``) and,
merged across sweep points, from ``python -m repro experiment FIG6
--obs-level 1``.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse

from repro import NetworkSimulator, SimulationConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the Chrome trace here (default: no file output)",
    )
    args = parser.parse_args()

    config = SimulationConfig(
        k=8,
        n=2,
        routing="dor",  # deadlock-prone: plenty of detector work to profile
        num_vcs=1,
        message_length=16,
        load=0.8,
        count_cycles=True,
        warmup_cycles=300,
        measure_cycles=2_000,
        seed=7,
        obs_level=2,  # metrics + profiler + trace ring buffer
    )
    sim = NetworkSimulator(config)
    print(f"simulating {config.label()} with obs_level=2 ...")
    result = sim.run()
    print(
        f"delivered {result.delivered} messages, "
        f"{result.deadlocks} deadlocks detected"
    )

    print()
    print(sim.obs.phase_table("phase profile (whole run)"))

    print()
    print("detector pass counters")
    print("----------------------")
    for name, value in sorted(sim.detector.cache_stats().items()):
        print(f"  {name:<22} {value}")

    print()
    print("per-pass histograms")
    print("-------------------")
    snap = sim.obs.snapshot()
    for name, h in snap["histograms"].items():
        mean = h["total"] / h["count"] if h["count"] else 0.0
        print(f"  {name}: n={h['count']} mean={mean:.2f}")

    tracer = sim.obs.tracer
    stats = tracer.stats()
    print()
    print(
        f"trace ring buffer: {stats['events']} events recorded, "
        f"{stats['dropped']} dropped (capacity {tracer.capacity})"
    )
    if args.trace_out:
        tracer.write_chrome(args.trace_out)
        print(
            f"Chrome trace written to {args.trace_out} — open it at "
            f"https://ui.perfetto.dev or chrome://tracing"
        )


if __name__ == "__main__":
    main()
