#!/usr/bin/env python3
"""Long-horizon deadlock-frequency census with periodic checkpoints.

Deadlock frequencies below saturation are rare-event estimates: the paper
ran 30,000 cycles per point; tighter confidence needs longer.  This script
runs one configuration for a wall-clock budget, checkpointing cumulative
statistics to CSV every ``--checkpoint`` simulated cycles so partial runs
are never wasted, and prints a final rate with a Poisson 95% interval.

Example::

    python scripts/deadlock_census.py --minutes 10 --k 16 --routing dor \
        --vcs 1 --load 0.15 --out census.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import time

from repro import NetworkSimulator, SimulationConfig


def poisson_ci95(events: int, exposure: float) -> tuple[float, float]:
    """Approximate 95% CI for an event rate (per unit exposure)."""
    if exposure <= 0:
        return (0.0, float("inf"))
    if events == 0:
        return (0.0, 3.0 / exposure)  # rule of three
    half = 1.96 * math.sqrt(events)
    return (max(0.0, events - half) / exposure, (events + half) / exposure)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--minutes", type=float, default=5.0)
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--routing", default="dor")
    parser.add_argument("--vcs", type=int, default=1)
    parser.add_argument("--buffer", type=int, default=2)
    parser.add_argument("--length", type=int, default=32)
    parser.add_argument("--load", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--unidirectional", action="store_true")
    parser.add_argument("--checkpoint", type=int, default=5_000,
                        help="simulated cycles between CSV checkpoints")
    parser.add_argument("--out", default="census.csv")
    args = parser.parse_args()

    config = SimulationConfig(
        k=args.k,
        n=args.n,
        bidirectional=not args.unidirectional,
        routing=args.routing,
        num_vcs=args.vcs,
        buffer_depth=args.buffer,
        message_length=args.length,
        load=args.load,
        seed=args.seed,
        warmup_cycles=0,
        measure_cycles=1,  # unused: we drive step() ourselves
    )
    sim = NetworkSimulator(config)
    sim.stats.measure_start = 0
    deadline = time.time() + args.minutes * 60

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["cycle", "wall_s", "delivered", "deadlocks", "norm_deadlocks",
             "rate_lo95", "rate_hi95", "avg_dset", "avg_cycles",
             "blocked_pct"]
        )
        started = time.time()
        next_checkpoint = args.checkpoint
        print(f"census: {config.label()} for {args.minutes:.1f} minutes")
        while time.time() < deadline:
            sim.step()
            if sim.cycle >= next_checkpoint:
                next_checkpoint += args.checkpoint
                r = sim.stats._result
                delivered = r.delivered + r.recovered
                lo, hi = poisson_ci95(r.deadlocks, max(1, delivered))
                writer.writerow(
                    [
                        sim.cycle,
                        f"{time.time() - started:.1f}",
                        delivered,
                        r.deadlocks,
                        f"{r.deadlocks / delivered:.6f}" if delivered else "",
                        f"{lo:.6f}",
                        f"{hi:.6f}",
                        f"{(sum(r.deadlock_set_sizes) / len(r.deadlock_set_sizes)):.2f}"
                        if r.deadlock_set_sizes
                        else "",
                        f"{(sum(r.cycle_counts) / len(r.cycle_counts)):.2f}"
                        if r.cycle_counts
                        else "",
                        f"{100 * (sum(r.blocked_fraction_samples) / len(r.blocked_fraction_samples)):.2f}"
                        if r.blocked_fraction_samples
                        else "",
                    ]
                )
                fh.flush()
                print(
                    f"  cycle {sim.cycle}: {r.deadlocks} deadlocks / "
                    f"{delivered} delivered "
                    f"({time.time() - started:.0f}s elapsed)"
                )
    r = sim.stats._result
    delivered = r.delivered + r.recovered
    lo, hi = poisson_ci95(r.deadlocks, max(1, delivered))
    rate = r.deadlocks / delivered if delivered else float("nan")
    print(
        f"final: {r.deadlocks} deadlocks over {delivered} deliveries in "
        f"{sim.cycle} cycles -> {rate:.6f} per message "
        f"[95% CI {lo:.6f}, {hi:.6f}]"
    )
    print(f"checkpoints written to {args.out}")


if __name__ == "__main__":
    main()
