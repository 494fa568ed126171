#!/usr/bin/env python3
"""Long-horizon deadlock-frequency census with periodic checkpoints.

Deadlock frequencies below saturation are rare-event estimates: the paper
ran 30,000 cycles per point; tighter confidence needs longer.  This script
runs one configuration for a wall-clock budget, checkpointing cumulative
statistics to CSV every ``--checkpoint`` simulated cycles so partial runs
are never wasted, and prints a final rate with an exact Poisson 95% interval.

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


def _poisson_cdf(k: int, mean: float) -> float:
    """P(X <= k) for X ~ Poisson(mean), each term taken in log space so a
    large mean does not underflow ``exp(-mean)``."""
    if mean <= 0.0:
        return 1.0
    log_mean = math.log(mean)
    return math.fsum(
        math.exp(i * log_mean - mean - math.lgamma(i + 1)) for i in range(k + 1)
    )


def _mean_at(k: int, cdf: float) -> float:
    """The Poisson mean at which P(X <= k) = ``cdf``, by bisection (the CDF
    falls as the mean grows)."""
    lo, hi = 0.0, k + 10.0 * math.sqrt(k) + 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _poisson_cdf(k, mid) > cdf:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def poisson_ci95(events: int, exposure: float) -> tuple[float, float]:
    """Exact (Garwood) two-sided 95% CI for an event rate per unit exposure.

    The lower bound is the mean under which ``events`` or more occur with
    probability 2.5%, the upper the mean under which ``events`` or fewer
    do; at zero events the lower bound is 0.
    """
    if exposure <= 0:
        return (0.0, float("inf"))
    lower = _mean_at(events - 1, 0.975) if events else 0.0
    return (lower / exposure, _mean_at(events, 0.025) / exposure)


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
