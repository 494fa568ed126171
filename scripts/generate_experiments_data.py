#!/usr/bin/env python3
"""Regenerate every experiment table/chart backing EXPERIMENTS.md.

Runs all registered experiments at the chosen scale, prints the tables,
and writes one consolidated CSV — the reproducible pipeline behind the
bench-scale numbers quoted in EXPERIMENTS.md.  (The paper-scale rows come
from ``scripts/paper_scale_spot_checks.py``: 21 points of 9,000 cycles,
about 7 minutes on the default engine, most of it one deep-saturation
virtual cut-through point.)

Usage::

    python scripts/generate_experiments_data.py [--scale bench] [--csv out.csv]
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import render_figure, sweep_csv


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", default="bench",
                        choices=["tiny", "bench", "paper"])
    parser.add_argument("--csv", default="experiments_data.csv")
    parser.add_argument("--charts", action="store_true")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment ids")
    args = parser.parse_args()

    wanted = args.only.split(",") if args.only else list(ALL_EXPERIMENTS)
    csv_parts = []
    grand_start = time.time()
    for exp_id in wanted:
        t0 = time.time()
        result = ALL_EXPERIMENTS[exp_id](scale=args.scale)
        print("#" * 72)
        print(result.format_tables())
        if args.charts:
            print()
            print(render_figure(result, "norm_deadlocks"))
        csv_parts.append(sweep_csv(result))
        print(f"[{exp_id}: {time.time() - t0:.1f}s]")
        print()
    if csv_parts:
        header = csv_parts[0].splitlines()[0]
        body = [ln for part in csv_parts for ln in part.splitlines()[1:]]
        with open(args.csv, "w") as fh:
            fh.write("\n".join([header, *body]) + "\n")
        print(f"consolidated CSV: {args.csv}")
    print(f"total: {time.time() - grand_start:.0f}s at scale={args.scale}")


if __name__ == "__main__":
    main()
