#!/usr/bin/env python3
"""Regenerate every experiment table/chart backing EXPERIMENTS.md.

Runs all registered experiments at the chosen scale, prints the tables,
and writes two consolidated CSVs: the sweep rows (``--csv``) and every
run's observations next to it (``<stem>_observations.csv``, the data the
claims table in :mod:`repro.experiments.claims` is checked against) — the
reproducible pipeline behind the bench-scale numbers quoted in
EXPERIMENTS.md.  (The paper-scale rows come from
``scripts/paper_scale_spot_checks.py``: 21 points of 9,000 cycles, about 7
minutes on the default engine, most of it one deep-saturation virtual
cut-through point.)

Usage::

    python scripts/generate_experiments_data.py [--scale bench] [--csv out.csv]

``--csv data/experiments_bench.csv`` regenerates the committed bench data.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import experiment_csv, observations_csv, render_figure


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
    results = []
    grand_start = time.time()
    for exp_id in wanted:
        t0 = time.time()
        result = ALL_EXPERIMENTS[exp_id](scale=args.scale)
        print("#" * 72)
        print(result.format_tables())
        if args.charts:
            print()
            print(render_figure(result, "norm_deadlocks"))
        results.append(result)
        print(f"[{exp_id}: {time.time() - t0:.1f}s]")
        print()
    if results:
        rows = Path(args.csv)
        observations = rows.with_name(f"{rows.stem}_observations.csv")
        rows.write_text(experiment_csv(results))
        observations.write_text(observations_csv(results))
        print(f"consolidated CSVs: {rows}, {observations}")
    print(f"total: {time.time() - grand_start:.0f}s at scale={args.scale}")


if __name__ == "__main__":
    main()
