#!/usr/bin/env python3
"""Paper-scale spot checks for EXPERIMENTS.md.

Runs the paper's actual 16-ary 2-cube (256 nodes, 32-flit messages) at
selected points of each experiment and prints one line per run.  It uses
8,000 measured cycles per point rather than the paper's 30,000 — enough
to estimate deadlock rates to within the comparisons the paper draws.
On the default (production) engine most points run at ~2,000-9,000
cycles/second and finish in 1-6 s; the cycle census bounds the two
deep-saturation multi-cycle points, DOR3 at L=1.0 (~190 cycles/second)
and virtual cut-through at L=0.8 (~30 cycles/second).  The whole run took
408 s on a 2-core x86 host under CPython 3.11, 306 s of it the
virtual cut-through point.

Usage::

    python scripts/paper_scale_spot_checks.py [output.txt]
"""

from __future__ import annotations

import sys
import time

from repro import NetworkSimulator, paper_default

RUN = dict(warmup_cycles=1_000, measure_cycles=8_000)

POINTS = [
    # (tag, config overrides)
    # -- below-saturation points (the paper's primary operating regime) --
    ("FIG5 bi  DOR1 L=0.10", dict(routing="dor", num_vcs=1, load=0.10)),
    ("FIG5 bi  DOR1 L=0.15", dict(routing="dor", num_vcs=1, load=0.15)),
    ("FIG5 uni DOR1 L=0.10", dict(routing="dor", num_vcs=1, load=0.10, bidirectional=False)),
    ("FIG5 uni DOR1 L=0.15", dict(routing="dor", num_vcs=1, load=0.15, bidirectional=False)),
    ("FIG6 TFAR1 L=0.10", dict(routing="tfar", num_vcs=1, load=0.10)),
    ("FIG6 TFAR1 L=0.15", dict(routing="tfar", num_vcs=1, load=0.15)),
    ("FIG7 DOR2  L=0.15", dict(routing="dor", num_vcs=2, load=0.15)),
    ("FIG7 DOR2  L=0.30", dict(routing="dor", num_vcs=2, load=0.30)),
    ("FIG8 buf=32 TFAR1 L=0.15", dict(routing="tfar", num_vcs=1, load=0.15, buffer_depth=32)),
    ("SEC3.5 4ary4cube TFAR1 L=0.15", dict(routing="tfar", num_vcs=1, load=0.15, k=4, n=4)),
    # -- saturation / deep-saturation points --
    ("FIG5 bi  DOR1 L=0.3", dict(routing="dor", num_vcs=1, load=0.3)),
    ("FIG5 bi  DOR1 L=0.6", dict(routing="dor", num_vcs=1, load=0.6)),
    ("FIG5 uni DOR1 L=0.3", dict(routing="dor", num_vcs=1, load=0.3, bidirectional=False)),
    ("FIG5 uni DOR1 L=0.6", dict(routing="dor", num_vcs=1, load=0.6, bidirectional=False)),
    ("FIG6 TFAR1 L=0.4", dict(routing="tfar", num_vcs=1, load=0.4)),
    ("FIG6 TFAR1 L=0.8", dict(routing="tfar", num_vcs=1, load=0.8)),
    ("FIG7 DOR2  L=0.8", dict(routing="dor", num_vcs=2, load=0.8)),
    ("FIG7 DOR3  L=1.0", dict(routing="dor", num_vcs=3, load=1.0)),
    ("FIG7 TFAR2 L=1.0", dict(routing="tfar", num_vcs=2, load=1.0)),
    ("FIG8 buf=32 (VCT) TFAR1 L=0.8", dict(routing="tfar", num_vcs=1, load=0.8, buffer_depth=32)),
    ("SEC3.5 4-ary 4-cube TFAR1 L=0.8", dict(routing="tfar", num_vcs=1, load=0.8, k=4, n=4)),
]


def main() -> None:
    out = open(sys.argv[1], "w") if len(sys.argv) > 1 else sys.stdout
    for tag, overrides in POINTS:
        cfg = paper_default(**RUN, **overrides)
        t0 = time.time()
        sim = NetworkSimulator(cfg)
        r = sim.run()
        line = (
            f"{tag:34s} delivered={r.delivered_total:6d} "
            f"deadlocks={r.deadlocks:4d} norm={r.normalized_deadlocks:.4f} "
            f"dset={r.avg_deadlock_set_size:5.1f} rset={r.avg_resource_set_size:5.1f} "
            f"knotcyc={r.avg_knot_cycle_density:5.1f} "
            f"multi={r.multi_cycle_deadlocks:3d} "
            f"cycles={r.avg_cycle_count:8.1f} blocked%={100*r.avg_blocked_fraction:5.1f} "
            f"[{time.time()-t0:.0f}s]"
        )
        print(line, file=out, flush=True)
    if out is not sys.stdout:
        out.close()


if __name__ == "__main__":
    main()
