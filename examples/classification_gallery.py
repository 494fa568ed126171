#!/usr/bin/env python3
"""The paper's Section 2 deadlock taxonomy, reproduced end to end.

Builds the channel wait-for graphs of the paper's Figures 1-4 and runs the
knot detector and cycle counter over each, printing the full
characterization: knot, deadlock set, resource set, knot cycle density,
classification, and dependent messages.

Usage::

    python examples/classification_gallery.py
"""

from __future__ import annotations

from repro.core.cycles import count_simple_cycles
from repro.core.gallery import figure1_cwg, figure2_cwg, figure3_cwg, figure4_cwg
from repro.core.knots import find_knots


def analyze(name: str, title: str, g) -> None:
    adjacency = g.adjacency()
    knots = find_knots(adjacency)
    total_cycles = count_simple_cycles(adjacency)

    print(f"{name}: {title}")
    print("-" * 72)
    print(f"  vertices: {g.num_vertices}, arcs: {g.num_arcs}, "
          f"blocked messages: {len(g.blocked_messages())}")
    print(f"  resource-dependency cycles in CWG: {total_cycles.count}")
    if not knots:
        print("  no knot => NO deadlock (cycles are necessary, not sufficient)")
    for knot in knots:
        deadlock_set = g.messages_owning(knot)
        resource_set = g.resources_of(deadlock_set)
        sub = {v: [w for w in adjacency[v] if w in knot] for v in knot}
        density = count_simple_cycles(sub).count
        kind = "single-cycle" if density <= 1 else "multi-cycle"
        print(f"  KNOT {sorted(map(str, knot))}")
        print(f"    deadlock set      : m{sorted(deadlock_set)}")
        print(f"    resource set size : {len(resource_set)}")
        print(f"    knot cycle density: {density} => {kind} deadlock")
        # fan-out of each blocked deadlock-set message
        fans = {m: len(g.requests.get(m, ())) for m in sorted(deadlock_set)}
        print(f"    routing fan-outs  : {fans}")
        deps = [
            m for m in g.blocked_messages()
            if m not in deadlock_set
            and all(g.owner.get(t) in deadlock_set for t in g.requests[m])
        ]
        if deps:
            print(f"    dependent msgs    : m{sorted(deps)} "
                  "(blocked by the deadlock, but removing them cannot fix it)")
    print()


def main() -> None:
    analyze(
        "Figure 1",
        "single-cycle deadlock, DOR with 1 VC (static routing, fan-out 1)",
        figure1_cwg(),
    )
    analyze(
        "Figure 2",
        "single-cycle deadlock, minimal adaptive routing with exhausted "
        "adaptivity (plus a dependent message)",
        figure2_cwg(),
    )
    analyze(
        "Figure 3",
        "multi-cycle deadlock, adaptive routing with 2 VCs (fan-out 2)",
        figure3_cwg(),
    )
    analyze(
        "Figure 4",
        "cyclic NON-deadlock: cycles without a knot (escape channel exists)",
        figure4_cwg(),
    )


if __name__ == "__main__":
    main()
