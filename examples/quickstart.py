#!/usr/bin/env python3
"""Quickstart: simulate a torus under unrestricted routing and watch true
deadlocks form, be characterized, and be recovered.

Runs dimension-order routing with a single virtual channel — the
configuration of the paper's Figure 1 — on an 8-ary 2-cube at a load past
saturation, then prints the characterization of every detected deadlock.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import NetworkSimulator, SimulationConfig


def main() -> None:
    config = SimulationConfig(
        k=8,
        n=2,
        bidirectional=True,
        routing="dor",  # static dimension-order routing
        num_vcs=1,  # one VC: the classic deadlock-prone setup
        buffer_depth=2,  # wormhole switching, paper default
        message_length=16,
        traffic="uniform",
        load=0.8,  # past saturation for this network
        detection_interval=50,  # paper: detect every 50 cycles
        recovery="disha",  # break deadlocks Disha-style
        warmup_cycles=500,
        measure_cycles=3_000,
        seed=7,
    )
    sim = NetworkSimulator(config)
    print(f"simulating {config.label()} ...")
    result = sim.run()

    print()
    print("run summary")
    print("-----------")
    print(f"  messages delivered        : {result.delivered}")
    print(f"  delivered via recovery    : {result.recovered}")
    print(f"  average latency (cycles)  : {result.avg_latency:.1f}")
    cap = sim.topology.capacity_flits_per_node_cycle
    print(f"  normalized throughput     : {result.normalized_throughput(cap):.3f}")
    print(f"  blocked messages          : "
          f"{100 * result.avg_blocked_fraction:.1f}% of those in flight")
    print()
    print("deadlock characterization")
    print("-------------------------")
    print(f"  true deadlocks detected   : {result.deadlocks}")
    print(f"  normalized deadlocks      : {result.normalized_deadlocks:.4f} "
          f"per message delivered")
    print(f"  single-cycle deadlocks    : {result.single_cycle_deadlocks}")
    print(f"  multi-cycle deadlocks     : {result.multi_cycle_deadlocks}")
    if result.deadlocks:
        print(f"  avg deadlock set size     : {result.avg_deadlock_set_size:.1f} messages")
        print(f"  avg resource set size     : {result.avg_resource_set_size:.1f} channels")
        print(f"  avg knot cycle density    : {result.avg_knot_cycle_density:.1f} cycles")
    print(f"  avg dependency cycles/CWG : {result.avg_cycle_count:.1f}")

    # Dissect the first detected deadlock in detail.
    if sim.detector.events:
        ev = sim.detector.events[0]
        print()
        print(f"anatomy of the first deadlock (cycle {ev.cycle})")
        print("-----------------------------------------")
        print(f"  knot             : {len(ev.knot)} channels")
        print(f"  deadlock set     : messages {sorted(ev.deadlock_set)}")
        print(f"  resource set     : {ev.resource_set_size} channels")
        print(f"  knot cycle density: {ev.knot_cycle_density} "
              f"({ev.classification})")
        print(f"  dependent msgs   : {sorted(ev.dependent) or 'none'}")
        print(f"  transient deps   : {sorted(ev.transient_dependent) or 'none'}")


if __name__ == "__main__":
    main()
