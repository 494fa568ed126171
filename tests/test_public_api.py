"""Public-API surface stability: everything README/API.md promises exists."""

import repro


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_headline_names_importable():
    from repro import (
        ChannelWaitForGraph,
        DeadlockDetector,
        IrregularTorus,
        KAryNCube,
        Mesh,
        NetworkSimulator,
        SimulationConfig,
        bench_default,
        build_topology,
        count_simple_cycles,
        find_knots,
        make_pattern,
        make_routing,
        make_selection,
        paper_default,
        run_load_sweep,
        tiny_default,
    )

    headline = [
        ChannelWaitForGraph, DeadlockDetector, IrregularTorus, KAryNCube,
        Mesh, NetworkSimulator, SimulationConfig, bench_default,
        build_topology, count_simple_cycles, find_knots, make_pattern,
        make_routing, make_selection, paper_default, run_load_sweep,
        tiny_default,
    ]
    for obj in headline:
        name = getattr(obj, "__name__", None)
        assert name in repro.__all__, f"{name} imported but not in __all__"
        assert getattr(repro, name) is obj, f"repro.{name} rebound"
    assert callable(make_routing) and callable(build_topology)


def test_subpackage_api():
    from repro.core import ChannelWaitForGraph, packet_wait_for_graph  # noqa: F401
    from repro.experiments import ALL_EXPERIMENTS
    from repro.metrics import replicate  # noqa: F401
    from repro.obs import Observer, TraceRecorder, merge_snapshots  # noqa: F401
    from repro.routing import certify_deadlock_free  # noqa: F401
    from repro.viz import render_occupancy  # noqa: F401

    assert len(ALL_EXPERIMENTS) == 17


def test_version():
    assert repro.__version__ == "1.0.0"


def test_cli_registry_coherent():
    from repro.cli import build_parser
    from repro.experiments import ALL_EXPERIMENTS, EXPERIMENT_ALIASES

    # every alias must resolve to a registered experiment id
    for alias, target in EXPERIMENT_ALIASES.items():
        assert target in ALL_EXPERIMENTS
        assert alias not in ALL_EXPERIMENTS

    parser = build_parser()
    sub = parser._subparsers._group_actions[0]
    for action in sub.choices["experiment"]._actions:
        if action.dest == "id":
            choices = set(action.choices) - {"all"} - set(EXPERIMENT_ALIASES)
            assert choices == set(ALL_EXPERIMENTS)
