"""Unit tests for load sweeps and saturation estimation."""

import pytest

from repro.config import tiny_default
from repro.metrics.stats import RunResult
from repro.metrics.sweep import SweepResult, run_load_sweep


def fake_result(load, throughput, deadlocks=0, delivered=100):
    cfg = tiny_default(load=load)
    r = RunResult(config=cfg, measured_cycles=1000)
    r.delivered = delivered
    # reverse-engineer delivered_flits so normalized_throughput == throughput
    capacity = 1.0
    r.delivered_flits = int(throughput * capacity * 1000 * cfg.num_nodes)
    r.deadlocks = deadlocks
    return r


def make_sweep(points):
    loads = [p[0] for p in points]
    results = [fake_result(*p) for p in points]
    return SweepResult("test", loads, results, capacity=1.0)


def test_saturation_detection():
    sweep = make_sweep([(0.2, 0.2), (0.4, 0.4), (0.6, 0.45), (0.8, 0.45)])
    assert sweep.saturation_load == 0.6


def test_no_saturation():
    sweep = make_sweep([(0.2, 0.2), (0.4, 0.39)])
    assert sweep.saturation_load is None


def test_series_accessors():
    sweep = make_sweep([(0.2, 0.2, 1), (0.4, 0.4, 3)])
    assert sweep.deadlock_counts == [1, 3]
    assert [r.normalized_deadlocks for r in sweep.results] == [0.01, 0.03]
    assert len(sweep.rows()) == 2
    assert sweep.at_load(0.4).deadlocks == 3


def test_rows_have_expected_keys():
    sweep = make_sweep([(0.2, 0.2)])
    row = sweep.rows()[0]
    for key in (
        "load",
        "throughput",
        "deadlocks",
        "norm_deadlocks",
        "avg_deadlock_set",
        "blocked_pct",
        "latency",
    ):
        assert key in row


def test_run_load_sweep_end_to_end():
    cfg = tiny_default(measure_cycles=300, warmup_cycles=50)
    seen = []
    sweep = run_load_sweep(
        cfg, [0.1, 0.3], label="it", progress=lambda l, r: seen.append(l)
    )
    assert sweep.label == "it"
    assert seen == [0.1, 0.3]
    assert len(sweep.results) == 2
    assert all(r.measured_cycles == 300 for r in sweep.results)
    # more offered load delivers at least as much below saturation
    assert sweep.results[1].delivered >= sweep.results[0].delivered
