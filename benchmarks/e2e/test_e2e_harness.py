"""Tests of the benchmark harness itself: ``pytest benchmarks/e2e -q``.

Not part of the tier-1 suite (``pyproject.toml`` collects ``tests/``);
they run the harness at smoke sizes, a few seconds in all.
"""

from __future__ import annotations

import argparse
import json
import math
import re

import pytest

from benchmarks.e2e import run as harness  # first: puts src/ on sys.path
from benchmarks.e2e import metrics, verify
from benchmarks.e2e.compare import judge, summarize
from benchmarks.e2e.trace import Span, Tracer
from benchmarks.e2e.workloads import (
    FULL,
    IMPLEMENTATION_FIELDS,
    SMOKE,
    PassContext,
    make_workloads,
)
from repro.config import SimulationConfig

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke() -> dict:
    """``run.py --smoke``: every workload, tiny sizes, one rep, traced."""
    return harness.run_smoke(argparse.Namespace(seed=verify.PINNED_SEED))


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    return harness.load_benchmark()


def test_benchmark_json_matches_the_declarations(benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(
        metrics.ALL_WORKLOADS
    )
    declared = {
        m["name"]: (m["unit"], m["better"]) for m in benchmark_json["end_to_end"]
    }
    assert declared == metrics.END_TO_END
    layered = {m["name"]: (m["unit"], m["better"]) for m in benchmark_json["per_layer"]}
    assert layered == {n: (u, b) for n, (u, b, _on) in metrics.PER_LAYER.items()}
    for name in [*declared, *layered, *metrics.ALL_WORKLOADS]:
        assert NAME.match(name), name
    assert all(0 < m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    assert declared["setup_s"] == ("s", "lower")
    for _unit, _better, workloads in metrics.PER_LAYER.values():
        assert set(workloads) <= set(metrics.ALL_WORKLOADS)


def test_every_declared_metric_is_emitted(smoke, benchmark_json):
    for workload in metrics.ALL_WORKLOADS:
        detail = smoke[workload]
        for spec in benchmark_json["end_to_end"]:
            cell = detail["end_to_end"][spec["name"]]
            assert cell["unit"] == spec["unit"]
            assert math.isfinite(cell["median"]) and cell["median"] > 0, spec["name"]
        for spec in benchmark_json["per_layer"]:
            cell = detail["per_layer"][spec["name"]]
            assert cell["unit"] == spec["unit"]
            assert math.isfinite(cell["value"]), spec["name"]
            if spec["unit"] != "%":  # the two percentages may be negative
                assert cell["value"] >= 0, spec["name"]
            if not metrics.declared_on(spec["name"], workload):
                assert cell["value"] == 0, (workload, spec["name"])
        # what must be there for the ledger to mean anything
        for name in ("network.allocate.self_s", "network.sim_cycles", "network.construct_s"):
            assert detail["per_layer"][name]["value"] > 0, (workload, name)
    assert smoke["sat16_tfar1"]["per_layer"]["core.detect.total_s"]["value"] > 0
    assert smoke["sat16_tfar1"]["per_layer"]["network.step_us_p99"]["value"] > 0
    assert smoke["fig6_sweep8"]["per_layer"]["experiments.series.tfar.engine_s"]["value"] > 0
    assert smoke["topo_zoo_sweep"]["per_layer"]["experiments.series.dragonfly.engine_s"]["value"] > 0
    assert smoke["campaign_fanout_tiny"]["per_layer"]["campaign.service.drain_s"]["value"] > 0
    assert smoke["campaign_fanout_tiny"]["per_layer"]["campaign.store.write_us_p50"]["value"] > 0


def test_contract_line_carries_exactly_the_declared_metrics(smoke, benchmark_json):
    detail = dict(smoke["fig6_sweep8"])
    for traced, section in ((True, "per_layer"), (False, "end_to_end")):
        detail["traced"] = traced
        line = json.loads(harness.contract_line(detail))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1 and line["failed"] == 0 and line["correct"]
        assert list(line["metrics"]) == [m["name"] for m in benchmark_json[section]]
        for cell in line["metrics"].values():
            assert set(cell) == {"value", "unit"}


def test_smoke_results_are_correct(smoke):
    for workload, detail in smoke.items():
        assert detail["failed"] == 0 and detail["correct"], workload
        assert detail["attempted"] > 0


def test_corrupted_pinned_digest_fails_points():
    pinned = dict(verify.load_pinned("smoke", "sat16_tfar1"))
    label = next(iter(pinned))
    pinned[label] = "0" * 64
    detail = harness.measure_workload(
        "sat16_tfar1",
        verify.PINNED_SEED,
        0.0,
        False,
        sizes_name="smoke",
        min_reps=1,
        pinned=pinned,
    )
    assert detail["failed"] > 0 and not detail["correct"]
    assert detail["failed"] / detail["attempted"] > 0


def test_span_self_times_of_a_nested_trace_are_exact():
    tracer = Tracer()
    tracer.spans = [
        Span("pass", 0.0, 10.0, None, "w/0"),
        Span("run", 1.0, 9.0, 0, "w/0"),
        Span("detect", 2.0, 4.0, 1, "w/0"),
        Span("detect", 3.0, 6.0, 1, "w/0"),  # overlaps its sibling: counted once
        Span("detect", 8.0, 12.0, 1, "w/0"),  # runs past its parent: clipped
        Span("knots", 2.5, 3.5, 2, "w/0"),
        Span("pass", 20.0, 21.0, None, "w/1"),
    ]
    assert tracer.self_times("w/0") == {
        "pass": 2.0,  # 10 - run(8)
        "run": 3.0,  # 8 - [2,6] - [8,9]
        "detect": 8.0,  # (2 - knots 1) + 3 + 4
        "knots": 1.0,
    }
    assert tracer.self_times()["pass"] == 3.0
    assert tracer.total("detect", "w/0") == 9.0
    events = tracer.to_chrome()["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "X") == len(tracer.spans)
    assert {e["args"]["name"] for e in events if e["ph"] == "M"} == {"w/0", "w/1"}


def test_tracer_records_parents_and_shared_ids():
    tracer = Tracer()
    tracer.trace_id = "w/rep0"
    with tracer.span("pass"):
        with tracer.span("run") as run:
            tracer.add("detect", run.start, run.start)
    names = [(s.name, s.parent, s.trace_id) for s in tracer.spans]
    assert names == [("pass", None, "w/rep0"), ("run", 0, "w/rep0"), ("detect", 1, "w/rep0")]


def test_no_config_selects_an_implementation(tmp_path):
    defaults = SimulationConfig()
    built = []
    for sizes in (FULL, SMOKE):
        for workload in make_workloads(sizes).values():
            if hasattr(workload, "configs"):
                built += workload.configs(3, obs_level=0) + workload.configs(3, obs_level=1)
    # the experiment runners build their own configs: read them off a pass
    for name in metrics.SWEEPS:
        outcome = make_workloads(SMOKE)[name].run_pass(3, PassContext(Tracer(), tmp_path))
        built += [point.result.config for point in outcome.points]
    assert len(built) > 100
    for config in built:
        for field in IMPLEMENTATION_FIELDS:
            assert getattr(config, field) == getattr(defaults, field), (config.label(), field)


def test_judge_verdicts():
    tight_a = summarize([1.00, 1.01, 0.99, 1.00, 1.02])
    assert judge(tight_a, summarize([1.05, 1.04, 1.06, 1.05, 1.05]), "lower", 0.10)[1] == "ok"
    assert judge(tight_a, summarize([1.25, 1.24, 1.26, 1.25, 1.25]), "lower", 0.10)[1] == "regressed"
    assert judge(tight_a, summarize([0.75, 0.76, 0.74, 0.75, 0.75]), "higher", 0.10)[1] == "regressed"
    wide = summarize([0.8, 1.3, 1.0, 0.9, 1.2])
    assert judge(wide, summarize([0.9, 1.4, 1.1, 1.0, 1.25]), "lower", 0.10)[1] == "unresolved"
    # wide, but every run of B reads better than every run of A
    assert judge(wide, summarize([0.5, 0.7, 0.6, 0.55, 0.65]), "lower", 0.10)[1] == "ok"
    worse_by, _ = judge(tight_a, summarize([1.1] * 5), "lower", 0.10)
    assert worse_by == pytest.approx(0.10)


def test_compare_flags_regressions_and_count_changes(smoke, tmp_path, capsys):
    ledger = {"schema": 1, "seed": 1, "sizes": "smoke", "seconds": 0, "workloads": smoke}
    path_a = tmp_path / "a.json"
    path_a.write_text(json.dumps(ledger))
    assert harness.main(["--compare", str(path_a), str(path_a)]) == 0
    assert "0 regressed, 0 unresolved" in capsys.readouterr().out

    slower = json.loads(path_a.read_text())
    wall = slower["workloads"]["sat16_tfar1"]["end_to_end"]["wall_s"]
    wall.update(summarize([v * 1.5 for v in wall["values"]]))
    path_b = tmp_path / "b.json"
    path_b.write_text(json.dumps(slower))
    assert harness.main(["--compare", str(path_a), str(path_b)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"sat16_tfar1\s+wall_s.*regressed", out)

    drifted = json.loads(path_a.read_text())
    drifted["workloads"]["fig6_sweep8"]["per_layer"]["network.msgs_delivered"]["value"] += 1
    path_b.write_text(json.dumps(drifted))
    assert harness.main(["--compare", str(path_a), str(path_b)]) == 1
    assert re.search(r"network\.msgs_delivered.*exact\s+regressed", capsys.readouterr().out)
