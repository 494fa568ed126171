"""The phase profiler, its trace-span emission and its one nesting rule."""

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator
from repro.obs.profiler import (
    PhaseProfiler,
    PhaseTimer,
    phase_rows,
    phase_table,
    share_pct,
)
from repro.obs.trace import TraceRecorder


def test_timer_accumulates_time_and_calls():
    prof = PhaseProfiler()
    t = prof.timer("engine/generate")
    assert isinstance(t, PhaseTimer)
    for _ in range(3):
        with t:
            pass
    assert t.calls == 3
    assert t.total >= 0.0
    assert prof.timer("engine/generate") is t


def test_add_manual_accounting():
    prof = PhaseProfiler()
    prof.add("detect/census", 0.25)
    prof.add("detect/census", 0.25, calls=4)
    snap = prof.snapshot()
    assert snap["detect/census"]["total_s"] == 0.5
    assert snap["detect/census"]["calls"] == 5


def test_timer_exit_emits_trace_span():
    tracer = TraceRecorder(capacity=16)
    prof = PhaseProfiler(tracer)
    tracer.cycle = 42
    with prof.timer("engine/allocate"):
        pass
    assert len(tracer.events) == 1
    kind, name, cycle, _ts, _dur, _args = tracer.events[0]
    assert (kind, name, cycle) == ("X", "engine/allocate", 42)


def test_add_does_not_emit_span():
    tracer = TraceRecorder(capacity=16)
    prof = PhaseProfiler(tracer)
    prof.add("detect/knots", 0.1)
    assert len(tracer.events) == 0


def _phases(**totals_ms):
    return {
        name.replace("__", "/"): {"total_s": ms / 1e3, "calls": 4}
        for name, ms in totals_ms.items()
    }


def test_phase_rows_subtract_nested_phases_from_engine_detect():
    rows = phase_rows(
        _phases(
            engine__generate=10.0,
            engine__detect=30.0,
            engine__recover=5.0,
            detect__knots=12.0,
            detect__census=3.0,
        )
    )
    assert rows["engine/detect"]["total_ms"] == 30.0
    assert rows["engine/detect"]["self_ms"] == 10.0
    assert rows["engine/recover"]["self_ms"] == 5.0
    # shares of the top-level total: generate + detect = 40 ms
    assert rows["engine/generate"]["share_pct"] == 25.0
    assert rows["engine/detect"]["share_pct"] == 25.0
    assert rows["detect/knots"]["share_pct"] == 30.0
    assert sum(row["share_pct"] for row in rows.values()) == 100.0


def test_phase_rows_never_round_a_share_to_zero():
    rows = phase_rows(_phases(engine__allocate=100_000.0, engine__move=0.004))
    assert rows["engine/move"]["share_pct"] == 0.000004
    assert share_pct(0.0, 1.0) == 0.0


def test_phase_rows_skip_phases_that_never_ran():
    rows = phase_rows({"engine/move": {"total_s": 0.0, "calls": 0}})
    assert rows == {}
    assert phase_table(rows).endswith("(no phases recorded)")


def test_table_renders_every_recorded_phase():
    prof = PhaseProfiler()
    prof.add("engine/allocate", 0.3, calls=10)
    prof.add("engine/move", 0.1, calls=10)
    text = phase_table(phase_rows(prof.snapshot()), "phase profile")
    assert text.startswith("phase profile\n")
    assert text.index("engine/allocate") < text.index("engine/move")
    assert text.splitlines()[-1].endswith("25.0%")


def test_recovering_run_nests_recovery_and_detector_stages_once():
    """On a run that deadlocks and recovers, ``engine/detect``'s self time
    excludes both the detector's stages and the recovery the engine runs
    inside its timer, and the detector's knot and census stages are booked
    by the as-shipped pass."""
    sim = NetworkSimulator(
        tiny_default(
            routing="dor",
            num_vcs=1,
            bidirectional=False,
            load=1.0,
            warmup_cycles=100,
            measure_cycles=600,
            seed=7,
            obs_level=1,
        )
    )
    assert sim.run().deadlocks > 0
    raw = sim.obs.profiler.snapshot()
    assert raw["engine/recover"]["calls"] > 0
    rows = phase_rows(raw)
    assert {"detect/knots", "detect/census"} <= set(rows)
    nested_s = raw["engine/recover"]["total_s"] + sum(
        rec["total_s"] for name, rec in raw.items() if name.startswith("detect/")
    )
    expected_ms = 1e3 * (raw["engine/detect"]["total_s"] - nested_s)
    assert abs(rows["engine/detect"]["self_ms"] - expected_ms) < 0.011
    top_level = ("engine/generate", "engine/allocate", "engine/move", "engine/detect")
    top_level_ms = 1e3 * sum(raw[name]["total_s"] for name in top_level)
    assert abs(sum(row["self_ms"] for row in rows.values()) - top_level_ms) < 0.05
    total = sum(row["share_pct"] for row in rows.values())
    assert abs(total - 100.0) <= 0.05 * len(rows)
