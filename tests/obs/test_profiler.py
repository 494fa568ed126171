"""Unit tests for the phase profiler and its trace-span emission."""

from repro.obs.profiler import PhaseProfiler, PhaseTimer
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


def test_table_renders_every_recorded_phase():
    prof = PhaseProfiler()
    prof.add("engine/allocate", 0.3, calls=10)
    prof.add("engine/move", 0.1, calls=10)
    text = prof.table("phase profile")
    assert "phase profile" in text
    assert "engine/allocate" in text and "engine/move" in text
    # widest share first
    assert text.index("engine/allocate") < text.index("engine/move")
    assert PhaseProfiler().table().endswith("(no phases recorded)")
