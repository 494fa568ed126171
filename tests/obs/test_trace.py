"""Unit tests for the trace ring buffer and its Chrome/JSONL exports."""

import json

import pytest

from repro.obs.trace import TraceRecorder


def test_ring_buffer_bounds_and_dropped_counter():
    tr = TraceRecorder(capacity=4)
    for i in range(7):
        tr.instant("block", msg=i)
    assert len(tr.events) == 4
    assert tr.dropped == 3
    assert tr.stats() == {"events": 4, "dropped": 3}
    # oldest events fell off the front: the survivors are the last four
    kept = [ev[5]["msg"] for ev in tr.events]
    assert kept == [3, 4, 5, 6]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TraceRecorder(capacity=0)


def test_chrome_export_schema():
    """The export must carry the fields chrome://tracing / Perfetto parse:
    ``traceEvents`` array, ``ph`` in {"X","i"}, numeric ``ts`` (µs),
    ``dur`` on duration events, ``s`` scope on instants."""
    tr = TraceRecorder(capacity=16)
    tr.cycle = 5
    tr.span("engine/allocate", start_s=tr._t0 + 0.001, dur_s=0.002)
    tr.instant("deadlock", size=3)
    doc = tr.to_chrome()
    json.dumps(doc)  # JSON-serializable end to end

    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["recorded_events"] == 2
    assert doc["otherData"]["dropped_events"] == 0
    span, instant = doc["traceEvents"]

    assert span["ph"] == "X"
    assert span["name"] == "engine/allocate"
    assert span["ts"] == pytest.approx(1000, abs=1)  # µs
    assert span["dur"] == pytest.approx(2000, abs=1)
    assert span["cat"] == "phase"
    assert span["args"]["cycle"] == 5
    assert isinstance(span["pid"], int) and isinstance(span["tid"], int)

    assert instant["ph"] == "i"
    assert instant["s"] == "t"
    assert instant["cat"] == "event"
    assert instant["args"] == {"cycle": 5, "size": 3}
    assert "dur" not in instant


def test_jsonl_export_round_trips(tmp_path):
    tr = TraceRecorder(capacity=8)
    tr.instant("wake", msg=1)
    tr.cycle = 3
    tr.instant("recovery", victim=9)
    path = tmp_path / "t.jsonl"
    tr.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["wake", "recovery"]
    assert rows[1]["args"] == {"cycle": 3, "victim": 9}


def test_write_chrome_file_parses(tmp_path):
    tr = TraceRecorder(capacity=8)
    tr.span("engine/move", start_s=tr._t0, dur_s=0.001)
    path = tmp_path / "t.json"
    tr.write_chrome(path)
    doc = json.loads(path.read_text())
    assert doc["traceEvents"][0]["name"] == "engine/move"
