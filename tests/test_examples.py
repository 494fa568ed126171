"""Smoke tests: the example scripts run end to end and print sane output.

Heavyweight examples (full studies, long traces) are exercised indirectly
by the experiment tests; the ones here complete in seconds.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_classification_gallery(capsys):
    run_example("classification_gallery.py")
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 4" in out
    assert "single-cycle deadlock" in out
    assert "NO deadlock" in out
    assert "dependent msgs" in out


def test_classification_gallery_dot(capsys):
    run_example("classification_gallery.py", ["--dot"])
    assert "digraph CWG" in capsys.readouterr().out


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "deadlock characterization" in out
    assert "true deadlocks detected" in out


def test_static_certification(capsys):
    run_example("static_certification.py")
    out = capsys.readouterr().out
    assert "deadlock-free (Dally-Seitz)" in out
    assert "VIOLATION" not in out


def test_watch_deadlock(capsys):
    run_example("watch_deadlock.py")
    out = capsys.readouterr().out
    assert "deadlock @ cycle" in out or "no deadlock formed" in out


def test_profile_run(capsys, tmp_path):
    import json

    trace_path = tmp_path / "trace.json"
    run_example("profile_run.py", ["--trace-out", str(trace_path)])
    out = capsys.readouterr().out
    assert "phase profile" in out
    assert "engine/allocate" in out
    assert "detector pass counters" in out
    assert "trace ring buffer" in out
    doc = json.loads(trace_path.read_text())
    assert {ev["name"] for ev in doc["traceEvents"]} >= {
        "engine/generate",
        "engine/allocate",
        "engine/move",
        "engine/detect",
    }
