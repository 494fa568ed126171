"""Every example script runs end to end here and prints what it promises.

There is one test per file in ``examples/``, and each completes in seconds.
``watch_deadlock.py`` is also the only driver of ``repro.viz``.
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
    # seed 5 always closes a single-cycle knot of 6 channels at cycle 200
    assert "deadlock @ cycle 200 (single-cycle)" in out
    assert "knot               : 6 channels" in out
    assert "[#][#][#][#][#][#]" in out  # render_knot draws the knot's row
    assert "fifty cycles later:" in out


def test_every_example_has_a_test():
    tested = {
        name.removeprefix("test_") + ".py"
        for name in globals()
        if name.startswith("test_") and name != "test_every_example_has_a_test"
    }
    assert {path.name for path in EXAMPLES.glob("*.py")} == tested
