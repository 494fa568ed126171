"""The gates of ``scripts/bench_baseline.py`` against the committed
``BENCH_core.json``: the committed baseline passes its own gates, every
key the gates read is in it, and each gate fires when its ratio crosses
its floor or bar.  Nothing is timed here."""

from __future__ import annotations

import copy
import json
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from bench_baseline import (  # noqa: E402
    BAR_GATES,
    BASELINE_PATH,
    RELATIVE_GATES,
    _at,
    check,
)

COMMITTED = json.loads(BASELINE_PATH.read_text())


class _Reads(Mapping):
    """A read-only view of a nested dict that logs every key path read."""

    def __init__(self, data: dict, log: list, path: tuple = ()):
        self._data, self._log, self._path = data, log, path

    def __getitem__(self, key):
        path = self._path + (key,)
        self._log.append(path)
        value = self._data[key]
        return _Reads(value, self._log, path) if isinstance(value, dict) else value

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def _with(path: tuple, value: float) -> dict:
    fresh = copy.deepcopy(COMMITTED)
    _at(fresh, path[:-1])[path[-1]] = value
    return fresh


def test_committed_baseline_passes_its_own_gates():
    assert check(COMMITTED, COMMITTED) == []


def test_every_key_check_reads_is_committed():
    read: list = []
    assert check(_Reads(COMMITTED, read), _Reads(COMMITTED, read)) == []
    gated = set(RELATIVE_GATES) | {p for gate in BAR_GATES for p in gate[:2]}
    assert gated <= set(read)
    for path in read:
        _at(COMMITTED, path)  # raises KeyError if a read fell back on a default


@pytest.mark.parametrize("path", sorted(RELATIVE_GATES), ids=".".join)
def test_relative_gate_fires_below_its_floor(path):
    committed = _at(COMMITTED, path)
    assert check(COMMITTED, _with(path, committed * 0.81)) == []
    problems = check(COMMITTED, _with(path, committed * 0.79))
    assert len(problems) == 1 and problems[0].startswith(".".join(path))


@pytest.mark.parametrize(
    "value_path, bar_path, is_floor",
    BAR_GATES,
    ids=[".".join(gate[0]) for gate in BAR_GATES],
)
def test_bar_gate_fires_past_its_bar(value_path, bar_path, is_floor):
    bar, name = _at(COMMITTED, bar_path), ".".join(bar_path)
    step = -0.01 if is_floor else 0.01
    inside = check(COMMITTED, _with(value_path, bar - step))
    assert not any(name in p for p in inside)
    past = check(COMMITTED, _with(value_path, bar + step))
    assert any(name in p for p in past)
