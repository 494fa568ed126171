"""The reachability audit's bookkeeping (scripts/reach.py), on planted
packages: the full audit runs its drivers as a ``ci_check.sh`` stage."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import reach  # noqa: E402

PLANTED = '''
def used():
    def inner():
        return [x for x in ()]
    return inner()


def planted():
    return 1


class Box:
    def __repr__(self):
        return "Box"

    @property
    def size(self):
        return lambda: 0
'''


@pytest.fixture
def package(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "knots.py").write_text(PLANTED)
    return tmp_path


def test_inventory_lists_every_def_and_nothing_else(package):
    ids = sorted(reach.inventory(package).values())
    assert ids == [
        "core/knots.py::Box.__repr__",
        "core/knots.py::Box.size",
        "core/knots.py::planted",
        "core/knots.py::used",
        "core/knots.py::used.<locals>.inner",
    ]


def test_profiled_records_the_code_objects_called():
    seen = {}

    def callee():
        return 1

    with reach.profiled(seen):
        callee()
    assert callee.__code__ in seen.values()


def test_a_planted_uncalled_function_fails_the_check(package):
    ids = sorted(reach.inventory(package).values())
    reached = {
        "core/knots.py::used": {"cli"},
        "core/knots.py::used.<locals>.inner": {"cli"},
        "core/knots.py::Box.size": {"nets"},
    }
    allowlist = {"*.__repr__": "repr"}
    assert reach.problems(ids, reached, allowlist) == [
        "core/knots.py::planted is reached by no driver and not allowlisted"
    ]
    allowlist["core/knots.py::planted"] = "reference"
    assert reach.problems(ids, reached, allowlist) == []


def test_stale_and_unreasoned_entries_fail_the_check(package):
    ids = sorted(reach.inventory(package).values())
    reached = {fid: {"experiments"} for fid in ids if "__repr__" not in fid}
    allowlist = {
        "*.__repr__": "repr",
        "core/knots.py::planted": "fork",  # reached now
        "core/gone.py::*": "viz",  # matches nothing
        "core/knots.py::Box.*": "exported",  # not a reason
    }
    assert reach.problems(ids, reached, allowlist) == [
        "allowlist entry 'core/knots.py::planted' is now reached",
        "allowlist entry 'core/gone.py::*' matches no function (gone)",
        "allowlist entry 'core/knots.py::Box.*': 'exported' is not a reason",
    ]


def test_every_shipped_entry_names_a_fixed_reason():
    assert set(reach.ALLOWLIST.values()) <= set(reach.REASONS)


def test_render_counts_per_module_and_splices_between_the_markers(package):
    ids = sorted(reach.inventory(package).values())
    reached = {"core/knots.py::used": {"cli", "nets"}}
    table = reach.render(ids, reached, {"*.__repr__": "repr"})
    assert "| `core/knots.py` | 5 | 0 | 1 | 1 | 4 |" in table
    assert "| `*.__repr__` | 1 | __repr__ |" in table
    doc = f"intro\n{reach.BEGIN}\nold\n{reach.END}\noutro\n"
    assert reach.splice(doc, table) == f"intro\n{reach.BEGIN}\n{table}\n{reach.END}\noutro\n"


def test_the_committed_table_is_spliced_into_testing_md():
    text = reach.DOC.read_text()
    assert text.count(reach.BEGIN) == 1 and text.count(reach.END) == 1
