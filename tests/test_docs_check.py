"""The documentation drift gate's code-path check (scripts/docs_check.py,
check 6), on a planted repo: the whole gate runs as a ``ci_check.sh``
stage."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import docs_check  # noqa: E402


def _repo(tmp_path, doc, exempt=""):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "tool.py").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text(doc)
    (tmp_path / "CHANGES.md").write_text(exempt)
    return tmp_path


def test_a_planted_missing_path_is_reported(tmp_path, capsys):
    root = _repo(tmp_path, (
        "Run `python scripts/tool.py --check` and\n"
        "```bash\npython scripts/gone.py --all\n```\n"
    ))
    assert docs_check.check_code_paths(root) == [
        "docs/GUIDE.md: names missing path `scripts/gone.py`"
    ]
    assert "2 repo paths named in code checked" in capsys.readouterr().out


def test_prose_patterns_and_exempt_history_pass(tmp_path):
    root = _repo(
        tmp_path,
        "scripts/gone.py in prose, `tests/test_{a,b}.py`, `data/<stem>.csv`,\n"
        "`scripts/tool.py.` and a pytest id `scripts/tool.py::main`.\n",
        exempt="Deleted `scripts/gone.py`.\n",
    )
    assert docs_check.check_code_paths(root) == []


def test_links_inside_code_are_not_links(tmp_path):
    text = "see `[text](missing.md)` and [real](docs/GUIDE.md)"
    assert docs_check.LINK_RE.findall(docs_check.CODE_RE.sub("", text)) == [
        "docs/GUIDE.md"
    ]
