#!/usr/bin/env python3
"""Documentation drift gate: API symbols must import, links must resolve.

Documentation rots in two characteristic ways: an API reference keeps
naming a symbol that was renamed or removed, and a markdown link keeps
pointing at a file that moved.  Both are mechanical to detect, so this
script does — it is part of ``scripts/ci_check.sh``:

1. every dotted ``repro.*`` path mentioned in ``docs/API.md`` is resolved
   against the live package (import the longest importable module prefix,
   then walk attributes), so the reference cannot drift from the code;
2. every relative link in the repo's markdown files must point at a file
   that exists;
3. every public ``Topology`` subclass and every CLI ``--topology`` choice
   must be documented in ``docs/TOPOLOGIES.md`` — a new topology class
   cannot land without its reference entry;
4. the ``SimulationConfig`` table in ``docs/API.md`` must list every field
   and match what :func:`render_config_table` renders from the config's
   field table (``--write`` regenerates it in place).

Exit status is the number of problems (0 = clean).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

API_DOC = REPO_ROOT / "docs" / "API.md"
TOPOLOGY_DOC = REPO_ROOT / "docs" / "TOPOLOGIES.md"

#: a dotted repro.* path: the package name plus at least one attribute
SYMBOL_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: markdown inline links — [text](target); images share the syntax
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: directories never scanned for markdown
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}


def iter_markdown_files() -> list[Path]:
    out = []
    for path in sorted(REPO_ROOT.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            out.append(path)
    return out


def resolve_symbol(dotted: str) -> None:
    """Import the longest module prefix of ``dotted``, then walk attributes.

    Raises on any failure; the caller turns that into a problem report.
    """
    parts = dotted.split(".")
    module = None
    index = len(parts)
    last_error: Exception | None = None
    while index > 0:
        try:
            module = importlib.import_module(".".join(parts[:index]))
            break
        except ImportError as exc:
            last_error = exc
            index -= 1
    if module is None:
        raise ImportError(f"no importable prefix of {dotted!r}: {last_error}")
    obj = module
    for attr in parts[index:]:
        obj = getattr(obj, attr)  # AttributeError names the missing piece


def check_api_symbols() -> list[str]:
    problems = []
    if not API_DOC.exists():
        return [f"{API_DOC.relative_to(REPO_ROOT)}: missing"]
    seen = sorted(set(SYMBOL_RE.findall(API_DOC.read_text())))
    for dotted in seen:
        try:
            resolve_symbol(dotted)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(
                f"docs/API.md: `{dotted}` does not resolve "
                f"({type(exc).__name__}: {exc})"
            )
    print(f"docs_check: {len(seen)} API symbols resolved against the package")
    return problems


def check_markdown_links() -> list[str]:
    problems = []
    checked = 0
    for md in iter_markdown_files():
        for match in LINK_RE.finditer(md.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            checked += 1
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    print(f"docs_check: {checked} intra-repo links checked")
    return problems


def check_topology_docs() -> list[str]:
    """Every topology class and CLI choice must appear in TOPOLOGIES.md."""
    if not TOPOLOGY_DOC.exists():
        return [f"{TOPOLOGY_DOC.relative_to(REPO_ROOT)}: missing"]
    text = TOPOLOGY_DOC.read_text()
    problems = []

    from repro.network import topology as topo_mod

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = sorted(
        {c.__name__ for c in subclasses(topo_mod.Topology)
         if not c.__name__.startswith("_")}
    )
    for name in classes:
        if name not in text:
            problems.append(
                f"docs/TOPOLOGIES.md: Topology subclass `{name}` is "
                f"undocumented"
            )

    from repro.cli import build_parser

    parser = build_parser()
    choices: list[str] = []
    for action in parser._subparsers._group_actions[0].choices["simulate"]._actions:
        if "--topology" in action.option_strings:
            choices = list(action.choices)
    if not choices:
        problems.append("docs/TOPOLOGIES.md: simulate has no --topology flag")
    for choice in choices:
        if f"`{choice}`" not in text:
            problems.append(
                f"docs/TOPOLOGIES.md: CLI --topology choice `{choice}` is "
                f"undocumented"
            )
    print(
        f"docs_check: {len(classes)} topology classes and {len(choices)} "
        f"CLI choices covered by docs/TOPOLOGIES.md"
    )
    return problems


#: the generated block of docs/API.md
TABLE_BEGIN = "<!-- config-table: generated by scripts/docs_check.py --write -->"
TABLE_END = "<!-- config-table: end -->"


def render_config_table() -> str:
    """docs/API.md's ``SimulationConfig`` table, one row per field."""
    from repro.config import FIELDS

    rows = [
        "| group | field | kind | default | accepts | `simulate` flag |",
        "|---|---|---|---|---|---|",
    ]
    for f in FIELDS:
        meta = f.metadata
        flag = f"`{meta['cli'].name}`" if meta["cli"] else ""
        rows.append(
            f"| {meta['group']} | `{f.name}` | {meta['kind']} | "
            f"`{f.default!r}` | {meta['domain'].describe()} | {flag} |"
        )
    return "\n".join([TABLE_BEGIN, *rows, TABLE_END])


def _config_table_span(text: str) -> tuple[int, int]:
    start = text.index(TABLE_BEGIN)
    return start, text.index(TABLE_END, start) + len(TABLE_END)


def check_config_table() -> list[str]:
    """Every SimulationConfig field must have its row in docs/API.md."""
    from repro.config import FIELDS

    text = API_DOC.read_text()
    try:
        start, end = _config_table_span(text)
    except ValueError:
        return ["docs/API.md: the generated SimulationConfig table is missing"]
    block = text[start:end]
    problems = [
        f"docs/API.md: SimulationConfig field `{f.name}` is missing from the "
        f"config table"
        for f in FIELDS
        if f"| `{f.name}` |" not in block
    ]
    if not problems and block != render_config_table():
        problems.append(
            "docs/API.md: the SimulationConfig table is stale; regenerate "
            "it with `python scripts/docs_check.py --write`"
        )
    print(f"docs_check: {len(FIELDS)} SimulationConfig fields in docs/API.md")
    return problems


def write_config_table() -> None:
    text = API_DOC.read_text()
    start, end = _config_table_span(text)
    API_DOC.write_text(text[:start] + render_config_table() + text[end:])


def main() -> int:
    if sys.argv[1:] == ["--write"]:
        write_config_table()
    problems = (
        check_api_symbols() + check_markdown_links() + check_topology_docs()
        + check_config_table()
    )
    for problem in problems:
        print(f"DOCS: {problem}")
    if not problems:
        print("docs_check: OK")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
