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
   field table;
5. the "Summary of reproduction status" table in ``EXPERIMENTS.md`` must
   match what :func:`render_claims_summary` renders from the claims table
   evaluated on the committed bench observations;
6. every repo path under ``examples/``, ``scripts/``, ``src/``, ``tests/``
   or ``data/`` that a markdown file names in code (an inline code span or
   a fenced block) must exist — so a command like ``python scripts/x.py``
   or a table of example files cannot outlive the file.  At the top level
   only the project's own documentation (:data:`PATH_CHECKED_TOP`) is
   checked: the history, plan and reference documents there name deleted,
   planned or foreign files by design.

``--write`` regenerates both generated blocks in place.

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
SUMMARY_DOC = REPO_ROOT / "EXPERIMENTS.md"
TOPOLOGY_DOC = REPO_ROOT / "docs" / "TOPOLOGIES.md"

#: a dotted repro.* path: the package name plus at least one attribute
SYMBOL_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: markdown inline links — [text](target); images share the syntax
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: directories never scanned for markdown
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}

#: an inline code span or a fenced code block
CODE_RE = re.compile(r"```.*?```|`[^`\n]+`", re.S)

#: a path under one of the checked repo directories, as a code token
PATH_RE = re.compile(r"(?<![\w./-])(?:examples|scripts|src|tests|data)/[^\s`'\"(),;:]*")

#: the top-level documents whose code paths are checked; every markdown file
#: below the top level is checked too
PATH_CHECKED_TOP = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}


def iter_markdown_files(root: Path = REPO_ROOT) -> list[Path]:
    out = []
    for path in sorted(root.rglob("*.md")):
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
        # a link inside a code span or block is literal text, not a link
        for match in LINK_RE.finditer(CODE_RE.sub("", md.read_text())):
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


def check_code_paths(root: Path = REPO_ROOT) -> list[str]:
    """Every repo path a markdown file names in code must exist."""
    problems = []
    checked = 0
    for md in iter_markdown_files(root):
        if md.parent == root and md.name not in PATH_CHECKED_TOP:
            continue
        for code in CODE_RE.findall(md.read_text()):
            for path in PATH_RE.findall(code):
                path = path.rstrip(".")
                if any(c in path for c in "{}*?<>[]"):
                    continue  # a pattern, not a path
                checked += 1
                if not (root / path).exists():
                    problems.append(
                        f"{md.relative_to(root)}: names missing path `{path}`"
                    )
    print(f"docs_check: {checked} repo paths named in code checked")
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


def _span(text: str, begin: str, end: str) -> tuple[int, int]:
    start = text.index(begin)
    return start, text.index(end, start) + len(end)


def check_config_table() -> list[str]:
    """Every SimulationConfig field must have its row in docs/API.md."""
    from repro.config import FIELDS

    text = API_DOC.read_text()
    try:
        start, end = _span(text, TABLE_BEGIN, TABLE_END)
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


#: the generated block of EXPERIMENTS.md
SUMMARY_BEGIN = "<!-- claims-summary: generated by scripts/docs_check.py --write -->"
SUMMARY_END = "<!-- claims-summary: end -->"


def render_claims_summary() -> str:
    """EXPERIMENTS.md's reproduction summary: every claim's verdict on the
    committed bench observations."""
    from repro.experiments.claims import CLAIMS, committed_observations, evaluate

    committed = committed_observations()
    rows = [
        "| id | must hold at | claim (paper or DESIGN.md §6) | committed bench data |",
        "|---|---|---|---|",
    ]
    for claim in CLAIMS:
        verdict = evaluate(claim, committed[claim.experiment])
        rows.append(
            f"| `{claim.id}` | {', '.join(claim.scales)} | {claim.paper} | "
            f"{verdict} |"
        )
    return "\n".join([SUMMARY_BEGIN, *rows, SUMMARY_END])


def check_claims_summary() -> list[str]:
    """EXPERIMENTS.md's summary must be the claims table's current render."""
    text = SUMMARY_DOC.read_text()
    try:
        start, end = _span(text, SUMMARY_BEGIN, SUMMARY_END)
    except ValueError:
        return ["EXPERIMENTS.md: the generated claims summary is missing"]
    print("docs_check: EXPERIMENTS.md summary checked against the claims table")
    if text[start:end] != render_claims_summary():
        return [
            "EXPERIMENTS.md: the claims summary is stale; regenerate it with "
            "`python scripts/docs_check.py --write`"
        ]
    return []


#: (document, begin marker, end marker, renderer) of every generated block
GENERATED = (
    (API_DOC, TABLE_BEGIN, TABLE_END, render_config_table),
    (SUMMARY_DOC, SUMMARY_BEGIN, SUMMARY_END, render_claims_summary),
)


def write_generated() -> None:
    for doc, begin, end, render in GENERATED:
        text = doc.read_text()
        start, stop = _span(text, begin, end)
        doc.write_text(text[:start] + render() + text[stop:])


def main() -> int:
    if sys.argv[1:] == ["--write"]:
        write_generated()
    problems = (
        check_api_symbols() + check_markdown_links() + check_code_paths()
        + check_topology_docs() + check_config_table() + check_claims_summary()
    )
    for problem in problems:
        print(f"DOCS: {problem}")
    if not problems:
        print("docs_check: OK")
    return len(problems)


if __name__ == "__main__":
    raise SystemExit(main())
