"""Compare two ledger result files: ``run.py --compare A.json B.json``.

One row per (end-to-end metric, workload): both medians with their
quartiles, how much worse B reads than A as a share of A's median, the
bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — B is worse by more than the bound and the spread does
  not excuse it;
* ``unresolved`` — the run-to-run spread (quartile distance over median,
  the wider of the two files) exceeds the bound and the two files' runs
  interleave, so the pair cannot be called unchanged or regressed.  Raise
  the number of reps (``--seconds``), never the bound.

Exact metrics (units ``count`` and ``ratio``) are compared for equality;
a difference is a regression — two commits that do not change simulated
behaviour must agree on every one.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from benchmarks.e2e.metrics import EXACT_UNITS

__all__ = ["summarize", "judge", "compare_files", "render_rows", "Row"]


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, min and n of one metric's per-rep values."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": values,
    }


def _spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(worse_by, verdict)`` for one metric: ``a`` is the parent's
    summary, ``b`` the change's; ``worse_by`` is a share of ``a``'s median
    (negative when B reads better)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if max(_spread(a), _spread(b)) > bound:
        a_vals = [sign * v for v in a["values"]]
        b_vals = [sign * v for v in b["values"]]
        if max(b_vals) < min(a_vals):
            return worse_by, "ok"  # every run of B better than every run of A
        if min(b_vals) > max(a_vals) and worse_by > bound:
            return worse_by, "regressed"  # cleanly separated, and too far
        return worse_by, "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: str
    b: str
    delta: str
    bound: str
    verdict: str


def _cell(summary: dict) -> str:
    return f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"


def compare_files(path_a: Path, path_b: Path, benchmark: dict) -> list[Row]:
    """Rows for every end-to-end pair plus every exact per-layer metric
    that differs (exact metrics that agree are summarised, not listed)."""
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    rows: list[Row] = []
    for workload, rec_a in doc_a["workloads"].items():
        rec_b = doc_b["workloads"].get(workload)
        if rec_b is None:
            rows.append(Row(workload, "*", "", "present", "missing", "", "", "regressed"))
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            a, b = rec_a["end_to_end"][name], rec_b["end_to_end"][name]
            worse_by, verdict = judge(a, b, spec["better"], spec["bound"])
            rows.append(
                Row(
                    workload,
                    name,
                    spec["unit"],
                    _cell(a),
                    _cell(b),
                    f"{100 * worse_by:+.1f}%",
                    f"{100 * spec['bound']:.0f}%",
                    verdict,
                )
            )
        failed_a = rec_a["failed"] / rec_a["attempted"]
        failed_b = rec_b["failed"] / rec_b["attempted"]
        rows.append(
            Row(
                workload,
                "failed_ops_share",
                "ratio",
                f"{failed_a:.4g}",
                f"{failed_b:.4g}",
                "",
                "any",
                "regressed" if failed_b > failed_a else "ok",
            )
        )
        agree = 0
        for name, cell_a in rec_a["per_layer"].items():
            if cell_a["unit"] not in EXACT_UNITS:
                continue
            value_b = rec_b["per_layer"].get(name, {}).get("value")
            if value_b == cell_a["value"]:
                agree += 1
                continue
            rows.append(
                Row(
                    workload,
                    name,
                    cell_a["unit"],
                    f"{cell_a['value']:g}",
                    "missing" if value_b is None else f"{value_b:g}",
                    "",
                    "exact",
                    "regressed",
                )
            )
        rows.append(
            Row(workload, "(exact per-layer metrics equal)", "count", str(agree), str(agree), "", "exact", "ok")
        )
    return rows


def render_rows(rows: Sequence[Row]) -> str:
    header = ("workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B worse by", "bound", "verdict")
    table = [header] + [
        (r.workload, r.metric, r.unit, r.a, r.b, r.delta, r.bound, r.verdict)
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    tally = {v: sum(1 for r in rows if r.verdict == v) for v in ("ok", "regressed", "unresolved")}
    lines.append("")
    lines.append(
        f"{tally['ok']} ok, {tally['regressed']} regressed, {tally['unresolved']} unresolved"
    )
    return "\n".join(lines)
