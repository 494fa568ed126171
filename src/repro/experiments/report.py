"""Report rendering: CSV export and ASCII charts for experiment results.

The paper presents its results as x/y figures (load on the x axis).  With
no plotting dependency available, this module renders the same series as
ASCII scatter charts and exports machine-readable CSV so the figures can
be re-plotted elsewhere.
"""

from __future__ import annotations

import csv
import io
import math
import time
from typing import Mapping, Sequence

from repro.experiments.base import ExperimentResult, format_table
from repro.obs.profiler import phase_rows, phase_table

__all__ = [
    "sweep_csv",
    "experiment_csv",
    "observations_csv",
    "ascii_chart",
    "render_figure",
    "render_topology_comparison",
    "format_obs_snapshot",
    "render_obs_rollup",
    "render_campaign_status",
]


#: format of each sweep-row column of the CSV export, keyed by its
#: :meth:`~repro.metrics.sweep.SweepResult.rows` name
CSV_FORMATS = {
    "load": "{}", "throughput": "{:.6f}", "delivered": "{}", "deadlocks": "{}",
    "norm_deadlocks": "{:.6f}", "avg_deadlock_set": "{:.3f}",
    "avg_resource_set": "{:.3f}", "avg_knot_density": "{:.3f}",
    "avg_cycles": "{:.3f}", "blocked_pct": "{:.3f}", "in_network": "{:.3f}",
    "latency": "{:.3f}",
}


def sweep_csv(result: ExperimentResult) -> str:
    """All sweep rows of an experiment as CSV (one row per series x load)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["experiment", "series", *CSV_FORMATS])
    for label, sweep in result.sweeps.items():
        for row in sweep.rows():
            writer.writerow(
                [result.experiment_id, label]
                + [fmt.format(row[key]) for key, fmt in CSV_FORMATS.items()]
            )
    return buf.getvalue()


def experiment_csv(results: Sequence[ExperimentResult]) -> str:
    """Concatenated CSV for several experiments (shared header)."""
    parts = [sweep_csv(r).splitlines() for r in results]
    return "\n".join([parts[0][0], *(ln for part in parts for ln in part[1:])]) + "\n"


def observations_csv(results: Sequence[ExperimentResult]) -> str:
    """Every observation of several experiments as ``experiment,key,value``
    CSV, values as ``repr(float)`` so a reader gets them back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "key", "value"])
    for result in results:
        for key, value in result.observations.items():
            writer.writerow([result.experiment_id, key, repr(float(value))])
    return buf.getvalue()


_MARKS = "ox+*#@%&"


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    title: str = "",
    width: int = 64,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
    log_y: bool = False,
) -> str:
    """Render named (x, y) point series as an ASCII scatter chart."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"

    def ty(y: float) -> float:
        return math.log10(y + 1e-12) if log_y else y

    xs = [p[0] for p in points]
    ys = [ty(p[1]) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for mark, (label, pts) in zip(_MARKS, series.items()):
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((ty(y) - y_lo) / y_span * (height - 1))
            grid[row][col] = mark

    lines = []
    if title:
        lines.append(title)
    y_hi_label = f"{10 ** y_hi:.3g}" if log_y else f"{y_hi:.3g}"
    y_lo_label = f"{10 ** y_lo:.3g}" if log_y else f"{y_lo:.3g}"
    margin = max(len(y_hi_label), len(y_lo_label), len(y_label)) + 1
    lines.append(f"{y_hi_label:>{margin}} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * margin + " |" + "".join(row))
    lines.append(f"{y_lo_label:>{margin}} +" + "".join(grid[-1]))
    lines.append(
        " " * margin
        + "  "
        + f"{x_lo:<.3g}".ljust(width - 8)
        + f"{x_hi:>.3g}"
    )
    lines.append(" " * margin + f"  [{x_label}]" + ("  (log y)" if log_y else ""))
    legend = "   ".join(
        f"{mark}={label}" for mark, label in zip(_MARKS, series.keys())
    )
    lines.append(" " * margin + "  " + legend)
    return "\n".join(lines)


def format_obs_snapshot(snapshot: Mapping, title: str = "observability") -> str:
    """One observability snapshot (or merged rollup) as a text report.

    ``snapshot`` is the mapping produced by
    :meth:`repro.obs.observer.Observer.snapshot` or by
    :func:`repro.obs.registry.merge_snapshots` over several of them:
    the phase table (:func:`~repro.obs.profiler.phase_rows`; wall-clock
    summed over points when merged), counters, gauges, and histogram
    summaries.
    """
    lines = [phase_table(phase_rows(snapshot.get("phases") or {}), title)]
    counters = snapshot.get("counters") or {}
    if counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name:<30} {counters[name]}")
    gauges = snapshot.get("gauges") or {}
    if gauges:
        lines.append("  gauges (max across points):")
        for name in sorted(gauges):
            lines.append(f"    {name:<30} {gauges[name]:g}")
    for name in sorted(snapshot.get("histograms") or {}):
        h = snapshot["histograms"][name]
        mean = h["total"] / h["count"] if h["count"] else 0.0
        lines.append(
            f"  histogram {name}: n={h['count']} mean={mean:.2f}"
        )
    trace = snapshot.get("trace")
    if trace:
        lines.append(
            f"  trace: {trace.get('events', 0)} events recorded, "
            f"{trace.get('dropped', 0)} dropped"
        )
    return "\n".join(lines)


def render_obs_rollup(result: ExperimentResult) -> str:
    """Observability rollups of an experiment, one block per series.

    Renders the merged (whole-sweep) snapshot each
    :class:`~repro.metrics.sweep.SweepResult` carries in ``.obs``; series
    that ran with ``obs_level=0`` are skipped.  Returns ``""`` when no
    series collected observability data.
    """
    blocks = []
    for label, sweep in result.sweeps.items():
        if sweep.obs is None:
            continue
        blocks.append(
            format_obs_snapshot(
                sweep.obs["sweep"],
                title=f"{result.experiment_id} [{label}] observability rollup "
                f"({len(sweep.obs['points'])} points merged)",
            )
        )
    return "\n\n".join(blocks)


def render_campaign_status(store) -> str:
    """Human-readable state of a campaign result store.

    ``store`` is a :class:`repro.campaign.store.ResultStore`.  Renders the
    manifest (done / failed points, attempt counts, retry/timeout/resume
    counters) without running anything — the report side of resumability:
    what is durable, what degraded, what a re-invocation would still run.
    """
    manifest = store.load_manifest()
    points = manifest.get("points", {})
    done = {d: p for d, p in points.items() if p.get("status") == "done"}
    failed = {d: p for d, p in points.items() if p.get("status") == "failed"}
    lines = [
        f"campaign store: {store.root}",
        f"  schema version: {manifest.get('schema_version')}",
        f"  points: {len(done)} done, {len(failed)} failed (degraded)",
    ]
    started = manifest.get("started_at")
    updated = manifest.get("updated_at")
    if started is not None and updated is not None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(updated))
        lines.append(
            f"  elapsed: {max(0.0, updated - started):.1f}s wall-clock "
            f"(last manifest write {stamp})"
        )
    counters = manifest.get("counters", {})
    retried = sum(
        p.get("attempts", 1) - 1
        for p in points.values()
        if p.get("attempts", 1) > 1
    )
    lines.append(
        f"  retries: {counters.get('retries', retried)} attempt(s) re-run "
        f"({counters.get('timeouts', 0)} timeout(s), "
        f"{retried} surviving in per-point attempt counts)"
    )
    if counters:
        lines.append(
            "  counters: "
            + ", ".join(f"{k}={counters[k]}" for k in sorted(counters))
        )
    for digest, point in sorted(done.items(), key=lambda kv: kv[1].get("load", 0)):
        attempts = point.get("attempts")
        suffix = f" (attempts={attempts})" if attempts and attempts > 1 else ""
        lines.append(f"  done    {digest[:12]}  {point.get('label')}{suffix}")
    for digest, point in sorted(failed.items(), key=lambda kv: kv[1].get("load", 0)):
        lines.append(
            f"  FAILED  {digest[:12]}  {point.get('label')}  "
            f"[{point.get('kind', 'error')} after {point.get('attempts', '?')} "
            f"attempt(s)] {point.get('error', '')}"
        )
    if not points:
        lines.append("  (empty — no points recorded yet)")
    return "\n".join(lines)


def render_topology_comparison(result: ExperimentResult) -> str:
    """The TOPO-CMP summary table: one row per topology class.

    Condenses each series' sweep into the quantities the study compares —
    absolute capacity, total deadlocks over the sweep, the peak
    per-1k-cycle formation rate, and the mean knot size / cycle density
    over the loads that actually deadlocked.  The per-load detail stays
    in the standard sweep tables; this is the figure-style rollup.
    """
    rows = []
    for label, sweep in result.sweeps.items():
        key = label.split("/", 1)[0].replace("-", "_")
        deadlocked = [r for r in sweep.results if r.deadlocks]
        rows.append(
            (
                label,
                result.observations.get(f"{key}_capacity_flits", float("nan")),
                sum(sweep.deadlock_counts),
                max((r.normalized_deadlocks for r in sweep.results), default=0.0),
                result.observations.get(f"{key}_mean_knot_size", 0.0),
                result.observations.get(f"{key}_mean_cycle_density", 0.0),
                len(deadlocked),
            )
        )
    return format_table(
        f"{result.experiment_id}: topology-class comparison",
        (
            "topology/routing",
            "capacity",
            "dlocks",
            "peak/1kcyc",
            "knot_size",
            "cyc_dens",
            "loads_dl",
        ),
        rows,
        notes=(
            "capacity in flits/node/cycle; knot size & cycle density "
            "averaged over deadlocked loads only",
        ),
    )


def render_figure(
    result: ExperimentResult,
    metric: str = "norm_deadlocks",
    *,
    log_y: bool = False,
) -> str:
    """One paper-style figure: ``metric`` vs load for every series.

    ``metric`` is any key of :meth:`SweepResult.rows` rows, e.g.
    ``norm_deadlocks``, ``avg_cycles``, ``blocked_pct``, ``throughput``.
    """
    series = {}
    for label, sweep in result.sweeps.items():
        series[label] = [(row["load"], row[metric]) for row in sweep.rows()]
    return ascii_chart(
        series,
        title=f"{result.experiment_id}: {metric} vs normalized load",
        x_label="normalized load",
        y_label=metric,
        log_y=log_y,
    )
