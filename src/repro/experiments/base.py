"""Shared infrastructure of the experiment table.

Each declaration of :mod:`repro.experiments.table` reproduces one figure
or section of the paper's evaluation, at a ``scale``:

* ``"paper"`` — the paper's 16-ary 2-cube, 32-flit messages, 30k measured
  cycles.  Faithful but slow in pure Python (hours per figure).
* ``"bench"`` — 8-ary 2-cube, 16-flit messages, a few thousand measured
  cycles.  Preserves every structural property the experiments exercise;
  each figure regenerates in about a minute.  Used by the benchmark harness.
* ``"tiny"``  — 4-ary 2-cube for smoke tests.

The output of every experiment is an :class:`ExperimentResult` whose
``format_table`` renders the same rows/series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.config import SimulationConfig, bench_default, paper_default, tiny_default
from repro.errors import ConfigurationError
from repro.experiments.claims import verdicts
from repro.metrics.sweep import FanOut, SweepResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.runner import CampaignRunner

__all__ = [
    "SCALES",
    "LOAD_GRID",
    "scaled_config",
    "experiment_sweep",
    "set_campaign_runner",
    "ExperimentResult",
    "format_table",
]

#: active campaign runner applied by :func:`experiment_sweep` — how
#: ``repro campaign run`` makes every sweep of every experiment
#: checkpointed without threading a runner through the experiment table
_CAMPAIGN_RUNNER: Optional["CampaignRunner"] = None

#: the runner :func:`experiment_sweep` uses when none is installed
_FAN_OUT = FanOut()


def set_campaign_runner(runner: Optional["CampaignRunner"]) -> None:
    """Install (or clear, with ``None``) the campaign runner sweeps use.

    Anything with the runner surface works: ``run_sweep(base, loads,
    label)``, returning an object whose ``.sweep`` is the
    :class:`~repro.metrics.sweep.SweepResult`.  In practice that is a
    :class:`~repro.campaign.runner.CampaignRunner` (single-host, ``repro
    campaign run``) or a :class:`~repro.campaign.service.runner.
    ServiceRunner` draining points through a distributed campaign service
    (``repro campaign serve``); experiments cannot tell them apart, which
    is the point — distribution is an execution detail, not an experiment
    concern.  So is :class:`~repro.metrics.sweep.FanOut`, which ``repro
    experiment --workers N`` installs to cap the default fan-out.
    """
    global _CAMPAIGN_RUNNER
    _CAMPAIGN_RUNNER = runner


def experiment_sweep(
    base: SimulationConfig, loads: Sequence[float], label: str = ""
) -> SweepResult:
    """The load sweep every series of the experiment table goes through.

    By default the points fan out over every available CPU, in memory
    (:func:`~repro.metrics.sweep.fan_out`); the result equals the serial
    :func:`~repro.metrics.sweep.run_load_sweep`'s, because each point
    depends only on its config.  When a campaign runner is installed
    (``repro campaign run``, ``repro campaign serve`` or
    :func:`set_campaign_runner`), the sweep is checkpointed, fault-tolerant
    and resumable instead.  Points a campaign could not complete are
    recorded on the returned sweep's ``failures`` (rendered as degraded
    notes, and the experiment's claims are then not evaluated) rather than
    raised.
    """
    runner = _FAN_OUT if _CAMPAIGN_RUNNER is None else _CAMPAIGN_RUNNER
    return runner.run_sweep(base, loads, label).sweep


#: scale -> its default configuration
SCALE_DEFAULTS = {"paper": paper_default, "bench": bench_default, "tiny": tiny_default}
SCALES = tuple(SCALE_DEFAULTS)

#: the default load grid per scale: denser for the faithful paper runs
LOAD_GRID = {
    "paper": [round(0.1 * i, 1) for i in range(1, 13)],
    "bench": [0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
    "tiny": [0.3, 0.6, 0.9, 1.2],
}


def scaled_config(scale: str, **overrides) -> SimulationConfig:
    """Base configuration for the requested scale."""
    try:
        factory = SCALE_DEFAULTS[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {sorted(SCALE_DEFAULTS)}"
        ) from None
    return factory(**overrides)


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """Plain-text table rendering used by every experiment report."""

    def fmt(v: object) -> str:
        if isinstance(v, float):
            if v == float("inf"):
                return "inf"
            return f"{v:.4f}" if abs(v) < 10 else f"{v:.1f}"
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in str_rows)) if str_rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [title, "=" * len(title)]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-" * len(header))
    for r in str_rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    for note in notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


#: header -> :meth:`SweepResult.rows` key of each per-sweep table column
TABLE_COLUMNS = {
    "load": "load", "thput": "throughput", "dlocks": "deadlocks",
    "norm_dl": "norm_deadlocks", "dset": "avg_deadlock_set",
    "rset": "avg_resource_set", "knotcyc": "avg_knot_density",
    "cycles": "avg_cycles", "blocked%": "blocked_pct",
}


@dataclass
class ExperimentResult:
    """Sweeps plus derived observations for one paper figure/section."""

    experiment_id: str  #: e.g. "FIG5"
    description: str
    sweeps: dict[str, SweepResult]
    #: named scalar observations the claims table and reports read
    observations: dict[str, float] = field(default_factory=dict)

    def format_tables(self) -> str:
        """All series of this experiment as paper-style text tables, then
        its observations and one verdict line per claim of the experiment
        (:mod:`repro.experiments.claims`), tagged with the scales the claim
        must hold at."""
        blocks = [f"{self.experiment_id}: {self.description}", ""]
        for label, sweep in self.sweeps.items():
            rows = [[row[k] for k in TABLE_COLUMNS.values()] for row in sweep.rows()]
            sat = sweep.saturation_load
            notes = [f"saturation load ~ {sat}" if sat is not None else "no saturation"]
            for failure in sweep.failures:
                notes.append(
                    f"DEGRADED: load {failure.load:g} missing — point failed "
                    f"after {failure.attempts} attempt(s) ({failure.kind}): "
                    f"{failure.error}"
                )
            blocks.append(
                format_table(
                    f"{self.experiment_id} [{label}]", tuple(TABLE_COLUMNS), rows, notes
                )
            )
            blocks.append("")
        if self.observations:
            blocks.append("Observations:")
            for k, v in self.observations.items():
                blocks.append(f"  {k} = {v:.4g}" if isinstance(v, float) else f"  {k} = {v}")
        claims = verdicts(self)
        if claims:
            blocks.append("Claims:")
            for claim, verdict in claims:
                scales = ", ".join(claim.scales)
                blocks.append(f"  [{verdict}] {claim.id} ({scales}): {claim.paper}")
        return "\n".join(blocks)
