"""Experiment runners, one per figure/table of the paper's evaluation.

===========  ==========================================================
id           experiment
===========  ==========================================================
FIG5         uni- vs bidirectional torus (DOR, 1 VC)
FIG6         DOR vs TFAR adaptivity (1 VC)
FIG7         virtual channels sweep (DOR/TFAR x 1..4 VCs)
FIG8         buffer depth sweep (wormhole ... virtual cut-through)
SEC3.5       node degree (2-D vs higher-dimensional equal-size tori)
SEC3.6       non-uniform traffic patterns
TAB-AVOID    recovery vs avoidance on an equal resource budget
ABL-DET      true knot detection vs timeout heuristics (offline replay)
ABL-REC      recovery teardown: instant vs flit-by-flit
ABL-SEL      channel-selection policy ablation
ABL-INT      detection-interval ablation
ABL-TIMEOUT  end-to-end timeout-heuristic recovery vs truth
EXT-LEN      message-length sensitivity (future-work extension)
EXT-GRAN     channel- vs message-granularity verdicts (PWFG)
EXT-FAULT    failed links / irregular topology (future-work extension)
TOPO-CMP     deadlock character across topology classes (torus3d,
             dragonfly, full mesh); alias ``topology-comparison``
===========  ==========================================================

Each runner is ``run(scale=..., ...) -> ExperimentResult`` and is also
reachable as ``python -m repro experiment <id>``.  Every runner except
ABL-DET puts each point through
:func:`~repro.experiments.base.experiment_sweep`, so ``repro campaign run``
checkpoints and resumes it.
"""

from repro.experiments import (
    ablations,
    avoidance_vs_recovery,
    detector_ablation,
    fig5,
    fig6,
    fig7,
    fig8,
    node_degree,
    topology_comparison,
    traffic_patterns,
)
from repro.experiments.base import ExperimentResult, format_table, scaled_config

ALL_EXPERIMENTS = {
    "FIG5": fig5.run,
    "FIG6": fig6.run,
    "FIG7": fig7.run,
    "FIG8": fig8.run,
    "SEC3.5": node_degree.run,
    "SEC3.6": traffic_patterns.run,
    "TAB-AVOID": avoidance_vs_recovery.run,
    "ABL-DET": detector_ablation.run,
    "ABL-REC": ablations.run_teardown,
    "ABL-SEL": ablations.run_selection,
    "ABL-INT": ablations.run_detection_interval,
    "ABL-TIMEOUT": ablations.run_timeout_mode,
    "EXT-LEN": ablations.run_message_length,
    "EXT-GRAN": ablations.run_granularity,
    "EXT-FAULT": ablations.run_faults,
    "ABL-ARB": ablations.run_arbitration,
    "TOPO-CMP": topology_comparison.run,
}

#: human-friendly spellings accepted by the CLI (resolved before lookup,
#: never iterated by ``experiment all`` — no double runs)
EXPERIMENT_ALIASES = {
    "topology-comparison": "TOPO-CMP",
}

__all__ = [
    "ablations", "fig5", "fig6", "fig7", "fig8", "node_degree",
    "topology_comparison", "traffic_patterns", "avoidance_vs_recovery",
    "detector_ablation", "ExperimentResult", "format_table", "scaled_config",
    "ALL_EXPERIMENTS", "EXPERIMENT_ALIASES",
]
