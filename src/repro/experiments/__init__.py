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

Each is one declaration of the experiment table
(:mod:`repro.experiments.table`): base overrides, series and load grid per
scale, and an ``observe`` function.  ``ALL_EXPERIMENTS[id](scale="bench",
loads=None, **overrides) -> ExperimentResult`` runs one, as does ``python
-m repro experiment <id>``.  Every experiment except ABL-DET puts each
series through :func:`~repro.experiments.base.experiment_sweep`, so
``repro campaign run`` checkpoints and resumes it.
"""

from repro.experiments.base import ExperimentResult, format_table, scaled_config
from repro.experiments.table import ALL_EXPERIMENTS, Experiment, run_experiment

#: human-friendly spellings accepted by the CLI (resolved before lookup,
#: never iterated by ``experiment all`` — no double runs)
EXPERIMENT_ALIASES = {
    "topology-comparison": "TOPO-CMP",
}

__all__ = [
    "ExperimentResult", "Experiment", "format_table", "scaled_config",
    "run_experiment", "ALL_EXPERIMENTS", "EXPERIMENT_ALIASES",
]
