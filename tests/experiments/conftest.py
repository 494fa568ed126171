"""The reduced ("tiny") run of every experiment, shared by this package.

The claims table's ``tiny`` rows and the structural tests read the same
run, made at most once per session.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS

#: two points straddling saturation keep the figure tests brisk; each
#: experiment's tiny series are its declaration's ``tiny`` row
SHORT = dict(measure_cycles=1200, warmup_cycles=150)
#: the fixed-load ablations measure a little less
ABLATION = dict(measure_cycles=1000, warmup_cycles=150)

TINY_RUNS = {
    "FIG5": dict(loads=[0.6, 1.0], **SHORT),
    "FIG6": dict(loads=[0.6, 1.0], **SHORT),
    "FIG7": dict(loads=[1.0], **SHORT),
    "FIG8": dict(loads=[1.0], **SHORT),
    "SEC3.5": dict(loads=[1.0], **SHORT),
    "SEC3.6": dict(loads=[0.8], **SHORT),
    "TAB-AVOID": dict(loads=[0.8], **SHORT),
    "ABL-DET": dict(loads=[1.0], **SHORT),
    "ABL-REC": dict(loads=[1.0], **ABLATION),
    "ABL-SEL": dict(loads=[0.8], **ABLATION),
    "ABL-INT": dict(loads=[1.0], **ABLATION),
    "ABL-TIMEOUT": dict(loads=[1.0], **ABLATION),
    "EXT-LEN": dict(loads=[0.9], **ABLATION),
    "EXT-GRAN": dict(loads=[1.0], **ABLATION),
    "EXT-FAULT": dict(loads=[0.8], **ABLATION),
    "ABL-ARB": dict(loads=[1.0], **ABLATION),
    "TOPO-CMP": dict(loads=[0.9, 1.2], **SHORT),
}


@pytest.fixture(scope="session")
def tiny():
    """``tiny(experiment_id)``: that experiment's reduced run."""
    runs = {}

    def run(experiment_id):
        if experiment_id not in runs:
            runs[experiment_id] = ALL_EXPERIMENTS[experiment_id](
                scale="tiny", **TINY_RUNS[experiment_id]
            )
        return runs[experiment_id]

    return run
