"""The reduced ("tiny") run of every experiment, shared by this package.

The claims table's ``tiny`` rows and the structural tests read the same
run, made at most once per session.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS

#: two points straddling saturation keep the figure tests brisk
SHORT = dict(measure_cycles=1200, warmup_cycles=150)
#: the fixed-load ablations measure a little less
ABLATION = dict(measure_cycles=1000, warmup_cycles=150)

TINY_RUNS = {
    "FIG5": dict(loads=[0.6, 1.0], **SHORT),
    "FIG6": dict(loads=[0.6, 1.0], **SHORT),
    "FIG7": dict(loads=[1.0], vc_counts=(1, 2, 3, 4), **SHORT),
    "FIG8": dict(loads=[1.0], depths=[1, 8], **SHORT),
    "SEC3.5": dict(loads=[1.0], **SHORT),
    "SEC3.6": dict(loads=[0.8], **SHORT),
    "TAB-AVOID": dict(loads=[0.8], **SHORT),
    "ABL-DET": dict(load=1.0, thresholds=(50, 500), **SHORT),
    "ABL-REC": dict(loads=[1.0], **ABLATION),
    "ABL-SEL": dict(loads=[0.8], **ABLATION),
    "ABL-INT": dict(load=1.0, intervals=(25, 400), **ABLATION),
    "ABL-TIMEOUT": dict(load=1.0, thresholds=(75, 600), **ABLATION),
    "EXT-LEN": dict(load=0.9, lengths=(2, 8), **ABLATION),
    "EXT-GRAN": dict(load=1.0, **ABLATION),
    "EXT-FAULT": dict(load=0.8, fault_counts=(0, 2), **ABLATION),
    "ABL-ARB": dict(load=1.0, **ABLATION),
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
