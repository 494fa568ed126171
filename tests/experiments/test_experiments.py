"""Smoke + structure tests for the experiment table (tiny scale); the
shape claims are rows of the claims table (test_claims.py)."""

import csv

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import LOAD_GRID, SCALES, format_table, scaled_config
from repro.experiments.claims import BENCH_OBSERVATIONS, verdicts
from repro.experiments.table import TimeoutEvaluation, evaluate_thresholds
from repro.errors import ConfigurationError
from repro.network.simulator import NetworkSimulator

SHORT = dict(measure_cycles=1200, warmup_cycles=150)


class TestBase:
    def test_scaled_config_scales(self):
        assert scaled_config("paper").k == 16
        assert scaled_config("bench").k == 8
        assert scaled_config("tiny").k == 4

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            scaled_config("galactic")

    def test_scaled_loads_monotone(self):
        for scale in SCALES:
            loads = LOAD_GRID[scale]
            assert loads == sorted(loads)

    def test_format_table_alignment(self):
        table = format_table("T", ("a", "bb"), [(1, 2.5), (33, 0.125)], ["n"])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "note: n" in table
        assert "0.1250" in table

    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "FIG5", "FIG6", "FIG7", "FIG8", "SEC3.5", "SEC3.6",
            "TAB-AVOID", "ABL-DET", "ABL-REC", "ABL-SEL", "ABL-INT",
            "ABL-TIMEOUT", "EXT-LEN", "EXT-GRAN", "EXT-FAULT", "ABL-ARB",
            "TOPO-CMP",
        }


def _series(experiment_id, scale):
    """``(label, config)`` of each series ``experiment_id`` declares at
    ``scale``, without running anything."""
    exp = ALL_EXPERIMENTS[experiment_id]
    return exp.series_for(scale, scaled_config(scale, **exp.base))


class TestTable:
    def test_bench_grid_is_the_committed_rows(self):
        """The bench declarations enumerate exactly the committed sweep rows,
        in order: a dropped, renamed or reordered series fails here."""
        declared = [
            (exp_id, label, str(load))
            for exp_id, exp in ALL_EXPERIMENTS.items()
            for label, _ in _series(exp_id, "bench")
            for load in exp.loads["bench"]
        ]
        with open(BENCH_OBSERVATIONS.with_name("experiments_bench.csv"), newline="") as fh:
            committed = [
                (row["experiment"], row["series"], row["load"])
                for row in csv.DictReader(fh)
            ]
        assert declared == committed

    @pytest.mark.parametrize("scale", ["tiny", "bench"])
    def test_every_declared_config_validates(self, scale):
        for exp_id in ALL_EXPERIMENTS:
            for _label, config in _series(exp_id, scale):
                config.validate()

    def test_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            ALL_EXPERIMENTS["FIG5"](scale="galactic")


class TestFig5:
    def test_shape(self, tiny):
        res = tiny("FIG5")
        assert set(res.sweeps) == {"bi-directional", "uni-directional"}
        tables = res.format_tables()
        assert "FIG5" in tables
        for claim, verdict in verdicts(res):
            assert f"  [{verdict}] {claim.id} (tiny, bench): {claim.paper}" in tables


class TestFig6:
    def test_shape(self, tiny):
        assert set(tiny("FIG6").sweeps) == {"DOR", "TFAR"}


class TestFig7:
    def test_vc_sweep(self, tiny):
        res = tiny("FIG7")
        assert set(res.sweeps) == {
            f"{routing}{vcs}" for routing in ("DOR", "TFAR") for vcs in (1, 2, 3, 4)
        }
        for sweep in res.sweeps.values():
            assert len(sweep.results) == 1


class TestFig8:
    def test_depths_for_paper_message(self):
        """The paper's depths (2..32 flits of a 32-flit message) and the same
        fractions of the bench scale's 16-flit messages."""
        for scale, depths in (("paper", [2, 4, 6, 8, 16, 32]),
                              ("bench", [1, 2, 3, 4, 8, 16])):
            series = _series("FIG8", scale)
            assert [config.buffer_depth for _, config in series] == depths
            assert {config.message_length for _, config in series} == {depths[-1]}

    def test_buffer_sweep(self, tiny):
        res = tiny("FIG8")
        assert set(res.sweeps) == {"buffer=1", "buffer=8"}


class TestNodeDegree:
    def test_shape(self, tiny):
        assert len(tiny("SEC3.5").sweeps) == 2


class TestTopologyComparison:
    def test_shape(self, tiny):
        assert set(tiny("TOPO-CMP").sweeps) == {
            "torus3d/dor", "torus3d-tsv/dor",
            "dragonfly/df-min", "fullmesh/fm-2hop",
        }

    def test_series_specs_cover_every_scale(self):
        for scale in SCALES:
            labels = [label for label, _ in _series("TOPO-CMP", scale)]
            assert labels == [
                "torus3d/dor", "torus3d-tsv/dor", "dragonfly/df-min", "fullmesh/fm-2hop",
            ]


class TestTrafficPatterns:
    def test_patterns_run(self, tiny):
        res = tiny("SEC3.6")
        assert list(res.sweeps) == [
            "uniform", "bit-reversal", "transpose", "perfect-shuffle", "hot-spot",
        ]
        assert "transpose_vs_uniform_ratio" in res.observations


class TestDetectorAblation:
    def test_evaluation_counts_are_consistent(self):
        cfg = scaled_config(
            "tiny", routing="dor", num_vcs=1, load=1.0,
            record_blocked_durations=True, **SHORT,
        )
        sim = NetworkSimulator(cfg)
        sim.run()
        evals = evaluate_thresholds(sim, [0, 10**9])
        zero, huge = evals
        # threshold 0 flags everything: recall 1; huge flags nothing
        assert zero.recall == 1.0
        assert huge.true_positives == 0 and huge.false_positives == 0
        total = (
            zero.true_positives + zero.false_positives
            + zero.false_negatives + zero.true_negatives
        )
        assert total == (
            huge.true_positives + huge.false_positives
            + huge.false_negatives + huge.true_negatives
        )

    def test_precision_recall_edge_cases(self):
        ev = TimeoutEvaluation(10, 0, 0, 0, 0)
        assert ev.precision == 1.0 and ev.recall == 1.0
        ev = TimeoutEvaluation(10, 2, 2, 0, 6)
        assert ev.precision == 0.5
