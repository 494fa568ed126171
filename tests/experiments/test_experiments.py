"""Smoke + structure tests for the per-figure experiment runners (tiny
scale); their shape claims are rows of the claims table (test_claims.py)."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, fig8, topology_comparison, traffic_patterns
from repro.experiments.base import format_table, scaled_config, scaled_loads
from repro.experiments.claims import verdicts
from repro.errors import ConfigurationError

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
        for scale in ("paper", "bench", "tiny"):
            loads = scaled_loads(scale)
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
        assert fig8.buffer_depths_for(32) == [2, 4, 6, 8, 16, 32]

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
        for scale in ("tiny", "bench", "paper"):
            labels = [label for label, _ in topology_comparison.series_specs(scale)]
            assert len(labels) == 4
        with pytest.raises(ConfigurationError):
            topology_comparison.series_specs("galactic")


class TestTrafficPatterns:
    def test_patterns_run(self, tiny):
        res = tiny("SEC3.6")
        assert set(res.sweeps) == set(traffic_patterns.PATTERNS)
        assert "transpose_vs_uniform_ratio" in res.observations


class TestDetectorAblation:
    def test_evaluation_counts_are_consistent(self):
        from repro.experiments.detector_ablation import evaluate_thresholds
        from repro.network.simulator import NetworkSimulator

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
        from repro.experiments.detector_ablation import TimeoutEvaluation

        ev = TimeoutEvaluation(10, 0, 0, 0, 0)
        assert ev.precision == 1.0 and ev.recall == 1.0
        ev = TimeoutEvaluation(10, 2, 2, 0, 6)
        assert ev.precision == 0.5
