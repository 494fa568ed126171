"""Smoke + shape tests for the per-figure experiment runners (tiny scale)."""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
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
from repro.experiments.base import format_table, scaled_config, scaled_loads
from repro.errors import ConfigurationError

LOADS = [0.6, 1.0]  # keep tests brisk: two points straddling saturation
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
    def test_shape(self):
        res = fig5.run(scale="tiny", loads=LOADS, **SHORT)
        assert set(res.sweeps) == {"bi-directional", "uni-directional"}
        assert (
            res.observations["uni_norm_deadlocks_deep"]
            > res.observations["bi_norm_deadlocks_deep"]
        )
        assert (
            res.observations["uni_total_deadlocks"]
            > res.observations["bi_total_deadlocks"]
        )
        assert any("shape OK" in n for n in res.notes)
        assert "FIG5" in res.format_tables()


class TestFig6:
    def test_shape(self):
        res = fig6.run(scale="tiny", loads=LOADS, **SHORT)
        assert res.observations["dor_total_deadlocks"] > res.observations[
            "tfar_total_deadlocks"
        ]
        assert res.observations["dor_multi_cycle_deadlocks"] == 0


class TestFig7:
    def test_vc_sweep(self):
        res = fig7.run(scale="tiny", loads=[1.0], vc_counts=(1, 2, 3, 4), **SHORT)
        assert set(res.sweeps) == {
            f"{routing}{vcs}" for routing in ("DOR", "TFAR") for vcs in (1, 2, 3, 4)
        }
        obs = res.observations
        for label in ("DOR3", "DOR4", "TFAR2", "TFAR3", "TFAR4"):
            assert obs[f"{label}_total_deadlocks"] == 0
        assert obs["DOR1_total_deadlocks"] >= obs["DOR2_total_deadlocks"]
        # extra VCs cut congestion
        assert obs["TFAR4_min_blocked_pct"] <= obs["TFAR1_min_blocked_pct"] + 5.0
        series = fig7.cycles_vs_blocked(res)
        assert set(series) == set(res.sweeps)
        for points in series.values():
            assert len(points) == 1


class TestFig8:
    def test_depths_for_paper_message(self):
        assert fig8.buffer_depths_for(32) == [2, 4, 6, 8, 16, 32]

    def test_buffer_sweep(self):
        res = fig8.run(scale="tiny", loads=[1.0], depths=[1, 8], **SHORT)
        assert set(res.sweeps) == {"buffer=1", "buffer=8"}
        pop_series = fig8.deadlocks_vs_population(res)
        assert set(pop_series) == set(res.sweeps)


class TestNodeDegree:
    def test_shape(self):
        res = node_degree.run(scale="tiny", loads=[1.0], **SHORT)
        assert len(res.sweeps) == 2
        assert (
            res.observations["high_dim_total_deadlocks"]
            <= res.observations["low_dim_total_deadlocks"]
        )


class TestTopologyComparison:
    def test_shape(self):
        res = topology_comparison.run(scale="tiny", loads=[0.9, 1.2], **SHORT)
        assert set(res.sweeps) == {
            "torus3d/dor", "torus3d-tsv/dor",
            "dragonfly/df-min", "fullmesh/fm-2hop",
        }
        # the full mesh's direct wiring gives it far more raw bandwidth
        assert (
            res.observations["fullmesh_capacity_flits"]
            > res.observations["torus3d_capacity_flits"]
        )
        # the TSV dimension strictly reduces capacity at equal geometry
        assert (
            res.observations["torus3d_tsv_capacity_flits"]
            < res.observations["torus3d_capacity_flits"]
        )
        # misrouted full-mesh deadlock is provably reachable but rare:
        # it must never out-deadlock the wraparound torus
        assert (
            res.observations["fullmesh_total_deadlocks"]
            <= res.observations["torus3d_total_deadlocks"]
        )

    def test_series_specs_cover_every_scale(self):
        for scale in ("tiny", "bench", "paper"):
            labels = [label for label, _ in topology_comparison.series_specs(scale)]
            assert len(labels) == 4
        with pytest.raises(ConfigurationError):
            topology_comparison.series_specs("galactic")


class TestTrafficPatterns:
    def test_patterns_run(self):
        res = traffic_patterns.run(scale="tiny", loads=[0.8], **SHORT)
        assert set(res.sweeps) == set(traffic_patterns.PATTERNS)
        assert "transpose_vs_uniform_ratio" in res.observations


class TestAvoidanceVsRecovery:
    def test_avoidance_baselines_deadlock_free(self):
        res = avoidance_vs_recovery.run(scale="tiny", loads=[0.8], **SHORT)
        assert res.observations["dateline_total_deadlocks"] == 0
        assert res.observations["duato_total_deadlocks"] == 0
        assert res.observations["recovery_peak_throughput"] > 0
        # unrestricted routing + recovery keeps up with dateline avoidance
        assert (
            res.observations["recovery_peak_throughput"]
            >= 0.8 * res.observations["dateline_peak_throughput"]
        )


class TestDetectorAblation:
    def test_threshold_monotonicity(self):
        res = detector_ablation.run(
            scale="tiny", load=1.0, thresholds=(50, 500), **SHORT
        )
        assert res.observations["true_deadlocks"] > 0
        # larger threshold flags fewer congested messages
        assert (
            res.observations["t500_false_positives"]
            <= res.observations["t50_false_positives"]
        )
        # precision never decreases with the threshold
        assert (
            res.observations["t500_precision"]
            >= res.observations["t50_precision"] - 1e-9
        )

    def test_evaluation_counts_are_consistent(self):
        from repro.experiments.detector_ablation import (
            TimeoutEvaluation,
            evaluate_thresholds,
        )
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
        assert ev.false_positive_rate == pytest.approx(0.25)
