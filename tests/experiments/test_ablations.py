"""Smoke + structure tests for the design-choice ablations (tiny scale);
their shape claims are rows of the claims table (test_claims.py)."""

from collections import Counter

import pytest

from repro.campaign import CampaignRunner
from repro.config import tiny_default
from repro.core.cwg import packet_wait_for_graph
from repro.core.cycles import count_simple_cycles
from repro.core.detector import DeadlockDetector
from repro.core.knots import find_knots
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import set_campaign_runner
from repro.network.simulator import NetworkSimulator

from tests.experiments.conftest import TINY_RUNS


@pytest.mark.parametrize(
    "experiment_id, points",
    [
        ("ABL-INT", 2),
        ("ABL-TIMEOUT", 3),
        ("EXT-LEN", 2),
        ("EXT-FAULT", 2),
        ("ABL-ARB", 3),
        ("EXT-GRAN", 1),
    ],
    ids=["interval", "timeout", "length", "faults", "arbitration", "granularity"],
)
def test_fixed_load_points_run_through_an_installed_campaign(
    tmp_path, tiny, experiment_id, points
):
    """Every point is checkpointed by the campaign and merges unchanged."""
    plain = tiny(experiment_id)
    campaign = CampaignRunner(tmp_path / "store", max_workers=2)
    set_campaign_runner(campaign)
    try:
        stored = ALL_EXPERIMENTS[experiment_id](
            scale="tiny", **TINY_RUNS[experiment_id]
        )
    finally:
        set_campaign_runner(None)
    counters = campaign.registry.snapshot()["counters"]
    assert counters["campaign/points_executed"] == points
    assert stored.sweeps == plain.sweeps
    assert stored.observations == plain.observations


class TestTeardownAblation:
    def test_both_modes_run(self, tiny):
        res = tiny("ABL-REC")
        assert set(res.sweeps) == {"instant", "flit-by-flit"}
        assert res.observations["instant_peak_throughput"] > 0
        assert res.observations["flit-by-flit_peak_throughput"] > 0


class TestSelectionAblation:
    def test_runs(self, tiny):
        res = tiny("ABL-SEL")
        assert set(res.sweeps) == {"straight", "random"}
        assert res.observations["straight_mean_latency"] > 0
        assert res.observations["straight_peak_throughput"] > 0
        assert res.observations["random_peak_throughput"] > 0


class TestDetectionIntervalAblation:
    def test_interval_sweep(self, tiny):
        assert set(tiny("ABL-INT").sweeps) == {"interval=25", "interval=400"}


class TestTimeoutModeAblation:
    def test_timeout_end_to_end(self, tiny):
        assert set(tiny("ABL-TIMEOUT").sweeps) == {
            "true-detection", "timeout=75", "timeout=600",
        }


class TestMessageLengthAblation:
    def test_runs_and_reports(self, tiny):
        res = tiny("EXT-LEN")
        assert set(res.sweeps) == {"len=2", "len=8"}
        assert "len2_norm_deadlocks" in res.observations


def _reference_verdicts(monkeypatch):
    """Tally every detection pass's verdicts from scratch on its CWG,
    before the pass (and the recovery after it) runs."""
    tally = Counter()
    detect = DeadlockDetector.detect

    def probed(self, sim):
        g = DeadlockDetector.build_cwg(sim)
        pwfg = packet_wait_for_graph(g)
        cwg_sets = {
            frozenset(g.messages_owning(k)) for k in find_knots(g.adjacency())
        }
        pwfg_knots = set(find_knots(pwfg))
        cyclic = count_simple_cycles(pwfg, limit=1).count > 0
        tally["detections"] += 1
        tally["true_deadlocked_detections"] += bool(cwg_sets)
        tally["pwfg_knotted_detections"] += bool(pwfg_knots)
        tally["pwfg_cyclic_detections"] += cyclic
        tally["pwfg_cyclic_no_knot_detections"] += cyclic and not cwg_sets
        tally["pwfg_free_wait_knots"] += len(pwfg_knots - cwg_sets)
        tally["cwg_self_wait_knots"] += len(cwg_sets - pwfg_knots)
        tally["agreements"] += bool(cwg_sets) == bool(pwfg_knots)
        return detect(self, sim)

    monkeypatch.setattr(DeadlockDetector, "detect", probed)
    return tally


#: a unidirectional 4-ary TFAR ring at saturation: wedges on most passes
WEDGING = dict(
    bidirectional=False, warmup_cycles=50, measure_cycles=300,
    detection_interval=25,
)


class TestGranularityAblation:
    def test_runs_and_reports(self, monkeypatch):
        """Every observation is the per-pass verdict count a from-scratch
        reference reads at the detection instant."""
        tally = _reference_verdicts(monkeypatch)
        obs = dict(
            ALL_EXPERIMENTS["EXT-GRAN"](scale="tiny", loads=[1.0], **WEDGING).observations
        )
        assert tally["true_deadlocked_detections"] > 0
        agreement = tally.pop("agreements") / tally["detections"]
        assert obs.pop("verdict_agreement_rate") == pytest.approx(agreement)
        assert obs == {name: float(n) for name, n in tally.items()}

    def test_counts_the_detector_deadlocks(self):
        """Every pass whose record holds a deadlock is a CWG-knotted
        detection, on either detector pass."""
        sim = NetworkSimulator(tiny_default(routing="tfar", load=1.0, **WEDGING))
        sim.run()
        knotted = sum(1 for r in sim.detector.records if r.events)
        assert knotted > 0
        cached, reference = (
            ALL_EXPERIMENTS["EXT-GRAN"](
                scale="tiny", loads=[1.0], detector_caching=caching, **WEDGING
            ).observations
            for caching in (True, False)
        )
        assert cached["true_deadlocked_detections"] == knotted
        assert cached == reference


class TestFaultAblation:
    def test_runs_with_fault_series(self, tiny):
        assert set(tiny("EXT-FAULT").sweeps) == {"faults=0", "faults=2"}


class TestArbitrationAblation:
    def test_runs_all_policies(self, tiny):
        res = tiny("ABL-ARB")
        policies = ("random", "oldest-first", "round-robin")
        assert set(res.sweeps) == set(policies)
        for policy in policies:
            assert res.observations[f"{policy}_throughput"] > 0
        assert res.observations["oldest-first_max_blocked"] >= 0
