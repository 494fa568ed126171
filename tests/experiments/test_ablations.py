"""Smoke + shape tests for the design-choice ablations (tiny scale)."""

from collections import Counter

import pytest

from repro.campaign import CampaignRunner
from repro.config import tiny_default
from repro.core.cwg import packet_wait_for_graph
from repro.core.cycles import count_simple_cycles
from repro.core.detector import DeadlockDetector
from repro.core.knots import find_knots
from repro.experiments import ablations
from repro.experiments.base import set_campaign_runner
from repro.network.simulator import NetworkSimulator

SHORT = dict(measure_cycles=1000, warmup_cycles=150)


@pytest.mark.parametrize(
    "run, kwargs, points",
    [
        (ablations.run_detection_interval, dict(load=1.0, intervals=(25, 400)), 2),
        (ablations.run_timeout_mode, dict(load=1.0, thresholds=(75, 600)), 3),
        (ablations.run_message_length, dict(load=0.9, lengths=(2, 8)), 2),
        (ablations.run_faults, dict(load=0.8, fault_counts=(0, 2)), 2),
        (ablations.run_arbitration, dict(load=1.0), 3),
        (ablations.run_granularity, dict(load=1.0), 1),
    ],
    ids=["interval", "timeout", "length", "faults", "arbitration", "granularity"],
)
def test_fixed_load_points_run_through_an_installed_campaign(
    tmp_path, run, kwargs, points
):
    """Every point is checkpointed by the campaign and merges unchanged."""
    plain = run(scale="tiny", **kwargs, **SHORT)
    campaign = CampaignRunner(tmp_path / "store", max_workers=2)
    set_campaign_runner(campaign)
    try:
        stored = run(scale="tiny", **kwargs, **SHORT)
    finally:
        set_campaign_runner(None)
    counters = campaign.registry.snapshot()["counters"]
    assert counters["campaign/points_executed"] == points
    assert stored.sweeps == plain.sweeps
    assert stored.observations == plain.observations


class TestTeardownAblation:
    def test_both_modes_run(self):
        res = ablations.run_teardown(scale="tiny", loads=[1.0], **SHORT)
        assert set(res.sweeps) == {"instant", "flit-by-flit"}
        assert res.observations["instant_peak_throughput"] > 0
        assert res.observations["flit-by-flit_peak_throughput"] > 0

    def test_deadlock_counts_comparable(self):
        """Teardown fidelity must not change deadlock formation wildly."""
        res = ablations.run_teardown(scale="tiny", loads=[1.0], **SHORT)
        a = res.observations["instant_total_deadlocks"]
        b = res.observations["flit-by-flit_total_deadlocks"]
        assert a > 0 and b > 0
        if a + b > 10:
            assert 0.2 <= (a + 1) / (b + 1) <= 5.0


class TestSelectionAblation:
    def test_runs(self):
        res = ablations.run_selection(scale="tiny", loads=[0.8], **SHORT)
        assert set(res.sweeps) == {"straight", "random"}
        assert res.observations["straight_mean_latency"] > 0
        assert res.observations["straight_peak_throughput"] > 0
        assert res.observations["random_peak_throughput"] > 0


class TestDetectionIntervalAblation:
    def test_interval_sweep(self):
        res = ablations.run_detection_interval(
            scale="tiny", load=1.0, intervals=(25, 400), **SHORT
        )
        assert set(res.sweeps) == {"interval=25", "interval=400"}
        # more frequent detection finds (and breaks) at least as many knots
        assert (
            res.observations["i25_deadlocks"]
            >= res.observations["i400_deadlocks"] * 0.3
        )
        # breaking knots promptly costs no throughput
        assert (
            res.observations["i25_throughput"]
            >= res.observations["i400_throughput"] - 0.05
        )


class TestTimeoutModeAblation:
    def test_timeout_end_to_end(self):
        res = ablations.run_timeout_mode(
            scale="tiny", load=1.0, thresholds=(75, 600), **SHORT
        )
        assert "true-detection" in res.sweeps
        assert "timeout=75" in res.sweeps
        obs = res.observations
        assert obs["true_recoveries"] > 0
        # aggressive threshold recovers at least as often as patient one
        assert obs["t75_recoveries"] >= obs["t600_recoveries"]
        assert obs["t75_recoveries"] >= obs["true_recoveries"] * 0.2
        # unnecessary recoveries never exceed total recoveries
        for t in (75, 600):
            assert obs[f"t{t}_unnecessary"] <= obs[f"t{t}_recoveries"]


class TestMessageLengthAblation:
    def test_runs_and_reports(self):
        from repro.experiments import ablations

        res = ablations.run_message_length(
            scale="tiny", load=0.9, lengths=(2, 8), **SHORT
        )
        assert set(res.sweeps) == {"len=2", "len=8"}
        assert "len2_norm_deadlocks" in res.observations
        # longer worms hold more channels: resource sets grow with length
        assert (
            res.observations["len8_avg_resource_set"]
            >= res.observations["len2_avg_resource_set"]
        )


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
            ablations.run_granularity(scale="tiny", load=1.0, **WEDGING).observations
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
            ablations.run_granularity(
                scale="tiny", load=1.0, detector_caching=caching, **WEDGING
            ).observations
            for caching in (True, False)
        )
        assert cached["true_deadlocked_detections"] == knotted
        assert cached == reference


class TestFaultAblation:
    def test_runs_with_fault_series(self):
        from repro.experiments import ablations

        res = ablations.run_faults(
            scale="tiny", load=0.8, fault_counts=(0, 2), **SHORT
        )
        assert "faults=0" in res.sweeps
        assert "faults=2" in res.sweeps
        # a degraded topology is at least as congested as the healthy one
        assert (
            res.observations["f2_blocked_pct"]
            >= res.observations["f0_blocked_pct"] - 10.0
        )


class TestArbitrationAblation:
    def test_runs_all_policies(self):
        from repro.experiments import ablations

        res = ablations.run_arbitration(
            scale="tiny", load=1.0, **SHORT
        )
        policies = ("random", "oldest-first", "round-robin")
        assert set(res.sweeps) == set(policies)
        for policy in policies:
            assert res.observations[f"{policy}_throughput"] > 0
        assert res.observations["oldest-first_max_blocked"] >= 0
