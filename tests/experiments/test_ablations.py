"""Smoke + shape tests for the design-choice ablations (tiny scale)."""

from repro.experiments import ablations

SHORT = dict(measure_cycles=1000, warmup_cycles=150)


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


class TestGranularityAblation:
    def test_runs_and_reports(self):
        from repro.experiments import ablations

        res = ablations.run_granularity(scale="tiny", load=1.0, **SHORT)
        obs = res.observations
        assert obs["detections"] > 0
        assert 0.0 <= obs["verdict_agreement_rate"] <= 1.0
        # PWFG knots can only over-report relative to truth
        assert (
            obs["pwfg_knotted_detections"]
            >= obs["true_deadlocked_detections"]
            or obs["pwfg_knotted_detections"] == 0
        )
        # message-level cycles appear at least as often as true deadlocks
        assert obs["pwfg_cyclic_detections"] >= obs["true_deadlocked_detections"]


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
