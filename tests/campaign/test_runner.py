"""Campaign runner: resume, retry/backoff, timeout kill, degradation.

The injected point faults (``crash-point`` / ``flaky-point`` /
``hang-point``, see :mod:`repro.faults`) arm inside the forked worker
processes via inherited environment variables, so these tests exercise the
real cross-process kill/retry/resume machinery, not an in-process stand-in.
"""

import pytest

from repro import faults
from repro.campaign import CampaignRunner, PointFailure, ResultStore
from repro.config import tiny_default
from repro.metrics.sweep import run_load_sweep

FAST = dict(measure_cycles=300, warmup_cycles=50)
LOADS = [0.3, 0.6]


def counters(runner):
    return runner.registry.snapshot()["counters"]


class TestResume:
    def test_uninterrupted_campaign_matches_serial_sweep(self, tmp_path):
        cfg = tiny_default(**FAST)
        runner = CampaignRunner(tmp_path / "store", max_workers=2)
        out = runner.run_sweep(cfg, LOADS)
        assert out.sweep == run_load_sweep(cfg, LOADS)
        assert out.executed == len(LOADS) and out.resumed == 0

    def test_resume_after_interruption_is_bit_identical(self, tmp_path):
        """The acceptance scenario: interrupt mid-campaign, resume, merge."""
        cfg = tiny_default(**FAST)
        store = ResultStore(tmp_path / "store")
        first = CampaignRunner(store, max_workers=1, max_points=1)
        out1 = first.run_sweep(cfg, LOADS)
        assert out1.executed == 1 and out1.remaining == 1
        assert out1.sweep.loads == LOADS[:1]
        manifest = store.load_manifest()
        assert [p["status"] for p in manifest["points"].values()] == ["done"]
        assert manifest["counters"] == {"executed": 1, "slot_forks": 1}

        second = CampaignRunner(store, max_workers=2)
        out2 = second.run_sweep(cfg, LOADS)
        assert out2.resumed == 1 and out2.executed == 1
        assert counters(second)["campaign/points_resumed"] == 1
        # one fresh point: one slot, however many workers are allowed
        assert counters(second)["campaign/slot_forks"] == 1
        manifest = store.load_manifest()
        assert [p["status"] for p in manifest["points"].values()] == ["done"] * 2
        assert out2.sweep == run_load_sweep(cfg, LOADS)

    def test_full_resume_runs_nothing(self, tmp_path):
        cfg = tiny_default(**FAST)
        store = ResultStore(tmp_path / "store")
        CampaignRunner(store, max_workers=2).run_sweep(cfg, LOADS)
        again = CampaignRunner(store, max_workers=2)
        out = again.run_sweep(cfg, LOADS)
        assert out.resumed == len(LOADS) and out.executed == 0
        assert out.sweep == run_load_sweep(cfg, LOADS)

    def test_different_seed_is_a_different_point(self, tmp_path):
        cfg = tiny_default(**FAST)
        store = ResultStore(tmp_path / "store")
        CampaignRunner(store, max_workers=1).run_sweep(cfg, LOADS[:1])
        out = CampaignRunner(store, max_workers=1).run_sweep(
            cfg.replace(seed=cfg.seed + 1), LOADS[:1]
        )
        assert out.resumed == 0 and out.executed == 1


class TestRetry:
    def test_flaky_point_retries_then_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "flaky-point")
        monkeypatch.setenv(faults.DIR_ENV_VAR, str(tmp_path / "markers"))
        (tmp_path / "markers").mkdir()
        cfg = tiny_default(**FAST)
        runner = CampaignRunner(
            tmp_path / "store", retries=2, backoff_s=0.01, max_workers=2
        )
        out = runner.run_sweep(cfg, LOADS)
        assert not out.failures
        assert counters(runner)["campaign/retries"] == len(LOADS)
        monkeypatch.delenv(faults.ENV_VAR)
        assert out.sweep == run_load_sweep(cfg, LOADS)

    def test_exhausted_retries_degrade_without_aborting(
        self, tmp_path, monkeypatch
    ):
        """A point failing every attempt is recorded, siblings complete."""
        monkeypatch.setenv(faults.ENV_VAR, "crash-point")
        monkeypatch.setenv(faults.MATCH_ENV_VAR, "L=0.60")
        cfg = tiny_default(**FAST)
        runner = CampaignRunner(
            tmp_path / "store", retries=1, backoff_s=0.01, max_workers=2
        )
        out = runner.run_sweep(cfg, LOADS)
        assert out.sweep.loads == [0.3]
        assert len(out.failures) == 1
        failure = out.failures[0]
        assert isinstance(failure, PointFailure)
        assert failure.load == 0.6 and failure.kind == "error"
        assert failure.attempts == 2  # first try + one retry
        assert "crash-point" in failure.error
        assert out.sweep.failures == out.failures
        assert counters(runner)["campaign/failures"] == 1
        manifest = runner.store.load_manifest()
        entry = manifest["points"][failure.digest]
        assert entry["status"] == "failed" and entry["kind"] == "error"

    def test_degraded_point_reruns_after_clean(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "crash-point")
        cfg = tiny_default(**FAST)
        store = ResultStore(tmp_path / "store")
        out = CampaignRunner(
            store, retries=0, backoff_s=0.01, max_workers=1
        ).run_sweep(cfg, LOADS[:1])
        assert len(out.failures) == 1
        monkeypatch.delenv(faults.ENV_VAR)
        store.clean()
        out = CampaignRunner(store, max_workers=1).run_sweep(cfg, LOADS[:1])
        assert not out.failures and out.executed == 1
        assert out.sweep == run_load_sweep(cfg, LOADS[:1])


class TestTimeout:
    def test_hung_worker_killed_and_respawned(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "hang-point")
        monkeypatch.setenv(faults.DIR_ENV_VAR, str(tmp_path / "markers"))
        (tmp_path / "markers").mkdir()
        cfg = tiny_default(**FAST)
        runner = CampaignRunner(
            tmp_path / "store",
            retries=2,
            backoff_s=0.01,
            timeout_s=1.0,
            max_workers=2,
        )
        out = runner.run_sweep(cfg, LOADS[:1])
        assert not out.failures
        stats = counters(runner)
        assert stats["campaign/timeouts"] == 1
        assert stats["campaign/retries"] == 1
        monkeypatch.delenv(faults.ENV_VAR)
        assert out.sweep == run_load_sweep(cfg, LOADS[:1])

    def test_timeout_exhaustion_degrades_as_timeout_kind(
        self, tmp_path, monkeypatch
    ):
        # crash-point never writes a marker, so arming hang via a fresh
        # marker dir per attempt is not needed: hang-point only hangs the
        # first attempt.  To exhaust retries on timeouts, allow none.
        monkeypatch.setenv(faults.ENV_VAR, "hang-point")
        monkeypatch.setenv(faults.DIR_ENV_VAR, str(tmp_path / "markers"))
        (tmp_path / "markers").mkdir()
        runner = CampaignRunner(
            tmp_path / "store", retries=0, timeout_s=1.0, max_workers=1
        )
        out = runner.run_sweep(tiny_default(**FAST), LOADS[:1])
        assert len(out.failures) == 1
        assert out.failures[0].kind == "timeout"
        assert "timeout" in out.failures[0].error
        assert out.sweep.loads == []


class TestCampaignThroughExperiments:
    def test_experiment_sweep_uses_installed_runner(self, tmp_path):
        from repro.experiments.base import (
            experiment_sweep,
            set_campaign_runner,
        )

        cfg = tiny_default(**FAST)
        runner = CampaignRunner(tmp_path / "store", max_workers=2)
        set_campaign_runner(runner)
        try:
            sweep = experiment_sweep(cfg, LOADS)
        finally:
            set_campaign_runner(None)
        assert counters(runner)["campaign/points_executed"] == len(LOADS)
        assert sweep == run_load_sweep(cfg, LOADS)
        # without a runner the plain serial path is used
        assert experiment_sweep(cfg, LOADS) == sweep


class TestStatusRendering:
    def test_status_lists_done_and_failed(self, tmp_path, monkeypatch):
        from repro.experiments.report import render_campaign_status

        monkeypatch.setenv(faults.ENV_VAR, "crash-point")
        monkeypatch.setenv(faults.MATCH_ENV_VAR, "L=0.60")
        store = ResultStore(tmp_path / "store")
        CampaignRunner(
            store, retries=0, backoff_s=0.01, max_workers=2
        ).run_sweep(tiny_default(**FAST), LOADS)
        text = render_campaign_status(store)
        assert "1 done, 1 failed" in text
        assert "FAILED" in text and "L=0.60" in text

    def test_status_reports_elapsed_and_retries(self, tmp_path, monkeypatch):
        from repro.experiments.report import render_campaign_status

        monkeypatch.setenv(faults.ENV_VAR, "flaky-point")
        monkeypatch.setenv(faults.MATCH_ENV_VAR, "L=0.60")
        (tmp_path / "faults").mkdir()
        monkeypatch.setenv(faults.DIR_ENV_VAR, str(tmp_path / "faults"))
        store = ResultStore(tmp_path / "store")
        CampaignRunner(
            store, retries=2, backoff_s=0.01, max_workers=2
        ).run_sweep(tiny_default(**FAST), LOADS)
        text = render_campaign_status(store)
        assert "elapsed:" in text and "wall-clock" in text
        assert "last manifest write" in text
        # flaky-point fails only the first attempt: one retry survives
        assert "retries: 1 attempt(s) re-run" in text
        assert "1 surviving in per-point attempt counts" in text
