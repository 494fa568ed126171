"""Persistent point slots: reused across points, still individually killable.

A slot is a long-lived forked process looping over jobs
(:class:`repro.metrics.sweep.SlotPool`).  These tests pin the three
things that could go wrong when a process outlives its point: slots not
being reused (or multiplying), a dead or hung slot taking more than its
own attempt with it, and state leaking from one point into the next.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import faults
from repro.campaign import CampaignRunner, ResultStore
from repro.campaign import runner as runner_module
from repro.config import SimulationConfig, tiny_default
from repro.experiments.report import render_campaign_status
from repro.metrics.sweep import SlotPool

SRC = str(pathlib.Path(repro.__file__).parents[1])
FAST = dict(measure_cycles=300, warmup_cycles=50)


def counters(runner):
    return runner.registry.snapshot()["counters"]


def artifact_bytes(store):
    return {p.name: p.read_bytes() for p in store.points_dir.glob("*.json")}


def arm(monkeypatch, tmp_path, fault, match=None):
    markers = tmp_path / "markers"
    markers.mkdir(exist_ok=True)
    monkeypatch.setenv(faults.ENV_VAR, fault)
    monkeypatch.setenv(faults.DIR_ENV_VAR, str(markers))
    if match is not None:
        monkeypatch.setenv(faults.MATCH_ENV_VAR, match)


class TestSlotReuse:
    def test_clean_drain_forks_one_slot_per_worker(self, tmp_path):
        base = tiny_default(**FAST)
        configs = [
            base.replace(load=load, seed=seed)
            for seed in (1, 2, 3)
            for load in (0.3, 0.6, 0.9, 1.2)
        ]
        store = ResultStore(tmp_path / "store")
        runner = CampaignRunner(store, max_workers=2)
        out = runner.run_points(configs)
        assert out["executed"] == 12 and not out["failures"]
        assert counters(runner)["campaign/slot_forks"] == 2
        assert store.load_manifest()["counters"]["slot_forks"] == 2
        assert "slot_forks=2" in render_campaign_status(store)

    def test_each_timeout_kill_forks_exactly_one_replacement(
        self, tmp_path, monkeypatch
    ):
        arm(monkeypatch, tmp_path, "hang-point", match="L=0.60")
        base = tiny_default(**FAST)
        runner = CampaignRunner(
            tmp_path / "store",
            retries=2,
            backoff_s=0.01,
            timeout_s=1.0,
            max_workers=1,
        )
        out = runner.run_points([base.replace(load=l) for l in (0.3, 0.6)])
        assert out["executed"] == 2 and not out["failures"]
        stats = counters(runner)
        assert stats["campaign/timeouts"] == 1
        assert stats["campaign/slot_forks"] == 1 + 1

    def test_fault_armed_after_the_slot_forked_still_fires(
        self, tmp_path, monkeypatch
    ):
        """Jobs carry the fault variables; the slot's fork-time environment
        does not decide."""
        base = tiny_default(**FAST)
        first, second = base.replace(load=0.3), base.replace(load=0.6)
        runner = CampaignRunner(
            tmp_path / "store", retries=0, backoff_s=0.01, max_workers=1
        )
        with SlotPool() as pool:
            out = runner.run_points([first], pool=pool)
            assert out["executed"] == 1
            monkeypatch.setenv(faults.ENV_VAR, "crash-point")
            out = runner.run_points([second], pool=pool)
            assert "crash-point" in out["failures"][0].error
            # ... and disarming reaches the same, still-living slot too
            monkeypatch.delenv(faults.ENV_VAR)
            out = runner.run_points([second], pool=pool)
            assert out["executed"] == 1 and not out["failures"]
            assert pool.forks == 1


def _die_once_on(load, marker, how):
    """An ``_apply_point_faults`` stand-in: the first slot to run ``load``
    dies without a word; inherited by the forked slots."""

    def apply(config):
        if config.load != load:
            return
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
        if how == "exit":
            os._exit(7)
        os.kill(os.getpid(), signal.SIGKILL)

    return apply


class TestSlotDeath:
    LOADS = (0.3, 0.6, 0.9)

    def test_hard_exit_costs_one_attempt_and_siblings_complete(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            runner_module,
            "_apply_point_faults",
            _die_once_on(0.6, tmp_path / "died", "exit"),
        )
        base = tiny_default(**FAST)
        runner = CampaignRunner(tmp_path / "store", retries=0, max_workers=1)
        out = runner.run_points([base.replace(load=l) for l in self.LOADS])
        assert sorted(out["completed"]) == [0, 2]
        (failure,) = out["failures"]
        assert failure.load == 0.6 and failure.attempts == 1
        assert failure.error == (
            "worker exited with code 7 without writing a result"
        )
        # the dead slot was replaced, once
        assert counters(runner)["campaign/slot_forks"] == 2

    def test_sigkilled_slot_is_replaced_and_the_point_retried(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            runner_module,
            "_apply_point_faults",
            _die_once_on(0.6, tmp_path / "died", "sigkill"),
        )
        base = tiny_default(**FAST)
        runner = CampaignRunner(
            tmp_path / "store", retries=1, backoff_s=0.01, max_workers=1
        )
        out = runner.run_points([base.replace(load=l) for l in self.LOADS])
        assert sorted(out["completed"]) == [0, 1, 2] and not out["failures"]
        stats = counters(runner)
        assert stats["campaign/retries"] == 1
        assert stats["campaign/slot_forks"] == 2


    def test_an_unpicklable_failure_is_recorded_as_type_and_message(
        self, tmp_path, monkeypatch
    ):
        class Unpicklable(Exception):
            """Local to this test, so pickle cannot name it."""

        def apply(config):
            if config.load == 0.6:
                raise Unpicklable("boom")

        monkeypatch.setattr(runner_module, "_apply_point_faults", apply)
        base = tiny_default(**FAST)
        runner = CampaignRunner(tmp_path / "store", retries=0, max_workers=1)
        out = runner.run_points([base.replace(load=l) for l in self.LOADS])
        assert sorted(out["completed"]) == [0, 2]
        (failure,) = out["failures"]
        assert failure.error == "Unpicklable: boom"
        assert counters(runner)["campaign/slot_forks"] == 1  # the slot lived


class TestOrderIndependence:
    """The guard against a module-level cache leaking between points: one
    slot running the same configs in two orders, and a fresh process per
    config, must all write the same bytes."""

    ZOO = dict(
        num_vcs=1,
        message_length=8,
        detection_interval=25,
        max_cycles_counted=2_000,
        warmup_cycles=50,
        measure_cycles=300,
        seed=11,
    )
    CONFIGS = [
        tiny_default(load=0.9, **FAST),
        SimulationConfig(
            topology="dragonfly", dims=(3, 1, 1), routing="df-min", load=2.0,
            **ZOO,
        ),
        SimulationConfig(
            topology="fullmesh", dims=(8,), routing="fm-2hop", load=1.5, **ZOO
        ),
        SimulationConfig(
            topology="torus3d", dims=(4, 3, 2), link_latencies=(1, 1, 4),
            routing="dor", load=2.0, **ZOO,
        ),
    ]

    def test_one_slot_any_order_equals_fresh_processes(self, tmp_path):
        forward = ResultStore(tmp_path / "forward")
        runner = CampaignRunner(forward, max_workers=1)
        runner.run_points(self.CONFIGS)
        assert counters(runner)["campaign/slot_forks"] == 1
        backward = ResultStore(tmp_path / "backward")
        CampaignRunner(backward, max_workers=1).run_points(self.CONFIGS[::-1])
        fresh = ResultStore(tmp_path / "fresh")
        for config in self.CONFIGS:  # a pool, hence a process, per point
            CampaignRunner(fresh, max_workers=1).run_points([config])
        reference = artifact_bytes(fresh)
        assert len(reference) == len(self.CONFIGS)
        assert artifact_bytes(forward) == reference
        assert artifact_bytes(backward) == reference


def _process_gone(pid):
    """No such process, or only its unreaped corpse."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


class TestNoProcessLeftBehind:
    def test_run_that_hit_a_timeout_leaves_no_children(
        self, tmp_path, monkeypatch
    ):
        arm(monkeypatch, tmp_path, "hang-point")
        runner = CampaignRunner(
            tmp_path / "store", retries=0, timeout_s=0.5, max_workers=2
        )
        base = tiny_default(**FAST)
        out = runner.run_points([base.replace(load=l) for l in (0.3, 0.6)])
        assert [f.kind for f in out["failures"]] == ["timeout", "timeout"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc"
    )
    def test_sigkilled_driver_takes_its_slots_with_it(self, tmp_path):
        """Nothing tells the slots their parent died except EOF on their
        pipes — which they only see because each closed its inherited
        copies of the parent-side ends."""
        with subprocess.Popen(
            [sys.executable, "-c", _DRIVER, str(tmp_path / "store")],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE,
            text=True,
        ) as driver:
            try:
                pids = [int(pid) for pid in driver.stdout.readline().split()]
                assert len(pids) == 2, "driver never reported its slots"
                assert not any(_process_gone(pid) for pid in pids)
            finally:
                driver.kill()
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            if all(_process_gone(pid) for pid in pids):
                break
            time.sleep(0.02)
        orphans = [pid for pid in pids if not _process_gone(pid)]
        for pid in orphans:  # a failing run must not leak them either
            os.kill(pid, signal.SIGKILL)
        assert not orphans


#: a 2-worker campaign that prints its slot pids once both are forked and
#: then keeps draining until the test kills it
_DRIVER = """
import multiprocessing, sys
from repro.campaign import CampaignRunner
from repro.config import tiny_default

base = tiny_default(measure_cycles=300, warmup_cycles=50)
configs = [base.replace(load=0.3, seed=seed) for seed in range(1, 2000)]
reported = []

def progress(config, result):
    slots = multiprocessing.active_children()
    if not reported and len(slots) == 2:
        reported.append(True)
        print(*(slot.pid for slot in slots), flush=True)

CampaignRunner(sys.argv[1], max_workers=2).run_points(configs, progress=progress)
"""
