"""The in-memory fan-out: the serial sweep's points, wherever they run.

Each point depends only on its config, so spreading a sweep over forked
workers may change where a point runs and nothing else.
"""

import os
import threading

import pytest

from repro.campaign import CampaignRunner
from repro.cli import main
from repro.config import SimulationConfig, tiny_default
from repro.core.detector import DeadlockDetector
from repro.errors import ConfigurationError
from repro.metrics import sweep as sweep_mod
from repro.metrics.sweep import FanOut, fan_out, run_load_sweep, run_point

FAST = dict(measure_cycles=300, warmup_cycles=50)
LOADS = [0.3, 0.6, 0.9, 1.2]
#: a k-ary n-cube and a zoo series (table geometry, one slow link class)
BASES = {
    "k-ary": tiny_default(**FAST),
    "torus3d-tsv": SimulationConfig(
        topology="torus3d", dims=(3, 2, 2), link_latencies=(1, 1, 3),
        routing="dor", message_length=8, **FAST,
    ),
}


def _untimed(rollup):
    """An obs rollup without its wall-clock phase seconds, which no two runs
    share; every count, gauge and histogram stays."""
    if rollup is None:
        return None

    def strip(snapshot):
        phases = {name: rec["calls"] for name, rec in snapshot["phases"].items()}
        return {**snapshot, "phases": phases}

    return {
        "sweep": strip(rollup["sweep"]),
        "points": {load: strip(s) for load, s in rollup["points"].items()},
    }


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", fork)


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child: reaped
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("obs_level", [0, 1])
@pytest.mark.parametrize("name", sorted(BASES))
def test_fan_out_matches_the_serial_sweep(name, obs_level, forks):
    base = BASES[name].replace(obs_level=obs_level)
    serial = run_load_sweep(base, LOADS)
    # points 0 and 2 run here, 1 and 3 in one forked child
    fanned = FanOut(max_workers=2).run_sweep(base, LOADS).sweep
    assert len(forks) == 1
    _assert_reaped(forks)
    assert fanned == serial
    assert (fanned.obs is None) == (obs_level == 0)
    assert _untimed(fanned.obs) == _untimed(serial.obs)


def _with_bad(indices, **bad):
    configs = [tiny_default(load=load, **FAST) for load in LOADS]
    for i in indices:
        configs[i] = configs[i].replace(**bad)
    return configs


@pytest.mark.parametrize(
    "bad_index", [0, 1, 3], ids=["own-stripe", "child-stripe", "child-second"]
)
def test_a_failing_point_reraises_here_and_leaves_no_child(bad_index, forks):
    configs = _with_bad([bad_index], num_vcs=0)
    with pytest.raises(ConfigurationError) as serial:
        run_point(configs[bad_index])
    with pytest.raises(ConfigurationError) as fanned:
        fan_out(configs, max_workers=2)
    assert type(fanned.value) is type(serial.value)
    assert str(fanned.value) == str(serial.value)
    if bad_index % 2:  # raised in the child: its traceback is the cause
        assert "validate" in str(fanned.value.__cause__)
    assert len(forks) == 1
    _assert_reaped(forks)


def test_the_first_failure_in_point_order_wins(forks):
    configs = _with_bad([2], message_length=0)
    configs[1] = configs[1].replace(buffer_depth=0)
    with pytest.raises(ConfigurationError, match="buffer_depth"):
        fan_out(configs, max_workers=3)
    assert len(forks) == 2
    _assert_reaped(forks)


def test_a_worker_that_dies_without_a_result_is_an_error(monkeypatch, forks):
    parent = os.getpid()
    real_run_point = sweep_mod.run_point

    def dying(config):
        if os.getpid() != parent:
            os._exit(3)
        return real_run_point(config)

    monkeypatch.setattr(sweep_mod, "run_point", dying)
    with pytest.raises(ChildProcessError, match="points 1, 3, ... of 4"):
        fan_out(_with_bad([]), max_workers=2)
    _assert_reaped(forks)


def _counted_detect_passes(monkeypatch):
    passes = []
    detect = DeadlockDetector.detect

    def counted(self, sim):
        passes.append(sim.cycle)
        return detect(self, sim)

    monkeypatch.setattr(DeadlockDetector, "detect", counted)
    return passes


def test_a_one_point_sweep_runs_in_process(monkeypatch):
    passes = _counted_detect_passes(monkeypatch)
    config = tiny_default(load=1.0, **FAST)
    run_point(config)
    expected = list(passes)
    passes.clear()
    _cpus(monkeypatch, 8)
    _no_fork(monkeypatch)
    (point,) = fan_out([config])
    assert passes == expected and expected
    assert point == run_point(config)


def test_one_cpu_runs_every_point_in_process(monkeypatch):
    passes = _counted_detect_passes(monkeypatch)
    base = tiny_default(**FAST)
    serial = run_load_sweep(base, LOADS)
    expected = list(passes)
    passes.clear()
    _cpus(monkeypatch, 1)
    _no_fork(monkeypatch)
    assert FanOut().run_sweep(base, LOADS).sweep == serial
    assert passes == expected and expected


def test_a_threaded_caller_runs_every_point_in_process(monkeypatch):
    _cpus(monkeypatch, 4)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        _no_fork(monkeypatch)
        configs = _with_bad([])
        assert fan_out(configs) == [run_point(c) for c in configs]
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()


@pytest.mark.parametrize(
    "cpus, max_workers, children",
    [(8, None, 3), (8, 2, 1), (8, 1, 0), (2, None, 1), (1, 3, 2)],
)
def test_worker_cap(monkeypatch, forks, cpus, max_workers, children):
    """``min(points, max_workers or CPUs)`` workers, the caller one of them."""
    _cpus(monkeypatch, cpus)
    configs = [tiny_default(load=load, measure_cycles=100, warmup_cycles=0)
               for load in LOADS]
    assert fan_out(configs, max_workers) == [run_point(c) for c in configs]
    assert len(forks) == children
    _assert_reaped(forks)


def test_campaign_runner_defaults_to_every_cpu(monkeypatch, tmp_path):
    _cpus(monkeypatch, 5)
    assert CampaignRunner(tmp_path / "store").workers == 5
    assert CampaignRunner(tmp_path / "store", max_workers=2).workers == 2


def test_experiment_workers_flag_caps_the_fan_out(monkeypatch, capsys):
    import repro.experiments.fig5 as fig5_mod

    monkeypatch.setattr(fig5_mod, "scaled_loads", lambda scale: [0.6, 0.8])
    _cpus(monkeypatch, 4)
    _no_fork(monkeypatch)
    assert main(["experiment", "FIG5", "--scale", "tiny", "--workers", "1"]) == 0
    assert "FIG5" in capsys.readouterr().out
