"""Tests for multi-seed replication, serial and on campaign slots."""

import pytest

from repro.config import tiny_default
from repro.errors import SimulationError
from repro.metrics.replication import MetricEstimate, replicate

FAST = dict(measure_cycles=400, warmup_cycles=50)


class TestMetricEstimate:
    def test_statistics(self):
        e = MetricEstimate("m", (1.0, 2.0, 3.0))
        assert e.mean == 2.0
        assert e.std == pytest.approx(1.0)
        lo, hi = e.ci95
        assert lo < 2.0 < hi
        assert "m=2" in str(e)

    def test_single_sample(self):
        e = MetricEstimate("m", (5.0,))
        assert e.mean == 5.0
        assert e.std == 0.0
        lo, hi = e.ci95
        assert lo == float("-inf") and hi == float("inf")

    def test_zero_variance(self):
        e = MetricEstimate("m", (4.0, 4.0, 4.0))
        assert e.ci95 == (4.0, 4.0)


class TestReplicate:
    def test_basic_replication(self):
        cfg = tiny_default(load=0.8, **FAST)
        rep = replicate(cfg, seeds=[1, 2, 3])
        assert len(rep.runs) == 3
        assert rep["delivered"].n == 3
        # different seeds produce different workloads
        delivered = {r.delivered for r in rep.runs}
        assert len(delivered) > 1
        assert "normalized_deadlocks" in rep.summary()

    def test_custom_metrics(self):
        cfg = tiny_default(load=0.3, **FAST)
        rep = replicate(
            cfg, seeds=[1, 2], metrics={"thr": lambda r: float(r.delivered)}
        )
        assert set(rep.estimates) == {"thr"}

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(tiny_default(), seeds=[])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_replication_matches_serial(self, workers):
        cfg = tiny_default(load=0.5, **FAST)
        serial = replicate(cfg, seeds=[7, 8, 9])
        parallel = replicate(
            cfg, seeds=[7, 8, 9], parallel=True, max_workers=workers
        )
        assert parallel.runs == serial.runs
        assert parallel.estimates == serial.estimates

    def test_failed_seed_raises_naming_it(self):
        # num_vcs=0 passes replace() but fails validation in the slot
        bad = tiny_default(load=0.5, **FAST).replace(num_vcs=0)
        with pytest.raises(SimulationError) as excinfo:
            replicate(bad, seeds=[3, 4], parallel=True, max_workers=2)
        message = str(excinfo.value)
        assert bad.label() in message
        assert "num_vcs" in message
        assert "seed=3" in message and "seed=4" in message
