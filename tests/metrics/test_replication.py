"""Tests for multi-seed replication, its seeds fanned out over workers."""

import pytest

from repro.config import tiny_default
from repro.errors import ConfigurationError
from repro.metrics.replication import MetricEstimate, _t95, replicate
from repro.metrics.sweep import run_point

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

    def test_student_t_past_30_degrees_of_freedom(self):
        assert _t95(30) == 2.042  # the dense table is unchanged
        assert _t95(40) == 2.021 and _t95(60) == 2.000
        # linear in 1/df between rows: Student-t at df 31 is 2.0395
        assert _t95(31) == pytest.approx(2.0395, abs=1e-3)
        assert 1.960 < _t95(1000) < _t95(120) == 1.980
        # so a 41-sample interval is wider than the normal one
        e = MetricEstimate("m", tuple(float(i % 3) for i in range(41)))
        lo, hi = e.ci95
        assert (hi - lo) / 2 == pytest.approx(2.021 * e.stderr)


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
        serial = [run_point(cfg.replace(seed=s))[0] for s in (7, 8, 9)]
        parallel = replicate(cfg, seeds=[7, 8, 9], max_workers=workers)
        assert parallel.runs == tuple(serial)
        assert parallel.estimates == replicate(cfg, seeds=[7, 8, 9]).estimates

    def test_failed_seed_raises_its_own_error(self):
        # num_vcs=0 passes replace() but fails validation when the run starts
        bad = tiny_default(load=0.5, **FAST).replace(num_vcs=0)
        with pytest.raises(ConfigurationError, match="num_vcs must be >= 1"):
            replicate(bad, seeds=[3, 4], max_workers=2)
