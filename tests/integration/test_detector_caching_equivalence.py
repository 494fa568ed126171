"""A/B equivalence: dirty-region detector caching is bit-identical.

``detector_caching`` replaces the detector's per-pass global analysis
(Tarjan + knot test + Johnson census over the whole CWG) with a
partition into weakly-connected regions re-analyzed only when touched by
the tracker's dirty-vertex set, with per-region results cached by exact
vertex set and by canonical region signature, fresh analyses running on
the chain-contracted graph.  All of it is pure optimization: with the
same seed, cached and uncached detection must produce the **same**
sequence of :class:`DetectionRecord`\\ s — knots, deadlock/resource/
dependent sets, cycle-census counts *and* saturation flags, blocked
durations, everything — and, since recovery acts on those records, the
same :class:`RunResult`.

Every case runs the identical configuration twice — ``detector_caching``
on and off — over the matrix the detector branches on: DOR/TFAR (plus
misrouting, whose request sets churn as tails drain), 1–4 VCs, wormhole
and virtual cut-through switching, saturated and moderate loads, knot and
timeout detection, persistent knots (``recovery="none"``), both engine
paths, and rebuild maintenance — the as-shipped default, where there is
no tracker and the cached detector runs the same contracted pipeline once
over the whole CWG.
"""

import dataclasses

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("config")  # differs by construction (the flag itself)
    return fields


def _run_pair(**overrides):
    params = dict(
        measure_cycles=1500,
        warmup_cycles=100,
        seed=7,
        cwg_maintenance="incremental",
        count_cycles=True,
    )
    params.update(overrides)
    cfg = tiny_default(**params)
    out = {}
    for cached in (True, False):
        sim = NetworkSimulator(cfg.replace(detector_caching=cached))
        result = sim.run()
        out[cached] = (sim, result)
    return out


def _assert_identical(pair):
    cached_sim, cached_result = pair[True]
    full_sim, full_result = pair[False]
    # DetectionRecord and DeadlockEvent are dataclasses: == compares every
    # field, so this covers knots, deadlock/resource sets, densities,
    # census counts + saturation flags, blocked durations and blocked ids.
    assert cached_sim.detector.records == full_sim.detector.records
    assert cached_sim.detector.events == full_sim.detector.events
    assert _result_fields(cached_result) == _result_fields(full_result)
    # the workload actually exercised the detector
    assert full_sim.detector.records
    assert full_result.delivered > 0


CASES = {
    # -- routing × VCs at saturation ------------------------------------------------
    "dor_saturated_1vc": dict(routing="dor", load=1.0, num_vcs=1),
    "tfar_saturated_1vc": dict(routing="tfar", load=1.0, num_vcs=1),
    "tfar_saturated_2vc": dict(routing="tfar", load=1.0, num_vcs=2),
    "dor_saturated_3vc": dict(routing="dor", load=1.0, num_vcs=3),
    "tfar_saturated_4vc": dict(routing="tfar", load=1.0, num_vcs=4),
    "tfar_misrouting": dict(routing="tfar-mis", load=1.0, num_vcs=2),
    # -- moderate loads ---------------------------------------------------------------
    "dor_moderate": dict(routing="dor", load=0.45, num_vcs=2),
    "tfar_moderate": dict(routing="tfar", load=0.5, num_vcs=1),
    # -- switching --------------------------------------------------------------------
    "vct_saturated": dict(
        routing="dor", load=0.9, buffer_depth=8, message_length=8
    ),
    # -- persistent knots (regions stable across passes: max cache reuse) ----------
    "unrecovered_knots": dict(
        routing="dor", load=0.95, num_vcs=1, recovery="none"
    ),
    # -- detection / recovery modes ---------------------------------------------------
    "timeout_mode": dict(
        routing="tfar",
        load=1.0,
        detection_mode="timeout",
        timeout_threshold=100,
        record_blocked_durations=True,
    ),
    "flit_by_flit_teardown": dict(
        routing="tfar", load=1.0, recovery_teardown="flit-by-flit"
    ),
    # -- census saturation (tiny cap forces the saturated flag on) ------------------
    "census_cap_hit": dict(
        routing="tfar", load=1.0, max_cycles_counted=10
    ),
    "census_disabled": dict(routing="tfar", load=1.0, count_cycles=False),
    # -- incremental knot tracking (census off selects _analyze_tracked) ------------
    "tracked_persistent_knots": dict(
        routing="dor",
        load=0.95,
        num_vcs=1,
        recovery="none",
        count_cycles=False,
    ),
    "tracked_legacy_engine": dict(
        routing="dor",
        load=1.0,
        num_vcs=1,
        count_cycles=False,
        engine_fast_path=False,
    ),
    "tracked_timeout_mode": dict(
        routing="tfar",
        load=1.0,
        count_cycles=False,
        detection_mode="timeout",
        timeout_threshold=100,
    ),
    # -- engine / maintenance interaction --------------------------------------------
    "legacy_engine": dict(routing="tfar", load=1.0, engine_fast_path=False),
    "rebuild_fallback": dict(
        routing="tfar", load=1.0, cwg_maintenance="rebuild"
    ),
    "rebuild_unrecovered_knots": dict(
        routing="dor",
        load=0.95,
        num_vcs=1,
        recovery="none",
        cwg_maintenance="rebuild",
    ),
    # the census16_tfar1 benchmark shape: a persistent saturated 16-ary CWG
    # whose census exhausts a small budget on most passes
    "rebuild_saturated_16ary_census": dict(
        k=16,
        message_length=32,
        routing="tfar",
        load=1.0,
        max_cycles_counted=30,
        detection_interval=8,
        warmup_cycles=300,
        measure_cycles=200,
        cwg_maintenance="rebuild",
    ),
    "rebuild_legacy_engine_4vc": dict(
        routing="tfar",
        load=1.0,
        num_vcs=4,
        engine_fast_path=False,
        cwg_maintenance="rebuild",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_detector_caching_bit_identical(name):
    _assert_identical(_run_pair(**CASES[name]))


def test_detector_caching_identical_across_seeds():
    """Seed sweep on the most deadlock-prone configuration."""
    for seed in (1, 2, 3, 4):
        _assert_identical(
            _run_pair(
                routing="dor",
                load=1.0,
                num_vcs=1,
                seed=seed,
                measure_cycles=1000,
                record_blocked_durations=True,
            )
        )


def test_detector_caching_is_default():
    cfg = tiny_default()
    assert cfg.detector_caching is True
    sim = NetworkSimulator(cfg)
    assert sim.detector.caching is True


CACHE_STAT_KEYS = {
    "region_hits",
    "signature_hits",
    "region_misses",
    "signature_evictions",
    "full_passes",
    "cached_passes",
    "shortcircuit_passes",
    "tracked_passes",
    "tracked_rescans",
    "knots_reused",
    "knots_discovered",
}


def test_cache_stats_accessor_and_repeat_pass_hits():
    """``cache_stats()`` exposes live counters; a repeated pass is a hit.

    After a saturated no-recovery run the network holds persistent knots.
    Two manual back-to-back detector passes with no intervening network
    change (the blocked-epoch bump only defeats the short-circuit) must
    replay every region from cache: at least one region hit, zero new
    misses.
    """
    cfg = tiny_default(
        routing="dor",
        load=0.95,
        num_vcs=1,
        recovery="none",
        cwg_maintenance="incremental",
        count_cycles=True,
        measure_cycles=1200,
        warmup_cycles=100,
        seed=7,
    )
    sim = NetworkSimulator(cfg)
    sim.run()
    stats = sim.detector.cache_stats()
    assert set(stats) == CACHE_STAT_KEYS
    assert all(isinstance(v, int) and v >= 0 for v in stats.values())
    assert stats["cached_passes"] > 0

    # first manual pass consumes any dirt accumulated since the run's last
    # detection and caches the (wedged, stable) regions ...
    sim.blocked_epoch += 1
    sim.detector.detect(sim)
    mid = sim.detector.cache_stats()
    # ... so the identical repeated pass reuses every region verbatim
    sim.blocked_epoch += 1
    sim.detector.detect(sim)
    after = sim.detector.cache_stats()
    assert after["cached_passes"] == mid["cached_passes"] + 1
    assert after["region_hits"] >= mid["region_hits"] + 1
    assert after["region_misses"] == mid["region_misses"]


def test_cache_stats_uncached_detector_counts_full_passes():
    cfg = tiny_default(
        routing="dor",
        load=1.0,
        num_vcs=1,
        detector_caching=False,
        measure_cycles=600,
        warmup_cycles=100,
        seed=3,
    )
    sim = NetworkSimulator(cfg)
    sim.run()
    stats = sim.detector.cache_stats()
    assert stats["full_passes"] > 0
    assert stats["cached_passes"] == 0
    assert stats["region_hits"] == stats["region_misses"] == 0
