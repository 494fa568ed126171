"""A/B equivalence: the detector's contracted pipeline is bit-identical.

Every full pass runs the contracted pipeline — chain contraction, one
Tarjan decomposition shared by the knot test and the cycle census, each
SCC re-contracted before Johnson enumerates — instead of the plain
reference (global Tarjan + knot test + uncontracted Johnson over the whole
CWG), :class:`~repro.validation.reference.ReferenceDetector`.  All of it
is pure optimization; the rows of :mod:`tests.integration.bit_identity`
hold it to the reference record for record.
"""

import pytest

from repro.config import tiny_default
from repro.core.detector import DeadlockDetector
from repro.network.simulator import NetworkSimulator
from repro.validation.reference import ReferenceDetector, reference_pass
from tests.integration.bit_identity import DETECTOR, DETECTOR_SEEDS, run_case


@pytest.mark.parametrize("name", sorted(DETECTOR))
def test_detector_caching_bit_identical(name):
    # the workload actually exercised the detector
    assert run_case(DETECTOR[name]).detector.records


def test_detector_caching_identical_across_seeds():
    """Seed sweep on the most deadlock-prone configuration."""
    for case in DETECTOR_SEEDS.values():
        run_case(case)


def test_detector_caching_is_default():
    """Every simulator runs the pipeline; the reference pass is built by
    naming its class, with the pipeline's parameters."""
    cfg = tiny_default(max_cycles_counted=123, record_blocked_durations=True)
    sim = NetworkSimulator(cfg)
    assert type(sim.detector) is DeadlockDetector
    reference = reference_pass(cfg).detector
    assert type(reference) is ReferenceDetector
    assert vars(reference) == vars(sim.detector)


def test_cache_stats_accessor_and_repeat_pass_hits():
    """``cache_stats()`` exposes the two pass counters; an unchanged
    network short-circuits the repeated pass.

    After a saturated no-recovery run the network holds persistent knots,
    and a pass that finds a knot is never short-circuited: two manual
    passes re-analyse and re-report it identically.  With the knots gone
    (a fresh network) a repeated pass over an unchanged blocked epoch is a
    hit.
    """
    cfg = tiny_default(
        routing="dor",
        load=0.95,
        num_vcs=1,
        recovery="none",
        measure_cycles=1200,
        warmup_cycles=100,
        seed=7,
    )
    sim = NetworkSimulator(cfg)
    sim.run()
    stats = sim.detector.cache_stats()
    assert set(stats) == {"full_passes", "shortcircuit_passes"}
    assert stats["full_passes"] + stats["shortcircuit_passes"] == len(
        sim.detector.records
    )

    first = sim.detector.detect(sim)
    second = sim.detector.detect(sim)
    assert first.events and second.events == first.events
    after = sim.detector.cache_stats()
    assert after["full_passes"] == stats["full_passes"] + 2
    assert after["shortcircuit_passes"] == stats["shortcircuit_passes"]

    fresh = NetworkSimulator(cfg)
    fresh.detector.detect(fresh)
    repeat = fresh.detector.detect(fresh)
    assert fresh.detector.cache_stats() == {
        "full_passes": 1,
        "shortcircuit_passes": 1,
    }
    assert repeat.cycle_count == fresh.detector.records[0].cycle_count


def test_cache_stats_uncached_detector_counts_full_passes():
    cfg = tiny_default(
        routing="dor",
        load=1.0,
        num_vcs=1,
        measure_cycles=600,
        warmup_cycles=100,
        seed=3,
    )
    sim = reference_pass(cfg)
    sim.run()
    stats = sim.detector.cache_stats()
    assert stats["full_passes"] > 0
    assert stats["full_passes"] + stats["shortcircuit_passes"] == len(
        sim.detector.records
    )
