"""A/B equivalence: observability is pure observation.

``obs_level`` attaches a metrics registry, per-phase timers and (at level
2) a cycle-level trace ring buffer to the engine and detector.  None of it
may perturb the simulation: no RNG draws, no state mutation.  The rows of
:mod:`tests.integration.bit_identity` span the paths instrumentation
touches — both engine paths (the profiled ``step()`` is a separate branch
from the plain one), the cached detector pipeline, recovery, a trace ring
that wraps mid-run, and the golden scenarios — and hold each to an
uninstrumented run.
"""

import pytest

from tests.integration.bit_identity import OBS, OBS_GOLDEN, run_case

ENGINE_COUNTERS = (
    "stall_skips", "immobile_skips", "steady_drains", "mobile_worm_cycles"
)


@pytest.mark.parametrize("name", sorted(OBS))
def test_obs_bit_identical(name):
    case = OBS[name]
    sim = run_case(case)
    snap = sim.obs.snapshot()
    # sanity on the observed side: the snapshot is well-formed and non-empty
    assert snap["level"] == case.config.obs_level
    assert snap["phases"]["engine/allocate"]["calls"] > 0
    if case.config.obs_level >= 2:
        assert snap["trace"]["events"] > 0
    # the production engine books its activity counters, the reference none
    booked = {
        name for name in snap["counters"]
        if name.startswith("engine/")
    }
    if sim.fast_path:
        assert booked == {f"engine/{name}" for name in ENGINE_COUNTERS}
        assert snap["counters"]["engine/mobile_worm_cycles"] > 0
    else:
        assert booked == set()


def test_obs_ring_wraparound_actually_happened():
    tracer = run_case(OBS["tiny_trace_ring_wraps"]).obs.tracer
    assert tracer.dropped > 0, "capacity 64 should wrap on a 1300-cycle run"
    assert len(tracer.events) == 64


@pytest.mark.parametrize("name", sorted(OBS_GOLDEN))
def test_obs_preserves_golden_digests(name):
    """The golden scenarios run bit-identically under full tracing, so the
    committed digests are reproduced too."""
    run_case(OBS_GOLDEN[name])
