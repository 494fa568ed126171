"""The start-order net: Johnson's kernel is shared by the contracted
pipeline (hubs first) and the plain reference (ascending order), so only
a fault whose count depends on the start order can hide from one side and
not the other.  The contracted-pipeline property tests and the fuzzer's
detector axis must catch one."""

import random

from repro.config import SimulationConfig
from repro.validation.differential import check_config
from tests.core.test_worm_pipeline import _assert_quotient_exact, _random_worm_cwg

#: the fuzzer's smoke sweep finds the fault here (shrunk by the harness):
#: misrouting TFAR fills knots with several cycles per worm
MISROUTING = SimulationConfig(
    k=3, n=2, num_vcs=1, buffer_depth=2, routing="tfar-mis",
    selection="straight", arbitration="random", message_length=4,
    load=1.0, max_queued_per_node=8, detection_interval=25,
    max_cycles_counted=1000, warmup_cycles=0, measure_cycles=300,
    seed=3266559503,
)


def _fails(g) -> bool:
    try:
        _assert_quotient_exact(g)
    except AssertionError:
        return True
    return False


def test_start_order_fault_fails_the_property_tests(order_dependent_johnson):
    """With a round that closes no cycle ending the enumeration, the
    pipeline and the reference disagree at some cap of
    ``(1, 2, 3, 7, 10000)`` on the random worm CWGs of
    ``test_random_worm_cwgs_quotient_is_exact``."""
    rng = random.Random(2701)
    assert any(_fails(_random_worm_cwg(rng)) for _ in range(300))


def test_start_order_fault_is_a_detector_axis_leg(order_dependent_johnson):
    mismatches = check_config(MISROUTING, axes=("detector",))
    assert mismatches and mismatches[0].axis == "detector"
    assert "the detector reference diverges" in mismatches[0].detail


def test_misrouting_scenario_is_clean_without_the_fault():
    assert check_config(MISROUTING, axes=("detector",)) == []
