"""Legacy / production equivalence: the two engines are bit-identical.

The production engine (what ``NetworkSimulator(config)`` builds)
restructures the hot loops around incrementally-maintained activity state (routable flags, a
stalled-message wake index, immobile-worm skipping, steady drains,
whole-phase quiescence skips, detection short-circuiting on the blocked epoch), a position-keyed
candidate table and an inline arbitration RNG stream.  All of it is pure
optimization; the rows of :mod:`tests.integration.bit_identity` hold it to
:class:`~repro.validation.reference.ReferenceEngine` on k-ary n-cubes and
on the topology zoo.
"""

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator
from repro.validation.reference import ReferenceEngine
from tests.integration.bit_identity import (
    FAST_PATH,
    FAST_PATH_SEEDS,
    NO_STEADY_POOL,
    STEADY,
    ZOO,
    run_case,
)


@pytest.mark.parametrize("name", sorted(FAST_PATH))
def test_fast_path_bit_identical(name):
    sim = run_case(FAST_PATH[name])
    if name in NO_STEADY_POOL:
        assert sim.vec_steady_drains == 0


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_production_bit_identical(name):
    sim = run_case(ZOO[name])
    # the maintained activity state was actually in play
    assert sim.vec_stall_skips > 0 and sim.vec_immobile_skips > 0
    if name in NO_STEADY_POOL:
        assert sim.vec_steady_drains == 0


@pytest.mark.parametrize("name", sorted(STEADY))
def test_steady_drain_bit_identical(name):
    sim = run_case(STEADY[name])
    # the O(1) drain path carried the run, not only the boundary pass
    assert sim.vec_steady_drains > 0
    assert sim.vec_steady_drains < sim.vec_mobile_cycles


def test_fast_path_identical_across_seeds():
    """Sweep seeds on the most deadlock-prone configuration."""
    for case in FAST_PATH_SEEDS.values():
        run_case(case)


def test_fast_path_is_default():
    """``NetworkSimulator`` always builds the production engine; the
    reference is built by naming its class."""
    from repro.network.production import ProductionEngine

    cfg = tiny_default()
    sim = NetworkSimulator(cfg)
    assert type(sim) is ProductionEngine
    assert sim.fast_path is True
    legacy = ReferenceEngine(cfg)
    assert type(legacy) is ReferenceEngine
    assert legacy.fast_path is False
