"""Legacy / production equivalence: the two engines are bit-identical.

The production engine (``engine_fast_path``, the default) restructures the
hot loops around incrementally-maintained activity state (routable flags, a
stalled-message wake index, immobile-worm skipping, whole-phase quiescence
skips, detection short-circuiting on the blocked epoch), a position-keyed
candidate table and an inline arbitration RNG stream.  All of it is pure
optimization; the rows of :mod:`tests.integration.bit_identity` hold it to
the legacy reference on k-ary n-cubes and on the topology zoo.
"""

import pytest

from repro.config import tiny_default
from repro.network.simulator import NetworkSimulator
from tests.integration.bit_identity import (
    DEPRECATED,
    FAST_PATH,
    FAST_PATH_SEEDS,
    ZOO,
    run_case,
)


@pytest.mark.parametrize("name", sorted(FAST_PATH))
def test_fast_path_bit_identical(name):
    run_case(FAST_PATH[name])


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_production_bit_identical(name):
    sim = run_case(ZOO[name])
    # the maintained activity state was actually in play
    assert sim.vec_stall_skips > 0 and sim.vec_immobile_skips > 0


def test_fast_path_identical_across_seeds():
    """Sweep seeds on the most deadlock-prone configuration."""
    for case in FAST_PATH_SEEDS.values():
        run_case(case)


def test_fast_path_is_default():
    from repro.network.production import ProductionEngine

    cfg = tiny_default()
    assert cfg.engine_fast_path is True
    sim = NetworkSimulator(cfg)
    assert type(sim) is ProductionEngine
    assert sim.fast_path is True
    legacy = NetworkSimulator(cfg.replace(engine_fast_path=False))
    assert type(legacy) is NetworkSimulator


def test_deprecated_engine_flags_are_inert():
    """``engine_kernels`` / ``engine_vectorized`` / ``cwg_maintenance``
    select nothing: the engine tiers and the incremental CWG tracker they
    named are gone, and the fields survive only inside stored result
    digests.  ``cwg_maintenance`` is still validated."""
    from repro.campaign.store import config_digest
    from repro.errors import ConfigurationError
    from repro.network.production import ProductionEngine

    assert tiny_default().engine_vectorized is False
    flags = dict(engine_kernels=True, engine_vectorized=True)
    assert type(NetworkSimulator(tiny_default(**flags))) is ProductionEngine
    legacy = NetworkSimulator(tiny_default(engine_fast_path=False, **flags))
    assert type(legacy) is NetworkSimulator
    for case in DEPRECATED.values():
        flagged = case.config.replace(**{case.field: case.value})
        flagged.validate()
        assert not hasattr(NetworkSimulator(flagged), "tracker")
        assert run_case(case).detector.records
    with pytest.raises(ConfigurationError):
        tiny_default(cwg_maintenance="bogus").validate()
    # the field list (and so every stored digest) is the parent commit's
    assert config_digest(tiny_default()) == "90949b61107460f2ef9a510d"
