"""Fixtures that arm faults in the detector's pipeline, and the two
state-space helpers the oracle's own tests need: decoding a canonical
state back from a witness's JSON, and restoring a live simulator into one.
"""

import pytest

from repro.config import SimulationConfig
from repro.network.simulator import NetworkSimulator
from repro.validation.invariants import InvariantChecker
from repro.validation.statespace import CanonicalState, load_state, oracle_config


def state_from_json(data: dict) -> CanonicalState:
    """The inverse of :meth:`CanonicalState.to_json`."""
    return CanonicalState(
        next_id=int(data["next_id"]),
        queues=tuple(tuple(int(i) for i in q) for q in data["queues"]),
        messages=tuple(
            (
                int(r[0]), int(r[1]), int(r[2]), int(r[3]), str(r[4]),
                int(r[5]), int(r[6]),
                tuple((int(v), int(o)) for v, o in r[7]),
                None if r[8] is None else int(r[8]),
                bool(r[9]), bool(r[10]),
            )
            for r in data["messages"]
        ),
    )


def restore_sim(config: SimulationConfig, state: CanonicalState) -> NetworkSimulator:
    """A live production-engine simulator in exactly ``state``, checked by
    the invariant battery (``config`` is pinned through ``oracle_config``)."""
    sim = NetworkSimulator(oracle_config(config))
    load_state(sim, state)
    InvariantChecker().check_now(sim)
    return sim


@pytest.fixture
def miscounting_census(monkeypatch):
    """Break the detector's contracted census: every nonzero count reads
    one too high.  The nets that cross-check the as-shipped pipeline
    against from-scratch counts must notice."""
    import repro.core.detector as detector
    from repro.core.cycles import CycleCount

    real = detector.count_cycles_contracted

    def off_by_one(contracted, limit, sccs=None):
        got = real(contracted, limit, sccs)
        return CycleCount(got.count + 1, got.saturated) if got.count else got

    monkeypatch.setattr(detector, "count_cycles_contracted", off_by_one)


@pytest.fixture
def dropped_wait_target(monkeypatch):
    """Break the pipeline's wait-index read: in every pass, the first
    request taken from a header's ``wait_keys`` loses its last target.
    The nets that compare the pipeline with the generic ``build_cwg``
    derivation must notice."""
    import repro.core.detector as detector

    real = detector._pipeline_cwg

    def dropping(sim):
        g = real(sim)
        for mid, targets in g.requests.items():
            if sim.message_by_id(mid).wait_keys:
                g.requests[mid] = targets[:-1]
                break
        return g

    monkeypatch.setattr(detector, "_pipeline_cwg", dropping)
