"""The production engine's whole-phase skips fire, and are exact.

Once a network freezes — every request parked, every worm immobile, the
state a deadlocked run sits in between detections — ``ProductionEngine``
returns from the allocate and move phases after replaying only the
ordering side effects of the service lists it no longer builds.  Each test
steps a production and a legacy simulator in lockstep and compares, cycle
for cycle, everything such a skip could get wrong: the shared RNG's full
state, the round-robin counters, the blocked epoch and the flit count.
"""

import pytest

from repro.config import SimulationConfig
from repro.network.production import ProductionEngine
from repro.network.message import Message
from repro.network.simulator import _PHASE_ALLOC, _PHASE_MOVE, NetworkSimulator

#: a unidirectional 4-ring under DOR wedges globally within ~30 cycles; with
#: the detection interval beyond the run nothing ever unwedges it
RING = SimulationConfig(
    k=4,
    n=1,
    bidirectional=False,
    num_vcs=1,
    buffer_depth=1,
    routing="dor",
    message_length=4,
    load=1.3,
    detection_interval=10_000,
    warmup_cycles=0,
    measure_cycles=400,
    seed=97,
)


class _Scripted:
    """Injects ``(cycle, src, dest, length)`` worms at their cycle and
    nothing else: a stand-in for the Bernoulli source, which both engines
    read from ``sim.generator`` every cycle."""

    def __init__(self, worms):
        self.worms = sorted(worms)
        self.generated = 0
        self.suppressed = 0

    def tick(self, cycle, queue_lengths):
        out = []
        while self.generated < len(self.worms) and self.worms[self.generated][0] <= cycle:
            _, src, dest, length = self.worms[self.generated]
            out.append(Message(self.generated, src, dest, length, cycle))
            self.generated += 1
        return out


def _pair(cfg, worms=None):
    production = NetworkSimulator(cfg)
    legacy = NetworkSimulator(cfg.replace(engine_fast_path=False))
    assert type(production) is ProductionEngine
    assert type(legacy) is NetworkSimulator
    if worms is not None:
        production.generator = _Scripted(worms)
        legacy.generator = _Scripted(worms)
    return production, legacy


def _spy(sim, *names):
    """Record ``(cycle, *args)`` of every call to the named methods."""
    calls = []

    def wrap(real):
        def spy(*args):
            calls.append((sim.cycle, *args))
            return real(*args)

        return spy

    for name in names:
        setattr(sim, name, wrap(getattr(sim, name)))
    return calls


def _lockstep(production, legacy, cycles=1):
    for _ in range(cycles):
        production.step()
        legacy.step()
        assert production.rng.getstate() == legacy.rng.getstate()
        assert production._rr_counters == legacy._rr_counters
        assert production.blocked_epoch == legacy.blocked_epoch
        assert _flits(production) == _flits(legacy)


def _flits(sim):
    return sum(m.flits_in_network for m in sim.active.values())


def _frozen(sim):
    return sim._all_immobile and sim._alloc_quiet >= 0


def _skipped(skips, cycle):
    """The phases that took their skip in ``cycle`` (``_skip_order`` calls)."""
    return [phase for c, _n, phase in skips if c == cycle]


def _run_until_frozen(production, legacy, every_queue_fed=False, limit=100):
    """Step to the first frozen cycle; ``every_queue_fed`` also waits out
    the nodes yet to generate their first message (a new queue head is a
    new request)."""
    while not (
        _frozen(production)
        and (not every_queue_fed or all(production.queues))
    ):
        assert production.cycle < limit, "the ring never froze"
        _lockstep(production, legacy)
    return production.cycle


@pytest.mark.parametrize("arbitration", ["random", "round-robin", "oldest-first"])
def test_frozen_ring_orders_nothing_and_stays_exact(arbitration):
    production, legacy = _pair(RING.replace(arbitration=arbitration))
    orderings = _spy(production, "_service_order")
    skips = _spy(production, "_skip_order")
    frozen_at = _run_until_frozen(production, legacy, every_queue_fed=True)
    before = (legacy.rng.getstate(), list(legacy._rr_counters))
    _lockstep(production, legacy, 150)
    # no service list was built, shuffled or sorted after the freeze ...
    assert max(call[0] for call in orderings) <= frozen_at
    # ... both phases skipped every later cycle, over a non-empty list ...
    later = [n for cycle, n, _phase in skips if cycle > frozen_at]
    assert len(later) == 2 * 150 and min(later) >= 2
    # ... and the side effects they replay are real, not vacuous
    after = (legacy.rng.getstate(), list(legacy._rr_counters))
    assert (after != before) == (arbitration != "oldest-first")


@pytest.mark.parametrize("teardown", ["instant", "flit-by-flit"])
def test_victim_removal_forces_both_full_passes(teardown):
    cfg = RING.replace(detection_interval=50, recovery_teardown=teardown)
    production, legacy = _pair(cfg)
    skips = _spy(production, "_skip_order")
    assert _run_until_frozen(production, legacy) < 50
    _lockstep(production, legacy, 50 - production.cycle)
    # detection at cycle 50 found the knot and removed a victim
    assert production.detector.events and not _frozen(production)
    assert _skipped(skips, 50) == [_PHASE_ALLOC, _PHASE_MOVE]
    _lockstep(production, legacy, 100)
    assert _skipped(skips, 51) == []
    # and the victim's worm left the network on both engines alike
    assert len(production.active) == len(legacy.active)
    assert production.generator.generated == legacy.generator.generated


#: two worms that deadlock the ring from nodes 0 and 2, each fully
#: compressed from its first hop on (one-flit buffers)
TWO_WORMS = [(0, 0, 3, 4), (0, 2, 1, 4)]


def test_generate_into_empty_queue_forces_a_full_allocate_pass():
    # node 1 has sent nothing when its first message arrives at cycle 60
    production, legacy = _pair(RING, worms=TWO_WORMS + [(60, 1, 2, 4)])
    skips = _spy(production, "_skip_order")
    assert _run_until_frozen(production, legacy) < 50
    quiet = production._alloc_quiet
    while production.generator.generated < 3:
        _lockstep(production, legacy)
    arrival = production.cycle
    # the allocate pass of the arrival cycle ran in full and served the new
    # head (which parked); the move phase still had nothing to look at
    assert _skipped(skips, arrival) == [_PHASE_MOVE]
    assert production._alloc_quiet == -1
    _lockstep(production, legacy, 5)
    assert production._alloc_quiet == quiet + 1
    assert _skipped(skips, production.cycle) == [_PHASE_ALLOC, _PHASE_MOVE]


def test_pending_router_delay_header_forces_the_full_allocate_pass():
    # while both headers sit out the router pipeline nothing requests and
    # nothing moves, so both flags go up — with the headers still due
    production, legacy = _pair(
        RING.replace(router_delay=4), worms=TWO_WORMS
    )
    skips = _spy(production, "_skip_order")
    pending_cycles = 0
    for _ in range(60):
        pending = production._alloc_quiet >= 0 and bool(production._delay_due)
        _lockstep(production, legacy)
        if pending:
            pending_cycles += 1
            assert _PHASE_ALLOC not in _skipped(skips, production.cycle)
    assert pending_cycles, "no header was ever due in a quiet network"
    assert _frozen(production) and len(production._waiting) == 2
