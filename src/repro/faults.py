"""Test-only fault injection: deliberately break internal bookkeeping.

The differential fuzz harness (:mod:`repro.validation.differential`) and
the runtime invariant checker (:mod:`repro.validation.invariants`) exist to
catch exactly the class of bug where maintained engine or detector state
silently drifts from the ground truth it caches.  To *prove* the net has
teeth, the test-suite must be able to introduce such a drift on demand.

Setting the ``REPRO_INJECT_FAULT`` environment variable to a
comma-separated list of fault names arms the corresponding injection
points.  Faults are sampled **once per simulator construction**, so tests
set the variable, build a simulation, and restore the environment
afterwards; production code paths never read the variable in a hot loop.

Known fault names:

``skip-wake``
    :class:`~repro.network.simulator.NetworkSimulator` never clears the
    ``stalled`` flag when a waited-on resource frees — stalled messages
    sleep forever on the engine fast path, diverging from the legacy path.

``skip-immobile-clear``
    :class:`~repro.network.production.ProductionEngine` never lowers its
    maintained ``_all_immobile`` whole-phase move skip — once a move pass
    finds every active message immobile, later wake-ups (resource
    acquisitions, victim removal) are ignored and the engine keeps
    skipping the move loop, freezing the network while the legacy
    reference drains it.

``skip-block-epoch``
    :class:`~repro.network.production.ProductionEngine` omits its
    ``blocked_epoch`` bump when a header first blocks (VC or reception
    wait).  The CWG gains dashed arcs the epoch does not record, so the
    detector's short-circuit reuses a stale "no deadlock" record and
    reports a knot late, diverging from the legacy reference.

``steady-drain-gap``
    :class:`~repro.network.production.ProductionEngine` raises a draining
    worm's ``steady`` flag on any channel pool, not only on one with a
    single VC per link and unit link latency.  Where a sibling VC's worm
    takes a shared link, or a slow link is still busy, the reference opens
    a gap (an owned VC left empty) in the draining worm, while the faulty
    engine keeps draining it one flit per cycle and never marks the links
    it crosses, diverging from the legacy reference.

``crash-point``
    A campaign worker (:mod:`repro.campaign.runner`) raises before running
    its simulation — every attempt, so the point exhausts its retries and
    must degrade to a recorded failure.

``flaky-point``
    Like ``crash-point``, but only the *first* attempt per point fails
    (cross-process first-attempt tracking via marker files in
    ``REPRO_FAULT_DIR``); retries then succeed.  Exercises retry/backoff.

``hang-point``
    A campaign worker's first attempt per point hangs (sleeps far past any
    sane timeout) after dropping its marker file; the respawned attempt
    runs normally.  Exercises the per-point wall-clock timeout kill path.

``drop-lease-heartbeat``
    A campaign-service worker (:mod:`repro.campaign.service.worker`) stops
    sending lease heartbeats for matching points while still executing
    them — simulating a network partition or a wedged heartbeat thread.
    The scheduler's reaper must notice the silent lease, reclaim it, and
    requeue the point; the teeth test asserts exactly that.

The point faults honour two extra environment variables:
``REPRO_FAULT_MATCH`` — a substring of the config label restricting which
points fault (empty/unset = all points) — and ``REPRO_FAULT_DIR`` — the
directory for first-attempt marker files (required by ``flaky-point`` and
``hang-point``).

This module is intentionally tiny and dependency-free so that core modules
can import it without layering concerns.
"""

from __future__ import annotations

import hashlib
import os

__all__ = ["active_faults", "point_fault_matches", "first_trigger"]

ENV_VAR = "REPRO_INJECT_FAULT"
MATCH_ENV_VAR = "REPRO_FAULT_MATCH"
DIR_ENV_VAR = "REPRO_FAULT_DIR"

KNOWN_FAULTS = frozenset(
    {
        "skip-wake",
        "skip-immobile-clear",
        "skip-block-epoch",
        "steady-drain-gap",
        "crash-point",
        "flaky-point",
        "hang-point",
        "drop-lease-heartbeat",
    }
)


def active_faults() -> frozenset[str]:
    """The currently-armed fault names (empty outside fault-injection tests)."""
    raw = os.environ.get(ENV_VAR, "")
    if not raw:
        return frozenset()
    faults = frozenset(f.strip() for f in raw.split(",") if f.strip())
    unknown = faults - KNOWN_FAULTS
    if unknown:
        raise ValueError(
            f"unknown fault name(s) {sorted(unknown)} in ${ENV_VAR}; "
            f"known: {sorted(KNOWN_FAULTS)}"
        )
    return faults


def point_fault_matches(label: str) -> bool:
    """Does an armed point fault apply to the point with this label?

    ``REPRO_FAULT_MATCH`` holds a substring of the config label; empty or
    unset means every point faults.
    """
    needle = os.environ.get(MATCH_ENV_VAR, "")
    return needle in label


def first_trigger(fault: str, key: str) -> bool:
    """True exactly once per (fault, key), across processes.

    Uses an exclusive-create marker file in ``REPRO_FAULT_DIR`` so a
    respawned worker process sees that a previous attempt already fired.
    Raises when the directory is not configured — the once-only faults are
    meaningless without it.
    """
    directory = os.environ.get(DIR_ENV_VAR)
    if not directory:
        raise ValueError(
            f"fault {fault!r} needs ${DIR_ENV_VAR} set to a marker directory"
        )
    tag = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
    marker = os.path.join(directory, f"{fault}-{tag}.marker")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True
