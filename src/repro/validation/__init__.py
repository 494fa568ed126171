"""Correctness net: invariants, differential fuzzing, model checking.

Three layers defend the simulator's optimized paths (the activity-tracked
production engine and the detector's worm-level pipeline) against silent
drift from their ground-truth equivalents:

* :mod:`repro.validation.invariants` — a pluggable runtime checker a
  ``validation_level`` config flag attaches to the engine, asserting flit
  conservation, channel exclusivity, worm contiguity, activity-flag
  coherence and knot soundness on a sampling schedule;
* :mod:`repro.validation.differential` — the bit-identity contract
  (:func:`compare`: result, detection records, post-run RNG word) and a
  deterministic fuzz harness that draws seeded random configurations and
  cross-checks production vs legacy engine and pipeline vs uncached
  detector, shrinking any mismatch to a minimal reproducing configuration;
* :mod:`repro.validation.oracle` (with
  :mod:`repro.validation.statespace`) — an exhaustive model checker that
  enumerates **every reachable state** of tiny generation-capped
  configurations across **all nondeterministic branches**, derives
  ground-truth deadlock labels by reachability, and cross-checks the knot
  detector's verdict at every state — the layer that checks the engines
  against *the definition* rather than against each other.

``scripts/fuzz_differential.py`` and ``scripts/oracle_smoke.py`` are the
command-line front ends (plus ``python -m repro oracle``); see
``docs/TESTING.md`` for the test-pyramid overview.
"""

from repro.validation.differential import (
    AXES,
    FuzzMismatch,
    check_config,
    compare,
    dump_artifact,
    load_artifact,
    random_config,
    run_fuzz,
    shrink_config,
)
from repro.validation.invariants import InvariantChecker, InvariantViolation
from repro.validation.oracle import (
    ORACLE_GRID,
    OracleCase,
    OracleReport,
    OracleViolation,
    StateGraph,
    analyze,
    check_case,
    cwg_doomed_messages,
    explore,
    get_case,
    make_deadlock_witness,
    make_wake_witness,
    replay_witness,
    run_teeth,
)
from repro.validation.statespace import (
    ORACLE_PINS,
    CanonicalState,
    oracle_config,
    restore_sim,
    snapshot_state,
    successors,
)

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "AXES",
    "FuzzMismatch",
    "check_config",
    "compare",
    "random_config",
    "run_fuzz",
    "shrink_config",
    "dump_artifact",
    "load_artifact",
    "ORACLE_GRID",
    "ORACLE_PINS",
    "OracleCase",
    "OracleReport",
    "OracleViolation",
    "StateGraph",
    "CanonicalState",
    "analyze",
    "check_case",
    "cwg_doomed_messages",
    "explore",
    "get_case",
    "make_deadlock_witness",
    "make_wake_witness",
    "oracle_config",
    "replay_witness",
    "restore_sim",
    "run_teeth",
    "snapshot_state",
    "successors",
]
