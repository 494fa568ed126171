#!/usr/bin/env python3
"""Model-checking oracle CI gate — exhaustive detector verification.

Enumerates every configuration class of the oracle grid
(:data:`repro.validation.oracle.ORACLE_GRID`) to full closure on the
production engine, derives ground-truth deadlock labels by reachability,
and cross-checks the knot detector's verdict at **every reachable state**;
enumerates every case again on the reference engine and demands the same
state graph; then runs the teeth battery, which arms the
:data:`~repro.validation.oracle.TEETH_FAULTS` bookkeeping faults and
demands each produces a replayable counterexample on the production engine
with the detector's worm-level pipeline.

The gate fails when:

* any state shows a detector/ground-truth disagreement (a witness artifact
  is written under ``oracle_artifacts/`` for replay);
* any closure drifts from its pinned state/terminal/deadlock counts — a
  changed branch point or RNG draw silently reshapes the verified space,
  and that must be a loud, reviewed event;
* the reference engine's state graph (states, successors and choice
  scripts) differs from the production engine's;
* any armed teeth fault goes uncaught (the oracle has lost its teeth);
* the whole run exceeds its wall-clock budget (the grid is sized for CI).

Usage:

    python scripts/oracle_smoke.py            # the CI gate
    python scripts/oracle_smoke.py --verbose  # per-frontier progress

A failure replays locally with the same command, or per case with
``python -m repro oracle check <case>``.

See ``docs/TESTING.md`` for where this sits in the test pyramid.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.validation.oracle import (  # noqa: E402
    ORACLE_GRID,
    TEETH_CASE,
    TEETH_FAULTS,
    build_witness,
    check_case,
    dump_witness,
    explore,
    get_case,
    run_teeth,
    teeth_candidates,
)
from repro.validation.reference import ReferenceEngine  # noqa: E402

BUDGET_SECONDS = 90.0
ARTIFACT_DIR = REPO_ROOT / "oracle_artifacts"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="exhaustive model-checking oracle smoke gate"
    )
    parser.add_argument("--verbose", action="store_true",
                        help="print per-frontier exploration progress")
    args = parser.parse_args(argv)
    log = print if args.verbose else None

    started = time.monotonic()
    failures = 0
    graphs = {}

    for case in ORACLE_GRID:
        report = check_case(case, log=log, keep_graph=True)
        print(report.summary())
        for violation in report.violations:
            failures += 1
            print(f"  {violation.kind} @ state {violation.state_index}: "
                  f"{violation.detail}")
            if violation.state_index >= 0:
                path = dump_witness(
                    build_witness(
                        report.graph, violation.state_index,
                        kind=violation.kind, detail=violation.detail,
                    ),
                    ARTIFACT_DIR
                    / f"{case.name}-{violation.kind}"
                      f"-{violation.state_index}.json",
                )
                print(f"  witness: {path}")
        graph = graphs[case.name] = report.graph
        reference = explore(case.config, engine=ReferenceEngine)
        if (reference.index, reference.succ, reference.scripts) != (
            graph.index, graph.succ, graph.scripts
        ):
            failures += 1
            print(f"  the reference engine's state graph ({len(reference)} "
                  f"states) differs from production's")

    print(f"teeth battery on {TEETH_CASE!r} "
          f"(faults: {', '.join(TEETH_FAULTS)})")
    case = get_case(TEETH_CASE)
    candidates = teeth_candidates(case, graph=graphs[TEETH_CASE])
    for outcome in run_teeth(case, candidates=candidates):
        if outcome.caught:
            print(f"  {outcome.fault}: caught by the "
                  f"{outcome.witness_kind!r} witness "
                  f"({outcome.divergence} divergence at step "
                  f"{outcome.diverged_at})")
        else:
            failures += 1
            print(f"  {outcome.fault}: MISSED — the oracle has no teeth "
                  f"({outcome.detail})")

    elapsed = time.monotonic() - started
    print(f"oracle smoke: {len(ORACLE_GRID)} cases, {elapsed:.1f}s")
    if elapsed > BUDGET_SECONDS:
        failures += 1
        print(f"FAIL: exceeded the {BUDGET_SECONDS:.0f}s budget — shrink "
              f"the grid or speed up enumeration")
    if failures:
        print(f"oracle smoke: FAILED ({failures} problem(s))")
        return 1
    print("oracle smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
