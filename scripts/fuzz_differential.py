#!/usr/bin/env python3
"""Differential fuzz harness CLI — cross-check the optimized paths.

Draws seeded random configurations and verifies, for each one, that the
run is bit-identical (``repro.validation.differential.compare``: result,
every detection record, post-run RNG word) to each axis's reference, a
class of ``repro.validation.reference``:

* ``engine`` — the production engine vs ``ReferenceEngine``, the
  full-rescan reference engine,
* ``detector`` — the detector's worm-level pipeline vs the vertex-level
  reference pass (``reference_pass``).

Any mismatch is shrunk to a minimal reproducing configuration and dumped
as a replayable JSON artifact under ``fuzz_artifacts/``.

Usage:

    python scripts/fuzz_differential.py                  # 50 configs, seed 1
    python scripts/fuzz_differential.py --configs 200 --seed 7
    python scripts/fuzz_differential.py --smoke          # the CI gate
    python scripts/fuzz_differential.py --replay fuzz_artifacts/<file>.json

``--smoke`` runs the fixed CI sweep: 25 configs from a pinned seed under a
90-second budget — deterministic, so a CI failure replays locally with the
same command.  Exit status is non-zero when any mismatch was found.

See ``docs/TESTING.md`` for where this sits in the test pyramid and how to
file a minimized mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.validation.differential import (  # noqa: E402
    AXES,
    check_config,
    dump_artifact,
    load_artifact,
    run_fuzz,
    shrink_config,
)

SMOKE_CONFIGS = 25
SMOKE_SEED = 20260806
SMOKE_BUDGET_SECONDS = 90.0


def _artifact_name(axis: str, seed: int, index: int) -> str:
    return f"mismatch_{axis}_seed{seed}_{index}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="differential fuzzing of engine/detector equivalence"
    )
    parser.add_argument("--configs", type=int, default=50, help="configs to draw")
    parser.add_argument("--seed", type=int, default=1, help="fuzz RNG seed")
    parser.add_argument(
        "--axes",
        default=",".join(AXES),
        help="comma-separated axes to check: engine (the production engine "
        "vs ReferenceEngine), detector (the worm-level pipeline vs the "
        f"reference pass); default {','.join(AXES)}",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds (stops drawing configs after)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI gate: {SMOKE_CONFIGS} configs, seed {SMOKE_SEED}, "
        f"{SMOKE_BUDGET_SECONDS:.0f}s budget",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip mismatch minimization"
    )
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=REPO_ROOT / "fuzz_artifacts",
        help="where mismatch artifacts are written",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        help="re-check a previously dumped mismatch artifact and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-config progress"
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        path = args.replay
        if not path.exists() and (args.artifact_dir / path.name).exists():
            path = args.artifact_dir / path.name
        axis, config = load_artifact(path)
        print(f"replaying {path} on axis {axis!r}: {config.label()}")
        mismatches = check_config(config, axes=(axis,))
        if mismatches:
            print(f"REPRODUCED: {mismatches[0].detail}")
            return 1
        print("did not reproduce (fixed, or environment-dependent)")
        return 0

    if args.smoke:
        args.configs = SMOKE_CONFIGS
        args.seed = SMOKE_SEED
        args.budget = SMOKE_BUDGET_SECONDS

    axes = tuple(a.strip() for a in args.axes.split(",") if a.strip())
    unknown = [a for a in axes if a not in AXES]
    if unknown:
        parser.error(f"unknown axes {unknown}; choose from {list(AXES)}")

    log = None if args.quiet else print
    mismatches, checked = run_fuzz(
        num_configs=args.configs,
        seed=args.seed,
        axes=axes,
        shrink=not args.no_shrink,
        time_budget=args.budget,
        log=log,
    )

    print(
        f"\nfuzz_differential: {checked} configs checked on axes "
        f"{'/'.join(axes)} (seed {args.seed}), "
        f"{len(mismatches)} mismatch(es)"
    )
    if not mismatches:
        return 0
    for i, mismatch in enumerate(mismatches):
        path = dump_artifact(
            mismatch,
            args.artifact_dir / _artifact_name(mismatch.axis, args.seed, i),
        )
        print(f"  [{mismatch.axis}] {mismatch.detail}")
        print(f"    minimized config: {mismatch.config.label()} "
              f"seed={mismatch.config.seed}")
        print(f"    artifact: {path}")
        print(f"    replay:   python scripts/fuzz_differential.py --replay {path}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
