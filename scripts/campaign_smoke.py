#!/usr/bin/env python3
"""Campaign smoke gate: interrupt a 2-point campaign, resume, verify.

The end-to-end resumability contract, run as part of
``scripts/ci_check.sh``:

1. start a 2-point tiny campaign interrupted after one fresh point
   (``max_points=1`` — the runner's deterministic interruption hook);
2. verify the store manifest recorded exactly the completed point;
3. re-invoke the campaign: the completed point must be *resumed* (loaded
   from the store, not re-run) and the remaining point executed;
4. the merged sweep must be bit-identical to an uninterrupted serial
   sweep of the same configs — resumption may not perturb results;
5. neither clean run may have forked more slot processes than it had
   workers (``slot_forks`` — slots are reused across points).

Everything is seeded and deterministic: a CI failure replays locally with
``python scripts/campaign_smoke.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import CampaignRunner, ResultStore  # noqa: E402
from repro.config import tiny_default  # noqa: E402
from repro.metrics.sweep import run_load_sweep  # noqa: E402

LOADS = [0.3, 0.6]


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 typing literal
    print(f"campaign_smoke: FAIL — {message}")
    raise SystemExit(1)


def check_slot_forks(runner: CampaignRunner, workers: int) -> None:
    forks = runner.registry.snapshot()["counters"].get("campaign/slot_forks", 0)
    print(f"campaign_smoke: slot_forks={forks} at {workers} worker(s)")
    if not 1 <= forks <= workers:
        fail(f"a clean run at {workers} worker(s) forked {forks} slot(s)")


def main() -> int:
    cfg = tiny_default(measure_cycles=400, warmup_cycles=50)
    with tempfile.TemporaryDirectory(prefix="campaign_smoke_") as tmp:
        store = ResultStore(Path(tmp) / "store")

        interrupted = CampaignRunner(store, max_workers=1, max_points=1)
        out1 = interrupted.run_sweep(cfg, LOADS)
        if out1.executed != 1 or out1.remaining != 1 or out1.failures:
            fail(
                f"interrupted run: executed={out1.executed} "
                f"remaining={out1.remaining} failures={out1.failures}"
            )
        manifest = store.load_manifest()
        done = [
            d for d, p in manifest["points"].items() if p["status"] == "done"
        ]
        if len(done) != 1 or manifest["counters"].get("executed") != 1:
            fail(f"manifest after interruption: {manifest}")
        check_slot_forks(interrupted, workers=1)
        print(
            f"campaign_smoke: interrupted after 1/{len(LOADS)} points, "
            f"manifest consistent"
        )

        resumed = CampaignRunner(store, max_workers=2)
        out2 = resumed.run_sweep(cfg, LOADS)
        if out2.resumed != 1 or out2.executed != 1 or out2.failures:
            fail(
                f"resumed run: resumed={out2.resumed} "
                f"executed={out2.executed} failures={out2.failures}"
            )
        stats = resumed.registry.snapshot()["counters"]
        if stats.get("campaign/points_resumed") != 1:
            fail(f"resume counters: {stats}")
        check_slot_forks(resumed, workers=2)
        manifest = store.load_manifest()
        done = [
            d for d, p in manifest["points"].items() if p["status"] == "done"
        ]
        if len(done) != len(LOADS):
            fail(f"manifest after resume: {manifest}")
        print("campaign_smoke: resume skipped the stored point, ran the rest")

        reference = run_load_sweep(cfg, LOADS)
        if out2.sweep != reference:
            fail("resumed sweep is not bit-identical to the direct sweep")
        print("campaign_smoke: merged sweep bit-identical to direct sweep")

    print("campaign_smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
