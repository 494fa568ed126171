#!/usr/bin/env python3
"""Distributed campaign smoke gate: 2 workers, 1 crash, bit-identical drain.

The end-to-end contract of the campaign service, run as part of
``scripts/ci_check.sh``:

1. start a :class:`CampaignService` scheduler on localhost and submit a
   4-point tiny campaign;
2. connect two *real* worker subprocesses over TCP; the first carries an
   injected ``hang-point`` fault matched to the first submitted point, so
   it claims that point and hangs on it;
3. SIGKILL the hung worker mid-point (its whole process group, so forked
   point children die too): the scheduler must see the disconnect,
   requeue the lease, and the surviving worker must finish the campaign;
4. verify the compacted store manifest recorded all points done with
   per-point worker attribution, and that ``manifest_rebuild`` reproduces
   the same point set from artifacts + journal alone;
5. verify the drained store is **bit-identical**, artifact for artifact,
   to the same campaign run by the single-host ``CampaignRunner``, and
   that a resumed single-host sweep over the store equals the plain
   serial sweep;
6. verify no run forked more slot processes than it had workers: the
   clean single-host reference by its ``slot_forks`` counter, the
   distributed drain by the ``slot_forks`` its workers reported with
   their results (the SIGKILLed victim never reported, so this counts
   the survivor's slots).

Everything is deterministic modulo scheduling interleave; the budget is
well under the 90 s CI bound.  A failure replays locally with
``python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import CampaignRunner, ResultStore  # noqa: E402
from repro.campaign.service import CampaignService  # noqa: E402
from repro.config import tiny_default  # noqa: E402
from repro.metrics.sweep import run_load_sweep  # noqa: E402

LOADS = [0.3, 0.6, 0.9, 1.2]
FAST = dict(measure_cycles=300, warmup_cycles=50)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 typing literal
    print(f"serve_smoke: FAIL — {message}")
    raise SystemExit(1)


def spawn_worker(port: int, name: str, extra_env: dict | None = None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env or {})
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "worker",
            "--connect", f"127.0.0.1:{port}", "--id", name,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,  # killpg reaches forked point workers too
    )


def kill_worker(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)


def wait_for(predicate, what: str, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    fail(f"timed out waiting for {what}")


def artifact_bytes(store: ResultStore) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in store.points_dir.glob("*.json")
        if not p.name.endswith(".err.json")
    }


def check_slot_forks(store: ResultStore, what: str, workers: int) -> None:
    forks = store.load_manifest()["counters"].get("slot_forks", 0)
    print(f"serve_smoke: {what}: slot_forks={forks} at {workers} workers")
    if not 1 <= forks <= workers:
        fail(f"{what} forked {forks} slot(s) at {workers} workers")


def main() -> int:
    started = time.monotonic()
    cfg = tiny_default(**FAST)
    configs = [cfg.replace(load=load) for load in LOADS]
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        reference = ResultStore(Path(tmp) / "reference")
        CampaignRunner(reference, max_workers=2).run_points(configs)
        check_slot_forks(reference, "single-host reference", workers=2)

        store_root = Path(tmp) / "store"
        victim = survivor = None
        (Path(tmp) / "faults").mkdir()
        with CampaignService(
            store_root, local_workers=0, lease_ttl=30.0
        ) as svc:
            try:
                submitted = svc.submit_points(configs)
                hang_digest = submitted["digests"][0]
                print(
                    f"serve_smoke: scheduler on 127.0.0.1:{svc.port}, "
                    f"{len(LOADS)} points submitted"
                )
                victim = spawn_worker(
                    svc.port,
                    "victim",
                    extra_env={
                        "REPRO_INJECT_FAULT": "hang-point",
                        "REPRO_FAULT_MATCH": configs[0].label(),
                        "REPRO_FAULT_DIR": str(Path(tmp) / "faults"),
                    },
                )
                # FIFO order: the victim's first claim is the hang point
                wait_for(
                    lambda: svc.status_snapshot()["scheduler"]["leases"]
                    .get(hang_digest, {})
                    .get("worker")
                    == "victim",
                    "victim to claim the hang point",
                )
                survivor = spawn_worker(svc.port, "survivor")
                wait_for(
                    lambda: svc.status_snapshot()["scheduler"]["points"][
                        "done"
                    ]
                    >= len(LOADS) - 1,
                    "survivor to drain the live points",
                    timeout_s=60.0,
                )
                kill_worker(victim)
                print("serve_smoke: victim worker SIGKILLed mid-point")
                statuses = svc.wait_points(submitted["digests"], timeout=60)
                bad = {
                    d: s for d, s in statuses.items() if s["status"] != "done"
                }
                if bad:
                    fail(f"points not completed after crash: {bad}")
                counters = svc.status_snapshot()["scheduler"]["counters"]
                if counters.get("worker_disconnects", 0) < 1:
                    fail(f"no disconnect seen: {counters}")
                if counters.get("points_requeued", 0) < 1:
                    fail(f"crashed lease never requeued: {counters}")
                finisher = svc.scheduler.points[hang_digest].worker
                if finisher != "survivor":
                    fail(f"hang point finished by {finisher!r}")
                svc.seal()
            finally:
                for proc in (victim, survivor):
                    if proc is not None and proc.poll() is None:
                        kill_worker(proc)
        print(
            "serve_smoke: crashed lease requeued and completed by survivor"
        )

        store = ResultStore(store_root)
        manifest = store.load_manifest()
        done = [
            d for d, p in manifest["points"].items() if p["status"] == "done"
        ]
        if len(done) != len(LOADS):
            fail(f"manifest after drain: {manifest}")
        workers_used = {manifest["points"][d].get("worker") for d in done}
        if not workers_used <= {"victim", "survivor"}:
            fail(f"unattributed workers in manifest: {workers_used}")
        check_slot_forks(store, "distributed drain", workers=2)
        rebuilt = store.manifest_rebuild()
        if set(rebuilt["points"]) != set(manifest["points"]):
            fail("manifest_rebuild lost or invented points")
        print(
            "serve_smoke: manifest consistent and rebuildable "
            f"(workers: {sorted(workers_used)})"
        )

        ours, theirs = artifact_bytes(store), artifact_bytes(reference)
        if ours.keys() != theirs.keys():
            fail(
                f"artifact sets differ: {sorted(ours)} vs {sorted(theirs)}"
            )
        for name in theirs:
            if ours[name] != theirs[name]:
                fail(f"artifact {name} differs from single-host run")
        print("serve_smoke: store bit-identical to single-host campaign")

        resumed = CampaignRunner(store, max_workers=1).run_sweep(cfg, LOADS)
        if resumed.resumed != len(LOADS) or resumed.executed != 0:
            fail(
                f"resume over drained store: resumed={resumed.resumed} "
                f"executed={resumed.executed}"
            )
        if resumed.sweep != run_load_sweep(cfg, LOADS):
            fail("resumed sweep is not bit-identical to the direct sweep")
        print("serve_smoke: resumed sweep bit-identical to direct sweep")

    elapsed = time.monotonic() - started
    print(f"serve_smoke: OK ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
