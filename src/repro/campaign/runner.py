"""Checkpointed, fault-tolerant campaign execution.

:class:`CampaignRunner` wraps the sweep paths of :mod:`repro.metrics` with
the durability a multi-hundred-point figure regeneration needs:

* every completed point is persisted to a :class:`~repro.campaign.store.
  ResultStore` the moment it finishes (written atomically *by the worker
  process itself*, so a parent crash loses nothing);
* each point runs in a killable **slot** process with a configurable
  **wall-clock timeout** — a hung simulation is terminated and its slot
  replaced instead of wedging the whole sweep.  Slots are persistent
  (:class:`~repro.metrics.sweep.SlotPool`), fed point after point, so a
  campaign pays one fork per worker; a kill on a timeout or a slot's
  death costs that one attempt and nothing else;
* failures **retry with exponential backoff**, and a point that exhausts
  its retries degrades to a structured
  :class:`~repro.campaign.store.PointFailure` in the manifest while every
  sibling point keeps running;
* re-invoking the same campaign **resumes**: points already in the store
  are loaded instead of re-run.  Simulations are deterministic given their
  config (seed included), so a resumed campaign's merged
  :class:`~repro.metrics.sweep.SweepResult` is bit-identical to an
  uninterrupted run's.

Both fresh and resumed points are materialized *through the store* (the
slot writes the artifact, the parent loads it back), so the merged sweep
never depends on which side of an interruption a point ran on.

Retry/timeout/resume activity and the number of slot processes started
(``campaign/slot_forks``) are counted on a live
:class:`~repro.obs.registry.MetricsRegistry` (``campaign/*`` counters) and
journaled into the manifest, where ``repro campaign status`` reads it.
Each drain changes the manifest only by journal records under its own
writer id, folded with the store's one rule set (:meth:`~repro.campaign.
store.ResultStore.fold`), so ``manifest_rebuild`` restores all of it.

One point job and one retry rule serve every backend: :func:`drive` runs
:func:`_point_worker` (which replies ``None`` or the point's error) on a
pool's slots straight into a store, and applies the timeout kill, the
backoff and the give-up decision.  :meth:`CampaignRunner.run_points` drives
a batch on a pool it owns for the call (or one lent through ``pool=``); the
campaign service's local slots and TCP workers (:mod:`repro.campaign.
service`) each hold a pool for their lifetime and drive one leased point at
a time (:func:`~repro.campaign.service.executor.run_lease`).
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Optional, Sequence

from repro.config import SimulationConfig
from repro.campaign.store import (
    PointFailure, ResultStore, StoredPoint, cleared_record, count_record,
    done_record, failed_record, new_writer_id,
)
from repro.faults import (
    DIR_ENV_VAR,
    ENV_VAR,
    MATCH_ENV_VAR,
    active_faults,
    first_trigger,
    point_fault_matches,
)
from repro.metrics.stats import RunResult
from repro.metrics.sweep import SlotPool, SweepResult, available_cpus, run_point
from repro.obs.registry import MetricsRegistry

__all__ = ["CampaignRunner", "CampaignSweep", "drive", "run_sweep"]

#: how long a hang-point fault sleeps — far past any sane per-point timeout
_HANG_SECONDS = 3600.0

#: upper bound on one scheduler wait; the real wake signal is the slot pipes
#: (zero-CPU blocking wait, instant wake on a reply or a slot's death),
#: this only caps how stale a timeout/backoff deadline check can get
_MAX_WAIT_SECONDS = 0.25

#: the fault variables every job carries (see :func:`_point_worker`)
_FAULT_ENV = (ENV_VAR, MATCH_ENV_VAR, DIR_ENV_VAR)


def _apply_point_faults(config: SimulationConfig) -> None:
    """Arm the campaign-level injected faults (test-only; see repro.faults)."""
    faults = active_faults()
    if not faults:
        return
    label = config.label()
    if not point_fault_matches(label):
        return
    if "crash-point" in faults:
        raise RuntimeError(f"injected crash-point for {label}")
    if "flaky-point" in faults and first_trigger("flaky-point", label):
        raise RuntimeError(f"injected flaky-point (first attempt) for {label}")
    if "hang-point" in faults and first_trigger("hang-point", label):
        time.sleep(_HANG_SECONDS)


def _point_worker(
    store_root: str, schema_version: int, config: SimulationConfig,
    fault_env: dict,
) -> Optional[str]:
    """Run one point to completion and persist it (slot-process side).

    ``fault_env`` are the fault variables as the parent had them at submit
    time, so a slot forked before a test armed a fault still honours it.
    The slot writes the artifact itself — atomically — so the result is
    durable even if the parent dies before collecting it.  Returns
    ``None``, or the failure as ``"Type: message"``.
    """
    for name, value in fault_env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    try:
        _apply_point_faults(config)
        ResultStore(store_root, schema_version=schema_version).write(
            config, *run_point(config)
        )
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return f"{type(exc).__name__}: {exc}"
    return None


@dataclass
class _Task:
    index: int
    config: SimulationConfig
    digest: str
    attempts: int = 0
    eligible_at: float = 0.0  #: monotonic time before which it must not run
    error: Optional[str] = None  #: why the last attempt failed
    kind: str = "error"  #: "error" (raised or died) or "timeout" (killed)

    @property
    def identity(self) -> tuple:
        """``(digest, label, load, seed)``: how journal records name it."""
        return self.digest, self.config.label(), self.config.load, self.config.seed


@dataclass
class _Running:
    task: _Task
    slot: _Slot
    deadline: Optional[float]


def drive(
    policy,
    store: ResultStore,
    pool: SlotPool,
    tasks: deque[_Task],
    note: Callable[[str, _Task], None],
    *,
    workers: int = 1,
    budget: Optional[int] = None,
) -> int:
    """Run ``tasks`` through :func:`_point_worker` on ``pool``'s slots,
    writing into ``store``: the one retry rule of every campaign backend.

    ``policy`` carries ``retries``, ``backoff_s`` and ``timeout_s`` (see
    :class:`CampaignRunner`).  An attempt past ``timeout_s`` has its slot
    killed; a failed attempt *n* waits ``backoff_s * 2**(n-1)`` and runs
    again while *n* ≤ ``retries``, after which the point gives up.  At
    most ``workers`` attempts run at once, and only ``budget`` fresh points
    start (``None``: all).  ``note(event, task)`` hears ``slot_forks``,
    ``timeouts``, ``retries``, ``done`` and ``failed`` (``task.error`` and
    ``task.kind`` say why).  Returns how many points were not attempted.
    """
    running: list[_Running] = []
    waiting: list[_Task] = []
    skipped = started = 0

    def dispatch() -> None:
        nonlocal skipped, started
        while tasks and len(running) < workers:
            task = tasks.popleft()
            if task.attempts == 0:
                # retries always finish; only *fresh* points consume the
                # interruption budget
                if budget is not None and started >= budget:
                    skipped += 1
                    continue
                started += 1
            task.attempts += 1
            forks = pool.forks
            slot = pool.acquire()
            if pool.forks != forks:
                note("slot_forks", task)
            slot.submit(
                _point_worker, str(store.root), store.schema_version,
                task.config, {name: os.environ.get(name) for name in _FAULT_ENV},
            )
            deadline = (
                None if policy.timeout_s is None
                else time.monotonic() + policy.timeout_s
            )
            running.append(_Running(task=task, slot=slot, deadline=deadline))

    def failed(task: _Task, error: str, kind: str) -> None:
        task.error, task.kind = error, kind
        if kind == "timeout":
            note("timeouts", task)
        if task.attempts <= policy.retries:
            note("retries", task)
            task.eligible_at = time.monotonic() + policy.backoff_s * (
                2 ** (task.attempts - 1)
            )
            waiting.append(task)
        else:
            note("failed", task)

    while tasks or waiting or running:
        now = time.monotonic()
        still_waiting = []
        for task in waiting:
            if now >= task.eligible_at:
                tasks.append(task)
            else:
                still_waiting.append(task)
        waiting = still_waiting

        dispatch()

        if not running:
            if waiting:
                # everything left is backing off: sleep to the deadline
                time.sleep(max(0.0, min(t.eligible_at for t in waiting) - now))
                continue
            break

        progressed = False
        now = time.monotonic()
        for entry in list(running):
            task, slot = entry.task, entry.slot
            if not slot.poll():
                if entry.deadline is not None and now >= entry.deadline:
                    pool.retire(slot)
                    running.remove(entry)
                    progressed = True
                    failed(
                        task,
                        f"point exceeded {policy.timeout_s:g}s wall-clock "
                        f"timeout; worker killed",
                        "timeout",
                    )
                continue
            try:
                error = slot.reply()
            except ChildProcessError:
                error = (
                    f"worker exited with code {pool.retire(slot)} "
                    f"without writing a result"
                )
            else:
                pool.release(slot)
            running.remove(entry)
            progressed = True
            # the freed slot starts its next point before this one is
            # loaded back and recorded, so the two overlap
            dispatch()
            if error is None:
                task.error = None
                note("done", task)
            else:
                failed(task, error, "error")
        if not progressed:
            # block until a slot reports (pipe readable) or dies (EOF /
            # sentinel), or the next deadline — timeout or backoff
            # eligibility — comes due; no polling, so an idle parent
            # costs no worker CPU
            now = time.monotonic()
            due = [_MAX_WAIT_SECONDS]
            due.extend(e.deadline - now for e in running if e.deadline is not None)
            due.extend(t.eligible_at - now for t in waiting)
            _connection_wait(
                [e.slot.conn for e in running]
                + [e.slot.process.sentinel for e in running],
                timeout=max(0.0, min(due)),
            )
    return len(tasks) + len(waiting) + skipped


@dataclass
class CampaignSweep:
    """Outcome of one campaign sweep invocation.

    ``sweep`` holds the merged results of every *completed* point (resumed
    or freshly run) in load order; degraded points appear in ``failures``
    (and on ``sweep.failures``) instead of aborting the run.
    """

    sweep: SweepResult
    failures: list[PointFailure] = field(default_factory=list)
    resumed: int = 0  #: points skipped because the store already had them
    executed: int = 0  #: points run to completion this invocation
    remaining: int = 0  #: points not attempted (interrupted via max_points)


def run_sweep(
    runner,
    base: SimulationConfig,
    loads: Sequence[float],
    label: str = "",
    *,
    progress: Callable[[SimulationConfig, RunResult], None] | None = None,
) -> CampaignSweep:
    """One load sweep through ``runner.run_points``, merged in load order.

    Returns the merged sweep over every completed point; raises only on
    store-level problems (schema mismatch), never on point failures.
    """
    configs = [base.replace(load=load) for load in loads]
    out = runner.run_points(configs, progress=progress)
    completed: dict[int, StoredPoint] = out["completed"]
    done = sorted(completed)
    sweep = SweepResult.from_points(
        base,
        [loads[i] for i in done],
        [(completed[i].result, completed[i].obs) for i in done],
        label,
        out["failures"],
    )
    return CampaignSweep(
        sweep, out["failures"], out["resumed"], out["executed"], out["remaining"]
    )


class CampaignRunner:
    """Drives configs through killable slot processes against a result store.

    Parameters
    ----------
    store:
        The :class:`~repro.campaign.store.ResultStore` (or a path to one).
    retries:
        Re-attempts per point after the first failure (default 2).
    backoff_s:
        Base of the exponential retry backoff: attempt *n* waits
        ``backoff_s * 2**(n-1)`` before respawning (default 0.25 s).
    timeout_s:
        Per-point wall-clock budget; a slot past it is killed and the
        attempt counts as a (retryable) timeout.  ``None`` disables.
    max_workers:
        Concurrent slot processes (default: every CPU this process may run
        on — the scheduler blocks on the slot pipes, so it needs no core of
        its own).
    max_points:
        Stop scheduling after this many fresh point executions — an
        explicit interruption hook (``repro campaign run --max-points``,
        the resume tests).  ``None`` runs everything.
    registry:
        Live metrics registry for the ``campaign/*`` counters (a fresh one
        is created when omitted; never the null registry — campaign
        accounting is part of the durable record, not optional telemetry).
    """

    def __init__(
        self,
        store: ResultStore | str,
        *,
        retries: int = 2,
        backoff_s: float = 0.25,
        timeout_s: Optional[float] = None,
        max_workers: Optional[int] = None,
        max_points: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.workers = max(1, max_workers or available_cpus())
        self.max_points = max_points
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- public API --------------------------------------------------------------
    def run_sweep(self, base, loads, label="", *, progress=None) -> CampaignSweep:
        """Checkpointed drop-in for ``run_load_sweep``; see :func:`run_sweep`."""
        return run_sweep(self, base, loads, label, progress=progress)

    def run_points(
        self,
        configs: Sequence[SimulationConfig],
        *,
        progress: Callable[[SimulationConfig, RunResult], None] | None = None,
        pool: Optional[SlotPool] = None,
    ) -> dict:
        """Run an arbitrary batch of configs through the store.

        Points run on ``pool``'s slots when the caller brings one (it stays
        open, so the next call reuses the processes); otherwise on a pool
        that lives for this call.

        Returns ``{"completed": {index: StoredPoint}, "failures": [...],
        "resumed": n, "executed": n, "remaining": n}``.
        """
        if pool is not None:
            return self._drain(configs, pool, progress)
        with SlotPool() as own:
            return self._drain(configs, own, progress)

    def _drain(
        self,
        configs: Sequence[SimulationConfig],
        pool: SlotPool,
        progress: Callable[[SimulationConfig, RunResult], None] | None,
    ) -> dict:
        manifest = self.store.load_manifest()  # schema-checked
        writer = new_writer_id()

        def record(entry: dict, save: bool = True) -> None:
            self.store.fold(writer, manifest, entry)
            if save:
                self.store.save_manifest(manifest)

        self.registry.counter("campaign/points_total").inc(len(configs))

        completed: dict[int, StoredPoint] = {}
        failures: list[PointFailure] = []
        tasks: deque[_Task] = deque()
        for index, config in enumerate(configs):
            task = _Task(index=index, config=config, digest=self.store.digest(config))
            listed = manifest["points"].get(task.digest, {}).get("status") == "done"
            point = self.store.find(config, task.digest)
            if point is not None:
                completed[index] = point
                if not listed:
                    record(done_record(*task.identity, resumed=True), save=False)
            else:
                if listed:  # its artifact is gone: the entry must not stay done
                    record(cleared_record(task.digest), save=False)
                tasks.append(task)
        resumed = len(completed)
        if resumed:
            self.registry.counter("campaign/points_resumed").inc(resumed)
            record(count_record("resumed", resumed), save=False)
        self.store.save_manifest(manifest)

        def note(event: str, task: _Task) -> None:
            if event == "done":
                point = self.store.load(task.config, task.digest)
                completed[task.index] = point
                self.registry.counter("campaign/points_executed").inc()
                record(done_record(*task.identity, attempts=task.attempts))
                if progress is not None:
                    progress(task.config, point.result)
            elif event == "failed":
                digest, label, load, seed = task.identity
                failure = PointFailure(
                    label, digest, load, seed, task.error, task.attempts, task.kind
                )
                failures.append(failure)
                self.registry.counter("campaign/failures").inc()
                record(failed_record(**failure.to_json()))
            else:  # slot_forks / timeouts / retries
                self.registry.counter(f"campaign/{event}").inc()
                record(count_record(event), save=event == "retries")

        remaining = drive(
            self, self.store, pool, tasks, note,
            workers=self.workers, budget=self.max_points,
        )
        self.store.save_manifest(manifest)
        return {
            "completed": completed,
            "failures": failures,
            "resumed": resumed,
            "executed": len(completed) - resumed,
            "remaining": remaining,
        }
