"""Checkpointed, fault-tolerant campaign execution.

:class:`CampaignRunner` wraps the sweep paths of :mod:`repro.metrics` with
the durability a multi-hundred-point figure regeneration needs:

* every completed point is persisted to a :class:`~repro.campaign.store.
  ResultStore` the moment it finishes (written atomically *by the worker
  process itself*, so a parent crash loses nothing);
* each point runs in a killable **slot** process with a configurable
  **wall-clock timeout** — a hung simulation is terminated and its slot
  replaced instead of wedging the whole sweep.  Slots are persistent
  (:class:`SlotPool`): forked lazily on the first job, then fed point
  after point over a pipe, so a campaign pays one fork and one process
  teardown per worker rather than per point; a slot is retired by kill
  only on a timeout or when its process dies, which costs that one
  attempt and nothing else;
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

The one slot implementation serves every backend: :meth:`CampaignRunner.
run_points` owns a pool for the call, and the campaign service's local
slots and TCP workers (:mod:`repro.campaign.service`) each hold one for
their lifetime and lend it to ``run_points(..., pool=...)``.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
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
from repro.metrics.sweep import SweepResult, available_cpus, run_point
from repro.obs.registry import MetricsRegistry

__all__ = ["CampaignRunner", "CampaignSweep", "SlotPool", "run_sweep"]

#: how long a hang-point fault sleeps — far past any sane per-point timeout
_HANG_SECONDS = 3600.0

#: upper bound on one scheduler wait; the real wake signal is the slot pipes
#: (zero-CPU blocking wait, instant wake on a verdict or a slot's death),
#: this only caps how stale a timeout/backoff deadline check can get
_MAX_WAIT_SECONDS = 0.25

#: every job carries these, so a slot forked before a test armed a fault
#: still honours it
_FAULT_ENV = (ENV_VAR, MATCH_ENV_VAR, DIR_ENV_VAR)

#: the parent-side pipe end of every live slot of this process, whichever
#: pool owns it: a forked slot copies them all and must close them all, or
#: it keeps a sibling's pipe open and hides this process's death (EOF) from
#: that sibling.  The lock serializes pipe creation + fork across pools, so
#: no slot is forked while a sibling's pipe is half set up.
_PARENT_ENDS: set = set()
_FORK_LOCK = threading.Lock()


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
    store_root: str, schema_version: int, config: SimulationConfig
) -> bool:
    """Run one point to completion and persist it (slot-process side).

    The slot writes the artifact itself — atomically — so the result is
    durable even if the parent dies before collecting it.  Failures land in
    a sidecar error file the parent consumes to label the retry.  Returns
    whether the artifact was written.
    """
    store = ResultStore(store_root, schema_version=schema_version)
    digest = store.digest(config)
    try:
        _apply_point_faults(config)
        store.write(config, *run_point(config))
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        store.write_error(
            digest, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        )
        return False
    return True


def _slot_main(conn, inherited) -> None:
    """Slot-process entry: recv job → run the point → send the verdict.

    ``inherited`` are the parent-side pipe ends this fork copied (its own
    and every sibling's).  Closing them first means a SIGKILLed parent
    reads as EOF on every slot's pipe, so none outlives the campaign.
    """
    for end in inherited:
        end.close()
    try:
        while True:
            try:
                store_root, schema_version, config, fault_env = conn.recv()
            except EOFError:  # pool closed, or the parent is gone
                return
            for name, value in fault_env.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            verdict = _point_worker(store_root, schema_version, config)
            try:
                conn.send(verdict)
            except OSError:  # the parent died while the point ran
                return
    except KeyboardInterrupt:
        return  # ^C reaches the whole process group; the parent reports it


class _Slot:
    """One long-lived point process and the parent's end of its pipe."""

    def __init__(self, ctx) -> None:
        with _FORK_LOCK:
            self.conn, child_end = ctx.Pipe()
            _PARENT_ENDS.add(self.conn)
            inherited = (
                list(_PARENT_ENDS) if ctx.get_start_method() == "fork" else []
            )
            self.process = ctx.Process(
                target=_slot_main, args=(child_end, inherited), daemon=True
            )
            self.process.start()
            child_end.close()

    def submit(self, store: ResultStore, config: SimulationConfig) -> None:
        fault_env = {name: os.environ.get(name) for name in _FAULT_ENV}
        try:
            self.conn.send(
                (str(store.root), store.schema_version, config, fault_env)
            )
        except OSError:
            pass  # died while idle: poll() reports it

    def poll(self) -> Optional[bool]:
        """``None`` while the point runs, ``True`` once the slot reported a
        verdict, ``False`` when its process died without one."""
        try:
            if self.conn.poll():
                self.conn.recv()
                return True
        except (EOFError, OSError):
            return False
        return None if self.process.is_alive() else False

    def reap(self) -> Optional[int]:
        """Close the pipe (an idle slot exits on the EOF), make sure the
        process is gone, and return its exit code."""
        self.conn.close()
        with _FORK_LOCK:
            _PARENT_ENDS.discard(self.conn)
        self.process.join(0.5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        return self.process.exitcode


class SlotPool:
    """Persistent point-worker processes, reused across points.

    A slot is forked lazily — on the first :meth:`acquire` that finds no
    idle live slot — and then loops over jobs, so a campaign pays one fork
    and one process teardown per *worker*, not per point.  A slot stays
    individually killable: :meth:`retire` terminates one that overran its
    timeout (or collects one that died) without touching its siblings.
    ``forks`` counts the processes started so far.

    Like any fork, a slot also copies every other descriptor its parent
    has open and keeps it until the slot exits — now for the pool's
    lifetime, not one point's — so close the pool before a socket whose
    peer should see it closed (:class:`~repro.campaign.service.worker.
    WorkerSession` does).

    Thread-safe: the campaign service closes a pool from its event loop
    while an executor thread may still be driving a point through it;
    :meth:`close` then kills the busy slot, and the thread's next
    :meth:`acquire` raises instead of forking into a closed pool.
    """

    def __init__(self) -> None:
        # fork keeps slot start cheap; spawn is the portable fallback
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = get_context()
        self._lock = threading.Lock()
        self._idle: list[_Slot] = []
        self._busy: set[_Slot] = set()
        self._closed = False
        self.forks = 0

    def __enter__(self) -> "SlotPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def acquire(self) -> _Slot:
        """An idle live slot, or a freshly forked one."""
        with self._lock:
            if self._closed:
                raise RuntimeError("slot pool is closed")
            while self._idle:
                slot = self._idle.pop()
                if slot.process.is_alive():
                    break
                slot.reap()  # died while idle
            else:
                slot = _Slot(self._ctx)
                self.forks += 1
            self._busy.add(slot)
            return slot

    def release(self, slot: _Slot) -> None:
        """Hand back a slot whose point reported; it idles for the next job."""
        with self._lock:
            self._busy.discard(slot)
            if not self._closed:
                self._idle.append(slot)
                return
        slot.reap()

    def retire(self, slot: _Slot) -> Optional[int]:
        """Kill a slot past its timeout, or collect one that died; returns
        the exit code.  The next :meth:`acquire` forks its replacement."""
        with self._lock:
            self._busy.discard(slot)
        slot.process.terminate()
        return slot.reap()

    def close(self) -> None:
        """Stop every slot: idle ones exit on EOF, busy ones are killed."""
        with self._lock:
            self._closed = True
            idle, busy = self._idle, list(self._busy)
            self._idle, self._busy = [], set()
        for slot in idle:
            slot.conn.close()  # all at once, so they exit in parallel
        for slot in busy:
            slot.process.terminate()
        for slot in (*idle, *busy):
            slot.reap()


@dataclass
class _Task:
    index: int
    config: SimulationConfig
    digest: str
    attempts: int = 0
    eligible_at: float = 0.0  #: monotonic time before which it must not run

    @property
    def identity(self) -> tuple:
        """``(digest, label, load, seed)``: how journal records name it."""
        return self.digest, self.config.label(), self.config.load, self.config.seed


@dataclass
class _Running:
    task: _Task
    slot: _Slot
    deadline: Optional[float]


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
            if self.store.has(config):
                completed[index] = self.store.load(config)
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

        executed = 0
        started = 0
        running: list[_Running] = []
        waiting: list[_Task] = []
        skipped: list[_Task] = []  # fresh points beyond the max_points budget

        def dispatch() -> None:
            nonlocal started
            while tasks and len(running) < self.workers:
                task = tasks.popleft()
                if task.attempts == 0:
                    # retries always finish; only *fresh* points consume the
                    # interruption budget
                    if self.max_points is not None and started >= self.max_points:
                        skipped.append(task)
                        continue
                    started += 1
                running.append(self._spawn(task, pool, record))

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
                    time.sleep(
                        max(0.0, min(t.eligible_at for t in waiting) - now)
                    )
                    continue
                break

            progressed = False
            now = time.monotonic()
            for entry in list(running):
                task, slot = entry.task, entry.slot
                reported = slot.poll()
                if reported is None:
                    if entry.deadline is not None and now >= entry.deadline:
                        pool.retire(slot)
                        running.remove(entry)
                        progressed = True
                        self.store.read_error(task.digest)  # drop stale sidecar
                        self._record_attempt_failure(
                            task,
                            error=(
                                f"point exceeded {self.timeout_s:g}s "
                                f"wall-clock timeout; worker killed"
                            ),
                            kind="timeout",
                            record=record,
                            tasks=waiting,
                            failures=failures,
                        )
                    continue
                exitcode = None
                if reported:
                    pool.release(slot)
                else:
                    exitcode = pool.retire(slot)
                running.remove(entry)
                progressed = True
                # the freed slot starts its next point before this one is
                # loaded back and recorded, so the two overlap
                dispatch()
                if self.store.has(task.config):
                    self.store.read_error(task.digest)  # drop stale sidecar
                    point = self.store.load(task.config)
                    completed[task.index] = point
                    executed += 1
                    self.registry.counter("campaign/points_executed").inc()
                    record(done_record(*task.identity, attempts=task.attempts))
                    if progress is not None:
                        progress(task.config, point.result)
                else:
                    err = self.store.read_error(task.digest) or {}
                    message = err.get(
                        "error",
                        f"worker exited with code {exitcode} "
                        f"without writing a result",
                    )
                    self._record_attempt_failure(
                        task,
                        error=message,
                        kind="error",
                        record=record,
                        tasks=waiting,
                        failures=failures,
                    )
            if not progressed:
                # block until a slot reports (pipe readable) or dies (EOF /
                # sentinel), or the next deadline — timeout or backoff
                # eligibility — comes due; no polling, so an idle parent
                # costs no worker CPU
                now = time.monotonic()
                due = [_MAX_WAIT_SECONDS]
                due.extend(
                    e.deadline - now
                    for e in running
                    if e.deadline is not None
                )
                due.extend(t.eligible_at - now for t in waiting)
                _connection_wait(
                    [e.slot.conn for e in running]
                    + [e.slot.process.sentinel for e in running],
                    timeout=max(0.0, min(due)),
                )

        remaining = len(tasks) + len(waiting) + len(skipped)
        self.store.save_manifest(manifest)
        return {
            "completed": completed,
            "failures": failures,
            "resumed": resumed,
            "executed": executed,
            "remaining": remaining,
        }

    # -- internals ---------------------------------------------------------------
    def _spawn(
        self, task: _Task, pool: SlotPool, record: Callable[..., None]
    ) -> _Running:
        task.attempts += 1
        forks = pool.forks
        slot = pool.acquire()
        if pool.forks != forks:
            self.registry.counter("campaign/slot_forks").inc()
            record(count_record("slot_forks"), save=False)
        slot.submit(self.store, task.config)
        deadline = (
            time.monotonic() + self.timeout_s
            if self.timeout_s is not None
            else None
        )
        return _Running(task=task, slot=slot, deadline=deadline)

    def _record_attempt_failure(
        self,
        task: _Task,
        *,
        error: str,
        kind: str,
        record: Callable[..., None],
        tasks: list[_Task],
        failures: list[PointFailure],
    ) -> None:
        """Route a failed attempt to backoff-retry or terminal degradation."""
        if kind == "timeout":
            self.registry.counter("campaign/timeouts").inc()
            record(count_record("timeouts"), save=False)
        if task.attempts <= self.retries:
            self.registry.counter("campaign/retries").inc()
            record(count_record("retries"))
            task.eligible_at = time.monotonic() + self.backoff_s * (
                2 ** (task.attempts - 1)
            )
            tasks.append(task)
            return
        failure = PointFailure(
            label=task.config.label(),
            digest=task.digest,
            load=task.config.load,
            seed=task.config.seed,
            error=error,
            attempts=task.attempts,
            kind=kind,
        )
        failures.append(failure)
        self.registry.counter("campaign/failures").inc()
        record(failed_record(**failure.to_json()))
