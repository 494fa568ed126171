"""Load sweeps and saturation detection.

Every figure in the paper is a sweep of normalized offered load.  The
sweep harness runs one simulation per load point, collects the
:class:`~repro.metrics.stats.RunResult` series, and estimates the
*saturation load* — the offered load beyond which delivered throughput
stops tracking the offered load (shown as a vertical dashed line in the
paper's figures).

The points of a sweep are independent: each depends only on its config.
:func:`fan_out` spreads them over the available CPUs (the default way an
experiment sweep runs, through :class:`FanOut`); :func:`run_load_sweep`
is the serial in-process reference.  Both run each point through
:func:`run_point`, so the worker count never changes a result.
:class:`SlotPool` is the one way a point runs in another process: the
fan-out's forked stripes and every campaign backend's point slots.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from repro.config import SimulationConfig
from repro.metrics.stats import RunResult
from repro.obs.registry import merge_snapshots

__all__ = [
    "SweepResult", "run_load_sweep", "obs_rollup",
    "run_point", "fan_out", "FanOut", "available_cpus", "SlotPool",
]

#: one finished point: its result and its observability snapshot (``None``
#: at ``obs_level=0``)
Point = tuple[RunResult, Optional[dict]]


def obs_rollup(
    loads: Sequence[float], snapshots: Sequence[Optional[dict]]
) -> Optional[dict]:
    """Fold per-point observability snapshots into a sweep rollup.

    Returns ``None`` when every point ran with observability disabled
    (``obs_level=0`` produces no snapshot), otherwise a dict with

    * ``"sweep"`` — all point snapshots merged via
      :func:`repro.obs.registry.merge_snapshots` (counters / histogram bins
      / phase times sum, gauges take the max), and
    * ``"points"`` — the raw per-load snapshots, keyed by the load value
      formatted with ``%g``.
    """
    kept = [(load, s) for load, s in zip(loads, snapshots) if s is not None]
    if not kept:
        return None
    return {
        "sweep": merge_snapshots([s for _, s in kept]),
        "points": {f"{load:g}": s for load, s in kept},
    }


@dataclass
class SweepResult:
    """Results of a load sweep for one configuration family."""

    label: str
    loads: list[float]
    results: list[RunResult]
    capacity: float
    #: observability rollup (see :func:`obs_rollup`); ``None`` unless the
    #: sweep ran with ``obs_level >= 1``
    obs: Optional[dict] = field(default=None, compare=False)
    #: degraded points (:class:`repro.campaign.store.PointFailure`): loads a
    #: campaign could not complete after exhausting retries.  Such loads are
    #: absent from ``loads``/``results``; always empty outside campaigns.
    failures: list = field(default_factory=list, compare=False)

    @classmethod
    def from_points(
        cls,
        base: SimulationConfig,
        loads: Sequence[float],
        points: Sequence[Point],
        label: str = "",
        failures: Sequence = (),
    ) -> "SweepResult":
        """The sweep of ``base`` whose point at ``loads[i]`` is ``points[i]``."""
        from repro.network.simulator import build_topology

        return cls(
            label=label or base.label(),
            loads=list(loads),
            results=[result for result, _ in points],
            capacity=build_topology(base).capacity_flits_per_node_cycle,
            obs=obs_rollup(loads, [snapshot for _, snapshot in points]),
            failures=list(failures),
        )

    @property
    def deadlock_counts(self) -> list[int]:
        return [r.deadlocks for r in self.results]

    @property
    def deadlock_set_sizes(self) -> list[float]:
        return [r.avg_deadlock_set_size for r in self.results]

    @property
    def resource_set_sizes(self) -> list[float]:
        return [r.avg_resource_set_size for r in self.results]

    @property
    def blocked_fractions(self) -> list[float]:
        return [r.avg_blocked_fraction for r in self.results]

    @property
    def throughputs(self) -> list[float]:
        return [r.normalized_throughput(self.capacity) for r in self.results]

    @property
    def saturation_load(self) -> Optional[float]:
        """First load at which delivered throughput falls visibly short.

        Estimated as the first load point whose normalized accepted
        throughput is below 92% of the offered load; ``None`` when the
        network keeps up across the whole sweep.
        """
        for load, thr in zip(self.loads, self.throughputs):
            if load > 0 and thr < 0.92 * load:
                return load
        return None

    def at_load(self, load: float) -> RunResult:
        idx = self.loads.index(load)
        return self.results[idx]

    def rows(self) -> list[dict]:
        """Table rows for report printing (one dict per load point)."""
        out = []
        for load, r in zip(self.loads, self.results):
            out.append(
                {
                    "load": load,
                    "throughput": r.normalized_throughput(self.capacity),
                    "delivered": r.delivered_total,
                    "deadlocks": r.deadlocks,
                    "norm_deadlocks": r.normalized_deadlocks,
                    "avg_deadlock_set": r.avg_deadlock_set_size,
                    "avg_resource_set": r.avg_resource_set_size,
                    "avg_knot_density": r.avg_knot_cycle_density,
                    "avg_cycles": r.avg_cycle_count,
                    "blocked_pct": 100 * r.avg_blocked_fraction,
                    "in_network": r.avg_messages_in_network,
                    "latency": r.avg_latency,
                }
            )
        return out


def run_point(config: SimulationConfig) -> Point:
    """Run one point to completion: every sweep path runs its points here.

    The import lives inside the function to avoid a circular import with
    the simulator module, which imports :mod:`repro.metrics.stats`.
    """
    from repro.network.simulator import NetworkSimulator

    sim = NetworkSimulator(config)
    result = sim.run()
    return result, sim.obs.snapshot()


def run_load_sweep(
    base: SimulationConfig,
    loads: Sequence[float],
    label: str = "",
    *,
    progress: Callable[[float, RunResult], None] | None = None,
) -> SweepResult:
    """Run ``base`` at each load, one after another in this process, and
    collect the results: the serial reference every other path must match."""
    points = []
    for load in loads:
        result, snapshot = run_point(base.replace(load=load))
        points.append((result, snapshot))
        if progress is not None:
            progress(load, result)
    return SweepResult.from_points(base, loads, points, label)


def available_cpus() -> int:
    """The CPUs this process may run on: the default worker count of both
    :func:`fan_out` and the campaign runner."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def fan_out(
    configs: Sequence[SimulationConfig], max_workers: Optional[int] = None
) -> list[Point]:
    """``[run_point(c) for c in configs]``, spread over forked processes.

    ``W = min(len(configs), max_workers or available_cpus())`` processes
    share the points.  The caller runs points ``0, W, 2W, ...`` itself;
    slot ``k`` of a :class:`SlotPool` runs ``_stripe(configs, k, W)``, the
    points ``k, k + W, ...``, and replies them.  With ``W == 1``, on a
    platform that cannot fork, or while other threads run, every point
    runs in this process (so a monkeypatched engine sees every pass).

    A failing point ends its stripe.  If the caller's own stripe raises,
    the slots are killed and that failure propagates; otherwise the first
    failure in point order is re-raised here with its own type and
    message, its traceback in the slot attached as the cause.  Either way
    every slot is reaped before this returns.
    """
    configs = list(configs)
    workers = min(len(configs), max_workers or available_cpus())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        # a fork copies the locks other threads hold, never their release
        return [run_point(config) for config in configs]
    points: list = [None] * len(configs)
    failures = []
    with SlotPool() as pool:  # closing kills the slots if this stripe raises
        slots = []
        for k in range(1, workers):
            slots.append(pool.acquire())
            slots[-1].submit(_stripe, configs, k, workers)
        points[::workers] = [run_point(c) for c in configs[::workers]]
        for k, slot in enumerate(slots, start=1):
            try:
                done, failure = slot.reply()
            except ChildProcessError:
                failures.append((k, ChildProcessError(
                    f"fan-out worker for points {k}, {k + workers}, ... of "
                    f"{len(configs)} exited without a result"
                ), ""))
                continue
            pool.release(slot)
            points[k:k + len(done) * workers:workers] = done
            if failure is not None:
                failures.append(failure)
    if failures:
        _, exc, trace = min(failures, key=lambda failure: failure[0])
        raise exc from (_RemoteTraceback(trace) if trace else None)
    return points


class _RemoteTraceback(Exception):
    """A slot's traceback text, chained as a re-raised failure's cause."""


def _stripe(
    configs: list[SimulationConfig], k: int, workers: int
) -> tuple[list[Point], Optional[tuple]]:
    """Slot side of :func:`fan_out`: run points ``k, k + workers, ...``.

    Returns the finished points and ``None``, or, when a point raised, the
    points before it and ``(index, exception, traceback text)``.  An
    exception the parent could not unpickle travels as a ``RuntimeError``
    naming its type and message.
    """
    import pickle
    import traceback

    done: list[Point] = []
    try:
        for i in range(k, len(configs), workers):
            done.append(run_point(configs[i]))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # noqa: BLE001
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return done, (k + len(done) * workers, exc, traceback.format_exc())
    return done, None


#: the parent-side pipe end of every live slot of this process, whichever
#: pool owns it: a forked slot copies them all and must close them all, or
#: it keeps a sibling's pipe open and hides this process's death (EOF) from
#: that sibling.  The lock serializes pipe creation + fork across pools, so
#: no slot is forked while a sibling's pipe is half set up.
_PARENT_ENDS: set = set()
_FORK_LOCK = threading.Lock()


def _slot_main(conn, inherited) -> None:
    """Slot-process entry: receive ``(fn, args)``, reply ``fn(*args)``, repeat.

    A job reports its own failure in its reply; one that raises ends the
    slot, which the parent reads as a death without a reply.
    ``inherited`` are the parent-side pipe ends this fork copied (its own
    and every sibling's).  Closing them first means a SIGKILLed parent
    reads as EOF on every slot's pipe, so none outlives it.
    """
    for end in inherited:
        end.close()
    try:
        while True:
            try:
                fn, args = conn.recv()
            except EOFError:  # pool closed, or the parent is gone
                return
            reply = fn(*args)
            try:
                conn.send(reply)
            except OSError:  # the parent died while the job ran
                return
    except KeyboardInterrupt:
        return  # ^C reaches the whole process group; the parent reports it


class _Slot:
    """One long-lived job process and the parent's end of its pipe."""

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

    def submit(self, fn: Callable, *args) -> None:
        """Start the job ``fn(*args)``; :meth:`reply` returns its value."""
        try:
            self.conn.send((fn, args))
        except OSError:
            pass  # died while idle: poll() reports it

    def poll(self) -> bool:
        """Whether the job is over: the slot replied, or its process died."""
        try:
            return self.conn.poll() or not self.process.is_alive()
        except OSError:  # the pool was closed under the job
            return True

    def reply(self):
        """Wait for the job to end and return its value; raises
        :class:`ChildProcessError` if the process died without one."""
        from multiprocessing.connection import wait

        try:
            wait([self.conn, self.process.sentinel])
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        raise ChildProcessError(f"slot {self.process.pid} died without a reply")

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
    """Persistent job processes, reused across jobs (:func:`fan_out` and
    :class:`~repro.campaign.runner.CampaignRunner` run on them).

    A slot is forked lazily — on the first :meth:`acquire` that finds no
    idle live slot — and then loops over jobs, so a campaign pays one fork
    per *worker*, not per point.  :meth:`retire` kills one slot that
    overran its timeout (or collects one that died), not its siblings.
    ``forks`` counts the processes started so far.

    Like any fork, a slot also copies every other descriptor its parent
    has open and keeps it until the slot exits — for the pool's lifetime,
    not one job's — so close the pool before a socket whose peer should
    see it closed (:class:`~repro.campaign.service.worker.WorkerSession`
    does).

    Thread-safe: the campaign service closes a pool from its event loop
    while an executor thread may still be driving a point through it;
    :meth:`close` then kills the busy slot, and the thread's next
    :meth:`acquire` raises instead of forking into a closed pool.
    """

    def __init__(self) -> None:
        # imported here, so ``import repro`` loads no process machinery
        from multiprocessing import get_context

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
        """Hand back a slot that replied; it idles for the next job."""
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


class FanOut:
    """The sweep runner surface over :func:`fan_out` (see
    :func:`~repro.experiments.base.set_campaign_runner`): how an experiment
    sweep runs when no campaign is installed.  ``max_workers`` caps the
    worker count (``repro experiment --workers N``)."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def run_sweep(
        self, base: SimulationConfig, loads: Sequence[float], label: str = ""
    ) -> SimpleNamespace:
        points = fan_out([base.replace(load=load) for load in loads], self.max_workers)
        return SimpleNamespace(sweep=SweepResult.from_points(base, loads, points, label))
