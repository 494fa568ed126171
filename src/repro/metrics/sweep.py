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
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, NoReturn, Optional, Sequence

from repro.config import SimulationConfig
from repro.metrics.stats import RunResult
from repro.obs.registry import merge_snapshots

__all__ = [
    "SweepResult", "run_load_sweep", "obs_rollup",
    "run_point", "fan_out", "FanOut", "available_cpus",
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
    forked child ``k`` runs ``k, k + W, ...`` and sends its pickled points
    back over a pipe.  With ``W == 1``, without ``os.fork``, or while other
    threads run, every point runs in this process (so a monkeypatched
    engine sees every pass).

    A failing point ends its stripe.  If the caller's own stripe raises,
    the children are killed and that failure propagates; otherwise the
    first failure in point order is re-raised here with its own type and
    message, its traceback in the child attached as the cause.  Either way
    every child is reaped before this returns.
    """
    configs = list(configs)
    workers = min(len(configs), max_workers or available_cpus())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        # a fork copies the locks other threads hold, never their release
        return [run_point(config) for config in configs]
    import pickle

    points: list = [None] * len(configs)
    children = []  #: (pid, read end of its pipe)
    replies = []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _stripe_child(configs, k, workers, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        for i in range(0, len(configs), workers):
            points[i] = run_point(configs[i])
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            with pipe:
                replies.append(pipe.read())
            os.waitpid(pid, 0)
    failures = []
    for k, reply in enumerate(replies, start=1):
        if not reply:
            failures.append((k, ChildProcessError(
                f"fan-out worker for points {k}, {k + workers}, ... of "
                f"{len(configs)} exited without a result"
            ), ""))
            continue
        done, failure = pickle.loads(reply)
        for i, point in zip(range(k, len(configs), workers), done):
            points[i] = point
        if failure is not None:
            failures.append(failure)
    if failures:
        _, exc, trace = min(failures, key=lambda failure: failure[0])
        raise exc from (_RemoteTraceback(trace) if trace else None)
    return points


class _RemoteTraceback(Exception):
    """A forked worker's traceback text, chained as a re-raised failure's
    cause."""


def _stripe_child(
    configs: list[SimulationConfig], k: int, workers: int, write_fd: int
) -> NoReturn:
    """A forked :func:`fan_out` worker: run stripe ``k``, write ``(points,
    failure)`` to the pipe, and leave through ``os._exit`` — never back into
    the caller's stack, its ``finally`` blocks or its atexit handlers."""
    try:
        import pickle
        import traceback

        done: list[Point] = []
        failure = None
        try:
            for i in range(k, len(configs), workers):
                done.append(run_point(configs[i]))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:  # only an exception the parent can unpickle keeps its type
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            failure = (k + len(done) * workers, exc, traceback.format_exc())
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL))
    finally:
        os._exit(0)


class FanOut:
    """The sweep runner surface over :func:`fan_out` (see
    :func:`~repro.experiments.base.set_campaign_runner`): how an experiment
    sweep runs when no campaign is installed.  ``max_workers`` caps the
    worker count (``repro experiment --workers N`` without ``--store``)."""

    store = None
    registry = None

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def run_sweep(
        self, base: SimulationConfig, loads: Sequence[float], label: str = ""
    ) -> SimpleNamespace:
        points = fan_out([base.replace(load=load) for load in loads], self.max_workers)
        return SimpleNamespace(sweep=SweepResult.from_points(base, loads, points, label))
