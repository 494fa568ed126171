"""Layer probes for the traced pass: per-layer metrics measured from outside.

Three sources, all public:

* **timing calls the harness makes itself** — spans from
  :mod:`benchmarks.e2e.trace` around constructors, runs, reports and
  campaign stages;
* **wrapping bound methods of objects the harness constructs** —
  ``sim.generator.tick``, ``sim.routing.candidates``,
  ``sim.detector.detect``, ``sim.stats.on_detection`` /
  ``finalize`` and (single-run workloads) ``sim.step`` get a timing
  shim as an instance attribute, which the engine then calls in place of
  the method.  A probe whose target a simulator does not have is
  skipped and its metrics read 0;
* **the ``obs_level=1`` profiler snapshot** — ``sim.obs.snapshot()``,
  ``SweepResult.obs`` and stored artifacts' ``obs``.

The layer is the module under ``src/repro/``.  Nothing in ``src/`` is
edited or patched at class or module level.
"""

from __future__ import annotations

import statistics
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from repro.campaign import ResultStore, new_writer_id
from repro.core import DeadlockDetector, count_simple_cycles, find_knots
from repro.metrics.sweep import SweepResult, obs_rollup
from repro.network.simulator import build_topology
from repro.routing import make_routing

from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import PassContext, PassOutcome, run_sim

__all__ = ["Probes", "percentile", "layer_metrics", "reference_metrics", "store_microbench"]

#: calls per micro-timing of a public ``core`` function
MICRO_CALLS = 10
#: cycle budget of the ``core.count_cycles_us`` micro-timing
MICRO_CYCLE_CAP = 5_000

#: (attribute of the simulator, method, probe name, record a span per call?)
_BOUND_METHODS = (
    ("generator", "tick", "traffic.tick", False),
    ("routing", "candidates", "routing.candidates", False),
    ("detector", "detect", "core.detect", True),
    ("stats", "on_detection", "metrics.on_detection", True),
    ("stats", "finalize", "metrics.finalize", True),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class Probes:
    """Accumulates what the wrapped methods and profiler snapshots report
    over every simulator of one traced pass."""

    def __init__(self, tracer: Tracer, time_steps: bool) -> None:
        self.tracer = tracer
        self.time_steps = time_steps
        self.calls: dict[str, list] = {}  # probe name -> [count, seconds]
        self.detect_s: list[float] = []
        self.detect_vertices: list[int] = []
        self.step_s: list[float] = []
        self.phases: Counter = Counter()  # profiler phase -> seconds
        self.cache: Counter = Counter()  # detector.cache_stats(), summed
        self.counts: Counter = Counter()
        self.routing_build_s = 0.0
        #: the simulator whose end-state CWG is largest (micro-timings)
        self.largest: Optional[tuple[int, object]] = None

    # -- wrapping ----------------------------------------------------------------
    def _wrap(
        self,
        owner: object,
        method: str,
        name: str,
        span: bool,
        on_call: Optional[Callable] = None,
    ) -> None:
        fn = getattr(owner, method, None)
        if fn is None:
            return
        slot = self.calls.setdefault(name, [0, 0.0])
        add_span = self.tracer.add if span else None

        def probe(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            slot[0] += 1
            slot[1] += t1 - t0
            if add_span is not None:
                add_span(name, t0, t1)
            if on_call is not None:
                on_call(out, t1 - t0)
            return out

        setattr(owner, method, probe)

    def attach(self, sim) -> None:
        """Shim the bound methods of one freshly constructed simulator."""
        for owner_name, method, name, span in _BOUND_METHODS:
            owner = getattr(sim, owner_name, None)
            if owner is None:
                continue
            on_call = self._on_detect if name == "core.detect" else None
            self._wrap(owner, method, name, span, on_call)
        if self.time_steps:
            steps = self.step_s
            self._wrap(
                sim, "step", "network.step", False, lambda _out, dt: steps.append(dt)
            )

    def _on_detect(self, record, seconds: float) -> None:
        self.detect_s.append(seconds)
        self.detect_vertices.append(record.cwg_vertices)

    # -- harvesting --------------------------------------------------------------
    def add_obs(self, snapshot: Optional[dict]) -> None:
        """Fold one ``obs_level=1`` snapshot's phase table in."""
        if snapshot:
            for name, rec in snapshot.get("phases", {}).items():
                self.phases[name] += rec["total_s"]

    def harvest(self, sim, result) -> None:
        """Collect end-of-run state from a simulator the pass just ran."""
        self.add_obs(sim.obs.snapshot())
        self.cache.update(sim.detector.cache_stats())
        events = sim.detector.events
        self.counts.update(
            msgs_generated=getattr(sim.generator, "generated", 0),
            deadlocks=len(events),
            knot_members=sum(e.deadlock_set_size for e in events),
        )
        t0 = perf_counter()
        make_routing(sim.config.routing).validate(sim.topology, sim.pool)
        self.routing_build_s += perf_counter() - t0
        records = sim.detector.records
        vertices = records[-1].cwg_vertices if records else 0
        if self.largest is None or vertices > self.largest[0]:
            self.largest = (vertices, sim)

    def sweep_runner(self, ctx: PassContext) -> "_ProbedSweepRunner":
        return _ProbedSweepRunner(ctx)

    # -- micro-timings of public core functions ----------------------------------
    def core_microbench(self) -> dict[str, float]:
        """µs per call of ``build_cwg`` / ``find_knots`` / bounded
        ``count_simple_cycles`` on the pass's largest real end-state graph."""
        if self.largest is None:
            return {}
        sim = self.largest[1]
        adjacency = DeadlockDetector.build_cwg(sim).adjacency()
        return {
            "core.build_cwg_us": _median_us(lambda: DeadlockDetector.build_cwg(sim)),
            "core.find_knots_us": _median_us(lambda: find_knots(adjacency)),
            "core.count_cycles_us": _median_us(
                lambda: count_simple_cycles(adjacency, limit=MICRO_CYCLE_CAP)
            ),
        }


def _median_us(fn: Callable[[], object], calls: int = MICRO_CALLS) -> float:
    samples = []
    for _ in range(calls):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * 1e6


class _ProbedSweepRunner:
    """The runner surface ``set_campaign_runner`` accepts, serial like
    ``run_load_sweep`` but on simulators the harness constructs (so their
    bound methods can be wrapped).  The traced pass's digests must equal
    the untraced reps', which go through ``run_load_sweep`` itself."""

    store = None
    registry = None

    def __init__(self, ctx: PassContext) -> None:
        self.ctx = ctx

    def run_sweep(self, base, loads, label: str = ""):
        capacity = build_topology(base).capacity_flits_per_node_cycle
        results = []
        snapshots = []
        for load in loads:
            result, sim = run_sim(base.replace(load=load), self.ctx)
            results.append(result)
            snapshots.append(sim.obs.snapshot())
        sweep = SweepResult(
            label=label or base.label(),
            loads=list(loads),
            results=results,
            capacity=capacity,
            obs=obs_rollup(loads, snapshots),
        )
        return SimpleNamespace(sweep=sweep)


def _series_key(label: str) -> str:
    """``"torus3d-tsv/dor"`` -> ``"torus3d_tsv"``, ``"DOR"`` -> ``"dor"``."""
    return label.split("/", 1)[0].replace("-", "_").lower()


def _engine_seconds(phases: dict) -> float:
    """Top-level engine phases of one profiler table (``engine/recover`` is
    nested inside ``engine/detect``, ``detect/*`` inside the detector)."""
    return sum(
        rec["total_s"]
        for name, rec in phases.items()
        if name.startswith("engine/") and name != "engine/recover"
    )


def layer_metrics(
    probes: Probes,
    tracer: Tracer,
    trace_id: str,
    outcome: PassOutcome,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every per-layer metric the traced pass ``trace_id`` yields.

    Metrics a workload has no source for are simply absent; the caller
    reports them as 0 (README.md lists which metric is declared on which
    workload).
    """
    wall = tracer.total("pass", trace_id)
    out: dict[str, float] = {}

    def call(name: str) -> tuple[int, float]:
        count, seconds = probes.calls.get(name, (0, 0.0))
        return count, seconds

    # -- network (engine) ----------------------------------------------------
    phases = probes.phases
    _, detect_s = call("core.detect")
    _, on_detection_s = call("metrics.on_detection")
    _, finalize_s = call("metrics.finalize")
    recover_s = phases.get("engine/recover", 0.0)
    out["network.generate.self_s"] = phases.get("engine/generate", 0.0)
    out["network.allocate.self_s"] = phases.get("engine/allocate", 0.0)
    out["network.move.self_s"] = phases.get("engine/move", 0.0)
    out["network.recover.self_s"] = recover_s
    # engine/detect spans the detector call, recovery and the stats hook
    out["network.detect.self_s"] = max(
        0.0, phases.get("engine/detect", 0.0) - detect_s - recover_s - on_detection_s
    )
    out["network.construct_s"] = tracer.total("network.construct", trace_id)
    out["network.step_us_p50"] = percentile(probes.step_s, 50) * 1e6
    out["network.step_us_p99"] = percentile(probes.step_s, 99) * 1e6
    counts = probes.counts
    # a resumed campaign point re-reads a stored result; it simulated nothing
    simulated = [p.result for p in outcome.points if not p.label.startswith("resume/")]
    out["network.sim_cycles"] = outcome.sim_cycles
    out["network.msgs_delivered"] = sum(r.delivered for r in simulated)
    out["network.msgs_recovered"] = sum(r.recovered + r.aborted for r in simulated)
    run_s = tracer.total("network.run", trace_id)
    flits = sum(r.delivered_flits for r in simulated)
    if run_s and flits:
        out["network.host_us_per_flit_delivered"] = run_s / flits * 1e6

    # -- traffic, routing, metrics -------------------------------------------
    out["traffic.tick_s"] = call("traffic.tick")[1]
    out["traffic.msgs_generated"] = counts["msgs_generated"]
    out["routing.candidates_calls"], out["routing.candidates_s"] = call(
        "routing.candidates"
    )
    out["routing.build_s"] = probes.routing_build_s
    out["metrics.on_detection_s"] = on_detection_s
    out["metrics.finalize_s"] = finalize_s

    # -- core (detector) -----------------------------------------------------
    out["core.detect.passes"] = len(probes.detect_s)
    out["core.detect.total_s"] = detect_s
    out["core.detect.pass_us_p50"] = percentile(probes.detect_s, 50) * 1e6
    out["core.detect.pass_us_p90"] = percentile(probes.detect_s, 90) * 1e6
    out["core.detect.cwg_vertices_p50"] = percentile(probes.detect_vertices, 50)
    out["core.detect.cwg_vertices_max"] = max(probes.detect_vertices, default=0)
    cache = probes.cache
    out["core.detect.full_passes"] = cache["full_passes"]
    out["core.detect.cached_passes"] = cache["cached_passes"] + cache["tracked_passes"]
    out["core.detect.shortcircuit_passes"] = cache["shortcircuit_passes"]
    useful = cache["region_hits"] + cache["signature_hits"] + cache["knots_reused"]
    attempted = useful + cache["region_misses"] + cache["knots_discovered"]
    out["core.detect.cache_hit_ratio"] = useful / attempted if attempted else 0.0
    out["core.deadlocks_detected"] = counts["deadlocks"]
    if counts["deadlocks"]:
        out["core.knot_size_mean"] = counts["knot_members"] / counts["deadlocks"]
    out.update(probes.core_microbench())

    # -- experiments ---------------------------------------------------------
    experiment = outcome.extra.get("experiment")
    report_s = tracer.total("experiments.report", trace_id)
    if experiment is not None:
        out["experiments.run_s"] = tracer.total("experiments.run", trace_id)
        out["experiments.report_s"] = report_s
        out["experiments.points"] = len(outcome.points)
        for label, sweep in experiment.sweeps.items():
            out[f"experiments.series.{_series_key(label)}.engine_s"] = (
                _engine_seconds(sweep.obs["sweep"]["phases"]) if sweep.obs else 0.0
            )

    # -- campaign ------------------------------------------------------------
    stages = {
        name: tracer.total(name, trace_id)
        for name in (
            "campaign.cold",
            "campaign.resume",
            "campaign.service.start",
            "campaign.service.drain",
            "campaign.service.stop",
        )
    }
    is_campaign = stages["campaign.cold"] > 0.0
    if is_campaign:
        out["campaign.cold_s"] = stages["campaign.cold"]
        out["campaign.resume_s"] = stages["campaign.resume"]
        out["campaign.service.start_s"] = stages["campaign.service.start"]
        out["campaign.service.drain_s"] = stages["campaign.service.drain"]
        out["campaign.service.stop_s"] = stages["campaign.service.stop"]
        drained = len(outcome.points) // 3
        out["campaign.service.points_per_s"] = (
            drained / stages["campaign.service.drain"]
        )
        out["campaign.service.failed"] = outcome.extra["service_failed"]
        out["campaign.retries"] = outcome.extra["retries"]
        out["campaign.failures"] = outcome.extra["failures"]

    # -- accounting closure --------------------------------------------------
    if is_campaign:
        accounted = sum(stages.values())
    else:
        accounted = (
            out["network.construct_s"]
            + out["network.generate.self_s"]
            + out["network.allocate.self_s"]
            + out["network.move.self_s"]
            + out["network.detect.self_s"]
            + out["network.recover.self_s"]
            + detect_s
            + on_detection_s
            + finalize_s
            + report_s
        )
    out["untraced_residual_pct"] = 100.0 * (wall - accounted) / wall
    out["obs.trace_overhead_pct"] = (
        100.0 * (wall - untraced_wall_s) / untraced_wall_s
    )
    return out


def reference_metrics(
    tracer: Tracer,
    reference_id: str,
    reference: Sequence,
    cold_cpu_s: float,
    workdir: Path,
) -> dict[str, float]:
    """Campaign metrics that need the in-process reference run (the floor):
    its wall-clock and CPU, the cold drain's CPU overhead per point over
    it, its 48 constructions, and the store micro-timings over its results."""
    (direct,) = tracer.select("campaign.direct_serial", reference_id)
    points = len(reference) // 3  # the reference lists each point per stage
    direct_cpu = direct.args["cpu_s"]
    return {
        "campaign.direct_serial_s": direct.duration,
        "campaign.direct_serial_cpu_s": direct_cpu,
        "campaign.overhead_cpu_ms_per_point": 1e3 * (cold_cpu_s - direct_cpu) / points,
        "network.construct_s": tracer.total("network.construct", reference_id),
        **store_microbench([p.result for p in reference[:points]], workdir),
    }


def store_microbench(results, workdir: Path) -> dict[str, float]:
    """In-process store timings over real results, in a scratch store:
    artifact write and load, manifest save, and compaction of a journal
    with one ``done`` record per point."""
    with tempfile.TemporaryDirectory(prefix="store-", dir=workdir) as root:
        store = ResultStore(root)
        write_s, load_s, sizes = [], [], []
        for result in results:
            t0 = perf_counter()
            digest = store.write(result.config, result)
            t1 = perf_counter()
            store.load(result.config)
            t2 = perf_counter()
            write_s.append(t1 - t0)
            load_s.append(t2 - t1)
            sizes.append(store.point_path(digest).stat().st_size)
        manifest = store.load_manifest()
        writer = new_writer_id()
        for result in results:
            digest = store.digest(result.config)
            manifest["points"][digest] = {"status": "done", "load": result.config.load}
            store.journal_append(
                writer,
                {
                    "op": "done",
                    "digest": digest,
                    "label": result.config.label(),
                    "load": result.config.load,
                    "seed": result.config.seed,
                    "attempts": 1,
                },
            )
        t0 = perf_counter()
        store.save_manifest(manifest)
        t1 = perf_counter()
        compacted = store.compact_manifest()
        t2 = perf_counter()
        if compacted["journal_offsets"].get(writer) != len(results):
            raise RuntimeError(
                f"compaction folded {compacted['journal_offsets']} of "
                f"{len(results)} journal records"
            )
    return {
        "campaign.store.write_us_p50": statistics.median(write_s) * 1e6,
        "campaign.store.load_us_p50": statistics.median(load_s) * 1e6,
        "campaign.store.save_manifest_ms": (t1 - t0) * 1e3,
        "campaign.store.compact_manifest_ms": (t2 - t1) * 1e3,
        "campaign.store.artifact_bytes_mean": statistics.mean(sizes),
    }
