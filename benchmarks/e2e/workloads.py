"""The five benchmark workloads and their pass sizes.

A *pass* is one fixed-size unit of work driven through the library's
public entry points (``NetworkSimulator(cfg).run()``, the registered
experiment runners, ``CampaignRunner`` / ``CampaignService``).  The
harness repeats a pass and reports medians; the pass itself never
changes between reps, so counts and result digests repeat exactly.

Configs are built from library defaults.  No workload sets
``engine_fast_path`` / ``engine_vectorized`` / ``engine_kernels`` /
``cwg_maintenance`` / ``detector_caching``: those select an
implementation, not a workload, so a later change that makes a faster
engine or detector the default shows up here as a gain and one nobody
can reach does not (``test_e2e_harness.py`` pins this).

The workload seed only ever reaches the library as
``SimulationConfig.seed``.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.campaign import CampaignRunner, ResultStore
from repro.campaign.service import CampaignService, ServiceRunner
from repro.config import SimulationConfig, paper_default, tiny_default
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import set_campaign_runner
from repro.experiments.report import experiment_csv, render_figure
from repro.metrics.stats import RunResult
from repro.network.simulator import NetworkSimulator

from benchmarks.e2e.trace import Tracer

__all__ = [
    "Sizes",
    "FULL",
    "SMOKE",
    "Point",
    "PassOutcome",
    "PassContext",
    "Workload",
    "WORKLOADS",
    "make_workloads",
    "run_sim",
    "cpu_now",
    "IMPLEMENTATION_FIELDS",
]

#: config fields that choose an implementation rather than a workload;
#: every config the harness builds must leave them at the library default
IMPLEMENTATION_FIELDS = (
    "engine_fast_path",
    "engine_vectorized",
    "engine_kernels",
    "cwg_maintenance",
    "detector_caching",
)

#: worker processes of the campaign workload (the sandbox has nproc=2)
CAMPAIGN_WORKERS = 2
CAMPAIGN_LOADS = (0.3, 0.6, 0.9, 1.2, 1.5, 1.8)


@dataclass(frozen=True)
class Sizes:
    """Pass sizes.  Only cycle counts (and, for smoke, the scale) differ
    between the two instances below; the shape of every workload is fixed."""

    name: str
    sat_warmup: int
    sat_measure: int
    census_members: int
    census_warmup: int
    census_measure: int
    sweep_scale: str
    fig6_warmup: int
    fig6_measure: int
    topo_warmup: int
    topo_measure: int
    campaign_seeds: int
    campaign_warmup: int
    campaign_measure: int


#: sized once so that a pass takes 2-3.5 s on the seed machine and five
#: or more reps fit the run length fixed in BENCHMARK.json; never resized
#: after the baseline was recorded (README.md, "Sizing")
FULL = Sizes(
    name="full",
    sat_warmup=1000,
    sat_measure=7000,
    census_members=5,
    census_warmup=300,
    census_measure=300,
    sweep_scale="bench",
    fig6_warmup=400,
    fig6_measure=1500,
    topo_warmup=300,
    topo_measure=1000,
    campaign_seeds=8,
    campaign_warmup=100,
    campaign_measure=200,
)

SMOKE = Sizes(
    name="smoke",
    sat_warmup=100,
    sat_measure=300,
    census_members=2,
    census_warmup=150,
    census_measure=100,
    sweep_scale="tiny",
    fig6_warmup=50,
    fig6_measure=250,
    topo_warmup=50,
    topo_measure=250,
    campaign_seeds=1,
    campaign_warmup=50,
    campaign_measure=100,
)


def cpu_now() -> float:
    """User+system CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Point:
    """One simulation point of a pass, kept for the correctness check."""

    label: str
    result: RunResult
    #: ordered DeadlockEvent stream, where the harness holds the simulator
    events: Optional[list] = None


@dataclass
class PassOutcome:
    points: list[Point]
    #: simulated cycles of the pass, warm-up included, summed over points
    sim_cycles: int
    #: simulation points the pass completed (a resumed point re-reads one)
    simulated_points: int
    #: per-pass numbers only one workload has (campaign stage CPU, counters)
    extra: dict = field(default_factory=dict)


@dataclass
class PassContext:
    """What a pass needs from the harness: where to record spans, the layer
    probes of a traced pass (``None`` when untraced) and a scratch
    directory inside the checkout."""

    tracer: Tracer
    workdir: Path
    probes: Optional[object] = None  # benchmarks.e2e.probes.Probes

    @property
    def obs_level(self) -> int:
        return 1 if self.probes is not None else 0


def run_sim(
    config: SimulationConfig, ctx: PassContext
) -> tuple[RunResult, NetworkSimulator]:
    """Construct and run one simulator, with spans at both boundaries."""
    with ctx.tracer.span("network.construct"):
        sim = NetworkSimulator(config)
    if ctx.probes is not None:
        ctx.probes.attach(sim)
    with ctx.tracer.span("network.run"):
        result = sim.run()
    if ctx.probes is not None:
        ctx.probes.harvest(sim, result)
    return result, sim


class Workload:
    """One named workload: builds its configs from a seed, runs a pass."""

    name = ""
    why = ""

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes

    def run_pass(self, seed: int, ctx: PassContext) -> PassOutcome:
        raise NotImplementedError

    def reference_points(self, seed: int, ctx: PassContext) -> Optional[list[Point]]:
        """Points computed another way that a pass must reproduce exactly
        (``None``: the pinned digests and the other reps are the check)."""
        return None


class _SingleRuns(Workload):
    """Passes made of ``NetworkSimulator(cfg).run()`` calls the harness
    makes itself, so it holds each simulator and its event stream."""

    def configs(self, seed: int, obs_level: int = 0) -> list[SimulationConfig]:
        raise NotImplementedError

    def run_pass(self, seed: int, ctx: PassContext) -> PassOutcome:
        points = []
        cycles = 0
        for config in self.configs(seed, ctx.obs_level):
            result, sim = run_sim(config, ctx)
            points.append(
                Point(f"seed{config.seed}", result, list(sim.detector.events))
            )
            cycles += sim.cycle
        return PassOutcome(points, cycles, len(points))


class Sat16Tfar1(_SingleRuns):
    name = "sat16_tfar1"
    why = (
        "One deeply saturated 16-ary 2-cube TFAR run, census off: the engine's "
        "allocate phase dominates and the detector is a minor share, so engine "
        "work shows here and census work does not."
    )

    def configs(self, seed: int, obs_level: int = 0) -> list[SimulationConfig]:
        return [
            paper_default(
                routing="tfar",
                num_vcs=1,
                load=0.9,
                count_cycles=False,
                warmup_cycles=self.sizes.sat_warmup,
                measure_cycles=self.sizes.sat_measure,
                seed=seed,
                obs_level=obs_level,
            )
        ]


class Census16Tfar1(_SingleRuns):
    name = "census16_tfar1"
    why = (
        "Saturated 16-ary TFAR with the cycle census on and detection every 8 "
        "cycles: the mirror of sat16_tfar1, same engine but the detector is "
        "about 70% of the pass."
    )

    #: detection every 8 cycles with a census budget of 30 cycles per pass.
    #: With the library's 50,000-cycle budget one saturated trajectory's
    #: census cost is heavy-tailed (wall-clock IQR across seeds 52% of the
    #: median, measured), which no bound the contract allows can resolve; a
    #: budget every saturated pass exhausts makes the per-pass cost steady,
    #: and the shorter interval keeps the detector the dominant layer.
    DETECTION_INTERVAL = 8
    MAX_CYCLES_COUNTED = 30

    def configs(self, seed: int, obs_level: int = 0) -> list[SimulationConfig]:
        # a small ensemble of independent trajectories: saturated CWG shape
        # is persistent within one run, so averaging over time does not
        # steady the cost, averaging over members does
        return [
            paper_default(
                routing="tfar",
                num_vcs=1,
                load=1.0,
                detection_interval=self.DETECTION_INTERVAL,
                max_cycles_counted=self.MAX_CYCLES_COUNTED,
                warmup_cycles=self.sizes.census_warmup,
                measure_cycles=self.sizes.census_measure,
                seed=seed * 1000 + member,
                obs_level=obs_level,
            )
            for member in range(self.sizes.census_members)
        ]


class _ExperimentSweep(Workload):
    """A registered experiment runner plus its report rendering."""

    experiment_id = ""

    def _cycles(self) -> tuple[int, int]:
        raise NotImplementedError

    def run_pass(self, seed: int, ctx: PassContext) -> PassOutcome:
        warmup, measure = self._cycles()
        overrides = dict(warmup_cycles=warmup, measure_cycles=measure, seed=seed)
        if ctx.probes is not None:
            # the experiment runs its sweeps through whatever runner is
            # installed; the probed one is serial like run_load_sweep but
            # builds the simulators itself, so their layers can be wrapped
            overrides["obs_level"] = 1
            set_campaign_runner(ctx.probes.sweep_runner(ctx))
        try:
            with ctx.tracer.span("experiments.run"):
                result = ALL_EXPERIMENTS[self.experiment_id](
                    scale=self.sizes.sweep_scale, **overrides
                )
        finally:
            set_campaign_runner(None)
        with ctx.tracer.span("experiments.report"):
            report = (
                result.format_tables(),
                experiment_csv([result]),
                render_figure(result),
            )
        points = []
        cycles = 0
        failed = 0
        for label, sweep in result.sweeps.items():
            failed += len(sweep.failures)
            for load, run in zip(sweep.loads, sweep.results):
                points.append(Point(f"{label}@{load:g}", run))
                cycles += warmup + measure
        # the rendered report is an output of the pass: one CSV row per point
        csv_rows = len(report[1].splitlines()) - 1
        return PassOutcome(
            points,
            cycles,
            len(points),
            extra={
                "report_ok": all(report) and csv_rows == len(points),
                "library_failed": failed,
                "experiment": result if ctx.probes is not None else None,
            },
        )


class Fig6Sweep8(_ExperimentSweep):
    name = "fig6_sweep8"
    experiment_id = "FIG6"
    why = (
        "FIG6 at bench scale: 12 points, 8-ary, DOR vs TFAR, loads 0.2-1.2, serial "
        "sweep plus report rendering. Light and moderate load, where generate and "
        "move dominate, not allocate."
    )

    def _cycles(self) -> tuple[int, int]:
        return self.sizes.fig6_warmup, self.sizes.fig6_measure


class TopoZooSweep(_ExperimentSweep):
    name = "topo_zoo_sweep"
    experiment_id = "TOPO-CMP"
    why = (
        "TOPO-CMP at bench scale: 24 points over torus3d, torus3d+TSV latency, "
        "dragonfly and full mesh; the only workload on table-geometry topologies, "
        "hierarchical routing and link-latency occupancy."
    )

    def _cycles(self) -> tuple[int, int]:
        return self.sizes.topo_warmup, self.sizes.topo_measure


class CampaignFanoutTiny(Workload):
    name = "campaign_fanout_tiny"
    why = (
        "48 tiny points drained cold by CampaignRunner, resumed from the store, "
        "then drained by CampaignService, 2 workers: fork, artifact write, manifest "
        "and lease hand-off dominate, not the engine."
    )

    def configs(self, seed: int, obs_level: int = 0) -> list[SimulationConfig]:
        return [
            tiny_default(
                warmup_cycles=self.sizes.campaign_warmup,
                measure_cycles=self.sizes.campaign_measure,
                seed=point_seed,
                load=load,
                obs_level=obs_level,
            )
            for point_seed in range(seed, seed + self.sizes.campaign_seeds)
            for load in CAMPAIGN_LOADS
        ]

    def run_pass(self, seed: int, ctx: PassContext) -> PassOutcome:
        configs = self.configs(seed, ctx.obs_level)
        tracer = ctx.tracer
        root = Path(tempfile.mkdtemp(prefix="campaign-", dir=ctx.workdir))
        try:
            with tracer.span("campaign.store.open"):
                store = ResultStore(root / "cold")
            cpu0 = cpu_now()
            with tracer.span("campaign.cold"):
                cold_runner = CampaignRunner(store, max_workers=CAMPAIGN_WORKERS)
                cold = cold_runner.run_points(configs)
            cold_cpu = cpu_now() - cpu0
            with tracer.span("campaign.resume"):
                resumed = CampaignRunner(
                    ResultStore(root / "cold"), max_workers=CAMPAIGN_WORKERS
                ).run_points(configs)
            with tracer.span("campaign.store.open"):
                service_store = ResultStore(root / "service")
            service = CampaignService(
                service_store, local_workers=CAMPAIGN_WORKERS
            )
            with tracer.span("campaign.service.start"):
                service.start()
            try:
                with tracer.span("campaign.service.drain"):
                    drained = ServiceRunner(service).run_points(configs)
                status = service.status_snapshot()
            finally:
                with tracer.span("campaign.service.stop"):
                    service.stop()
            # obs_level=1 artifacts of a traced pass carry the engine's phase
            # profile; None per point when untraced
            cold_obs = [cold["completed"][i].obs for i in sorted(cold["completed"])]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        points = []
        for stage, out in (("cold", cold), ("resume", resumed), ("service", drained)):
            for index, stored in sorted(out["completed"].items()):
                points.append(Point(f"{stage}/{index}", stored.result))
        per_point = self.sizes.campaign_warmup + self.sizes.campaign_measure
        simulated = cold["executed"] + drained["executed"]
        counters = cold_runner.registry.snapshot()["counters"]
        return PassOutcome(
            points,
            sim_cycles=per_point * simulated,
            simulated_points=simulated,
            extra={
                "cold_cpu_s": cold_cpu,
                "resumed": resumed["resumed"],
                "retries": counters.get("campaign/retries", 0),
                "failures": len(cold["failures"]) + len(resumed["failures"]),
                "service_failed": status["scheduler"]["points"]["failed"],
                "cold_obs": cold_obs,
            },
        )

    def reference_points(self, seed: int, ctx: PassContext) -> list[Point]:
        """The same configs run in-process: what cold drain, resume and
        service drain must each reproduce point for point."""
        direct = []
        cpu0 = cpu_now()
        with ctx.tracer.span("campaign.direct_serial") as span:
            for config in self.configs(seed):
                result, _sim = run_sim(config, ctx)
                direct.append(result)
        span.args["cpu_s"] = cpu_now() - cpu0
        return [
            Point(f"{stage}/{index}", result)
            for stage in ("cold", "resume", "service")
            for index, result in enumerate(direct)
        ]


WORKLOADS = (Sat16Tfar1, Census16Tfar1, Fig6Sweep8, TopoZooSweep, CampaignFanoutTiny)


def make_workloads(sizes: Sizes = FULL) -> dict[str, Workload]:
    return {cls.name: cls(sizes) for cls in WORKLOADS}
