"""The metric declarations: name, unit, direction, and the workloads each
per-layer metric is declared on.

``BENCHMARK.json`` at the repo root carries the same names, units and
directions (``test_e2e_harness.py`` keeps the two in step); this table
adds what that file has no field for — which workloads a per-layer
metric means something on.  On the others it is reported as 0.
"""

from __future__ import annotations

__all__ = [
    "SINGLE_RUNS",
    "SWEEPS",
    "CAMPAIGN",
    "ALL_WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "EXACT_UNITS",
    "declared_on",
]

SINGLE_RUNS = ("sat16_tfar1", "census16_tfar1")
SWEEPS = ("fig6_sweep8", "topo_zoo_sweep")
CAMPAIGN = ("campaign_fanout_tiny",)
ALL_WORKLOADS = SINGLE_RUNS + SWEEPS + CAMPAIGN
#: workloads whose simulators the harness constructs in the traced pass
_IN_PROCESS = SINGLE_RUNS + SWEEPS

#: units whose values are exact and must be identical between two commits
#: that do not change simulated behaviour
EXACT_UNITS = ("count", "ratio")

#: name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "sim_cycles_per_s": ("1/s", "higher"),
    "points_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: name -> (unit, better, workloads the metric is declared on)
PER_LAYER = {
    # network (engine): profiler phases, exclusive of nested layers
    "network.generate.self_s": ("s", "lower", ALL_WORKLOADS),
    "network.allocate.self_s": ("s", "lower", ALL_WORKLOADS),
    "network.move.self_s": ("s", "lower", ALL_WORKLOADS),
    "network.detect.self_s": ("s", "lower", ALL_WORKLOADS),
    "network.recover.self_s": ("s", "lower", ALL_WORKLOADS),
    "network.step_us_p50": ("us", "lower", SINGLE_RUNS),
    "network.step_us_p99": ("us", "lower", SINGLE_RUNS),
    "network.construct_s": ("s", "lower", ALL_WORKLOADS),
    "network.sim_cycles": ("count", "lower", ALL_WORKLOADS),
    "network.msgs_delivered": ("count", "higher", ALL_WORKLOADS),
    "network.msgs_recovered": ("count", "lower", ALL_WORKLOADS),
    "network.host_us_per_flit_delivered": ("us", "lower", _IN_PROCESS),
    # traffic
    "traffic.tick_s": ("s", "lower", _IN_PROCESS),
    "traffic.msgs_generated": ("count", "higher", _IN_PROCESS),
    # routing
    "routing.candidates_calls": ("count", "lower", _IN_PROCESS),
    "routing.candidates_s": ("s", "lower", _IN_PROCESS),
    "routing.build_s": ("s", "lower", _IN_PROCESS),
    # core (detector)
    "core.detect.passes": ("count", "lower", _IN_PROCESS),
    "core.detect.total_s": ("s", "lower", _IN_PROCESS),
    "core.detect.pass_us_p50": ("us", "lower", _IN_PROCESS),
    "core.detect.pass_us_p90": ("us", "lower", _IN_PROCESS),
    "core.detect.cwg_vertices_p50": ("count", "lower", _IN_PROCESS),
    "core.detect.cwg_vertices_max": ("count", "lower", _IN_PROCESS),
    "core.detect.full_passes": ("count", "lower", _IN_PROCESS),
    "core.detect.cached_passes": ("count", "higher", _IN_PROCESS),
    "core.detect.shortcircuit_passes": ("count", "higher", _IN_PROCESS),
    "core.detect.cache_hit_ratio": ("ratio", "higher", _IN_PROCESS),
    "core.deadlocks_detected": ("count", "lower", _IN_PROCESS),
    "core.knot_size_mean": ("count", "lower", _IN_PROCESS),
    "core.build_cwg_us": ("us", "lower", _IN_PROCESS),
    "core.find_knots_us": ("us", "lower", _IN_PROCESS),
    "core.count_cycles_us": ("us", "lower", _IN_PROCESS),
    # metrics
    "metrics.on_detection_s": ("s", "lower", _IN_PROCESS),
    "metrics.finalize_s": ("s", "lower", _IN_PROCESS),
    # experiments
    "experiments.run_s": ("s", "lower", SWEEPS),
    "experiments.report_s": ("s", "lower", SWEEPS),
    "experiments.points": ("count", "higher", SWEEPS),
    "experiments.series.dor.engine_s": ("s", "lower", ("fig6_sweep8",)),
    "experiments.series.tfar.engine_s": ("s", "lower", ("fig6_sweep8",)),
    "experiments.series.torus3d.engine_s": ("s", "lower", ("topo_zoo_sweep",)),
    "experiments.series.torus3d_tsv.engine_s": ("s", "lower", ("topo_zoo_sweep",)),
    "experiments.series.dragonfly.engine_s": ("s", "lower", ("topo_zoo_sweep",)),
    "experiments.series.fullmesh.engine_s": ("s", "lower", ("topo_zoo_sweep",)),
    # campaign
    "campaign.direct_serial_s": ("s", "lower", CAMPAIGN),
    "campaign.direct_serial_cpu_s": ("s", "lower", CAMPAIGN),
    "campaign.cold_s": ("s", "lower", CAMPAIGN),
    "campaign.resume_s": ("s", "lower", CAMPAIGN),
    "campaign.overhead_cpu_ms_per_point": ("ms", "lower", CAMPAIGN),
    "campaign.store.write_us_p50": ("us", "lower", CAMPAIGN),
    "campaign.store.load_us_p50": ("us", "lower", CAMPAIGN),
    "campaign.store.save_manifest_ms": ("ms", "lower", CAMPAIGN),
    "campaign.store.compact_manifest_ms": ("ms", "lower", CAMPAIGN),
    "campaign.store.artifact_bytes_mean": ("bytes", "lower", CAMPAIGN),
    "campaign.retries": ("count", "lower", CAMPAIGN),
    "campaign.failures": ("count", "lower", CAMPAIGN),
    # campaign.service
    "campaign.service.start_s": ("s", "lower", CAMPAIGN),
    "campaign.service.drain_s": ("s", "lower", CAMPAIGN),
    "campaign.service.stop_s": ("s", "lower", CAMPAIGN),
    "campaign.service.points_per_s": ("1/s", "higher", CAMPAIGN),
    "campaign.service.failed": ("count", "lower", CAMPAIGN),
    # obs and accounting closure
    "obs.trace_overhead_pct": ("%", "lower", ALL_WORKLOADS),
    "untraced_residual_pct": ("%", "lower", ALL_WORKLOADS),
}


def declared_on(metric: str, workload: str) -> bool:
    return workload in PER_LAYER[metric][2]
