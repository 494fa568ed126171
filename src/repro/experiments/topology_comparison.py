"""TOPO-CMP — deadlock character across topology classes.

The paper characterizes deadlocks on k-ary n-cubes only.  This study asks
how far that characterization transfers: the same knot detector and the
same load sweep are run over the topology zoo — a 3D torus (with and
without a slow "TSV" dimension), a dragonfly, and a full mesh — at a
matched node count, each under its natural *deadlock-capable* routing
function:

* ``torus3d`` / dimension-order routing — the paper's regime lifted to
  three dimensions; wraparound rings supply the cyclic dependencies.
* ``torus3d-tsv`` — identical geometry with a latency-4 third dimension
  (through-silicon-via model): same dependency structure, less bandwidth
  where cycles close.
* ``dragonfly`` / minimal routing — cycles thread local→global→local
  channels across groups rather than rings.
* ``fullmesh`` / 2-hop misrouting — direct routing is provably
  deadlock-free, so the prone variant misroutes through one random
  intermediate (a Valiant degenerate); cycles need three worms parked
  at intermediates, which is reachable but rare.

Load is normalized per topology (aggregate link bandwidth over average
internode distance, the same normalization the paper and SEC3.5 use), so
each class is stressed relative to its own capacity; the absolute
capacities are reported as observations.  Expected shape: the torus
forms deadlocks readily, the TSV variant no more than the uniform one at
equal normalized load (per-dimension latency changes bandwidth, not the
dependency structure knots need), the dragonfly forms them through
local->global->local chains rather than rings, and the full mesh forms
none (or almost none) — wealth of paths, poverty of cycles.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.base import (
    ExperimentResult,
    experiment_sweep,
    scaled_config,
    scaled_loads,
)
from repro.network.simulator import build_topology

__all__ = ["run", "series_specs"]

EXPERIMENT_ID = "TOPO-CMP"
DESCRIPTION = (
    "Deadlock formation across topology classes: 3D torus (uniform & TSV), "
    "dragonfly, full mesh at matched node count (1 VC, deadlock-capable "
    "routing per class)"
)

#: per-scale geometry: (torus3d dims, dragonfly (a, p, h), mesh nodes).
#: Node counts are matched exactly at bench scale (36 nodes everywhere).
#: At tiny/paper scale the dragonfly's canonical a*(a*h+1) router count
#: forces an approximate match (12 vs 16, 264 vs 256); the torus keeps a
#: radix-4 ring at every scale because bidirectional DOR on radix <= 3
#: rings takes at most one hop per dimension and is therefore
#: structurally deadlock-free — no ring would ever close a knot.
GEOMETRIES = {
    "paper": ((8, 8, 4), (8, 4, 4), 256),
    "bench": ((4, 3, 3), (4, 2, 2), 36),
    "tiny": ((4, 2, 2), (3, 1, 1), 16),
}

#: latency of the slow ("TSV") dimension in the torus3d-tsv series.
TSV_LATENCY = 4


def series_specs(scale: str) -> list[tuple[str, dict]]:
    """(label, config-override) pairs for every series of this study."""
    try:
        torus_dims, (a, p, h), mesh_nodes = GEOMETRIES[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {sorted(GEOMETRIES)}"
        ) from None
    return [
        (
            "torus3d/dor",
            dict(topology="torus3d", dims=torus_dims, routing="dor"),
        ),
        (
            "torus3d-tsv/dor",
            dict(
                topology="torus3d",
                dims=torus_dims,
                link_latencies=(1, 1, TSV_LATENCY),
                routing="dor",
            ),
        ),
        (
            "dragonfly/df-min",
            dict(topology="dragonfly", dims=(a, p, h), routing="df-min"),
        ),
        (
            "fullmesh/fm-2hop",
            dict(topology="fullmesh", dims=(mesh_nodes,), routing="fm-2hop"),
        ),
    ]


def run(
    scale: str = "bench",
    loads: Sequence[float] | None = None,
    **overrides,
) -> ExperimentResult:
    loads = list(loads) if loads is not None else scaled_loads(scale)
    base = scaled_config(scale, num_vcs=1, **overrides)

    sweeps = {}
    capacities = {}
    for label, spec in series_specs(scale):
        config = base.replace(**spec)
        sweeps[label] = experiment_sweep(config, loads, label=label)
        capacities[label] = build_topology(config).capacity_flits_per_node_cycle

    def mean_or_zero(values: list[float]) -> float:
        finite = [v for v in values if v > 0]
        return sum(finite) / len(finite) if finite else 0.0

    obs = {}
    for label, sweep in sweeps.items():
        key = label.split("/", 1)[0].replace("-", "_")
        obs[f"{key}_total_deadlocks"] = float(sum(sweep.deadlock_counts))
        obs[f"{key}_mean_knot_size"] = mean_or_zero(sweep.deadlock_set_sizes)
        obs[f"{key}_mean_cycle_density"] = mean_or_zero(
            [r.avg_knot_cycle_density for r in sweep.results]
        )
        obs[f"{key}_capacity_flits"] = capacities[label]

    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, sweeps, obs)
