"""Figure 8 — effect of buffer depth (wormhole through virtual cut-through).

The paper sweeps edge-buffer depths of 2, 4, 6, 8, 16 and 32 flits with
TFAR and one VC; a depth equal to the 32-flit message length is virtual
cut-through switching, intermediate depths are buffered wormhole.

Reported shape:

* depths 2/4/6 saturate at a similar load; depth 8 about 5% higher; depths
  16 and 32 saturate ~75% higher — deeper buffers compact messages onto
  fewer channels, cutting resource contention below saturation;
* past saturation all wormhole variants deadlock heavily, with the
  cut-through network (buffer >= message) forming the fewest deadlocks;
* normalized per message *in the network* (Figure 8b), the shallow-buffer
  networks are clearly worst: each message simultaneously holds more
  channels, so the correlated dependencies deadlock needs come cheap.

At other scales the depths are chosen as the same fractions of the
message length the paper used (6.25%..100%).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult, experiment_sweep, scaled_config, scaled_loads

__all__ = ["run", "buffer_depths_for"]

EXPERIMENT_ID = "FIG8"
DESCRIPTION = (
    "Normalized deadlocks vs load and vs network population for buffer "
    "depths from deep wormhole to virtual cut-through (TFAR, 1 VC)"
)

#: The paper's depths as fractions of the 32-flit message length.
PAPER_FRACTIONS = (2 / 32, 4 / 32, 6 / 32, 8 / 32, 16 / 32, 32 / 32)


def buffer_depths_for(message_length: int) -> list[int]:
    """Buffer depths covering the paper's wormhole-to-VCT span."""
    depths = sorted({max(1, round(f * message_length)) for f in PAPER_FRACTIONS})
    return depths


def run(
    scale: str = "bench",
    loads: Sequence[float] | None = None,
    depths: Sequence[int] | None = None,
    **overrides,
) -> ExperimentResult:
    loads = list(loads) if loads is not None else scaled_loads(scale)
    base = scaled_config(scale, routing="tfar", num_vcs=1, **overrides)
    if depths is None:
        depths = buffer_depths_for(base.message_length)

    sweeps = {}
    for depth in depths:
        label = f"buffer={depth}"
        sweeps[label] = experiment_sweep(
            base.replace(buffer_depth=depth), loads, label=label
        )

    obs: dict[str, float] = {}
    for depth in depths:
        sweep = sweeps[f"buffer={depth}"]
        sat = sweep.saturation_load
        obs[f"buf{depth}_saturation_load"] = sat if sat is not None else float("nan")
        obs[f"buf{depth}_total_deadlocks"] = float(sum(sweep.deadlock_counts))
        pops = [r.avg_messages_in_network for r in sweep.results]
        dls = [float(r.deadlocks) for r in sweep.results]
        obs[f"buf{depth}_deadlocks_per_msg_in_net"] = (
            sum(dls) / sum(pops) if sum(pops) else 0.0
        )
    return ExperimentResult(EXPERIMENT_ID, DESCRIPTION, sweeps, obs)


def deadlocks_vs_population(
    result: ExperimentResult,
) -> dict[str, list[tuple[float, float]]]:
    """The Figure 8b series: (messages in network, normalized deadlocks)."""
    out: dict[str, list[tuple[float, float]]] = {}
    for label, sweep in result.sweeps.items():
        out[label] = [
            (r.avg_messages_in_network, r.normalized_deadlocks)
            for r in sweep.results
        ]
    return out
