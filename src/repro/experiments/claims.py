"""The claims table: every shape claim of the evaluation, one row each.

The paper's results (Figures 5-8, §3.5-3.6) are comparative shape claims
— "DOR forms more actual deadlocks than TFAR" — not absolute rates, which
came from a different simulator.  Each :class:`Claim` pairs one such
sentence (the paper's, or DESIGN.md §6's for this repo's extensions) with
a predicate over an :class:`~repro.experiments.base.ExperimentResult`'s
``observations`` and the scales it must hold at:

* ``tiny`` — the reduced runs ``tests/experiments`` makes (4-ary 2-cube,
  one or two loads);
* ``bench`` — the committed bench grid,
  ``data/experiments_bench_observations.csv`` (written next to the sweep
  rows by ``python -m repro experiment all --scale bench --csv
  data/experiments_bench.csv``).

Tier-1 checks both.  :meth:`ExperimentResult.format_tables` prints one
:func:`verdicts` line per claim of its experiment, and
``scripts/docs_check.py`` renders EXPERIMENTS.md's reproduction summary
from the verdicts on the committed data.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.base import ExperimentResult

__all__ = [
    "Claim", "CLAIMS", "HOLDS", "FAILS", "DEGRADED", "BENCH_OBSERVATIONS",
    "evaluate", "verdicts", "committed_observations",
]

#: the committed bench-scale observations (``experiment,key,value`` rows)
BENCH_OBSERVATIONS = (
    Path(__file__).resolve().parents[3] / "data" / "experiments_bench_observations.csv"
)

HOLDS = "holds"
FAILS = "does not hold"
DEGRADED = "not evaluated (degraded)"

TINY, BENCH = "tiny", "bench"
BOTH = (TINY, BENCH)

Observations = Mapping[str, float]


@dataclass(frozen=True)
class Claim:
    """One shape claim and where it must hold."""

    id: str  #: ``<experiment>:<slug>``
    experiment: str  #: the ``ALL_EXPERIMENTS`` id whose observations it reads
    paper: str  #: the sentence it checks
    holds: Callable[[Observations], bool]
    scales: tuple[str, ...] = BOTH


def _swept(obs: Observations, pattern: str) -> list[float]:
    """Values of the keys matching ``pattern`` — one ``(\\d+)`` group, the
    swept parameter — in increasing parameter order."""
    found = sorted(
        (int(m[1]), key) for key in obs if (m := re.fullmatch(pattern, key))
    )
    if not found:
        raise KeyError(pattern)
    return [obs[key] for _, key in found]


def _ends(
    pattern: str, test: Callable[[float, float], bool]
) -> Callable[[Observations], bool]:
    """Predicate: ``test(first, last)`` on ``pattern``'s values at the
    smallest and largest swept parameter."""

    def holds(obs: Observations) -> bool:
        values = _swept(obs, pattern)
        return test(values[0], values[-1])

    return holds


def _no_later(shallow: float, deep: float) -> bool:
    """The deep series saturates no earlier (``nan``: never saturates)."""
    return math.isnan(deep) or (not math.isnan(shallow) and deep >= shallow)


def _comparable(a: float, b: float) -> bool:
    """Both positive and, past ten events, within 5x (add-one smoothed)."""
    return a > 0 and b > 0 and (a + b <= 10 or 0.2 <= (a + 1) / (b + 1) <= 5)


def _near(obs: Observations, key: str, slack: float) -> bool:
    """The straight and random selection policies' ``key`` values differ by
    at most ``slack`` of the larger."""
    a, b = obs[key % "straight"], obs[key % "random"]
    return abs(a - b) <= slack * max(a, b)


CLAIMS: tuple[Claim, ...] = (
    Claim("FIG5:uni-more-normalized", "FIG5",
          "deep in saturation the unidirectional torus suffers more normalized "
          "deadlocks than the bidirectional one (paper: 60% vs 11%)",
          lambda o: o["uni_norm_deadlocks_deep"] > o["bi_norm_deadlocks_deep"]),
    Claim("FIG5:uni-more-total", "FIG5",
          "the unidirectional torus forms more deadlocks on less traffic",
          lambda o: o["uni_total_deadlocks"] > o["bi_total_deadlocks"]),
    Claim("FIG6:dor-more-deadlocks", "FIG6",
          "DOR forms more actual deadlocks than TFAR (up to ~6x)",
          lambda o: o["dor_total_deadlocks"] > o["tfar_total_deadlocks"]),
    Claim("FIG6:dor-single-cycle", "FIG6", "every DOR deadlock is single-cycle",
          lambda o: o["dor_multi_cycle_deadlocks"] == 0),
    Claim("FIG6:tfar-larger-deadlock-sets", "FIG6",
          "TFAR's deadlock sets are 5-7x DOR's",
          lambda o: o["deadlock_set_ratio_tfar_over_dor"] > 1, (BENCH,)),
    Claim("FIG6:tfar-larger-resource-sets", "FIG6",
          "TFAR's resource sets are 7-10x DOR's",
          lambda o: o["resource_set_ratio_tfar_over_dor"] > 1, (BENCH,)),
    Claim("FIG6:tfar-denser-knots", "FIG6",
          "TFAR's knot cycle densities are 10-30x DOR's",
          lambda o: o["knot_density_ratio_tfar_over_dor"] > 1, (BENCH,)),
    Claim("FIG6:tfar-multi-cycle", "FIG6", "TFAR's rare deadlocks are multi-cycle",
          lambda o: o["tfar_multi_cycle_deadlocks"] > 0, (BENCH,)),
    Claim("FIG7:dor-3vc-free", "FIG7", "with 3 or more VCs DOR never deadlocks",
          lambda o: o["DOR3_total_deadlocks"] == o["DOR4_total_deadlocks"] == 0,
          (TINY,)),
    Claim("FIG7:tfar-2vc-free", "FIG7", "with 2 or more VCs TFAR never deadlocks",
          lambda o: all(o[f"TFAR{v}_total_deadlocks"] == 0 for v in (2, 3, 4))),
    Claim("FIG7:second-vc-fewer", "FIG7", "a second VC reduces DOR's deadlocks",
          lambda o: o["DOR2_total_deadlocks"] <= o["DOR1_total_deadlocks"]),
    Claim("FIG7:vcs-cut-blocking", "FIG7",
          "extra VCs cut the blocked-message percentage (5-point slack)",
          lambda o: o["TFAR4_min_blocked_pct"] <= o["TFAR1_min_blocked_pct"] + 5),
    Claim("FIG8:vct-fewest-per-message", "FIG8",
          "per message in the network, cut-through deadlocks least and the "
          "shallowest wormhole buffers most",
          _ends(r"buf(\d+)_deadlocks_per_msg_in_net", lambda low, vct: vct <= low),
          (BENCH,)),
    Claim("FIG8:deeper-saturates-later", "FIG8",
          "deeper buffers saturate at equal or higher load",
          _ends(r"buf(\d+)_saturation_load", _no_later), (BENCH,)),
    Claim("SEC3.5:high-degree-fewer", "SEC3.5",
          "the higher-dimensional torus forms no more deadlocks than the 2-D one",
          lambda o: o["high_dim_total_deadlocks"] <= o["low_dim_total_deadlocks"]),
    Claim("SEC3.5:under-one-percent", "SEC3.5",
          "the higher-dimensional torus forms < 1% of the 2-D one's deadlocks",
          lambda o: o["high_over_low_deadlock_ratio"] < 0.01, (BENCH,)),
    Claim("SEC3.5:high-degree-single-cycle", "SEC3.5",
          "the higher-dimensional torus's few deadlocks are all single-cycle",
          lambda o: o["high_dim_multi_cycle_deadlocks"] == 0, (BENCH,)),
    Claim("SEC3.6:dor-overlap-suppressed", "SEC3.6",
          "permutations that preclude circular overlap suppress DOR deadlocks",
          lambda o: 0 == min(o[f"{p}_vs_uniform_ratio"]
                             for p in ("bit-reversal", "transpose", "perfect-shuffle")),
          (BENCH,)),
    Claim("TAB-AVOID:avoidance-knot-free", "TAB-AVOID",
          "the avoidance baselines (dateline DOR, Duato) never knot",
          lambda o: o["dateline_total_deadlocks"] == o["duato_total_deadlocks"] == 0),
    Claim("TAB-AVOID:recovery-keeps-up", "TAB-AVOID",
          "recovery-based TFAR delivers within 20% of dateline-DOR throughput",
          lambda o: 0 < o["recovery_peak_throughput"]
          >= 0.8 * o["dateline_peak_throughput"], (TINY,)),
    Claim("TAB-AVOID:recovery-viable", "TAB-AVOID",
          "unrestricted routing + recovery sustains at least dateline-DOR "
          "throughput (the paper's viability conclusion)",
          lambda o: o["recovery_peak_throughput"] >= o["dateline_peak_throughput"],
          (BENCH,)),
    Claim("ABL-DET:knots-form", "ABL-DET", "the true-detection run deadlocks",
          lambda o: o["true_deadlocks"] > 0),
    Claim("ABL-DET:patience-fewer-false-positives", "ABL-DET",
          "a larger timeout flags fewer merely-congested messages",
          _ends(r"t(\d+)_false_positives", lambda eager, late: late <= eager)),
    Claim("ABL-DET:patience-more-precise", "ABL-DET",
          "a larger timeout is no less precise",
          _ends(r"t(\d+)_precision", lambda eager, late: late >= eager - 1e-9)),
    Claim("ABL-DET:no-good-threshold", "ABL-DET",
          "no timeout threshold reaches both 0.9 precision and 0.9 recall",
          lambda o: not any(p >= 0.9 and r >= 0.9 for p, r in zip(
              _swept(o, r"t(\d+)_precision"), _swept(o, r"t(\d+)_recall"))),
          (BENCH,)),
    Claim("ABL-REC:teardown-comparable", "ABL-REC",
          "instant and flit-by-flit teardown both deadlock, and past ten "
          "deadlocks within 5x of each other",
          lambda o: _comparable(o["instant_total_deadlocks"],
                                o["flit-by-flit_total_deadlocks"])),
    Claim("ABL-SEL:selection-not-load-bearing", "ABL-SEL",
          "the channel-selection policy changes neither peak throughput (5%) "
          "nor deadlock counts (20%)",
          lambda o: _near(o, "%s_peak_throughput", 0.05)
          and _near(o, "%s_total_deadlocks", 0.2), (BENCH,)),
    Claim("ABL-INT:prompt-detection-finds-knots", "ABL-INT",
          "more frequent detection finds at least 30% as many knots",
          _ends(r"i(\d+)_deadlocks", lambda prompt, slow: prompt >= 0.3 * slow)),
    Claim("ABL-INT:prompt-detection-costs-nothing", "ABL-INT",
          "breaking knots promptly costs no throughput (0.05 slack)",
          _ends(r"i(\d+)_throughput", lambda prompt, slow: prompt >= slow - 0.05)),
    Claim("ABL-TIMEOUT:true-detection-recovers", "ABL-TIMEOUT",
          "knot-based recovery recovers", lambda o: o["true_recoveries"] > 0),
    Claim("ABL-TIMEOUT:aggressive-recovers-more", "ABL-TIMEOUT",
          "an aggressive timeout recovers at least as often as a patient one, "
          "and at least 20% as often as knot-based recovery",
          lambda o: (r := _swept(o, r"t(\d+)_recoveries"))[0] >= r[-1]
          and r[0] >= 0.2 * o["true_recoveries"]),
    Claim("ABL-TIMEOUT:unnecessary-within-recoveries", "ABL-TIMEOUT",
          "unnecessary recoveries never exceed total recoveries",
          lambda o: all(u <= r for u, r in zip(
              _swept(o, r"t(\d+)_unnecessary"), _swept(o, r"t(\d+)_recoveries")))),
    Claim("EXT-LEN:longer-worms-more-channels", "EXT-LEN",
          "longer worms hold more channels: resource sets grow with length",
          _ends(r"len(\d+)_avg_resource_set", lambda short, long: long >= short)),
    Claim("EXT-GRAN:pwfg-cycles-without-knots", "EXT-GRAN",
          "message-level cycles form without a true deadlock, so forbidding "
          "them is overly restrictive",
          lambda o: o["pwfg_cyclic_no_knot_detections"] > 0, (BENCH,)),
    Claim("EXT-FAULT:faults-no-less-congested", "EXT-FAULT",
          "failed links leave the network no less congested (10-point slack)",
          _ends(r"f(\d+)_blocked_pct", lambda healthy, faulty: faulty >= healthy - 10)),
    Claim("ABL-ARB:age-priority-shortens-starvation", "ABL-ARB",
          "oldest-first service shortens the starvation tail against random",
          lambda o: o["oldest-first_max_blocked"] <= o["random_max_blocked"],
          (BENCH,)),
    Claim("TOPO-CMP:mesh-more-capacity", "TOPO-CMP",
          "the full mesh's direct wiring gives it more bandwidth than the torus",
          lambda o: o["fullmesh_capacity_flits"] > o["torus3d_capacity_flits"]),
    Claim("TOPO-CMP:tsv-less-capacity", "TOPO-CMP",
          "the slow TSV dimension reduces capacity at equal geometry",
          lambda o: o["torus3d_tsv_capacity_flits"] < o["torus3d_capacity_flits"]),
    Claim("TOPO-CMP:mesh-no-more-deadlocks", "TOPO-CMP",
          "the full mesh never out-deadlocks the wraparound torus",
          lambda o: o["fullmesh_total_deadlocks"] <= o["torus3d_total_deadlocks"]),
    Claim("TOPO-CMP:torus-deadlocks", "TOPO-CMP", "the 3D torus deadlocks readily",
          lambda o: o["torus3d_total_deadlocks"] > 0, (BENCH,)),
    Claim("TOPO-CMP:tsv-no-more", "TOPO-CMP",
          "the TSV torus deadlocks no more than the uniform one",
          lambda o: o["torus3d_tsv_total_deadlocks"] <= o["torus3d_total_deadlocks"],
          (BENCH,)),
    Claim("TOPO-CMP:dragonfly-deadlocks", "TOPO-CMP",
          "the dragonfly deadlocks under minimal routing",
          lambda o: o["dragonfly_total_deadlocks"] > 0, (BENCH,)),
)


def evaluate(claim: Claim, observations: Observations) -> str:
    """``claim``'s verdict on one set of observations."""
    try:
        return HOLDS if claim.holds(observations) else FAILS
    except KeyError as missing:
        return f"not evaluated (no observation {missing})"


def verdicts(result: "ExperimentResult") -> list[tuple[Claim, str]]:
    """Every claim of ``result``'s experiment with its verdict.

    A result any of whose sweeps lost points to a degraded campaign is not
    evaluated: its observations may compare different loads.
    """
    degraded = any(sweep.failures for sweep in result.sweeps.values())
    return [
        (claim, DEGRADED if degraded else evaluate(claim, result.observations))
        for claim in CLAIMS
        if claim.experiment == result.experiment_id
    ]


def committed_observations() -> dict[str, dict[str, float]]:
    """The committed bench observations, ``{experiment: {key: value}}``."""
    out: dict[str, dict[str, float]] = {}
    with open(BENCH_OBSERVATIONS, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["experiment"], {})[row["key"]] = float(row["value"])
    return out
