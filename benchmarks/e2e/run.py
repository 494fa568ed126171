#!/usr/bin/env python3
"""End-to-end + per-layer performance ledger — the repo benchmark.

::

    python3 benchmarks/e2e/run.py                      # full ledger, all workloads
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --smoke              # tiny sizes, traced, < 20 s
    python3 benchmarks/e2e/run.py --pin                # rewrite expected_digests.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

One invocation with ``--workload`` measures one workload in this (fresh)
process for ``--seconds`` seconds: as many reps of the workload's
fixed-size pass as fit (at least three), end-to-end metrics as medians
over the reps.  ``--trace 1`` runs two or more untraced reps and then one
traced pass (``obs_level=1`` plus the layer probes) and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Without ``--workload`` every workload is run that way, untraced and
traced, each in its own subprocess (so one workload's peak memory does
not mask another's), and the whole ledger is printed and written to
``--out``.

See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

# Harness modules import as ``benchmarks.e2e.*`` and the library from the
# checkout's own ``src/``.  When this file runs as a script its directory
# leads sys.path, where trace.py would shadow the stdlib module of that name.
if sys.path and Path(sys.path[0] or ".").resolve() == E2E_DIR:
    del sys.path[0]
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: fresh interpreters timed for the import share of ``setup_s``
IMPORT_SAMPLES = 5
MIN_REPS = 3
#: untraced reps a traced run makes first (the baseline of the overhead)
MIN_REPS_BEFORE_TRACE = 2


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


@contextmanager
def work_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout, also made the process's
    temporary directory so the library's own throwaway stores stay inside
    the checkout (forked workers inherit it)."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)


def import_sample() -> float:
    """Wall-clock of ``import repro`` in one fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return float(done.stdout)


def import_seconds(samples: int = IMPORT_SAMPLES) -> float:
    return statistics.median(import_sample() for _ in range(samples))


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


# -- measuring one workload ---------------------------------------------------------
def _run_pass(workload, seed: int, ctx, trace_id: str) -> tuple[dict, object]:
    """One pass under a ``pass`` span; returns its timings and the outcome."""
    from benchmarks.e2e.workloads import cpu_now

    ctx.tracer.trace_id = trace_id
    gc.collect()  # every rep starts from the same collector state
    cpu0 = cpu_now()
    with ctx.tracer.span("pass") as span:
        outcome = workload.run_pass(seed, ctx)
    timing = {
        "wall_s": span.duration,
        "cpu_s": cpu_now() - cpu0,
        "sim_cycles": outcome.sim_cycles,
        "points": outcome.simulated_points,
        "cold_cpu_s": outcome.extra.get("cold_cpu_s", 0.0),
    }
    return timing, outcome


def _setup_seconds(outcome, ctx, trace_id: str) -> float:
    """Constructor time before the first simulated cycle of one pass: every
    simulator of the pass built once more under a span, plus the stores
    and the service the pass itself opened."""
    from repro.network.simulator import NetworkSimulator

    configs = list(dict.fromkeys(p.result.config for p in outcome.points))
    gc.collect()  # the pass's garbage is not set-up cost
    with ctx.tracer.span("setup.construct") as span:
        for config in configs:
            NetworkSimulator(config)
    return (
        span.duration
        + ctx.tracer.total("campaign.store.open", trace_id)
        + ctx.tracer.total("campaign.service.start", trace_id)
    )


def measure_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    *,
    sizes_name: str = "full",
    min_reps: Optional[int] = None,
    import_s: Optional[float] = None,
    pinned: Optional[dict] = None,
    trace_out: Optional[Path] = None,
) -> dict:
    """Measure one workload in this process; returns the detail record.

    ``import_s`` is the import share of ``setup_s``; an untraced run given
    none samples it once after every rep (a slow spell of the machine then
    taints one sample, not the median).  ``pinned`` overrides the pinned
    digests read from ``expected_digests.json`` (the harness test corrupts
    one on purpose).
    """
    from benchmarks.e2e import verify
    from benchmarks.e2e.compare import summarize
    from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, SINGLE_RUNS
    from benchmarks.e2e.probes import Probes, layer_metrics, reference_metrics
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import FULL, SMOKE, PassContext, make_workloads

    sizes = {"full": FULL, "smoke": SMOKE}[sizes_name]
    workload = make_workloads(sizes)[name]
    if min_reps is None:
        min_reps = MIN_REPS_BEFORE_TRACE if traced else MIN_REPS
    tracer = Tracer()
    started = time.perf_counter()
    with work_dir() as workdir:
        ctx = PassContext(tracer, workdir)

        # -- untraced reps: obs_level=0, no probes -------------------------------
        reps: list[dict] = []
        maps: list[dict] = []
        library_failed = 0
        import_samples: list[float] = []
        time_import = import_s is None and not traced
        # a traced run keeps room for the traced pass and its micro-timings
        reserve = 3.0 if traced else 1.0
        while True:
            rep_started = time.perf_counter()
            trace_id = f"{name}/rep{len(reps)}"
            timing, outcome = _run_pass(workload, seed, ctx, trace_id)
            timing["setup_s"] = _setup_seconds(outcome, ctx, trace_id)
            reps.append(timing)
            maps.append(verify.digest_map(outcome.points))
            library_failed += outcome.extra.get("library_failed", 0)
            library_failed += 0 if outcome.extra.get("report_ok", True) else 1
            del outcome
            if time_import:
                import_samples.append(import_sample())
            rep_s = time.perf_counter() - rep_started
            elapsed = time.perf_counter() - started
            if len(reps) >= min_reps and elapsed + reserve * rep_s > seconds:
                break
        rss_mb = peak_rss_mb()
        if time_import:
            while len(import_samples) < IMPORT_SAMPLES:
                import_samples.append(import_sample())
            import_s = statistics.median(import_samples)

        # -- traced pass ---------------------------------------------------------
        layers: dict[str, float] = {}
        if traced:
            probes = Probes(tracer, time_steps=name in SINGLE_RUNS)
            traced_ctx = PassContext(tracer, workdir, probes)
            trace_id = f"{name}/traced"
            _timing, outcome = _run_pass(workload, seed, traced_ctx, trace_id)
            maps.append(verify.digest_map(outcome.points))
            for snapshot in outcome.extra.get("cold_obs", ()):
                probes.add_obs(snapshot)
            untraced_wall = statistics.median(r["wall_s"] for r in reps)
            layers = layer_metrics(probes, tracer, trace_id, outcome, untraced_wall)

        # -- correctness ---------------------------------------------------------
        expected = [maps[0]]
        reference_id = tracer.trace_id = f"{name}/reference"
        reference = workload.reference_points(seed, ctx)
        if reference is not None:
            expected.append(verify.digest_map(reference))
        if pinned is None and seed == verify.PINNED_SEED:
            pinned = verify.load_pinned(sizes.name, name)
        if pinned is not None:
            expected.append(pinned)
        labels = set().union(*expected)
        attempted = len(labels) * len(maps)
        failed = library_failed
        for got in maps:
            bad = set(got.keys() - labels)
            for want in expected:
                bad.update(l for l, d in want.items() if got.get(l) != d)
            failed += len(bad)

        if traced and reference is not None:
            cold_cpu = statistics.median(r["cold_cpu_s"] for r in reps)
            layers.update(
                reference_metrics(tracer, reference_id, reference, cold_cpu, workdir)
            )

    if trace_out is not None:
        tracer.write(trace_out)

    unknown = layers.keys() - PER_LAYER.keys()
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    per_rep = {
        "wall_s": [r["wall_s"] for r in reps],
        "sim_cycles_per_s": [r["sim_cycles"] / r["wall_s"] for r in reps],
        "points_per_s": [r["points"] / r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [rss_mb],
        "setup_s": [(import_s or 0.0) + r["setup_s"] for r in reps],
    }
    return {
        "workload": name,
        "seed": seed,
        "sizes": sizes.name,
        "traced": traced,
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "import_s": import_s,
        "end_to_end": {
            metric: {"unit": unit, "better": better, **summarize(per_rep[metric])}
            for metric, (unit, better) in END_TO_END.items()
        },
        "per_layer": {
            metric: {"value": layers.get(metric, 0.0), "unit": unit}
            for metric, (unit, _better, _on) in PER_LAYER.items()
        }
        if traced
        else {},
    }


# -- output -------------------------------------------------------------------------
def contract_line(detail: dict) -> str:
    """The one-line JSON result the benchmark contract asks for."""
    if detail["traced"]:
        metrics = {
            name: {"value": cell["value"], "unit": cell["unit"]}
            for name, cell in detail["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": cell["median"], "unit": cell["unit"]}
            for name, cell in detail["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


def render_detail(detail: dict, *, end_to_end: bool, per_layer: bool) -> str:
    from benchmarks.e2e.metrics import declared_on

    name = detail["workload"]
    lines = [
        f"== {name}  seed={detail['seed']} sizes={detail['sizes']} "
        f"reps={detail['reps']} failed_ops_share="
        f"{detail['failed'] / detail['attempted']:g} "
        f"({detail['failed']}/{detail['attempted']} points)"
    ]
    if end_to_end:
        for metric, cell in detail["end_to_end"].items():
            lines.append(
                f"  {metric:<20} {cell['median']:>12.4f} {cell['unit']:<4} "
                f"q1={cell['q1']:.4f} q3={cell['q3']:.4f} min={cell['min']:.4f} "
                f"n={cell['n']}"
            )
    if per_layer:
        for metric, cell in detail["per_layer"].items():
            if declared_on(metric, name):
                lines.append(f"  {metric:<42} {cell['value']:>14.4f} {cell['unit']}")
    return "\n".join(lines)


# -- modes --------------------------------------------------------------------------
def run_one(args) -> int:
    """``--workload``: the mode the benchmark contract drives."""
    traced = bool(args.trace)
    sizes_name = "smoke" if args.smoke else "full"
    detail = measure_workload(
        args.workload,
        args.seed,
        args.seconds,
        traced,
        sizes_name=sizes_name,
        min_reps=1 if args.smoke else None,
        trace_out=args.trace_out,
    )
    if args.detail_out is not None:
        args.detail_out.write_text(json.dumps(detail, indent=1) + "\n")
    print(render_detail(detail, end_to_end=not traced, per_layer=traced))
    print(contract_line(detail))
    return 0


def run_ledger(args) -> int:
    """Every workload, untraced then traced, each in a fresh subprocess."""
    from benchmarks.e2e.metrics import ALL_WORKLOADS

    ledger = {
        "schema": 1,
        "seed": args.seed,
        "sizes": "full",
        "seconds": args.seconds,
        "workloads": {},
    }
    with work_dir() as workdir:
        for name in ALL_WORKLOADS:
            merged: dict = {}
            for trace in (0, 1):
                detail_path = workdir / f"{name}.{trace}.json"
                cmd = [
                    sys.executable,
                    str(E2E_DIR / "run.py"),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--detail-out", str(detail_path),
                ]  # fmt: skip
                if trace and args.trace_out is not None:
                    cmd += ["--trace-out", f"{args.trace_out}.{name}.json"]
                subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
                detail = json.loads(detail_path.read_text())
                if trace:
                    merged["per_layer"] = detail["per_layer"]
                    merged["attempted"] += detail["attempted"]
                    merged["failed"] += detail["failed"]
                    merged["correct"] = merged["failed"] == 0
                else:
                    merged = detail
            ledger["workloads"][name] = merged
            print(render_detail(merged, end_to_end=True, per_layer=True), flush=True)
    out = args.out if args.out is not None else WORK_ROOT / "e2e_result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nresult file: {out}")
    return 0 if all(w["correct"] for w in ledger["workloads"].values()) else 1


def run_smoke(args, pinned_override: Optional[dict] = None) -> dict:
    """All five workloads at tiny sizes, one rep, traced, in this process.

    Returns ``{workload: detail}``; ``pinned_override`` maps a workload to
    the pinned digests to check it against (the harness test's teeth).
    """
    from benchmarks.e2e.metrics import ALL_WORKLOADS

    import_s = import_seconds()
    details = {}
    for name in ALL_WORKLOADS:
        details[name] = measure_workload(
            name,
            args.seed,
            0.0,
            True,
            sizes_name="smoke",
            min_reps=1,
            import_s=import_s,
            pinned=(pinned_override or {}).get(name),
        )
        print(render_detail(details[name], end_to_end=True, per_layer=True))
    return details


def run_pin(args) -> int:
    """Rewrite ``expected_digests.json`` from one pass per workload."""
    from benchmarks.e2e import verify
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import FULL, SMOKE, PassContext, make_workloads

    pinned: dict = {}
    with work_dir() as workdir:
        for sizes in (FULL, SMOKE):
            for name, workload in make_workloads(sizes).items():
                ctx = PassContext(Tracer(), workdir)
                outcome = workload.run_pass(verify.PINNED_SEED, ctx)
                pinned.setdefault(sizes.name, {})[name] = verify.digest_map(
                    outcome.points
                )
                print(f"pinned {sizes.name}/{name}: {len(outcome.points)} points")
    verify.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def run_compare(args) -> int:
    from benchmarks.e2e.compare import compare_files, render_rows

    rows = compare_files(args.compare[0], args.compare[1], load_benchmark())
    print(render_rows(rows))
    return 1 if any(r.verdict == "regressed" for r in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per run (default: run_seconds of BENCHMARK.json)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one rep")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--out", type=Path, help="ledger result file")
    parser.add_argument("--detail-out", type=Path, help="one workload's detail record")
    parser.add_argument("--trace-out", type=Path, help="Chrome-trace JSON of the spans")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return run_compare(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found — the benchmark measures "
            f"the library of its own checkout and runs nowhere else",
            file=sys.stderr,
        )
        return 2
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.pin:
        return run_pin(args)
    if args.workload:
        return run_one(args)
    if args.smoke:
        details = run_smoke(args)
        return 0 if all(d["correct"] for d in details.values()) else 1
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
