"""Command-line interface.

Four subcommands::

    python -m repro simulate --k 8 --n 2 --routing dor --vcs 1 --load 0.8
    python -m repro simulate --topology dragonfly --dims 4,2,2 --routing df-min
    python -m repro experiment FIG5 --scale bench [--csv out.csv] [--chart]
    python -m repro campaign run FIG5 --store runs/fig5 --scale bench
    python -m repro oracle check [CASE ...] [--witness-dir DIR]

``simulate`` runs one configuration — any topology in the zoo
(``--topology torus|mesh3d|torus3d|dragonfly|fullmesh``, see
docs/TOPOLOGIES.md) — and prints the run summary plus the deadlock
characterization.  ``experiment`` regenerates one of the paper's
figures/tables (FIG5, FIG6, FIG7, FIG8, SEC3.5, SEC3.6, TAB-AVOID,
ABL-DET, ... or the cross-topology TOPO-CMP study, alias
``topology-comparison``) and prints the paper-style tables, optionally
with CSV export and ASCII charts; with ``--store`` the sweeps run as a
checkpointed campaign.
``campaign`` manages durable sweep campaigns (:mod:`repro.campaign`):
``run`` executes an experiment against a result store with per-point
retry/timeout fault tolerance, ``resume`` is the same invocation spelled
to make intent explicit (completed points are always skipped), ``status``
renders the store manifest, ``clean`` drops failed entries (or, with
``--all``, the whole store) so they run again.  The distributed tier
(:mod:`repro.campaign.service`): ``serve`` runs an experiment as a
campaign *service* — an asyncio lease scheduler that local fork slots and
remote machines drain cooperatively — ``worker --connect HOST:PORT``
attaches a network worker to one, ``watch --connect HOST:PORT`` streams
its live status, and ``rebuild`` reconstructs a store manifest from the
on-disk artifacts and journal after corruption or loss.
``oracle`` drives the exhaustive model checker
(:mod:`repro.validation.oracle`): ``list`` prints the verified
configuration classes, ``check`` enumerates each class to closure and
cross-checks the knot detector at every reachable state, ``witness``
writes the shortest replayable path into a true deadlock, ``replay``
re-runs a witness artifact, and ``teeth`` proves armed bookkeeping faults
are caught with concrete counterexamples.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.config import FIELDS, SimulationConfig, bench_default

__all__ = ["main", "build_parser"]

#: experiment registry ids accepted by ``experiment`` and ``campaign run``
EXPERIMENT_IDS = [
    "FIG5", "FIG6", "FIG7", "FIG8", "SEC3.5", "SEC3.6",
    "TAB-AVOID", "ABL-DET", "ABL-REC", "ABL-SEL", "ABL-INT",
    "ABL-TIMEOUT", "EXT-LEN", "EXT-GRAN", "EXT-FAULT", "ABL-ARB",
    "TOPO-CMP", "topology-comparison", "all",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Characterization of deadlocks in interconnection networks "
            "(Warnakulasuriya & Pinkston, IPPS 1997) — flit-level simulator "
            "with true CWG-knot deadlock detection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_simulate_args(sub.add_parser("simulate", help="run one simulation"))

    exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    _add_experiment_args(exp)
    _add_campaign_run_args(exp, store_required=False)

    camp = sub.add_parser(
        "campaign", help="checkpointed, resumable experiment campaigns"
    )
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)
    for verb, blurb in (
        ("run", "run an experiment as a durable campaign"),
        ("resume", "re-invoke a campaign: completed points are skipped"),
    ):
        crun = camp_sub.add_parser(verb, help=blurb)
        _add_experiment_args(crun)
        _add_campaign_run_args(crun, store_required=True)
    cstatus = camp_sub.add_parser(
        "status", help="render a store's manifest (done/failed/counters)"
    )
    cstatus.add_argument("--store", required=True, metavar="DIR")
    cclean = camp_sub.add_parser(
        "clean", help="drop failed manifest entries so they run again"
    )
    cclean.add_argument("--store", required=True, metavar="DIR")
    cclean.add_argument("--all", action="store_true",
                        help="remove every artifact and the manifest")
    cserve = camp_sub.add_parser(
        "serve",
        help="run an experiment as a distributed campaign service "
             "(remote workers attach with `campaign worker --connect`)",
    )
    _add_experiment_args(cserve)
    cserve.add_argument("--store", required=True, metavar="DIR")
    cserve.add_argument("--host", default="127.0.0.1",
                        help="bind address for both endpoints (default "
                             "127.0.0.1; use 0.0.0.0 for remote workers)")
    cserve.add_argument("--port", type=int, default=0,
                        help="worker-protocol TCP port (default: ephemeral)")
    cserve.add_argument("--status-port", type=int, default=None, metavar="PORT",
                        help="serve live JSON/SSE status here "
                             "(0 = ephemeral; omitted = no status endpoint)")
    cserve.add_argument("--local-workers", type=int, default=0,
                        help="in-process fork-executor slots (default 0: "
                             "remote workers do all the work)")
    cserve.add_argument("--lease-ttl", type=float, default=15.0,
                        help="seconds a lease survives without a heartbeat "
                             "before its point is requeued (default 15)")
    cserve.add_argument("--requeue-limit", type=int, default=3,
                        help="lease grants per point before it degrades to "
                             "a terminal lease-expired failure (default 3)")
    cserve.add_argument("--retries", type=int, default=2,
                        help="per-point re-attempts inside each worker")
    cserve.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="per-point wall-clock budget inside each worker")
    cworker = camp_sub.add_parser(
        "worker", help="attach a network worker to a campaign service"
    )
    cworker.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="the service's worker-protocol endpoint")
    cworker.add_argument("--id", dest="worker_id", default=None,
                         help="worker identity shown in status "
                              "(default: hostname/pid)")
    cworker.add_argument("--retries", type=int, default=2,
                         help="re-attempts per failed point (default 2)")
    cworker.add_argument("--timeout", type=float, default=None, metavar="SECS",
                         help="per-point wall-clock budget")
    cworker.add_argument("--max-points", type=int, default=None,
                         help="exit after executing N points")
    cworker.add_argument("--stay", action="store_true",
                         help="keep polling after the campaign drains "
                              "instead of exiting on `done`")
    cwatch = camp_sub.add_parser(
        "watch", help="stream a campaign service's live status"
    )
    cwatch.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the service's *status* endpoint")
    cwatch.add_argument("--interval", type=float, default=1.0,
                        help="seconds between status polls (default 1)")
    cwatch.add_argument("--max-updates", type=int, default=None,
                        help="stop after N polls (default: until drained)")
    crebuild = camp_sub.add_parser(
        "rebuild",
        help="reconstruct the manifest from on-disk artifacts + journal",
    )
    crebuild.add_argument("--store", required=True, metavar="DIR")

    orc = sub.add_parser(
        "oracle", help="exhaustive model-checking oracle for the detector"
    )
    orc_sub = orc.add_subparsers(dest="oracle_command", required=True)
    orc_sub.add_parser("list", help="print the verified configuration classes")
    ocheck = orc_sub.add_parser(
        "check", help="enumerate cases to closure and cross-check the detector"
    )
    ocheck.add_argument("cases", nargs="*", metavar="CASE",
                        help="case names (default: the whole grid)")
    ocheck.add_argument("--witness-dir", metavar="DIR",
                        help="write a replayable witness per violation here")
    owit = orc_sub.add_parser(
        "witness", help="write the shortest path into a case's true deadlock"
    )
    owit.add_argument("case", metavar="CASE")
    owit.add_argument("--out", required=True, metavar="PATH")
    orep = orc_sub.add_parser("replay", help="re-run a witness artifact")
    orep.add_argument("artifact", metavar="PATH")
    orep.add_argument("--production", action="store_true",
                      help="replay on the production engine with the "
                           "detector's worm-level pipeline")
    oteeth = orc_sub.add_parser(
        "teeth", help="prove armed faults are caught with counterexamples"
    )
    oteeth.add_argument("case", nargs="?", default="ring-deadlock",
                        metavar="CASE")
    oteeth.add_argument("--witness-dir", metavar="DIR",
                        help="write each fault's catching witness here")
    return parser


def _parse_int_tuple(value: str) -> tuple[int, ...]:
    """argparse type for comma-separated positive-int tuples like '4,4,2'."""
    try:
        return tuple(int(part) for part in value.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None


#: the config ``simulate`` starts from; its flags override the fields
#: that carry a ``cli`` entry in the config's field table
_SIMULATE_BASE = bench_default(routing="dor", measure_cycles=3000)

#: ``simulate`` flags that are not one field each, keyed by the field whose
#: flag they follow in ``--help``
_SIMULATE_EXTRAS = {
    "bidirectional": ("--unidirectional", dict(action="store_true")),
    "seed": ("--progress", dict(type=int, default=0,
                                help="print progress every N cycles")),
    "obs_level": ("--trace-out", dict(
        metavar="PATH",
        help="write the cycle-level trace (implies --obs-level 2); '.jsonl' "
             "suffix selects JSONL, anything else Chrome-trace JSON for "
             "chrome://tracing / Perfetto",
    )),
}


def _add_simulate_args(parser: argparse.ArgumentParser) -> None:
    """One option per field with a ``cli`` entry, in field order, its
    default from ``_SIMULATE_BASE`` and its choices from the field's domain."""
    for field in FIELDS:
        flag = field.metadata["cli"]
        if flag is not None:
            default = getattr(_SIMULATE_BASE, field.name)
            if isinstance(default, bool):
                kwargs = dict(action="store_true")
            else:
                tuple_flag = isinstance(default, tuple)
                kwargs = dict(
                    type=_parse_int_tuple if tuple_flag else type(default),
                    default=default,
                    choices=field.metadata["domain"].choices() or None,
                    metavar=flag.metavar,
                )
            parser.add_argument(flag.name, help=flag.help, **kwargs)
        if field.name in _SIMULATE_EXTRAS:
            name, kwargs = _SIMULATE_EXTRAS[field.name]
            parser.add_argument(name, **kwargs)


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    """The experiment and report knobs shared by `experiment` and `campaign`."""
    obs_levels = SimulationConfig.__dataclass_fields__["obs_level"].metadata["domain"]
    parser.add_argument("id", choices=EXPERIMENT_IDS)
    parser.add_argument("--scale", default="bench",
                        choices=["tiny", "bench", "paper"])
    parser.add_argument("--csv", metavar="PATH",
                        help="also write the sweep rows as CSV, and every "
                             "observation to <stem>_observations.csv beside it")
    parser.add_argument("--chart", action="store_true",
                        help="render ASCII charts of the figure series")
    parser.add_argument("--obs-level", type=int, default=0,
                        choices=obs_levels.choices(),
                        help="collect observability metrics in every sweep "
                             "point and print per-series rollups (default 0)")


def _add_campaign_run_args(
    parser: argparse.ArgumentParser, *, store_required: bool
) -> None:
    """The campaign-execution knobs shared by `experiment` and `campaign`."""
    parser.add_argument(
        "--store", required=store_required, metavar="DIR",
        help="result-store directory; completed points are checkpointed "
             "there and skipped on re-invocation"
        + ("" if store_required else " (omitting it runs plain sweeps)"),
    )
    parser.add_argument("--retries", type=int, default=2,
                        help="re-attempts per failed point (default 2)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECS",
                        help="per-point wall-clock budget; a worker past it "
                             "is killed and the attempt retried")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="concurrent worker processes (default: every CPU this process "
             "may run on)"
        + ("" if store_required else "; without --store it caps the "
           "in-memory fan-out of each sweep's points"),
    )
    parser.add_argument("--max-points", type=int, default=None,
                        help="stop after N fresh point executions "
                             "(interruption hook used by tests/CI)")


def _run_simulate(args: argparse.Namespace) -> int:
    from repro.network.simulator import NetworkSimulator

    config = _SIMULATE_BASE.replace(
        bidirectional=not args.unidirectional,
        **{f.name: getattr(args, f.metadata["cli"].name[2:].replace("-", "_"))
           for f in FIELDS if f.metadata["cli"]},
    )
    if args.trace_out and config.obs_level < 2:
        config = config.replace(obs_level=2)  # tracing needs the ring buffer
    sim = NetworkSimulator(config)
    print(f"simulating {config.label()} ...")
    result = sim.run(progress_every=args.progress)
    cap = sim.topology.capacity_flits_per_node_cycle
    print(result.summary())
    print(f"throughput (normalized): {result.normalized_throughput(cap):.3f}")
    print(
        f"deadlocks: {result.deadlocks} "
        f"({result.single_cycle_deadlocks} single-cycle, "
        f"{result.multi_cycle_deadlocks} multi-cycle)"
    )
    if result.deadlocks:
        print(
            f"avg deadlock set {result.avg_deadlock_set_size:.1f} msgs, "
            f"avg resource set {result.avg_resource_set_size:.1f} VCs, "
            f"avg knot density {result.avg_knot_cycle_density:.1f}"
        )
    if sim.obs.enabled:
        print()
        print(sim.obs.phase_table())
    if args.trace_out:
        tracer = sim.obs.tracer
        if args.trace_out.endswith(".jsonl"):
            tracer.write_jsonl(args.trace_out)
        else:
            tracer.write_chrome(args.trace_out)
        stats = tracer.stats()
        print(
            f"trace written to {args.trace_out} "
            f"({stats['events']} events, {stats['dropped']} dropped)"
        )
    return 0


def _campaign_runner_from_args(args: argparse.Namespace):
    """Build the CampaignRunner an invocation asked for (None without --store)."""
    if not getattr(args, "store", None):
        return None
    from repro.campaign import CampaignRunner, ResultStore

    return CampaignRunner(
        ResultStore(args.store),
        retries=args.retries,
        timeout_s=args.timeout,
        max_workers=args.workers,
        max_points=args.max_points,
    )


def _print_campaign_summary(runner) -> None:
    counters = runner.registry.snapshot()["counters"]
    parts = [
        f"{name.split('/', 1)[1]}={value}"
        for name, value in sorted(counters.items())
        if name.startswith("campaign/")
    ]
    print(f"campaign [{runner.store.root}]: " + ", ".join(parts))
    failures = counters.get("campaign/failures", 0)
    if failures:
        print(
            f"WARNING: {failures} point(s) degraded to recorded failures — "
            f"see `repro campaign status --store {runner.store.root}`"
        )


def _run_experiment(args: argparse.Namespace, runner=None) -> int:
    from repro.experiments import ALL_EXPERIMENTS, EXPERIMENT_ALIASES
    from repro.experiments.base import set_campaign_runner, set_default_obs_level
    from repro.experiments.report import (
        render_figure,
        render_obs_rollup,
        experiment_csv,
        observations_csv,
        render_topology_comparison,
    )
    from repro.metrics.sweep import FanOut

    set_default_obs_level(args.obs_level)
    if runner is None:
        runner = _campaign_runner_from_args(args)
    set_campaign_runner(runner if runner is not None else FanOut(args.workers))
    try:
        exp_id = EXPERIMENT_ALIASES.get(args.id, args.id)
        wanted = list(ALL_EXPERIMENTS) if exp_id == "all" else [exp_id]
        results = []
        for exp_id in wanted:
            result = ALL_EXPERIMENTS[exp_id](scale=args.scale)
            print(result.format_tables())
            if exp_id == "TOPO-CMP":
                print()
                print(render_topology_comparison(result))
            if args.obs_level:
                rollup = render_obs_rollup(result)
                if rollup:
                    print()
                    print(rollup)
            if args.chart:
                print()
                print(render_figure(result, "norm_deadlocks"))
                print()
                print(render_figure(result, "throughput"))
            results.append(result)
            print()
        if args.csv:
            rows = Path(args.csv)
            observations = rows.with_name(f"{rows.stem}_observations.csv")
            rows.write_text(experiment_csv(results))
            observations.write_text(observations_csv(results))
            print(f"CSV written to {rows} and {observations}")
        if runner is not None:
            _print_campaign_summary(runner)
    finally:
        set_campaign_runner(None)
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore
    from repro.experiments.report import render_campaign_status

    if args.campaign_command == "status":
        print(render_campaign_status(ResultStore(args.store)))
        return 0
    if args.campaign_command == "clean":
        summary = ResultStore(args.store).clean(all_points=args.all)
        print(
            f"cleaned {args.store}: {summary['failed_dropped']} failed "
            f"entr(ies) dropped, {summary['artifacts_dropped']} artifact(s) "
            f"removed"
        )
        return 0
    if args.campaign_command == "rebuild":
        manifest = ResultStore(args.store).manifest_rebuild()
        statuses: dict[str, int] = {}
        for entry in manifest["points"].values():
            statuses[entry["status"]] = statuses.get(entry["status"], 0) + 1
        corrupt = manifest["counters"].get("corrupt_artifacts", 0)
        print(
            f"rebuilt manifest for {args.store}: "
            f"{statuses.get('done', 0)} done, {statuses.get('failed', 0)} "
            f"failed point(s) recovered"
            + (f"; {corrupt} corrupt artifact(s) dropped" if corrupt else "")
        )
        return 0
    if args.campaign_command in ("serve", "worker", "watch"):
        from repro.campaign.service import verbs

        if args.campaign_command == "serve":
            return verbs.serve(args, _run_experiment)
        return getattr(verbs, args.campaign_command)(args)
    # run / resume: identical semantics — resume is run with a store that
    # already holds completed points
    return _run_experiment(args)


def _run_oracle(args: argparse.Namespace) -> int:
    from repro.validation import oracle as orc

    if args.oracle_command == "list":
        for case in orc.ORACLE_GRID:
            dl = case.expected_deadlocked_terminals
            print(
                f"{case.name}: {case.description}\n"
                f"    {case.expected_states} states, "
                f"{case.expected_terminals} terminals "
                f"({dl} deadlocked)"
            )
        return 0
    if args.oracle_command == "check":
        names = args.cases or [c.name for c in orc.ORACLE_GRID]
        failed = False
        for name in names:
            case = orc.get_case(name)
            report = orc.check_case(case, log=print, keep_graph=True)
            for violation in report.violations:
                print(f"  {violation.kind} @ state {violation.state_index}: "
                      f"{violation.detail}")
                if args.witness_dir and violation.state_index >= 0:
                    payload = orc.build_witness(
                        report.graph, violation.state_index,
                        kind=violation.kind, detail=violation.detail,
                    )
                    path = orc.dump_witness(
                        payload,
                        Path(args.witness_dir)
                        / f"{name}-{violation.kind}-{violation.state_index}.json",
                    )
                    print(f"  witness written to {path}")
            failed = failed or not report.ok
        return 1 if failed else 0
    if args.oracle_command == "witness":
        payload = orc.make_deadlock_witness(orc.get_case(args.case))
        path = orc.dump_witness(payload, args.out)
        print(f"deadlock witness ({len(payload['steps'])} steps) "
              f"written to {path}")
        return 0
    if args.oracle_command == "replay":
        payload = orc.load_witness(args.artifact)
        result = orc.replay_witness(payload, production=args.production)
        engine = "production" if args.production else "oracle"
        if result.ok:
            print(f"replay OK on the {engine} engine: "
                  f"{len(payload['steps'])} steps reproduced, final state "
                  f"{result.final_digest}")
            return 0
        print(f"replay DIVERGED on the {engine} engine: {result.detail}")
        return 1
    # teeth
    case = orc.get_case(args.case)
    outcomes = orc.run_teeth(case)
    missed = False
    for out in outcomes:
        status = "caught" if out.caught else "MISSED"
        print(f"{out.fault}: {status}"
              + (f" by the {out.witness_kind!r} witness "
                 f"({out.divergence} divergence at step {out.diverged_at})"
                 if out.caught else ""))
        if out.caught and args.witness_dir:
            path = orc.dump_witness(
                out.witness, Path(args.witness_dir) / f"teeth-{out.fault}.json"
            )
            print(f"  witness written to {path}")
        missed = missed or not out.caught
    return 1 if missed else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "oracle":
        return _run_oracle(args)
    return _run_experiment(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
