"""Tests for the command-line interface."""

import dataclasses
import json
import re

import pytest

from repro.cli import build_parser, main


def _phase_shares(out: str) -> list[list[float]]:
    """The share column of every phase table printed in ``out``."""
    tables = []
    for line in out.splitlines():
        if line.split()[:1] == ["phase"] and line.endswith("share"):
            tables.append([])
        elif tables and re.match(r"  (engine|detect)/", line):
            tables[-1].append(float(line.split()[-1].rstrip("%")))
    return tables


def _pin_loads(monkeypatch, experiment_id: str, loads: list[float]) -> None:
    """Declare ``loads`` as ``experiment_id``'s tiny load grid."""
    from repro.experiments import ALL_EXPERIMENTS

    pinned = dataclasses.replace(ALL_EXPERIMENTS[experiment_id], loads={"tiny": loads})
    monkeypatch.setitem(ALL_EXPERIMENTS, experiment_id, pinned)


def _assert_shares_sum_to_100(out: str) -> None:
    tables = _phase_shares(out)
    assert tables and all(tables)
    for shares in tables:
        # each share is rounded to 1 decimal
        assert abs(sum(shares) - 100.0) <= 0.05 * len(shares), shares


#: what a saturated traced run records: the engine's phase spans and the
#: cycle-level instants
TRACE_NAMES = {
    "engine/generate", "engine/allocate", "engine/move", "engine/detect",
    "block", "wake",
}

#: a saturated 4-ary run, short enough for the fast test set
SATURATED = [
    "simulate", "--k", "4", "--length", "8", "--load", "1.0",
    "--warmup", "50", "--cycles", "300",
]


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.routing == "dor"
        assert args.load == 0.5

    def test_simulate_flags_come_from_the_field_table(self):
        """Every field with a ``cli`` entry has its flag, with the simulate
        base config's default and the domain's choices; the only other
        flags are hand-written."""
        from repro.cli import _SIMULATE_BASE
        from repro.config import FIELDS, bench_default

        assert _SIMULATE_BASE == bench_default(routing="dor", measure_cycles=3000)
        sim = build_parser()._subparsers._group_actions[0].choices["simulate"]
        actions = {a.option_strings[-1]: a for a in sim._actions}
        for f in FIELDS:
            flag = f.metadata["cli"]
            if flag is None:
                continue
            action = actions.pop(flag.name)
            assert action.default == getattr(_SIMULATE_BASE, f.name), f.name
            if action.nargs != 0:  # store_true flags take no choices
                assert action.choices == (f.metadata["domain"].choices() or None)
        assert set(actions) == {
            "--help", "--unidirectional", "--progress", "--trace-out"
        }

    def test_experiment_args(self):
        args = build_parser().parse_args(["experiment", "FIG5", "--scale", "tiny"])
        assert args.id == "FIG5"
        assert args.scale == "tiny"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "FIG99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_serve_args(self):
        args = build_parser().parse_args(
            [
                "campaign", "serve", "FIG5", "--store", "runs/fig5",
                "--scale", "tiny", "--port", "7000", "--status-port", "7001",
                "--local-workers", "2", "--lease-ttl", "5",
            ]
        )
        assert args.campaign_command == "serve"
        assert args.id == "FIG5" and args.store == "runs/fig5"
        assert args.port == 7000 and args.status_port == 7001
        assert args.local_workers == 2 and args.lease_ttl == 5.0

    def test_campaign_serve_defaults(self):
        args = build_parser().parse_args(
            ["campaign", "serve", "FIG5", "--store", "runs/fig5"]
        )
        assert args.port == 0 and args.status_port is None
        assert args.local_workers == 0
        assert args.lease_ttl == 15.0 and args.requeue_limit == 3

    def test_campaign_worker_args(self):
        args = build_parser().parse_args(
            [
                "campaign", "worker", "--connect", "host-a:7000",
                "--id", "rack3/w1", "--max-points", "10", "--stay",
            ]
        )
        assert args.campaign_command == "worker"
        assert args.connect == "host-a:7000"
        assert args.worker_id == "rack3/w1"
        assert args.max_points == 10 and args.stay is True

    def test_campaign_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "worker"])

    def test_campaign_watch_args(self):
        args = build_parser().parse_args(
            [
                "campaign", "watch", "--connect", "127.0.0.1:7001",
                "--interval", "0.5", "--max-updates", "3",
            ]
        )
        assert args.campaign_command == "watch"
        assert args.interval == 0.5 and args.max_updates == 3

    def test_campaign_rebuild_args(self):
        args = build_parser().parse_args(
            ["campaign", "rebuild", "--store", "runs/fig5"]
        )
        assert args.campaign_command == "rebuild"
        assert args.store == "runs/fig5"


class TestMain:
    def test_simulate_runs(self, capsys):
        rc = main(
            [
                "simulate", "--k", "4", "--length", "8", "--load", "0.6",
                "--warmup", "100", "--cycles", "500",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulating" in out
        assert "deadlocks:" in out

    def test_simulate_avoidance_router(self, capsys):
        rc = main(
            [
                "simulate", "--k", "4", "--routing", "duato", "--vcs", "3",
                "--length", "8", "--load", "0.8", "--warmup", "50",
                "--cycles", "400",
            ]
        )
        assert rc == 0
        assert "deadlocks: 0" in capsys.readouterr().out

    def test_experiment_with_csv_and_chart(self, capsys, tmp_path, monkeypatch):
        # shrink the tiny scale further for test speed: one load
        _pin_loads(monkeypatch, "FIG5", [0.8])
        csv_path = tmp_path / "out.csv"
        rc = main(
            ["experiment", "FIG5", "--scale", "tiny", "--csv", str(csv_path),
             "--chart"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "FIG5" in out
        assert "normalized load" in out  # chart axis label
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("experiment,series,load")

    def test_simulate_obs_level_prints_phase_table(self, capsys):
        rc = main(
            [
                "simulate", "--k", "4", "--length", "8", "--load", "0.6",
                "--warmup", "50", "--cycles", "300", "--obs-level", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "engine/allocate" in out
        _assert_shares_sum_to_100(out)

    def test_simulate_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        # --trace-out implies --obs-level 2
        rc = main([*SATURATED, "--trace-out", str(trace_path)])
        assert rc == 0
        assert "trace written to" in capsys.readouterr().out
        events = json.loads(trace_path.read_text())["traceEvents"]
        for ev in events:
            assert isinstance(ev["name"], str) and ev["ph"] in ("X", "i")
            assert isinstance(ev["ts"], (int, float))
            if ev["ph"] == "X":
                assert isinstance(ev["dur"], (int, float))
        assert TRACE_NAMES <= {ev["name"] for ev in events}

    def test_simulate_trace_out_jsonl(self, tmp_path):
        """The JSONL export holds one row per Chrome-trace event of the
        same run, in the same order."""
        exported = {}
        for suffix in ("json", "jsonl"):
            trace_path = tmp_path / f"trace.{suffix}"
            assert main([*SATURATED, "--trace-out", str(trace_path)]) == 0
            exported[suffix] = trace_path.read_text()
        chrome = json.loads(exported["json"])["traceEvents"]
        rows = [json.loads(line) for line in exported["jsonl"].splitlines()]
        assert TRACE_NAMES <= {row["name"] for row in rows}
        assert [(r["name"], r["ph"], r["args"]) for r in rows] == [
            (ev["name"], ev["ph"], ev["args"]) for ev in chrome
        ]

    def test_experiment_obs_level_prints_rollup(self, capsys, monkeypatch):
        _pin_loads(monkeypatch, "FIG6", [0.6, 1.2])
        rc = main(["experiment", "FIG6", "--scale", "tiny", "--obs-level", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("observability rollup") == 2  # DOR and TFAR
        assert "engine/allocate" in out
        _assert_shares_sum_to_100(out)
