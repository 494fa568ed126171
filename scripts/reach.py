#!/usr/bin/env python3
"""Reachability audit: which functions of ``src/repro`` the study, its nets
and its CLI verbs actually call.

Three in-process drivers run under ``sys.setprofile``:

* **experiments** — every experiment of
  ``tests/experiments/conftest.py::TINY_RUNS`` (the claims table's tiny
  runs) with its claims, and every claim on the committed bench data;
* **cli** — one ``repro`` invocation per non-service verb, plus the flags
  and values that select a different code path (``--chart``, ``--csv``,
  ``--obs-level 1``, ``--trace-out`` as JSONL and as Chrome JSON, a
  crashing and a hanging campaign point, a refused value, ...);
* **nets** — the oracle grid and teeth battery, ``fuzz_differential.py
  --smoke`` and the fuzzer's teeth, and one ``validation_level=2`` run,
  clean and with a fault armed.

A function counts as reached when any driver calls it (calls made while a
module is imported count for every driver).  The audit pins itself to one
CPU first, so every sweep fan-out runs in this process and the table does
not depend on the host's core count.

Every unreached function must match an entry of :data:`ALLOWLIST`, and the
entry must name one of the fixed :data:`REASONS`; being exported or
documented is not a reason.  An entry that matches no unreached function
(its code is gone or now reached) is stale.

Usage::

    python scripts/reach.py           # run the audit, print the table and
                                      # re-render it into docs/TESTING.md
    python scripts/reach.py --check   # the CI gate: fail on an unlisted
                                      # unreached function, a stale
                                      # allowlist entry or a stale table
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import importlib
import io
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
DOC = REPO_ROOT / "docs" / "TESTING.md"
BEGIN = "<!-- reach:begin (rendered by scripts/reach.py) -->"
END = "<!-- reach:end -->"

#: the only reasons a function may stay unreached
REASONS = {
    "reference": "a reference implementation that a net compares against",
    "fork": "runs only in a forked child",
    "undrawn": "a config value the fuzzer does not draw yet (ROADMAP item 4)",
    "service": "the TCP campaign service (ROADMAP item 5)",
    "viz": "viz/ waits for `repro explain` (ROADMAP item 10)",
    "replicate": "replicate waits for seed replication (ROADMAP items 3(b) and 13)",
    "repr": "__repr__",
}

#: ``fnmatch`` pattern over ``path::qualname`` ids (path relative to
#: ``src/repro``) -> a key of :data:`REASONS`
ALLOWLIST = {
    # the serial sweep every campaign and fan-out test compares against
    "metrics/sweep.py::run_load_sweep": "reference",
    # the census and knot-finder property tests enumerate cycles with it
    "core/cycles.py::enumerate_simple_cycles": "reference",
    # EXT-GRAN's test recomputes the detector's granularity verdicts with it
    "core/cwg.py::packet_wait_for_graph": "reference",
    # the paper's Figures 1-4 and their doomed sets, which the detector's
    # figure tests and the oracle's tests compare against
    "core/gallery.py::*": "reference",
    "validation/oracle.py::cwg_doomed_messages": "reference",
    # the static CDG verdicts examples/static_certification.py stresses
    "routing/analysis.py::*": "reference",
    "metrics/sweep.py::_stripe_child": "fork",
    "campaign/runner.py::_slot_main": "fork",
    "campaign/runner.py::_point_worker": "fork",
    "campaign/runner.py::_apply_point_faults": "fork",
    "faults.py::first_trigger": "fork",
    "faults.py::point_fault_matches": "fork",
    "campaign/store.py::ResultStore.write": "fork",
    "campaign/store.py::ResultStore.write_error": "fork",
    "campaign/store.py::result_to_json": "fork",
    "validation/invariants.py::InvariantViolation.__reduce__": "fork",
    "campaign/service/*": "service",
    "campaign/store.py::ResultStore.compact_manifest": "service",
    "campaign/store.py::ResultStore.read_artifact": "service",
    "campaign/store.py::ResultStore.write_artifact": "service",
    "traffic/patterns.py::BitComplementTraffic.*": "undrawn",
    "traffic/patterns.py::HybridTraffic.*": "undrawn",
    "traffic/lengths.py::LengthMix.*": "undrawn",
    "routing/hierarchical.py::DragonflyValiant.*": "undrawn",
    "viz/*": "viz",
    "metrics/replication.py::*": "replicate",
    "*.__repr__": "repr",
}

DRIVERS = ("experiments", "cli", "nets")


# -- the function inventory -------------------------------------------------------

_CO_NEWLOCALS = 0x2  # set for functions, clear for module and class bodies


def _functions(code, path):
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & _CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield (path, const.co_firstlineno, const.co_qualname)
            yield from _functions(const, path)


def inventory(package: Path = PACKAGE) -> dict:
    """``{(filename, firstlineno, qualname): "path::qualname"}`` for every
    ``def`` under ``package`` (nested ones included; lambdas and
    comprehensions are not functions here)."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        rel = path.relative_to(package).as_posix()
        for key in _functions(code, os.path.realpath(path)):
            found[key] = f"{rel}::{key[2]}"
    return found


# -- the drivers ------------------------------------------------------------------

@contextlib.contextmanager
def profiled(seen: dict):
    """Record every code object entered (in any thread) into ``seen``."""

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen[id(code)] = code

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def import_everything() -> None:
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        importlib.import_module(".".join(parts))


@contextlib.contextmanager
def armed(**env: str):
    """Set ``REPRO_*`` fault-injection variables (see ``repro/faults.py``)
    for the duration of the block."""
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reach: {what}")


def drive_experiments() -> None:
    """Every tiny run of the claims table, each claim evaluated on it, and
    every claim evaluated on the committed bench observations."""
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.claims import CLAIMS, committed_observations, evaluate, verdicts
    from tests.experiments.conftest import TINY_RUNS

    for exp_id, kwargs in TINY_RUNS.items():
        verdicts(ALL_EXPERIMENTS[exp_id](scale="tiny", **kwargs))
    bench = committed_observations()
    for claim in CLAIMS:
        evaluate(claim, bench[claim.experiment])


def drive_cli() -> None:
    """One ``repro`` invocation per non-service verb, plus the flags and
    values that select a different code path."""
    from repro.cli import main
    from repro.errors import ConfigurationError

    def run(*argv: str) -> None:
        expect(main(list(argv)) == 0, f"`repro {' '.join(argv)}` failed")

    sim = ("simulate", "--k", "4", "--routing", "dor", "--vcs", "1", "--length",
           "8", "--load", "1.0", "--warmup", "50", "--cycles", "600", "--seed", "3")
    fig5 = ("FIG5", "--scale", "tiny")
    with tempfile.TemporaryDirectory() as tmp:
        store = ("--store", f"{tmp}/store")
        witness = f"{tmp}/witness.json"
        run(*sim, "--progress", "200")
        run(*sim, "--obs-level", "1")
        run(*sim, "--trace-out", f"{tmp}/trace.jsonl")
        run(*sim, "--trace-out", f"{tmp}/trace.json")
        run(*sim, "--recovery", "abort-all")
        run(*sim, "--mesh", "--routing", "tfar-mis")
        run("simulate", "--topology", "mesh3d", "--dims", "3,3,2",
              "--link-latencies", "1,1,2", "--warmup", "50", "--cycles", "200")
        try:
            main(["simulate", "--buffer", "0"])
        except ConfigurationError:
            pass
        else:
            expect(False, "`repro simulate --buffer 0` was not refused")
        run("experiment", "FIG6", "--scale", "tiny", "--chart", "--obs-level",
              "1", "--csv", f"{tmp}/fig6.csv")
        run("experiment", "FIG8", "--scale", "tiny")
        run("experiment", "TOPO-CMP", "--scale", "tiny")
        # one point crashes every attempt: the campaign degrades, not aborts
        with armed(REPRO_INJECT_FAULT="crash-point", REPRO_FAULT_MATCH="L=0.30"):
            run("campaign", "run", *fig5, *store, "--retries", "0")
        run("campaign", "status", *store)
        run("campaign", "clean", *store)
        # their first attempts hang: killed at the timeout, then retried
        with armed(REPRO_INJECT_FAULT="hang-point", REPRO_FAULT_MATCH="L=0.30",
                   REPRO_FAULT_DIR=tmp):
            run("campaign", "resume", *fig5, *store, "--timeout", "3")
        run("campaign", "rebuild", *store)
        run("campaign", "clean", *store, "--all")
        run("oracle", "list")
        run("oracle", "check", "ring-deadlock", "--witness-dir", tmp)
        run("oracle", "witness", "ring-deadlock", "--out", witness)
        run("oracle", "replay", witness)
        run("oracle", "replay", witness, "--production")
        run("oracle", "teeth", "--witness-dir", tmp)


def drive_nets() -> None:
    """The oracle grid and teeth battery, the fuzzer's smoke sweep and its
    teeth (an armed engine fault is found, shrunk, dumped and replayed), and
    one ``validation_level=2`` run, clean and with the same fault armed."""
    from repro.config import tiny_default
    from repro.network.simulator import NetworkSimulator
    from repro.validation.invariants import InvariantViolation

    import fuzz_differential  # scripts/, beside this file
    import oracle_smoke

    expect(oracle_smoke.main([]) == 0, "oracle smoke failed")
    expect(fuzz_differential.main(["--smoke", "--quiet"]) == 0, "fuzz smoke failed")
    config = tiny_default(routing="dor", num_vcs=1, load=1.0, measure_cycles=600,
                          seed=5, validation_level=2)
    NetworkSimulator(config).run()
    with armed(REPRO_INJECT_FAULT="skip-wake"), tempfile.TemporaryDirectory() as tmp:
        fuzz = ["--configs", "1", "--seed", "3", "--axes", "engine", "--quiet",
                "--artifact-dir", tmp]
        expect(fuzz_differential.main(fuzz) == 1, "the fuzzer missed skip-wake")
        (artifact,) = Path(tmp).glob("*.json")
        expect(fuzz_differential.main(["--replay", str(artifact)]) == 1,
               "a skip-wake mismatch did not replay")
        try:
            NetworkSimulator(config).run()
        except InvariantViolation:
            pass
        else:
            expect(False, "the invariant checker missed skip-wake")


def audit() -> tuple[dict, dict]:
    """Run every driver under the profiler: ``(inventory, {id: drivers})``."""
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(REPO_ROOT))
    functions = inventory()
    drive = {"experiments": drive_experiments, "cli": drive_cli, "nets": drive_nets}
    seen = {"import": {}}
    with profiled(seen["import"]):
        import_everything()
    for name in DRIVERS:
        seen[name] = {}
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), profiled(seen[name]):
            drive[name]()
        print(f"reach: {name} driver {time.perf_counter() - started:.1f}s",
              file=sys.stderr)
    reached: dict = {}
    for name, codes in seen.items():
        for code in codes.values():
            key = (os.path.realpath(code.co_filename), code.co_firstlineno,
                   code.co_qualname)
            if key in functions:
                reached.setdefault(functions[key], set()).update(
                    DRIVERS if name == "import" else (name,)
                )
    return functions, reached


# -- verdicts ---------------------------------------------------------------------

def problems(ids, reached, allowlist=ALLOWLIST) -> list[str]:
    """Every unreached id with no allowlist entry, and every stale entry."""
    out = []
    unreached = [fid for fid in ids if fid not in reached]
    for pattern, reason in allowlist.items():
        if reason not in REASONS:
            out.append(f"allowlist entry {pattern!r}: {reason!r} is not a reason")
        if not fnmatch.filter(ids, pattern):
            out.append(f"allowlist entry {pattern!r} matches no function (gone)")
        elif not fnmatch.filter(unreached, pattern):
            out.append(f"allowlist entry {pattern!r} is now reached")
    for fid in unreached:
        if not any(fnmatch.fnmatchcase(fid, p) for p in allowlist):
            out.append(f"{fid} is reached by no driver and not allowlisted")
    return out


def render(ids, reached, allowlist=ALLOWLIST) -> str:
    """The per-module table plus the allowlist, as markdown."""
    modules: dict = {}
    for fid in ids:
        modules.setdefault(fid.split("::")[0], []).append(fid)
    lines = [
        "| module | functions | " + " | ".join(DRIVERS) + " | unreached |",
        "|---|---:|" + "---:|" * len(DRIVERS) + "---:|",
    ]
    totals = [0] * (len(DRIVERS) + 2)
    for module, fids in sorted(modules.items()):
        counts = [len(fids)]
        counts += [sum(name in reached.get(f, ()) for f in fids) for name in DRIVERS]
        counts.append(sum(f not in reached for f in fids))
        totals = [a + b for a, b in zip(totals, counts)]
        lines.append(f"| `{module}` | " + " | ".join(map(str, counts)) + " |")
    lines.append("| **total** | " + " | ".join(f"**{n}**" for n in totals) + " |")
    lines += ["", "| allowlist entry | unreached functions | reason |", "|---|---:|---|"]
    unreached = [fid for fid in ids if fid not in reached]
    for pattern, reason in allowlist.items():
        n = len(fnmatch.filter(unreached, pattern))
        lines.append(f"| `{pattern}` | {n} | {REASONS.get(reason, reason)} |")
    return "\n".join(lines)


def splice(doc: str, table: str) -> str:
    head, _, rest = doc.partition(BEGIN)
    _, _, tail = rest.partition(END)
    return f"{head}{BEGIN}\n{table}\n{END}{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on an unlisted unreached function, a stale "
                             "allowlist entry or a stale docs/TESTING.md table")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    functions, reached = audit()
    ids = sorted(functions.values())
    table = render(ids, reached)
    found = problems(ids, reached)
    doc = DOC.read_text()
    if args.check:
        if splice(doc, table) != doc:
            found.append("docs/TESTING.md's reachability table is stale: "
                         "re-run `python scripts/reach.py`")
    else:
        print(table)
        DOC.write_text(splice(doc, table))
    for problem in found:
        print(f"FAIL: {problem}")
    print(f"reach: {len(reached)} of {len(ids)} functions reached, "
          f"{len(found)} problem(s), {time.perf_counter() - started:.0f}s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
