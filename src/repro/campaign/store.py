"""Content-addressed on-disk result store for sweep campaigns.

A campaign is hundreds of independent simulations; this store makes every
completed point durable the moment it finishes, so a crashed worker, a
killed process or a dropped SSH session never throws away finished work.

One JSON artifact per completed :class:`~repro.config.SimulationConfig`,
keyed by a **stable config digest**: the SHA-256 of the config's canonical
JSON form (every dataclass field, sorted keys) together with the store
schema version.  The seed is a config field, so distinct seeds are distinct
points; two configs that would produce bit-identical runs map to the same
artifact.  Writes go to a temporary file in the same directory followed by
``os.replace`` — an artifact is either absent or complete, never torn,
even when the writing worker is killed mid-write.

Alongside the artifacts lives ``manifest.json``, an index of every point a
campaign has touched: completed points, their attempt counts, and points
that exhausted their retries (recorded as structured failures instead of
aborting the sweep — see :class:`PointFailure`).

**One manifest protocol.**  Artifact writes are safe under any number of
writers (digests are disjoint, writes are atomic rename).  The manifest is
one mutable index, and a journal record is the only way anything changes
it.  Every writer — a :class:`~repro.campaign.runner.CampaignRunner`
drain, a :class:`~repro.campaign.service.server.CampaignService`,
:meth:`ResultStore.clean` — mints an id with :func:`new_writer_id` and
appends records (:func:`done_record`, :func:`failed_record`,
:func:`count_record`, :func:`cleared_record`) to its own
``journal/<writer>.jsonl``, so writers never contend.  One rule folds a
record into the manifest: a runner or ``clean`` folds its own records as
it appends them (:meth:`ResultStore.fold`), the service leaves them to its
compactor (:meth:`ResultStore.compact_manifest`); either way the writer's
``journal_offsets`` entry advances with the fold, so each record applies
exactly once.  One process writes a store's manifest at a time, and writer
ids sort in creation order, so replaying writers in sorted order replays
the journal in the order it was written — which is what
:meth:`ResultStore.manifest_rebuild` does before correcting the index
against the on-disk artifacts, the recovery path for a lost manifest.

``SCHEMA_VERSION`` guards resumption across code changes: bump it whenever
the serialized :class:`~repro.metrics.stats.RunResult` shape (or anything
that feeds the digest) changes meaning.  A store written under a different
schema version refuses to resume (:class:`StoreSchemaError`) rather than
silently mixing incompatible artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.config import SimulationConfig, config_from_json, config_to_json
from repro.errors import ReproError
from repro.metrics.stats import RunResult

__all__ = [
    "SCHEMA_VERSION",
    "StoreSchemaError",
    "PointFailure",
    "StoredPoint",
    "ResultStore",
    "config_digest",
    "config_to_json",
    "config_from_json",
    "result_to_json",
    "result_from_json",
    "new_writer_id",
    "done_record",
    "failed_record",
    "count_record",
    "cleared_record",
]

#: store schema version — bump when the serialized RunResult/config shape
#: changes meaning; old artifacts then refuse to resume instead of mixing
SCHEMA_VERSION = 1


class StoreSchemaError(ReproError):
    """A store artifact/manifest was written under a different schema."""


@dataclass
class PointFailure:
    """A sweep point that exhausted its retries, recorded — not raised.

    Campaigns degrade gracefully: the failure lands in the manifest (and on
    :attr:`~repro.metrics.sweep.SweepResult.failures`) while every other
    point keeps running.
    """

    label: str
    digest: str
    load: float
    seed: int
    error: str
    attempts: int
    kind: str = "error"  #: "error" (worker raised) or "timeout" (killed)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class StoredPoint:
    """One completed artifact loaded back from the store."""

    digest: str
    config: SimulationConfig
    result: RunResult
    obs: Optional[dict]


def result_to_json(result: RunResult) -> dict:
    """JSON-able form of a run result (config nested in canonical form).

    Read off the fields, not ``dataclasses.asdict``: that deep-copies the
    config only for it to be replaced, and the fields are plain values."""
    payload = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    payload["config"] = config_to_json(result.config)
    return payload


def result_from_json(data: dict) -> RunResult:
    """Rebuild a run result bit-identically (JSON round-trips floats exactly)."""
    data = dict(data)
    config = config_from_json(data.pop("config"))
    return RunResult(config=config, **data)


def config_digest(
    config: SimulationConfig, schema_version: int = SCHEMA_VERSION
) -> str:
    """Stable content digest keying a point's artifact.

    Canonical JSON (sorted keys, no whitespace) over every config field
    plus the schema version; the seed is a config field, so it is part of
    the key.  Stable across processes and sessions — ``PYTHONHASHSEED``
    does not enter.
    """
    payload = json.dumps(
        {"schema_version": schema_version, "config": config_to_json(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write-then-rename: the file at ``path`` is never observably torn."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
    os.replace(tmp, path)


def new_writer_id() -> str:
    """A journal writer identity unique across hosts, processes and restarts.

    Uniqueness matters: a journal file is append-only *per writer*, and the
    compactor tracks a consumed-record offset per writer id — a reused id
    would replay (or skip) another process's records.  The id starts with
    its creation time in zero-padded nanoseconds, so sorted ids are in
    creation order, which is journal order (one manifest writer at a time).
    """
    host = socket.gethostname().split(".", 1)[0] or "host"
    return f"{time.time_ns():020d}-{host}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


# -- journal records: the only way a manifest changes -------------------------
def done_record(
    digest: str, label: str, load: float, seed: int, *,
    attempts: Optional[int] = None, worker: Optional[str] = None,
    resumed: bool = False,
) -> dict:
    """The point's artifact is in the store.  A ``resumed`` point was found
    stored, not executed: it is indexed as done without counting a run."""
    return {"op": "done", "digest": digest, "label": label, "load": load,
            "seed": seed, "attempts": attempts, "worker": worker,
            "resumed": resumed}


def failed_record(
    digest: str, label: str, load: float, seed: int, *,
    error: str, kind: str, attempts: int, worker: Optional[str] = None,
) -> dict:
    """The point exhausted its retries (see :class:`PointFailure`)."""
    return {"op": "failed", "digest": digest, "label": label, "load": load,
            "seed": seed, "error": error, "kind": kind, "attempts": attempts,
            "worker": worker}


def count_record(name: str, amount: int = 1) -> dict:
    """Add ``amount`` to the manifest counter ``name``."""
    return {"op": "count", "name": name, "amount": amount}


def cleared_record(digest: str) -> dict:
    """Forget the point's entry, so the next campaign reruns it."""
    return {"op": "cleared", "digest": digest}


def _apply_record(manifest: dict, record: dict) -> None:
    """Fold one journal record into the manifest index.

    ``done`` records are terminal: a later ``failed`` for the same digest
    (a stale report from a worker whose lease was reclaimed) never
    downgrades a completed point; only ``cleared`` removes it.
    """
    op = record.get("op")
    points = manifest.setdefault("points", {})
    counters = manifest.setdefault("counters", {})
    if op in ("done", "failed"):
        entry = points.setdefault(
            record["digest"], {k: record.get(k) for k in ("label", "load", "seed")}
        )
        if op == "done":
            entry["status"] = "done"
            entry.pop("error", None)
            entry.pop("kind", None)
            if not record.get("resumed"):
                counters["executed"] = counters.get("executed", 0) + 1
        elif entry.get("status") != "done":
            entry["status"] = "failed"
            entry["error"] = record.get("error", "")
            entry["kind"] = record.get("kind", "error")
            counters["failures"] = counters.get("failures", 0) + 1
        if record.get("attempts") is not None:
            entry["attempts"] = record["attempts"]
        if record.get("worker") is not None:
            entry["worker"] = record["worker"]
    elif op == "count":
        name = record["name"]
        counters[name] = counters.get(name, 0) + record.get("amount", 1)
    elif op == "cleared":
        points.pop(record["digest"], None)


class ResultStore:
    """Directory of completed-point artifacts plus the campaign manifest.

    Layout::

        <root>/manifest.json          index: done points, failures, counters
        <root>/points/<digest>.json   one artifact per completed config
        <root>/journal/<writer>.jsonl append-only per-writer event journal

    Safe for any number of artifact writers and readers: distinct points
    have distinct digests, and two writers of one artifact (a reclaimed
    lease finishing beside its replacement) write the same bytes, because
    a point's result is deterministic and its JSON canonical, each through
    its own temp file named by pid and renamed into place atomically.
    Concurrent manifest updates go through the journal + single-writer
    compaction (see the module docstring).
    """

    def __init__(
        self, root: str | Path, *, schema_version: int = SCHEMA_VERSION
    ) -> None:
        self.root = Path(root)
        self.schema_version = schema_version
        self.points_dir = self.root / "points"
        self.points_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.root / "manifest.json"
        self.journal_dir = self.root / "journal"

    # -- artifacts ---------------------------------------------------------------
    def digest(self, config: SimulationConfig) -> str:
        return config_digest(config, self.schema_version)

    def point_path(self, digest: str) -> Path:
        return self.points_dir / f"{digest}.json"

    def find(
        self, config: SimulationConfig, digest: Optional[str] = None
    ) -> Optional[StoredPoint]:
        """The completed point, or ``None`` when no schema-compatible
        artifact is readable (absent, torn by hand, or another schema's)."""
        try:
            return self.load(config, digest)
        except (StoreSchemaError, json.JSONDecodeError, KeyError, OSError):
            return None

    def load(
        self, config: SimulationConfig, digest: Optional[str] = None
    ) -> StoredPoint:
        """Load a completed point; refuses schema-incompatible artifacts.

        ``digest``, when the caller holds it, saves recomputing it."""
        digest = digest or self.digest(config)
        data = self._read_artifact(self.point_path(digest))
        found = data.get("schema_version")
        if found != self.schema_version:
            raise StoreSchemaError(
                f"artifact {digest} was written under schema version "
                f"{found}; this store expects {self.schema_version} — "
                f"rerun the point (or `repro campaign clean --all`)"
            )
        return StoredPoint(
            digest=digest,
            config=config_from_json(data["config"]),
            result=result_from_json(data["result"]),
            obs=data.get("obs"),
        )

    def write(
        self,
        config: SimulationConfig,
        result: RunResult,
        obs: Optional[dict] = None,
    ) -> str:
        """Persist a completed point atomically; returns its digest."""
        digest = self.digest(config)
        _atomic_write_json(
            self.point_path(digest),
            {
                "schema_version": self.schema_version,
                "digest": digest,
                "label": config.label(),
                "config": config_to_json(config),
                "result": result_to_json(result),
                "obs": obs,
            },
        )
        return digest

    def read_artifact(self, digest: str) -> dict:
        """The raw JSON payload of a completed point's artifact.

        This is what a network worker ships back to the campaign service:
        re-serializing it with sorted keys reproduces the on-disk bytes
        exactly, so a remotely-executed point lands in the server's store
        bit-identical to a locally-executed one.
        """
        return self._read_artifact(self.point_path(digest))

    def write_artifact(self, payload: dict) -> str:
        """Persist an artifact payload produced elsewhere; returns its digest.

        Validates that the payload was written under this store's schema
        version and that its recorded digest matches the digest recomputed
        from the embedded config — a corrupted or mis-keyed shipment is
        refused instead of poisoning the store.
        """
        found = payload.get("schema_version")
        if found != self.schema_version:
            raise StoreSchemaError(
                f"shipped artifact carries schema version {found}; this "
                f"store expects {self.schema_version}"
            )
        config = config_from_json(payload["config"])
        digest = self.digest(config)
        if payload.get("digest") != digest:
            raise StoreSchemaError(
                f"shipped artifact digest {payload.get('digest')!r} does not "
                f"match the digest {digest!r} of its embedded config"
            )
        _atomic_write_json(self.point_path(digest), payload)
        return digest

    @staticmethod
    def _read_artifact(path: Path) -> dict:
        return json.loads(path.read_text())

    # -- manifest ----------------------------------------------------------------
    def _empty_manifest(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "points": {},
            "counters": {},
        }

    def load_manifest(self) -> dict:
        """The campaign index; refuses manifests from another schema."""
        if not self.manifest_path.exists():
            return self._empty_manifest()
        manifest = json.loads(self.manifest_path.read_text())
        found = manifest.get("schema_version")
        if found != self.schema_version:
            raise StoreSchemaError(
                f"store at {self.root} was written under schema version "
                f"{found}; this code expects {self.schema_version} — "
                f"start a fresh store or `repro campaign clean --all`"
            )
        return manifest

    def save_manifest(self, manifest: dict) -> None:
        """Persist the index, stamping campaign wall-clock bookkeeping.

        ``started_at`` is set on the first save and never moved;
        ``updated_at`` tracks the latest save — their difference is the
        elapsed wall-clock ``repro campaign status`` reports.
        """
        now = time.time()
        manifest.setdefault("started_at", now)
        manifest["updated_at"] = now
        _atomic_write_json(self.manifest_path, manifest)

    # -- journal: append-only records for concurrent writers ---------------------
    def journal_append(self, writer: str, record: dict) -> None:
        """Append one event record to ``writer``'s journal file.

        Each writer owns its file exclusively (see :func:`new_writer_id`),
        so appends from N processes never interleave bytes.  Records are
        one LDJSON line each; a crash mid-append can tear at most the
        final line, which readers treat as absent.
        """
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.journal_dir / f"{writer}.jsonl", "a") as fh:
            fh.write(line + "\n")
            fh.flush()

    def journal_writers(self) -> list[str]:
        """Writer ids that have journal files in this store, sorted."""
        if not self.journal_dir.is_dir():
            return []
        return sorted(p.stem for p in self.journal_dir.glob("*.jsonl"))

    def journal_records(self, writer: str) -> list[dict]:
        """All intact records of one writer's journal, in append order.

        Parsing stops at the first undecodable line: only the tail of an
        append-only file can be torn (a crash mid-write), and a writer id
        is never reused, so nothing valid can follow a torn line.
        """
        path = self.journal_dir / f"{writer}.jsonl"
        try:
            text = path.read_text()
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break
        return records

    def fold(self, writer: str, manifest: dict, record: dict) -> None:
        """Journal ``record`` under ``writer`` and fold it into ``manifest``.

        For a writer that owns the manifest (one at a time, see the module
        docstring): the record is applied to the caller's in-memory copy
        with the compaction rule, and ``writer``'s offset advances with it,
        so no later compaction applies it again.  The caller saves.
        """
        self.journal_append(writer, record)
        _apply_record(manifest, record)
        offsets = manifest.setdefault("journal_offsets", {})
        offsets[writer] = offsets.get(writer, 0) + 1

    def compact_manifest(self) -> dict:
        """Fold new journal records into the manifest (single-writer only).

        Exactly one process may compact a store at a time — the campaign
        service's scheduler process in distributed runs.  Per-writer
        record offsets live in the manifest (``journal_offsets``), so a
        record is applied exactly once across any number of compactions;
        journal files themselves are never truncated (their writers may
        still hold them open).
        """
        manifest = self.load_manifest()
        offsets = manifest.setdefault("journal_offsets", {})
        for writer in self.journal_writers():
            records = self.journal_records(writer)
            start = offsets.get(writer, 0)
            for record in records[start:]:
                _apply_record(manifest, record)
            offsets[writer] = max(start, len(records))
        self.save_manifest(manifest)
        return manifest

    def manifest_rebuild(self) -> dict:
        """Reconstruct the manifest from the journal and the artifacts.

        The recovery path for a torn, corrupted or deleted manifest: every
        journal record is replayed through the compaction rule, writers in
        creation order, which restores failures, attempt counts and
        counters.  Then the artifact scan corrects the index, because
        artifacts are ground truth (atomic, so each is either complete or
        absent): every schema-compatible artifact is a ``done`` entry, and
        a ``done`` entry without one is cleared so its point reruns.
        Unreadable artifacts are skipped and counted
        (``counters["corrupt_artifacts"]``), never fatal.  Replaces
        ``manifest.json`` atomically and returns it.
        """
        manifest = self._empty_manifest()
        offsets = manifest["journal_offsets"] = {}
        for writer in self.journal_writers():
            records = self.journal_records(writer)
            for record in records:
                _apply_record(manifest, record)
            offsets[writer] = len(records)
        stored = {}
        corrupt = 0
        for path in sorted(self.points_dir.glob("*.json")):
            try:
                data = json.loads(path.read_text())
                if data.get("schema_version") != self.schema_version:
                    continue
                config = config_from_json(data["config"])
                digest = data.get("digest") or path.stem
            except (json.JSONDecodeError, KeyError, TypeError, OSError):
                corrupt += 1
                continue
            stored[digest] = config
        points = manifest["points"]
        for digest, entry in list(points.items()):
            if entry.get("status") == "done" and digest not in stored:
                _apply_record(manifest, cleared_record(digest))
        for digest, config in stored.items():
            _apply_record(manifest, done_record(
                digest, config.label(), config.load, config.seed, resumed=True
            ))
        if corrupt:
            manifest["counters"]["corrupt_artifacts"] = corrupt
        self.save_manifest(manifest)
        return manifest

    # -- maintenance -------------------------------------------------------------
    def clean(self, *, all_points: bool = False) -> dict:
        """Drop failed entries (and stale tmp/err files) so they rerun.

        Each dropped entry is a journaled ``cleared`` record, so a later
        :meth:`manifest_rebuild` does not bring the failure back.  With
        ``all_points=True`` the artifacts, journal and manifest are removed
        entirely.  Returns ``{"failed_dropped": n, "artifacts_dropped": n}``.
        """
        for stale in self.points_dir.glob(".*.tmp"):
            stale.unlink(missing_ok=True)
        for err in self.points_dir.glob("*.err.json"):
            err.unlink(missing_ok=True)
        if all_points:
            artifacts = list(self.points_dir.glob("*.json"))
            for path in artifacts + list(self.journal_dir.glob("*.jsonl")):
                path.unlink(missing_ok=True)
            self.manifest_path.unlink(missing_ok=True)
            return {"failed_dropped": 0, "artifacts_dropped": len(artifacts)}
        manifest = self.load_manifest()  # refuses another schema's manifest
        failed = [
            d for d, p in manifest["points"].items() if p.get("status") == "failed"
        ]
        writer = new_writer_id()
        for digest in failed:
            self.fold(writer, manifest, cleared_record(digest))
        self.save_manifest(manifest)
        return {"failed_dropped": len(failed), "artifacts_dropped": 0}
