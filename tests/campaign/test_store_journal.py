"""The store's one manifest protocol: journal, compaction, rebuild.

Every writer — a campaign runner, the distributed service, ``clean()`` —
appends records to its own journal, and one rule folds them into the
manifest exactly once (persisted per-writer offsets).
``manifest_rebuild`` replays the journal through that rule as the
recovery path when the manifest itself is lost or corrupted.  These tests
drive that machinery directly — including the corruption-teeth case: a
deliberately mangled manifest and artifact must be survived, detected and
counted, not trusted.
"""

import json
import os
import time

from repro import faults
from repro.campaign import ResultStore, new_writer_id
from repro.campaign import runner as runner_module
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import count_record, done_record, failed_record
from repro.config import tiny_default

FAST = dict(measure_cycles=200, warmup_cycles=50)


def done(digest, label="pt", attempts=1, worker="w0"):
    return done_record(digest, label, 0.3, 1, attempts=attempts, worker=worker)


def failed(digest, error="boom", kind="error", label="pt"):
    return failed_record(digest, label, 0.9, 1, error=error, kind=kind, attempts=3)


class TestJournal:
    def test_append_and_read_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        writer = new_writer_id()
        records = [done("d1"), count_record("resumed")]
        for record in records:
            store.journal_append(writer, record)
        assert store.journal_writers() == [writer]
        assert store.journal_records(writer) == records

    def test_torn_tail_is_treated_as_absent(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1"))
        store.journal_append("w1", done("d2"))
        path = store.journal_dir / "w1.jsonl"
        # crash mid-append: the final line is half-written
        path.write_text(path.read_text() + '{"op": "done", "dig')
        records = store.journal_records("w1")
        assert [r["digest"] for r in records] == ["d1", "d2"]

    def test_distinct_writers_never_interleave(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        a, b = new_writer_id(), new_writer_id()
        assert a != b  # uuid suffix keeps same-process writers distinct
        store.journal_append(a, done("d1", worker="a"))
        store.journal_append(b, done("d2", worker="b"))
        store.journal_append(a, done("d3", worker="a"))
        assert [r["digest"] for r in store.journal_records(a)] == ["d1", "d3"]
        assert [r["digest"] for r in store.journal_records(b)] == ["d2"]


class TestCompaction:
    def test_compact_folds_records_into_manifest(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1", label="p1", attempts=2))
        store.journal_append("w1", count_record("resumed", 3))
        manifest = store.compact_manifest()
        entry = manifest["points"]["d1"]
        assert entry["status"] == "done"
        assert entry["attempts"] == 2 and entry["worker"] == "w0"
        assert manifest["counters"] == {"executed": 1, "resumed": 3}

    def test_records_apply_exactly_once_across_compactions(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1"))
        store.compact_manifest()
        store.compact_manifest()  # no new records: counters must not double
        store.journal_append("w1", done("d2"))
        manifest = store.compact_manifest()
        assert manifest["counters"]["executed"] == 2
        assert manifest["journal_offsets"] == {"w1": 2}

    def test_noop_compaction_leaves_the_manifest_file_alone(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1"))
        store.compact_manifest()
        before = store.manifest_path.read_bytes()
        os.utime(store.manifest_path, ns=(0, 0))
        manifest = store.compact_manifest()
        assert manifest["journal_offsets"] == {"w1": 1}
        assert store.manifest_path.read_bytes() == before
        assert store.manifest_path.stat().st_mtime_ns == 0

    def test_folded_lines_are_skipped_unparsed(self, tmp_path):
        """Compaction reads a writer's journal from its folded offset on:
        a folded line is never parsed again, so even an unreadable one
        hides nothing appended after it."""
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1"))
        store.journal_append("w1", done("d2"))
        store.compact_manifest()
        path = store.journal_dir / "w1.jsonl"
        folded = path.read_text().splitlines(keepends=True)
        path.write_text("not json\n" + "".join(folded[1:]))
        store.journal_append("w1", done("d3"))
        assert [r["digest"] for r in store.journal_records("w1", 2)] == ["d3"]
        manifest = store.compact_manifest()
        assert manifest["journal_offsets"] == {"w1": 3}
        assert manifest["points"]["d3"]["status"] == "done"
        assert manifest["counters"]["executed"] == 3

    def test_torn_tail_after_the_folded_offset_is_absent(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1"))
        store.journal_append("w1", done("d2"))
        store.compact_manifest()
        path = store.journal_dir / "w1.jsonl"
        path.write_text(path.read_text() + '{"op": "done", "dig')
        assert store.journal_records("w1", 2) == []
        manifest = store.compact_manifest()
        assert manifest["journal_offsets"] == {"w1": 2}
        assert manifest["counters"]["executed"] == 2
        assert set(manifest["points"]) == {"d1", "d2"}

    def test_two_writers_merge_into_one_index(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1", worker="w1"))
        store.journal_append("w2", done("d2", worker="w2"))
        store.journal_append("w2", failed("d3"))
        manifest = store.compact_manifest()
        assert manifest["points"]["d1"]["worker"] == "w1"
        assert manifest["points"]["d2"]["worker"] == "w2"
        assert manifest["points"]["d3"]["status"] == "failed"
        assert manifest["counters"] == {"executed": 2, "failures": 1}

    def test_done_is_terminal_over_stale_failed(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append("w1", done("d1"))
        store.journal_append("w2", failed("d1", error="stale report"))
        manifest = store.compact_manifest()
        assert manifest["points"]["d1"]["status"] == "done"
        assert "error" not in manifest["points"]["d1"]
        assert manifest["counters"].get("failures", 0) == 0


class TestManifestRebuild:
    def _campaign(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        cfg = tiny_default(**FAST)
        configs = [cfg.replace(load=load) for load in (0.3, 0.6)]
        CampaignRunner(store, max_workers=1).run_points(configs)
        return store, configs

    def test_rebuild_from_artifacts_matches_original(self, tmp_path):
        store, configs = self._campaign(tmp_path)
        original = store.load_manifest()
        store.manifest_path.unlink()  # manifest lost entirely
        rebuilt = store.manifest_rebuild()
        assert set(rebuilt["points"]) == set(original["points"])
        for digest, entry in rebuilt["points"].items():
            assert entry["status"] == "done"
            assert entry["label"] == original["points"][digest]["label"]
        # the store still resumes every point
        out = CampaignRunner(store, max_workers=1).run_points(configs)
        assert out["resumed"] == 2 and out["executed"] == 0

    def test_rebuild_survives_corrupt_manifest_and_artifact(self, tmp_path):
        """Corruption teeth: mangled files are detected, not trusted."""
        store, configs = self._campaign(tmp_path)
        digests = [store.digest(c) for c in configs]
        store.manifest_path.write_text('{"schema_version": 1, "points": {"')
        store.point_path(digests[0]).write_text("NOT JSON {")
        rebuilt = store.manifest_rebuild()
        # the corrupt artifact is dropped and counted; the intact one kept
        assert digests[0] not in rebuilt["points"]
        assert rebuilt["points"][digests[1]]["status"] == "done"
        assert rebuilt["counters"]["corrupt_artifacts"] == 1
        # load_manifest works again and the missing point re-runs
        out = CampaignRunner(store, max_workers=1).run_points(configs)
        assert out["resumed"] == 1 and out["executed"] == 1

    def test_leftover_error_sidecar_is_not_an_artifact(self, tmp_path):
        """A ``<digest>.err.json`` sidecar, as older code could leave behind
        after a parent crash, fails the schema check: the rebuild skips it
        without counting it corrupt, and ``clean()`` removes it."""
        store, configs = self._campaign(tmp_path)
        sidecar = store.points_dir / f"{store.digest(configs[0])}.err.json"
        sidecar.write_text(json.dumps({"error": "RuntimeError: boom", "trace": ""}))
        rebuilt = store.manifest_rebuild()
        assert "corrupt_artifacts" not in rebuilt["counters"]
        assert set(rebuilt["points"]) == {store.digest(c) for c in configs}
        assert {p["status"] for p in rebuilt["points"].values()} == {"done"}
        store.clean()
        assert not sidecar.exists()

    def test_rebuild_replays_journal_detail_on_top(self, tmp_path):
        store, configs = self._campaign(tmp_path)
        digests = [store.digest(c) for c in configs]
        store.journal_append(
            "svc", done(digests[0], attempts=3, worker="remote/1")
        )
        store.journal_append(
            "svc", failed("gone", error="lease expired", kind="lease-expired")
        )
        store.manifest_path.unlink()
        rebuilt = store.manifest_rebuild()
        # journal detail restored onto the artifact-backed entry
        assert rebuilt["points"][digests[0]]["attempts"] == 3
        assert rebuilt["points"][digests[0]]["worker"] == "remote/1"
        # artifact-less failure entries come back from the journal alone
        assert rebuilt["points"]["gone"]["status"] == "failed"
        assert rebuilt["points"]["gone"]["kind"] == "lease-expired"
        # offsets cover the replay: a later compaction must not re-apply
        after = store.compact_manifest()
        assert after["points"][digests[0]]["attempts"] == 3
        assert after["counters"] == rebuilt["counters"]

    def test_rebuild_keeps_a_runner_manifest(self, tmp_path, monkeypatch):
        """A runner's retries, timeout and failure all survive a rebuild."""
        (tmp_path / "markers").mkdir()
        monkeypatch.setenv(faults.DIR_ENV_VAR, str(tmp_path / "markers"))

        def point_faults(config):
            label = config.label()
            if config.load == 0.3 and faults.first_trigger("flaky-point", label):
                raise RuntimeError("flaky first attempt")
            if config.load == 0.6 and faults.first_trigger("hang-point", label):
                time.sleep(3600)
            if config.load == 0.9:
                raise RuntimeError("crash every attempt")

        monkeypatch.setattr(runner_module, "_apply_point_faults", point_faults)
        store = ResultStore(tmp_path / "s")
        configs = [tiny_default(**FAST).replace(load=l) for l in (0.3, 0.6, 0.9)]
        CampaignRunner(
            store, retries=1, backoff_s=0.01, timeout_s=1.0, max_workers=2
        ).run_points(configs)
        saved = store.load_manifest()
        flaky, hung, crashed = (store.digest(c) for c in configs)
        fields = ("status", "attempts", "error", "kind")
        assert {
            d: tuple(entry.get(f) for f in fields)
            for d, entry in saved["points"].items()
        } == {
            flaky: ("done", 2, None, None),
            hung: ("done", 2, None, None),
            crashed: ("failed", 2, "RuntimeError: crash every attempt", "error"),
        }
        assert saved["counters"] == {
            "executed": 2, "retries": 3, "timeouts": 1, "failures": 1,
            "slot_forks": 2,
        }
        store.manifest_path.unlink()
        rebuilt = store.manifest_rebuild()
        assert rebuilt["points"] == saved["points"]
        assert rebuilt["counters"] == saved["counters"]

    def test_resume_of_listed_points_appends_one_record(self, tmp_path):
        store, configs = self._campaign(tmp_path)
        before = sum(len(store.journal_records(w)) for w in store.journal_writers())
        out = CampaignRunner(store, max_workers=1).run_points(configs)
        assert out["resumed"] == 2
        after = sum(len(store.journal_records(w)) for w in store.journal_writers())
        assert after - before == 1  # the `resumed` count, nothing per point
        assert store.load_manifest()["counters"]["resumed"] == 2

    def test_cleaned_failure_stays_gone_after_rebuild(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.journal_append(new_writer_id(), failed("d1"))
        assert store.compact_manifest()["points"]["d1"]["status"] == "failed"
        assert store.clean()["failed_dropped"] == 1
        rebuilt = store.manifest_rebuild()
        assert not [p for p in rebuilt["points"].values() if p["status"] == "failed"]

    def test_rebuild_drops_done_records_without_artifacts(self, tmp_path):
        """A journaled `done` whose artifact vanished must rerun, not lie."""
        store, configs = self._campaign(tmp_path)
        digest = store.digest(configs[0])
        store.journal_append("svc", done(digest))
        store.point_path(digest).unlink()
        rebuilt = store.manifest_rebuild()
        assert digest not in rebuilt["points"]
        out = CampaignRunner(store, max_workers=1).run_points(configs)
        assert out["executed"] == 1 and out["resumed"] == 1


class TestWriterIds:
    def test_new_writer_ids_are_unique_and_filename_safe(self):
        ids = [new_writer_id() for _ in range(50)]
        assert len(set(ids)) == 50
        for writer in ids:
            assert "/" not in writer and "\\" not in writer
        # the time prefix sorts ids in creation order: journal order
        stamps = [writer.split("-", 1)[0] for writer in ids]
        assert stamps == sorted(stamps)
