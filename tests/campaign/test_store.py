"""Content-addressed result store: digests, round-trips, schema guard."""

import json
import pathlib

import pytest

from repro.campaign.store import (
    SCHEMA_VERSION,
    PointFailure,
    ResultStore,
    StoreSchemaError,
    config_digest,
    config_from_json,
    config_to_json,
    result_from_json,
    result_to_json,
)
from repro.config import tiny_default
from repro.metrics.sweep import run_point
from repro.network.simulator import NetworkSimulator

FAST = dict(measure_cycles=300, warmup_cycles=50)

#: one point's artifact as committed, so no change to how a result is
#: serialized moves a stored byte unnoticed; seed 3 at load 1.2
#: deadlocks once, so every list field of the result is non-empty
GOLDEN = pathlib.Path(__file__).with_name("golden_artifact.json")


class TestDigest:
    def test_stable_across_calls(self):
        cfg = tiny_default(**FAST)
        assert config_digest(cfg) == config_digest(cfg)

    def test_every_field_keys_the_digest(self):
        cfg = tiny_default(**FAST)
        assert config_digest(cfg) != config_digest(cfg.replace(load=0.7))
        assert config_digest(cfg) != config_digest(cfg.replace(seed=cfg.seed + 1))

    def test_schema_version_keys_the_digest(self):
        cfg = tiny_default(**FAST)
        assert config_digest(cfg, 1) != config_digest(cfg, 2)

    @pytest.mark.parametrize(
        "overrides,digest",
        [
            ({}, "90949b61107460f2ef9a510d"),
            (
                dict(topology="torus3d", dims=(3, 3, 2), link_latencies=(1, 1, 4)),
                "877a1179fc51772362f6edd1",
            ),
            (
                dict(topology="dragonfly", dims=(4, 2, 2), routing="df-min"),
                "26e93702c094c19cfb088269",
            ),
            (
                dict(
                    length_mix=((8, 0.5), (32, 0.5)),
                    traffic="hybrid",
                    traffic_mix=(("uniform", 0.7), ("hot-spot", 0.3)),
                ),
                "7f0964372c4bb3b747444a64",
            ),
            (dict(failed_links=((0, 1),)), "3e1e55d90534c68ae93c242b"),
        ],
        ids=["tiny", "torus3d_tsv", "dragonfly", "mixes", "failed_links"],
    )
    def test_pinned_digests(self, overrides, digest):
        """Existing stores stay addressable: these digests were measured
        before the codec was derived from the config's field table."""
        assert config_digest(tiny_default(**overrides)) == digest

    def test_digest_is_hex_prefix(self):
        digest = config_digest(tiny_default(**FAST))
        assert len(digest) == 24
        int(digest, 16)  # must be valid hex


class TestRoundTrip:
    def test_config_round_trip_restores_tuple_fields(self):
        cfg = tiny_default(
            **FAST,
            failed_links=((0, 1), (5, 6)),
            length_mix=((8, 0.5), (32, 0.5)),
        )
        back = config_from_json(json.loads(json.dumps(config_to_json(cfg))))
        assert back == cfg
        assert isinstance(back.failed_links[0], tuple)

    def test_result_round_trip_bit_identical(self):
        cfg = tiny_default(**FAST)
        result = NetworkSimulator(cfg).run()
        back = result_from_json(json.loads(json.dumps(result_to_json(result))))
        assert back == result

    def test_point_failure_round_trip(self):
        failure = PointFailure(
            label="x", digest="d", load=0.6, seed=1,
            error="boom", attempts=3, kind="timeout",
        )
        assert PointFailure(**failure.to_json()) == failure


class TestStore:
    def test_write_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = tiny_default(**FAST)
        sim = NetworkSimulator(cfg)
        result = sim.run()
        digest = store.write(cfg, result, sim.obs.snapshot())
        assert store.find(cfg) is not None
        point = store.load(cfg)
        assert point.digest == digest
        assert point.config == cfg
        assert point.result == result

    def test_fresh_artifact_matches_the_committed_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = tiny_default(load=1.2, seed=3, **FAST)
        digest = store.write(cfg, *run_point(cfg))
        assert store.point_path(digest).read_bytes() == GOLDEN.read_bytes()

    def test_missing_point(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.find(tiny_default(**FAST)) is None

    def test_writes_leave_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = tiny_default(**FAST)
        store.write(cfg, NetworkSimulator(cfg).run())
        store.save_manifest(store.load_manifest())
        assert not list(store.points_dir.glob(".*.tmp"))
        assert not list(store.root.glob(".*.tmp"))


class TestSchemaGuard:
    def test_mismatched_artifact_refused(self, tmp_path):
        cfg = tiny_default(**FAST)
        old = ResultStore(tmp_path / "store", schema_version=SCHEMA_VERSION)
        old.write(cfg, NetworkSimulator(cfg).run())
        new = ResultStore(
            tmp_path / "store", schema_version=SCHEMA_VERSION + 1
        )
        # different schema -> different digest -> simply not found
        assert new.find(cfg) is None

    def test_artifact_written_under_other_schema_refused(self, tmp_path):
        """Same digest on disk but wrong recorded schema must not load."""
        cfg = tiny_default(**FAST)
        store = ResultStore(tmp_path / "store")
        digest = store.write(cfg, NetworkSimulator(cfg).run())
        artifact = store.point_path(digest)
        data = json.loads(artifact.read_text())
        data["schema_version"] = SCHEMA_VERSION + 1
        artifact.write_text(json.dumps(data))
        assert store.find(cfg) is None
        with pytest.raises(StoreSchemaError):
            store.load(cfg)

    def test_mismatched_manifest_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        manifest = store.load_manifest()
        manifest["schema_version"] = SCHEMA_VERSION + 1
        store.save_manifest(manifest)
        with pytest.raises(StoreSchemaError):
            store.load_manifest()


class TestClean:
    def test_clean_drops_failed_entries_only(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = tiny_default(**FAST)
        digest = store.write(cfg, NetworkSimulator(cfg).run())
        manifest = store.load_manifest()
        manifest["points"][digest] = {"label": cfg.label(), "status": "done"}
        manifest["points"]["deadbeef"] = {"label": "x", "status": "failed"}
        store.save_manifest(manifest)
        summary = store.clean()
        assert summary == {"failed_dropped": 1, "artifacts_dropped": 0}
        points = store.load_manifest()["points"]
        assert digest in points and "deadbeef" not in points
        assert store.find(cfg) is not None

    def test_clean_all_empties_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cfg = tiny_default(**FAST)
        store.write(cfg, NetworkSimulator(cfg).run())
        summary = store.clean(all_points=True)
        assert summary["artifacts_dropped"] == 1
        assert store.find(cfg) is None
        assert store.load_manifest() == {
            "schema_version": SCHEMA_VERSION,
            "points": {},
            "counters": {},
        }
