"""Unit tests for simulation configuration and its field table."""

import dataclasses
import json
import math

import pytest

from repro.config import (
    FIELDS,
    IMPLEMENTATION,
    KINDS,
    SEMANTIC,
    Domain,
    SimulationConfig,
    bench_default,
    config_from_json,
    config_to_json,
    paper_default,
    tiny_default,
)
from repro.errors import ConfigurationError


def test_paper_default_matches_paper():
    cfg = paper_default()
    assert cfg.k == 16 and cfg.n == 2
    assert cfg.bidirectional
    assert cfg.message_length == 32
    assert cfg.buffer_depth == 2
    assert cfg.detection_interval == 50
    assert cfg.measure_cycles == 30_000
    assert cfg.selection == "straight"
    cfg.validate()


def test_bench_and_tiny_valid():
    bench_default().validate()
    tiny_default().validate()


def test_replace_creates_new_config():
    cfg = tiny_default()
    other = cfg.replace(load=0.9)
    assert other.load == 0.9
    assert cfg.load != 0.9 or cfg is not other


def test_num_nodes():
    assert SimulationConfig(k=4, n=3).num_nodes == 64


def test_label_mentions_key_fields():
    label = SimulationConfig(k=8, n=2, routing="dor", num_vcs=2).label()
    assert "8-ary" in label and "DOR2" in label


@pytest.mark.parametrize(
    "field,value",
    [
        ("k", 1),
        ("n", 0),
        ("num_vcs", 0),
        ("buffer_depth", 0),
        ("message_length", 0),
        ("load", -0.1),
        ("detection_interval", 0),
        ("measure_cycles", 0),
        ("warmup_cycles", -1),
        ("load", math.nan),
        ("load", math.inf),
        ("hotspot_fraction", -0.1),
        ("max_queued_per_node", 0),
        ("max_messages", 0),
        ("max_cycles_counted", 0),
        ("seed", -1),
        ("dims", (4, 0, 2)),
        ("link_latencies", (1, 0)),
        ("failed_links", ((0, 1, 2),)),
        ("routing", "no-such-routing"),
        ("selection", "no-such-selection"),
        ("recovery", "no-such-recovery"),
        ("obs_level", 3),
    ],
)
def test_invalid_fields_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        tiny_default(**{field: value}).validate()


def test_registry_names_follow_their_factories():
    """routing and recovery fold case like make_routing / make_recovery;
    make_selection does not."""
    tiny_default(routing="TFAR", recovery="Disha").validate()
    with pytest.raises(ConfigurationError, match="selection"):
        tiny_default(selection="Straight").validate()


def test_mesh_constraints():
    with pytest.raises(ConfigurationError):
        tiny_default(mesh=True, bidirectional=False).validate()
    with pytest.raises(ConfigurationError):
        tiny_default(mesh=True, failed_links=((0, 1),)).validate()


def test_config_is_frozen():
    cfg = tiny_default()
    with pytest.raises(Exception):
        cfg.load = 0.7  # type: ignore[misc]


# -- the field table -----------------------------------------------------------------
def test_every_field_carries_kind_and_domain():
    for f in FIELDS:
        assert f.metadata["kind"] in KINDS, f.name
        assert isinstance(f.metadata["domain"], Domain), f.name
        assert f.metadata["domain"].check(f.default), f.name
        assert f.metadata["group"], f.name


def test_table_marks_the_documented_fields():
    def named(key, value=True):
        return {f.name for f in FIELDS if f.metadata[key] == value}

    assert named("kind", "implementation") == {
        "engine_fast_path", "detector_caching", "cwg_maintenance",
        "engine_vectorized", "engine_kernels",
    }
    assert named("kind", "observation") == {
        "obs_level", "obs_trace_capacity", "validation_level",
        "validation_interval", "check_invariants",
    }
    assert named("elide") == {"topology", "dims", "link_latencies"}
    assert len([f for f in FIELDS if f.metadata["cli"]]) == 18


#: the fields that accept their default alone, and the replacement the
#: error for any other value must name
REFUSED = {
    "engine_fast_path": (False, "repro.validation.ReferenceEngine"),
    "detector_caching": (False, "repro.validation.reference_pass"),
    "check_invariants": (True, "validation_level=2"),
    "engine_vectorized": (True, "the production engine"),
    "engine_kernels": (True, "the production engine"),
    "cwg_maintenance": ("incremental", "rebuilds the CWG"),
}


def test_no_field_selects_an_implementation():
    """Every implementation field, and the one alias, is refused."""
    implementation = {
        f.name for f in FIELDS if f.metadata["kind"] == IMPLEMENTATION
    }
    assert set(REFUSED) == implementation | {"check_invariants"}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_field_names_its_replacement(name):
    field = next(f for f in FIELDS if f.name == name)
    tiny_default(**{name: field.default}).validate()
    assert field.metadata["domain"].choices() == (field.default,)
    value, replacement = REFUSED[name]
    with pytest.raises(ConfigurationError, match=name) as refused:
        tiny_default(**{name: value}).validate()
    assert replacement in str(refused.value)
    # a value equal to the default but of another type is no default
    with pytest.raises(ConfigurationError):
        tiny_default(**{name: 1 if field.default is True else 0}).validate()


def test_refused_fields_keep_every_digest():
    """The refused fields stay in the field list, so no stored digest
    moves: the store's pins are the parent commit's."""
    from repro.campaign.store import config_digest

    assert config_digest(tiny_default()) == "90949b61107460f2ef9a510d"


def _other_value(field):
    """A valid non-default value, from the field's domain."""
    choices = field.metadata["domain"].choices()
    if choices:
        return next(c for c in choices if c != field.default)
    return field.default + 1


@pytest.mark.parametrize(
    "field",
    [
        f for f in FIELDS
        if f.metadata["kind"] != SEMANTIC and f.name not in REFUSED
    ],
    ids=lambda f: f.name,
)
def test_non_semantic_fields_are_inert(field):
    """Toggling an observation field leaves the run result, every
    detection record (the deadlock-event stream included) and the
    post-run RNG word unchanged; a semantic field misfiled as one fails
    here."""
    from repro.network.simulator import NetworkSimulator
    from repro.validation.differential import compare, fingerprint

    base = tiny_default(
        routing="tfar", bidirectional=False, load=1.0, warmup_cycles=50,
        measure_cycles=300, detection_interval=25,
    )
    value = _other_value(field)
    twin = base.replace(**{field.name: value})
    twin.validate()
    sim = NetworkSimulator(base)
    result = sim.run()
    assert any(r.events for r in sim.detector.records), "precondition: must deadlock"
    detail = compare(base, twin, base=fingerprint(sim, result))
    assert detail is None, detail


CODEC_CASES = {
    "default": tiny_default(),
    "failed_links": tiny_default(failed_links=((0, 1), (5, 6))),
    "mixes": tiny_default(
        length_mix=((8, 0.5), (32, 0.5)),
        traffic="hybrid",
        traffic_mix=(("uniform", 0.7), ("hot-spot", 0.3)),
    ),
    "zoo": tiny_default(
        topology="torus3d", dims=(3, 3, 2), link_latencies=(1, 1, 4)
    ),
}


@pytest.mark.parametrize("config", CODEC_CASES.values(), ids=CODEC_CASES.keys())
def test_codec_round_trips_every_format(config, tmp_path):
    """One codec reads the store's elided form, a fuzz artifact, an oracle
    witness and a full ``asdict`` payload back into an equal config."""
    from repro.validation.differential import (
        FuzzMismatch,
        dump_artifact,
        load_artifact,
    )
    from repro.validation.oracle import dump_witness, load_witness

    def through_json(data):
        return json.loads(json.dumps(data))

    assert config_from_json(through_json(config_to_json(config))) == config
    assert config_from_json(through_json(dataclasses.asdict(config))) == config
    artifact = dump_artifact(FuzzMismatch("engine", config, "x"), tmp_path / "a.json")
    assert load_artifact(artifact) == ("engine", config)
    witness = dump_witness(
        {"config": dataclasses.asdict(config), "steps": []}, tmp_path / "w.json"
    )
    payload = load_witness(witness)
    assert payload["config"] == dataclasses.asdict(config)
    assert config_from_json(payload["config"]) == config
