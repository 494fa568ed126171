"""The claims table, checked on the tiny runs and on the committed data."""

import csv

import pytest

from repro import faults
from repro.campaign import CampaignRunner
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import set_campaign_runner
from repro.experiments.claims import (
    BENCH_OBSERVATIONS,
    CLAIMS,
    DEGRADED,
    HOLDS,
    committed_observations,
    evaluate,
    verdicts,
)

COMMITTED = committed_observations()
BENCH_ROWS = BENCH_OBSERVATIONS.with_name("experiments_bench.csv")


def _claims(scale):
    return [pytest.param(c, id=c.id) for c in CLAIMS if scale in c.scales]


@pytest.mark.parametrize("claim", _claims("tiny"))
def test_tiny_claim(claim, tiny):
    observations = tiny(claim.experiment).observations
    assert evaluate(claim, observations) == HOLDS, (claim.paper, observations)


@pytest.mark.parametrize("claim", _claims("bench"))
def test_bench_claim(claim):
    observations = COMMITTED[claim.experiment]
    assert evaluate(claim, observations) == HOLDS, (claim.paper, observations)


def test_table_covers_every_experiment():
    assert len({c.id for c in CLAIMS}) == len(CLAIMS)
    assert {c.experiment for c in CLAIMS} == set(ALL_EXPERIMENTS)
    for claim in CLAIMS:
        assert claim.id.startswith(f"{claim.experiment}:")
        assert claim.scales and set(claim.scales) <= {"tiny", "bench"}


@pytest.mark.parametrize(
    "claim", [pytest.param(c, id=c.id) for c in CLAIMS if "bench" not in c.scales]
)
def test_tiny_claim_reads_only_committed_keys(claim):
    """A tiny-only claim still reads keys the bench grid records (a bench
    row proves as much by holding)."""
    verdict = evaluate(claim, COMMITTED[claim.experiment])
    assert not verdict.startswith("not evaluated"), verdict


def test_committed_csvs_list_the_same_experiments():
    with open(BENCH_ROWS, newline="") as fh:
        swept = {row["experiment"] for row in csv.DictReader(fh)}
    assert swept == set(COMMITTED) == set(ALL_EXPERIMENTS)


def test_degraded_result_is_not_evaluated(tmp_path, monkeypatch):
    """A campaign that loses the unidirectional series' only point leaves
    FIG5 without a deep-saturation comparison: no verdict, no crash."""
    monkeypatch.setenv(faults.ENV_VAR, "crash-point")
    monkeypatch.setenv(faults.MATCH_ENV_VAR, "/uni")
    set_campaign_runner(
        CampaignRunner(tmp_path / "store", retries=0, backoff_s=0.01, max_workers=1)
    )
    try:
        result = ALL_EXPERIMENTS["FIG5"](
            scale="tiny", loads=[1.0], measure_cycles=300, warmup_cycles=50
        )
    finally:
        set_campaign_runner(None)
    assert result.sweeps["uni-directional"].failures
    assert "uni_norm_deadlocks_deep" not in result.observations
    assert [v for _, v in verdicts(result)] == [DEGRADED, DEGRADED]
    assert f"[{DEGRADED}] FIG5:uni-more-normalized" in result.format_tables()
