"""The exact Poisson interval ``scripts/deadlock_census.py`` quotes."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from deadlock_census import poisson_ci95  # noqa: E402


@pytest.mark.parametrize(
    "events, bounds",
    [
        (0, (0.0, 3.6889)),
        (1, (0.0253, 5.5716)),
        (5, (1.6235, 11.6683)),
        (10, (4.7954, 18.3904)),
    ],
)
def test_garwood_bounds(events, bounds):
    assert poisson_ci95(events, 1.0) == pytest.approx(bounds, abs=5e-4)


def test_bounds_scale_with_exposure():
    lo, hi = poisson_ci95(5, 1.0)
    assert poisson_ci95(5, 200.0) == pytest.approx((lo / 200.0, hi / 200.0))
    assert poisson_ci95(3, 0.0) == (0.0, float("inf"))


def test_large_counts_stay_finite():
    lo, hi = poisson_ci95(5000, 1.0)
    assert 4800 < lo < 5000 < hi < 5200
