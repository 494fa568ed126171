import pytest


@pytest.fixture
def miscounting_census(monkeypatch):
    """Break the detector's contracted census: every nonzero count reads
    one too high.  The nets that cross-check the as-shipped pipeline
    against from-scratch counts must notice."""
    import repro.core.detector as detector
    from repro.core.cycles import CycleCount

    real = detector.count_cycles_contracted

    def off_by_one(contracted, limit, sccs=None):
        got = real(contracted, limit, sccs)
        return CycleCount(got.count + 1, got.saturated) if got.count else got

    monkeypatch.setattr(detector, "count_cycles_contracted", off_by_one)
