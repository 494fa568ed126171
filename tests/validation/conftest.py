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


@pytest.fixture
def dropped_wait_target(monkeypatch):
    """Break the pipeline's wait-index read: in every pass, the first
    request taken from a header's ``wait_keys`` loses its last target.
    The nets that compare the pipeline with the generic ``build_cwg``
    derivation must notice."""
    import repro.core.detector as detector

    real = detector._pipeline_cwg

    def dropping(sim):
        g = real(sim)
        if sim.fast_path and not sim._uncacheable_routing:
            for mid, targets in g.requests.items():
                if sim.message_by_id(mid).wait_keys:
                    g.requests[mid] = targets[:-1]
                    break
        return g

    monkeypatch.setattr(detector, "_pipeline_cwg", dropping)
