"""Tests for the knot-density shortcuts of the reference pass (the
pipeline's own are pinned equal to them by tests/core/test_worm_pipeline.py)."""

from repro.core.cycles import count_simple_cycles
from repro.validation.reference import ReferenceDetector


def ring(n):
    return {i: [(i + 1) % n] for i in range(n)}


class TestDensityShortcuts:
    def test_pure_ring_is_exactly_one_without_enumeration(self):
        det = ReferenceDetector(knot_density_cap=0)  # enumeration would cap
        result = det._knot_density(ring(50))
        assert result.count == 1
        assert not result.saturated

    def test_small_multi_cycle_uses_exact_enumeration(self):
        det = ReferenceDetector()
        sub = ring(8)
        sub[0] = [1, 4]
        sub[4] = [5, 0]
        result = det._knot_density(sub)
        assert result.count == 4  # the Figure-3 structure, exact
        assert not result.saturated

    def test_huge_knot_reports_cyclomatic_lower_bound(self):
        det = ReferenceDetector(knot_size_enumeration_limit=10)
        sub = ring(40)
        sub[0] = [1, 20]
        sub[20] = [21, 0]
        result = det._knot_density(sub)
        assert result.saturated
        # E - V + 1 = 42 - 40 + 1 = 3 independent cycles
        assert result.count == 3
        # a lower bound on the true simple-cycle count
        assert result.count <= count_simple_cycles(sub).count

    def test_shortcut_agrees_with_enumeration_on_rings(self):
        det = ReferenceDetector()
        for n in (2, 3, 7, 19):
            shortcut = det._knot_density(ring(n))
            exact = count_simple_cycles(ring(n))
            assert shortcut.count == exact.count == 1

    def test_classification_boundary(self):
        """Density 1 => single-cycle; shortcut must not misclassify."""
        det = ReferenceDetector()
        sub = ring(5)
        assert det._knot_density(sub).count == 1
        sub[2] = [3, 0]  # one chord: now multi-cycle
        assert det._knot_density(sub).count > 1
