"""Unit tests for CSV export and ASCII chart rendering."""

import csv
import io

import pytest

from repro.experiments.report import (
    ascii_chart,
    experiment_csv,
    render_figure,
    sweep_csv,
)


@pytest.fixture
def tiny_fig5(tiny):
    return tiny("FIG5")


class TestCSV:
    def test_sweep_csv_parses(self, tiny_fig5):
        text = sweep_csv(tiny_fig5)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4  # 2 series x 2 loads
        assert {r["series"] for r in rows} == {
            "bi-directional", "uni-directional",
        }
        for r in rows:
            assert r["experiment"] == "FIG5"
            float(r["load"])
            float(r["norm_deadlocks"])
            int(r["deadlocks"])

    def test_experiment_csv_single_header(self, tiny_fig5):
        text = experiment_csv([tiny_fig5, tiny_fig5])
        lines = text.strip().splitlines()
        assert lines[0].startswith("experiment,series,load")
        assert sum(1 for ln in lines if ln.startswith("experiment,")) == 1
        assert len(lines) == 1 + 8


class TestAsciiChart:
    def test_empty_series(self):
        assert "(no data)" in ascii_chart({"a": []}, title="t")

    def test_marks_present(self):
        chart = ascii_chart(
            {"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]},
            title="T", width=20, height=8,
        )
        assert "o" in chart and "x" in chart
        assert "o=up" in chart and "x=down" in chart
        assert chart.splitlines()[0] == "T"

    def test_log_scale(self):
        chart = ascii_chart(
            {"s": [(0, 1), (1, 1000)]}, log_y=True, width=20, height=6
        )
        assert "(log y)" in chart

    def test_constant_series_does_not_crash(self):
        chart = ascii_chart({"s": [(0, 5), (1, 5)]}, width=10, height=4)
        assert "o" in chart

    def test_dimensions_respected(self):
        chart = ascii_chart({"s": [(0, 0), (9, 9)]}, width=30, height=10)
        body = [ln for ln in chart.splitlines() if "|" in ln or "+" in ln]
        assert len(body) == 10

    def test_render_figure_from_experiment(self, tiny_fig5):
        chart = render_figure(tiny_fig5, "norm_deadlocks")
        assert "FIG5" in chart
        assert "normalized load" in chart
        chart2 = render_figure(tiny_fig5, "blocked_pct")
        assert "blocked_pct" in chart2
