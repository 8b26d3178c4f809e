"""Tests for the paper-style report formatting."""

from repro.experiments.report import format_claims, format_series_table
from repro.util.cdf import empirical_cdf


class TestFormatSeriesTable:
    def test_side_by_side_columns(self):
        a = empirical_cdf([0.0, 10.0], label="optimal")
        b = empirical_cdf([0.0, 5.0], label="negotiated")
        text = format_series_table("Figure 4a", [a, b], points=3)
        lines = text.splitlines()
        assert "Figure 4a" in lines[0]
        assert "optimal" in lines[1] and "negotiated" in lines[1]
        # 3 data rows after title + header.
        assert len(lines) == 5

    def test_empty_curve_list(self):
        text = format_series_table("empty", [], points=3)
        assert "empty" in text


class TestFormatClaims:
    def test_claim_rows(self):
        text = format_claims("T", [("the sky is blue", "measured: blue")])
        assert "paper claim vs measured" in text
        assert "the sky is blue" in text
        assert "measured: blue" in text

    def test_multiple_claims_order(self):
        text = format_claims("T", [("first", "a"), ("second", "b")])
        assert text.index("first") < text.index("second")
