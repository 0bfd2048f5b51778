"""Unit tests for the plain-text table renderer."""

import pytest

from repro.eval.reporting import (
    format_records,
    format_series,
    format_table,
)


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(
            [[1, 2.5], [30, 4.125]], headers=["a", "b"], precision=2
        )
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert set(lines[1]) == {"-"}
        assert lines[2].split() == ["1", "2.50"]
        assert lines[3].split() == ["30", "4.12"]

    def test_title(self):
        text = format_table([[1]], headers=["x"], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="cells"):
            format_table([[1, 2]], headers=["only"])

    def test_string_cells(self):
        text = format_table([["fixed", 0.75]], headers=["order", "recall"])
        assert "fixed" in text

    def test_precision(self):
        text = format_table([[1.23456]], headers=["v"], precision=4)
        assert "1.2346" in text


class TestFormatRecords:
    def test_selects_columns_in_order(self):
        records = [
            {"recall": 0.8, "precision": 0.9, "extra": 1},
            {"recall": 0.7, "precision": 0.85, "extra": 2},
        ]
        text = format_records(records, ["precision", "recall"])
        header = text.splitlines()[0].split()
        assert header == ["precision", "recall"]
        assert "0.90" in text

    def test_missing_column_rejected(self):
        with pytest.raises(KeyError, match="missing"):
            format_records([{"a": 1}], ["a", "b"])


class TestFormatSeries:
    def test_figure_layout(self):
        text = format_series(
            "n_attributes",
            [50, 100],
            {"floc_s": [1.0, 2.0], "alternative_s": [10.0, 80.0]},
        )
        lines = text.splitlines()
        assert lines[0].split() == ["n_attributes", "floc_s", "alternative_s"]
        assert lines[2].split() == ["50", "1.00", "10.00"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="points"):
            format_series("x", [1, 2], {"y": [1.0]})
