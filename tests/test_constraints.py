"""Unit tests for Cons_o / Cons_c / Cons_v action blocking (Section 4.3)."""

import numpy as np
import pytest

from repro.core.constraints import Constraints


def members(*flags):
    return np.array(flags, dtype=bool)


class TestValidation:
    def test_defaults_ok(self):
        cons = Constraints()
        assert cons.min_rows == 2
        assert cons.min_cols == 2

    def test_max_overlap_range(self):
        with pytest.raises(ValueError, match="max_overlap"):
            Constraints(max_overlap=1.5)

    def test_volume_bounds(self):
        with pytest.raises(ValueError, match="min_volume"):
            Constraints(min_volume=-1)
        with pytest.raises(ValueError, match="max_volume"):
            Constraints(max_volume=0)
        with pytest.raises(ValueError, match=">"):
            Constraints(min_volume=10, max_volume=5)

    def test_structural_minimums(self):
        with pytest.raises(ValueError, match="at least 1"):
            Constraints(min_rows=0)

    def test_max_volume_below_the_floor_refused(self):
        """No seed at the structural floor fits: refused up front, not
        after the seed draws run out."""
        with pytest.raises(ValueError, match="max_volume"):
            Constraints(min_rows=3, min_cols=3, max_volume=8)
        assert Constraints(min_rows=3, min_cols=3, max_volume=9).max_volume == 9


class TestStructuralFloor:
    def setup_method(self):
        self.cons = Constraints(min_rows=2, min_cols=2)
        self.rows = members(True, True, False, False)
        self.cols = members(True, True, False)
        self.all_rows = self.rows[None, :]
        self.all_cols = self.cols[None, :]

    def blocks(self, kind, index, is_removal):
        return self.cons.blocks(
            self.rows, self.cols, kind, index, is_removal,
            0, self.all_rows, self.all_cols,
        )

    def test_removal_below_floor_blocked(self):
        assert self.blocks("row", 0, is_removal=True)
        assert self.blocks("col", 1, is_removal=True)

    def test_addition_never_hits_floor(self):
        assert not self.blocks("row", 2, is_removal=False)

    def test_removal_above_floor_allowed(self):
        rows = members(True, True, True, False)
        assert not self.cons.blocks(
            rows, self.cols, "row", 0, True, 0, rows[None, :], self.all_cols
        )


class TestVolumeBounds:
    def test_max_volume_blocks_growth(self):
        cons = Constraints(max_volume=6)
        rows = members(True, True, False)
        cols = members(True, True, True)
        # Growing to 3x3 = 9 cells exceeds the bound.
        assert cons.blocks(
            rows, cols, "row", 2, False, 0, rows[None, :], cols[None, :]
        )

    def test_min_volume_blocks_shrink(self):
        cons = Constraints(min_volume=6, min_rows=1, min_cols=1)
        rows = members(True, True, False)
        cols = members(True, True, True)
        # Shrinking to 1x3 = 3 cells dips below min_volume=6.
        assert cons.blocks(
            rows, cols, "row", 0, True, 0, rows[None, :], cols[None, :]
        )

    def test_min_volume_does_not_block_growth(self):
        cons = Constraints(min_volume=100)
        rows = members(True, True, False)
        cols = members(True, True, False)
        assert not cons.blocks(
            rows, cols, "row", 2, False, 0, rows[None, :], cols[None, :]
        )


class TestCoverage:
    def test_sole_cluster_removal_blocked(self):
        cons = Constraints(require_row_coverage=True, min_rows=1, min_cols=1)
        rows = members(True, True, True)
        cols = members(True, True)
        all_rows = rows[None, :]
        assert cons.blocks(
            rows, cols, "row", 0, True, 0, all_rows, cols[None, :]
        )

    def test_removal_allowed_when_covered_elsewhere(self):
        cons = Constraints(require_row_coverage=True, min_rows=1, min_cols=1)
        rows = members(True, True, True)
        cols = members(True, True)
        all_rows = np.array([rows, members(True, False, False)])
        all_cols = np.array([cols, cols])
        assert not cons.blocks(rows, cols, "row", 0, True, 0, all_rows, all_cols)

    def test_col_coverage(self):
        cons = Constraints(require_col_coverage=True, min_rows=1, min_cols=1)
        rows = members(True, True)
        cols = members(True, True, True)
        assert cons.blocks(
            rows, cols, "col", 0, True, 0, rows[None, :], cols[None, :]
        )

    def test_coverage_ignores_additions(self):
        cons = Constraints(require_row_coverage=True)
        rows = members(True, True, False)
        cols = members(True, True)
        assert not cons.blocks(
            rows, cols, "row", 2, False, 0, rows[None, :], cols[None, :]
        )


class TestOverlap:
    def setup_method(self):
        # Two 2x2 clusters sharing one row and one column -> overlap 1/4.
        self.rows_a = members(True, True, False, False)
        self.cols_a = members(True, True, False, False)
        self.rows_b = members(False, True, True, False)
        self.cols_b = members(False, True, True, False)
        self.all_rows = np.array([self.rows_a, self.rows_b])
        self.all_cols = np.array([self.cols_a, self.cols_b])

    def test_addition_raising_overlap_blocked(self):
        cons = Constraints(max_overlap=0.3)
        # Adding row 2 (shared with cluster b) to cluster a raises the
        # shared block to 2 rows x 1 col = 2 of min(6, 4) cells = 0.5.
        assert cons.blocks(
            self.rows_a, self.cols_a, "row", 2, False,
            0, self.all_rows, self.all_cols,
        )

    def test_addition_within_cap_allowed(self):
        cons = Constraints(max_overlap=0.6)
        assert not cons.blocks(
            self.rows_a, self.cols_a, "row", 2, False,
            0, self.all_rows, self.all_cols,
        )

    def test_unrelated_addition_allowed(self):
        cons = Constraints(max_overlap=0.3)
        assert not cons.blocks(
            self.rows_a, self.cols_a, "row", 3, False,
            0, self.all_rows, self.all_cols,
        )

    def test_removal_of_shared_line_reduces_overlap_allowed(self):
        cons = Constraints(max_overlap=0.0, min_rows=1, min_cols=1)
        # Row 1 is the shared row: removing it zeroes the overlap.
        assert not cons.blocks(
            self.rows_a, self.cols_a, "row", 1, True,
            0, self.all_rows, self.all_cols,
        )

    def test_removal_that_worsens_overlap_fraction_blocked(self):
        # Removing a NON-shared row shrinks cluster a while the shared
        # block stays, pushing the fraction past the cap.
        cons = Constraints(max_overlap=0.3, min_rows=1, min_cols=1)
        assert cons.blocks(
            self.rows_a, self.cols_a, "row", 0, True,
            0, self.all_rows, self.all_cols,
        )

    def test_already_violating_pair_may_heal(self):
        # Both clusters identical -> overlap fraction 1.0 > cap, but a
        # move that does not worsen it stays legal (healing).
        rows = members(True, True, True, False)
        cols = members(True, True, False, False)
        all_rows = np.array([rows, rows])
        all_cols = np.array([cols, cols])
        cons = Constraints(max_overlap=0.1, min_rows=1, min_cols=1)
        # Removing a (shared) row keeps the fraction at 1.0 -- not worse.
        assert not cons.blocks(
            rows, cols, "row", 0, True, 0, all_rows, all_cols
        )


class TestSeedOk:
    def test_structural(self):
        cons = Constraints(min_rows=2, min_cols=2)
        assert cons.seed_ok(members(True, True), members(True, True))
        assert not cons.seed_ok(members(True, False), members(True, True))

    def test_max_volume(self):
        cons = Constraints(max_volume=4)
        assert cons.seed_ok(members(True, True), members(True, True))
        assert not cons.seed_ok(
            members(True, True, True), members(True, True)
        )
