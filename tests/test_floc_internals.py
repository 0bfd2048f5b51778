"""White-box tests for FLOC's internal machinery.

The public behaviour is covered by test_floc.py; these pin down the
pieces that are easy to break silently: the r-residue gain table, the
score function, alpha seed trimming, dead-slot reseeding, and the
incremental sufficient-statistic caches.
"""

import copy
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import evaluate_toggle
from repro.core.cluster import DeltaCluster
from repro.core.constraints import Constraints
from repro.core.matrix import DataMatrix
from repro.core.floc import (
    _build_seeds,
    _State,
    _gain,
    _reseed_dead_slots,
    _score,
    _trim_seed_to_alpha,
    floc,
)
from repro.core.gain_engine import estimate_lane, exact_lane
from repro.core.seeding import bernoulli_seeds
from repro.data.synthetic import generate_embedded
from repro.obs.perf.counters import WorkCounters
from tests.oracles import (
    frozen_bases_parts,
    masked_line_deviations,
    masked_mean_abs_residue,
    replay_best_prefix,
)

#: The module itself: ``repro.core`` re-exports the ``floc`` function
#: under the module's name.
floc_module = sys.modules[_State.__module__]

NAN = float("nan")


class TestGainTable:
    """The r-residue gain classes must rank exactly as designed."""

    TARGET = 5.0

    def test_literal_mode_is_residue_reduction(self):
        assert _gain(10.0, 100, 8.0, 110, None) == pytest.approx(2.0)
        assert _gain(10.0, 100, 12.0, 90, None) == pytest.approx(-2.0)

    def test_crossing_into_feasibility_ranks_highest(self):
        crossing = _gain(8.0, 100, 4.0, 90, self.TARGET, 1.0, False)
        growth = _gain(4.0, 100, 4.5, 120, self.TARGET, 2.0, True)
        cleanup = _gain(20.0, 100, 15.0, 90, self.TARGET, 10.0, False)
        assert crossing > growth > 0
        assert crossing > cleanup

    def test_feasible_growth_beats_feasible_shrink(self):
        growth = _gain(4.0, 100, 4.5, 120, self.TARGET, 2.0, True)
        shrink = _gain(4.0, 100, 3.5, 80, self.TARGET, 2.0, False)
        assert growth > 1.0
        assert shrink < 0.0

    def test_unfitting_addition_negative(self):
        # Adding a junk line that dilutes the mean below target must NOT
        # rank as growth.
        diluting = _gain(4.0, 1000, 4.4, 1010, self.TARGET, 50.0, True)
        assert diluting < 0.0

    def test_unfitting_line_eviction_is_cleanup(self):
        eviction = _gain(4.0, 100, 3.0, 90, self.TARGET, 50.0, False)
        assert eviction > 1.0

    def test_infeasible_progress_positive(self):
        assert _gain(20.0, 100, 18.0, 90, self.TARGET, 1.0, False) > 0.0
        assert _gain(20.0, 100, 22.0, 110, self.TARGET, 1.0, True) < 0.0


class TestScore:
    def make_state(self, residues, volumes):
        values = np.ones((10, 10))
        seeds = bernoulli_seeds(10, 10, len(residues), 0.5,
                                np.random.default_rng(0))
        state = _State(values, seeds)
        state.residues[:] = residues
        state.volumes[:] = volumes
        return state

    def test_literal_mode_mean_residue(self):
        state = self.make_state([2.0, 4.0], [10, 20])
        assert _score(state, None) == pytest.approx(3.0)

    def test_target_mode_feasible_rewards_volume(self):
        state = self.make_state([1.0, 2.0], [10, 20])
        assert _score(state, 5.0) == pytest.approx(-30.0)

    def test_target_mode_excess_dominates(self):
        feasible = self.make_state([1.0, 2.0], [10, 20])
        infeasible = self.make_state([1.0, 6.0], [10, 2000])
        assert _score(infeasible, 5.0) > _score(feasible, 5.0)


class TestTrimSeedToAlpha:
    def test_valid_seed_untouched(self):
        mask = np.ones((6, 6), dtype=bool)
        rows = np.array([True] * 4 + [False] * 2)
        cols = np.array([True] * 4 + [False] * 2)
        trimmed_rows, trimmed_cols = _trim_seed_to_alpha(
            rows, cols, mask, 0.6, 2, 2
        )
        assert (trimmed_rows == rows).all()
        assert (trimmed_cols == cols).all()

    def test_sparse_row_trimmed(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[0, :] = False  # row 0 fully missing
        rows = np.ones(5, dtype=bool)
        cols = np.ones(5, dtype=bool)
        trimmed_rows, __ = _trim_seed_to_alpha(rows, cols, mask, 0.6, 2, 2)
        assert not trimmed_rows[0]

    def test_input_not_mutated(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[0, :] = False
        rows = np.ones(5, dtype=bool)
        cols = np.ones(5, dtype=bool)
        _trim_seed_to_alpha(rows, cols, mask, 0.6, 2, 2)
        assert rows.all()

    def test_floor_stops_trimming(self):
        mask = np.zeros((4, 4), dtype=bool)  # everything missing
        rows = np.array([True, True, False, False])
        cols = np.array([True, True, False, False])
        trimmed_rows, trimmed_cols = _trim_seed_to_alpha(
            rows, cols, mask, 0.9, 2, 2
        )
        # Cannot trim below the structural floor even if still invalid.
        assert trimmed_rows.sum() == 2
        assert trimmed_cols.sum() == 2


class TestReseedDeadSlots:
    def make_state(self, rng_seed=0, k=3):
        rng = np.random.default_rng(rng_seed)
        values = rng.uniform(0, 100, size=(40, 20))
        seeds = bernoulli_seeds(40, 20, k, 0.3, rng)
        return _State(values, seeds), rng

    def test_floor_cluster_reseeded(self):
        state, rng = self.make_state()
        # Collapse cluster 0 to the floor.
        state.row_member[0] = False
        state.row_member[0, :2] = True
        state.col_member[0] = False
        state.col_member[0, :2] = True
        state.refresh_cluster(0)
        changed = _reseed_dead_slots(state, 0.3, Constraints(), rng, None)
        assert changed
        assert state.row_member[0].sum() > 3

    def test_infeasible_cluster_reseeded_in_target_mode(self):
        state, rng = self.make_state(rng_seed=1)
        before = state.row_member.copy()
        changed = _reseed_dead_slots(
            state, 0.3, Constraints(), rng, residue_target=0.001
        )
        # Random clusters on uniform data are all far above the target.
        assert changed
        assert not (state.row_member == before).all()

    def test_duplicate_locked_clusters_deduplicated(self):
        state, rng = self.make_state(rng_seed=2, k=2)
        # Make both clusters identical, large, and trivially feasible.
        member_rows = np.zeros(40, dtype=bool)
        member_rows[:10] = True
        member_cols = np.zeros(20, dtype=bool)
        member_cols[:8] = True
        for c in (0, 1):
            state.row_member[c] = member_rows
            state.col_member[c] = member_cols
            state.refresh_cluster(c)
        state.residues[:] = 0.0  # pretend both are coherent
        changed = _reseed_dead_slots(
            state, 0.3, Constraints(), rng, residue_target=1000.0
        )
        assert changed
        # Exactly one of the twins must have been reseeded.
        same0 = (state.row_member[0] == member_rows).all()
        same1 = (state.row_member[1] == member_rows).all()
        assert same0 != same1

    def test_mixed_p_redraws_use_the_slots_p(self, monkeypatch):
        state, rng = self.make_state(rng_seed=1, k=5)
        drawn = []
        original = floc_module.mixed_seeds

        def recording(n_rows, n_cols, k, p_values, *args, **kwargs):
            drawn.extend(p_values[i % len(p_values)] for i in range(k))
            return original(n_rows, n_cols, k, p_values, *args, **kwargs)

        monkeypatch.setattr(floc_module, "mixed_seeds", recording)
        p = [0.1, 0.5, 0.9]
        # Random clusters on uniform data are all far above the target,
        # so every slot is redrawn, each with its own p.
        assert _reseed_dead_slots(state, p, Constraints(), rng, residue_target=0.001)
        assert drawn == [p[c % 3] for c in range(5)]

    def test_phase1_retries_use_the_slots_p(self, monkeypatch):
        drawn = []
        original = floc_module.bernoulli_seeds

        def recording(n_rows, n_cols, k, p, *args, **kwargs):
            drawn.append(p)
            return original(n_rows, n_cols, k, p, *args, **kwargs)

        monkeypatch.setattr(floc_module, "bernoulli_seeds", recording)
        matrix = DataMatrix(np.random.default_rng(0).normal(size=(40, 20)))
        # Seeds drawn at p 0.5 (slots 1 and 3) hold about 200 cells, so
        # about half break the volume bound and are redrawn -- at 0.5,
        # not at the list's first p.
        constraints = Constraints(max_volume=200)
        seeds = _build_seeds(
            matrix, 4, [0.05, 0.5], None, constraints, np.random.default_rng(5)
        )
        assert all(constraints.seed_ok(*seed) for seed in seeds)
        assert drawn and set(drawn) == {0.5}

    def test_reseeds_trimmed_to_alpha(self):
        """With alpha > 0 a reseeded slot gets Phase 1's trimmed seed:
        a subset of the same draw that meets alpha unless trimming
        stopped at the structural floor."""
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 100, size=(40, 20))
        values[rng.random((40, 20)) < 0.4] = np.nan
        seeds = bernoulli_seeds(40, 20, 4, 0.3, rng)
        constraints = Constraints()
        states = {}
        for alpha in (0.0, 0.8):
            state = _State(values, seeds)
            assert _reseed_dead_slots(
                state, 0.5, constraints, np.random.default_rng(3),
                residue_target=0.001, alpha=alpha,
            )
            states[alpha] = state
        untrimmed, trimmed = states[0.0], states[0.8]
        assert (trimmed.member <= untrimmed.member).all()
        assert (trimmed.member != untrimmed.member).any()
        matrix = DataMatrix(values)
        for c in range(4):
            cluster = DeltaCluster(
                np.flatnonzero(trimmed.row_member[c]),
                np.flatnonzero(trimmed.col_member[c]),
            )
            assert cluster.occupancy_ok(matrix, 0.8) or (
                cluster.n_rows <= constraints.min_rows
                or cluster.n_cols <= constraints.min_cols
            )

    def test_healthy_state_untouched(self):
        state, rng = self.make_state(rng_seed=3)
        before_rows = state.row_member.copy()
        changed = _reseed_dead_slots(
            state, 0.3, Constraints(), rng, residue_target=None
        )
        # Literal mode: no residue-based death; clusters are above floor.
        assert not changed
        assert (state.row_member == before_rows).all()


class TestFastCaches:
    """The incremental caches must agree with a full refresh after any
    sequence of toggles."""

    def test_cache_consistency_random_walk(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(20, 12))
        values[rng.random((20, 12)) < 0.15] = np.nan
        mask = ~np.isnan(values)
        seeds = bernoulli_seeds(20, 12, 2, 0.4, rng)
        state = _State(values, seeds)
        for step in range(60):
            kind = "row" if rng.random() < 0.5 else "col"
            index = int(rng.integers(0, 20 if kind == "row" else 12))
            c = int(rng.integers(0, 2))
            state.toggle(kind, index, c)
            # Compare incremental caches against a from-scratch rebuild.
            rows = np.flatnonzero(state.row_member[c])
            cols = np.flatnonzero(state.col_member[c])
            filled = np.where(mask, values, 0.0)
            expected_col_sums = filled[rows, :].sum(axis=0)
            expected_row_sums = filled[:, cols].sum(axis=1)
            assert np.allclose(state.col_sums[c], expected_col_sums)
            assert np.allclose(state.row_sums[c], expected_row_sums)
            assert (
                state.col_counts[c] == mask[rows, :].sum(axis=0)
            ).all()
            assert (
                state.row_counts[c] == mask[:, cols].sum(axis=1)
            ).all()

    def test_fast_candidate_close_to_exact_for_additions(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, 10))
        seeds = bernoulli_seeds(30, 10, 1, 0.4, rng)
        state = _State(values, seeds)
        lane = estimate_lane(state, 0)
        outside = np.flatnonzero(~state.row_member[0])
        for index in outside[:5]:
            fast_res = float(lane.new_residues[index])
            exact_res, exact_vol = evaluate_toggle(
                values, state.row_member[0], state.col_member[0],
                "row", int(index),
            )
            assert int(lane.new_volumes[index]) == exact_vol
            # Frozen-bases estimate: same ballpark, not exact.
            assert fast_res == pytest.approx(exact_res, rel=0.5, abs=0.5)

    def test_batch_candidates_match_per_cluster(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(25, 14))
        values[rng.random((25, 14)) < 0.2] = np.nan
        seeds = bernoulli_seeds(25, 14, 4, 0.35, rng)
        state = _State(values, seeds)
        # Include degenerate clusters: one at the floor, one tiny.
        state.row_member[3] = False
        state.row_member[3, :2] = True
        state.col_member[3] = False
        state.col_member[3, :2] = True
        state.refresh_cluster(3)
        for c in range(4):
            lane = estimate_lane(state, c)
            for kind, offset, limit in (("row", 0, 25), ("col", 25, 14)):
                for index in range(limit):
                    single = frozen_bases_parts(state, kind, index, c)
                    line = offset + index
                    assert float(lane.new_residues[line]) == pytest.approx(
                        single[0], rel=1e-12, abs=1e-12
                    ), (kind, index, c)
                    assert int(lane.new_volumes[line]) == single[1]
                    assert float(lane.line_residues[line]) == pytest.approx(
                        single[2], rel=1e-12, abs=1e-12
                    )

    @pytest.mark.parametrize("seed", [3, 7])
    def test_estimate_removals_clamped_at_zero(self, seed):
        """On perfectly additive data the removal fold cancels to rounding
        noise, which can dip below zero; the lane clamps it to +0.0."""
        rng = np.random.default_rng(seed)
        values = (rng.normal(size=12)[:, None] * 0.1
                  + rng.normal(size=8)[None, :] * 0.3 + 0.7)
        seeds = [(rng.random(12) < 0.5, rng.random(8) < 0.6) for _ in range(2)]
        state = _State(values, seeds)
        for c in range(2):
            lane = estimate_lane(state, c)
            assert not np.signbit(lane.new_residues).any(), c

    def test_snapshot_restore_round_trip(self):
        """Fused actions of both kinds, then a restore: every statistic
        is bitwise the snapshot's, and a full refresh of a deep copy."""
        rng = np.random.default_rng(6)
        values = rng.normal(size=(15, 8))
        values[rng.random((15, 8)) < 0.2] = NAN
        seeds = bernoulli_seeds(15, 8, 2, 0.4, rng)
        state = _State(values, seeds)
        fresh = copy.deepcopy(state)
        snapshot = state.snapshot()
        for __ in range(10):
            kind = "row" if rng.random() < 0.5 else "col"
            index = int(rng.integers(0, 15 if kind == "row" else 8))
            state.perform(kind, index, int(rng.integers(0, 2)))
        _assert_fresh(state)
        state.restore(snapshot)
        for name in ("member", "sums", "counts", "residues", "volumes"):
            assert _same_bits(getattr(state, name), snapshot[name]), name
        for name in _STAT_FIELDS:
            assert _same_bits(getattr(state, name), getattr(fresh, name)), name
        _assert_fresh(state)


class TestSnapshotRestoreProperty:
    """Snapshot/restore must be a *bit-exact* undo, not an approximate one.

    Twin construction: both states apply the same prefix ``t1``; one then
    detours through ``t2`` and restores the snapshot.  Every piece of
    state -- membership, residues, occupancy counts, sufficient statistics -- and
    every subsequent toggle-gain evaluation must be bitwise identical to
    the twin that never detoured.  (The checkpoint/resume parity of
    ``repro.runtime`` rests on this class of exact-undo invariant.)
    """

    N_ROWS, N_COLS, K = 12, 7, 3

    _toggle_ops = st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 10 ** 6),
            st.integers(0, 10 ** 6),
        ),
        max_size=12,
    )

    def _make_twins(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(self.N_ROWS, self.N_COLS))
        values[rng.random(size=values.shape) < 0.15] = NAN
        seeds = bernoulli_seeds(
            self.N_ROWS, self.N_COLS, self.K, 0.4,
            np.random.default_rng(seed + 1),
        )
        return (
            _State(values, seeds),
            _State(values, seeds),
        )

    def _apply(self, state, ops):
        for is_row, index, cluster in ops:
            kind = "row" if is_row else "col"
            limit = self.N_ROWS if is_row else self.N_COLS
            state.toggle(kind, index % limit, cluster % self.K)

    @staticmethod
    def _assert_bit_identical(a, b, label):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), label
        else:
            assert np.array_equal(a, b), label

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), t1=_toggle_ops,
           t2=_toggle_ops)
    def test_round_trip_is_bit_exact(self, seed, t1, t2):
        state, twin = self._make_twins(seed)
        self._apply(state, t1)
        self._apply(twin, t1)
        snapshot = state.snapshot()
        self._apply(state, t2)
        detour_stamp = state.stamp.copy()
        state.restore(snapshot)
        for attr in ("row_member", "col_member", "residues", "volumes",
                     "row_sums", "row_counts", "col_sums", "col_counts"):
            self._assert_bit_identical(
                getattr(state, attr), getattr(twin, attr), attr
            )
        # Stamps: a cluster the detour left alone keeps its stamp (and
        # so its cached lanes); a detoured one gets a never-seen stamp.
        detoured = np.zeros(self.K, dtype=bool)
        detoured[[cluster % self.K for _, _, cluster in t2]] = True
        self._assert_bit_identical(
            state.stamp[~detoured], twin.stamp[~detoured], "stamp"
        )
        assert (state.stamp[detoured] > detour_stamp[detoured]).all()
        for c in range(self.K):
            lanes = [(estimate_lane(state, c), estimate_lane(twin, c), "estimate")]
            lanes += [
                (exact_lane(state, kind, c), exact_lane(twin, kind, c), kind)
                for kind in ("row", "col")
            ]
            for lane_a, lane_b, label in lanes:
                for name in ("new_residues", "new_volumes", "line_residues"):
                    self._assert_bit_identical(
                        getattr(lane_a, name), getattr(lane_b, name),
                        (label, c, name),
                    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestResidueOracle:
    """``refresh_cluster`` takes the residue from the shared deviation
    pass (the state's bases, member lines gathered) and the volume from
    the integer counts; both must match the masked reference."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_refresh_residue_matches_masked_reference(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, 12))
        # Noisy floats (whose sums round) overlaid with drawn cells:
        # arbitrary finite values, ±0 and NaN patterns.
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        values = rng.normal(0.0, 10.0 ** data.draw(st.integers(-3, 6)), (n, m))
        element = st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, NAN]),
        )
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), element),
            max_size=n * m,
        ))
        for i, j, value in cells:
            values[i, j] = value
        # Blank whole rows/columns too: empty bases must stay inert.
        values[data.draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = NAN
        values[:, data.draw(st.lists(st.integers(0, m - 1), max_size=m))] = NAN
        row_member = np.zeros(n, dtype=bool)
        col_member = np.zeros(m, dtype=bool)
        row_member[sorted(data.draw(st.sets(
            st.integers(0, n - 1), min_size=1)))] = True
        col_member[sorted(data.draw(st.sets(
            st.integers(0, m - 1), min_size=1)))] = True

        state = _State(values, [(row_member, col_member)])

        sub = values[np.ix_(row_member, col_member)]
        sub_mask = ~np.isnan(sub)
        assert int(state.volumes[0]) == int(sub_mask.sum())
        assert state.volumes_f[0] == state.volumes[0]
        expected = masked_mean_abs_residue(sub, sub_mask)
        # A residue that cancels to (near) zero keeps rounding noise at
        # the data's scale, so the relative bound gets that absolute floor.
        scale = float(np.abs(np.where(sub_mask, sub, 0.0)).max())
        assert float(state.residues[0]) == pytest.approx(
            expected, rel=1e-12, abs=1e-12 * scale
        )


#: Every ``_State`` array a refresh writes (``stamp`` only keys caches),
#: and the row/column views of the line arrays.
_STAT_FIELDS = (
    "member", "residues", "volumes", "volumes_f", "sums", "counts",
    "counts_f", "row_sums", "row_counts", "row_counts_f", "col_sums",
    "col_counts", "col_counts_f",
)


def _assert_fresh(state, label=None):
    """Every statistic of ``state`` is bitwise a full refresh of every
    cluster.  The shadow refresh runs on a deep copy, so the live state's
    stamps -- and every cache keyed on them -- never see it."""
    shadow = copy.deepcopy(state)
    shadow.work = None
    shadow._deviations = [None] * shadow.k
    for cluster in range(shadow.k):
        shadow.refresh_cluster(cluster)
    for name in _STAT_FIELDS:
        assert _same_bits(getattr(state, name), getattr(shadow, name)), (
            name, label,
        )


def _fresh_checking_perform(monkeypatch, checked):
    """Wrap the fused fast-mode action so that after every call each
    state array is checked bitwise against a full refresh."""
    original = _State.perform

    def perform(self, kind, index, c):
        original(self, kind, index, c)
        _assert_fresh(self, (kind, index, c))
        checked.append(int(self.volumes[c]))

    monkeypatch.setattr(_State, "perform", perform)


def _outcome(result):
    return (
        [(list(cl.rows), list(cl.cols)) for cl in result.clustering],
        [float(h).hex() for h in result.history],
        result.n_iterations,
        result.n_actions,
    )


class TestFastModeFreshness:
    """Fast mode's fused action recomputes only what a toggle moved; the
    freshness invariant says the state still equals a full refresh after
    every performed action, in every cluster."""

    @staticmethod
    def _matrix(missing, seed):
        return generate_embedded(
            60, 14, 2, cluster_shape=(10, 5), noise=1.0,
            missing_fraction=missing, rng=seed,
        ).matrix

    @pytest.mark.parametrize("ordering", ["fixed", "weighted", "greedy"])
    @pytest.mark.parametrize("missing", [0.0, 0.6])
    def test_state_fresh_after_every_action(self, monkeypatch, ordering, missing):
        checked = []
        _fresh_checking_perform(monkeypatch, checked)
        result = floc(
            self._matrix(missing, 3), 3, p=0.3, ordering=ordering,
            gain_mode="fast", residue_target=4.0, reseed_rounds=2, rng=5,
        )
        assert result.n_actions > 0
        assert len(checked) == result.n_actions

    def test_state_fresh_with_emptied_clusters(self, monkeypatch):
        # A seed without rows and a NaN-heavy matrix under a 1x1 floor:
        # clusters start empty and lose their last specified cell.
        values = self._matrix(0.7, 4).values
        n, m = values.shape
        rng = np.random.default_rng(9)
        seeds = bernoulli_seeds(n, m, 3, 0.3, rng)
        seeds[0] = (np.zeros(n, dtype=bool), seeds[0][1])
        checked = []
        _fresh_checking_perform(monkeypatch, checked)
        result = floc(
            values, 3, seeds=seeds, ordering="fixed", gain_mode="fast",
            constraints=Constraints(min_rows=1, min_cols=1),
            mandatory_moves=True, max_iterations=6, rng=2,
        )
        assert len(checked) == result.n_actions > 0
        assert 0 in checked  # some action left a cluster without volume


def _reuse_checking_deviations(monkeypatch, reuses):
    """Wrap ``line_deviations`` so that every read is compared bitwise
    with a fresh pass over the same state; ``reuses`` collects the
    reads the cache answered."""
    original = _State.line_deviations

    def deviations(self, c):
        cached = self._deviations[c]
        if cached is not None and cached[0] == self.stamp[c]:
            reuses.append(c)
        sums = original(self, c)
        kept = self._deviations[c]
        self._deviations[c] = None
        assert _same_bits(sums, original(self, c)), c
        self._deviations[c] = kept
        return sums

    monkeypatch.setattr(_State, "line_deviations", deviations)


class TestDeviationCache:
    """The per-cluster deviation pass is cached under the cluster's
    modification stamp; every read, cached or not, must equal a fresh
    pass over the current state."""

    @pytest.mark.parametrize("missing", [0.0, 0.3])
    @pytest.mark.parametrize(
        "ordering", ["fixed", "random", "weighted", "greedy"]
    )
    @pytest.mark.parametrize("gain_mode", ["fast", "exact"])
    def test_every_reuse_equals_a_fresh_pass(
        self, monkeypatch, gain_mode, ordering, missing
    ):
        reuses = []
        _reuse_checking_deviations(monkeypatch, reuses)
        performed = []
        perform = _State.perform

        def counted(self, kind, index, c):
            performed.append(c)
            perform(self, kind, index, c)

        monkeypatch.setattr(_State, "perform", counted)
        matrix = TestFastModeFreshness._matrix(missing, 3)
        result = floc(
            matrix, 3, p=0.3, ordering=ordering, gain_mode=gain_mode,
            residue_target=4.0, reseed_rounds=2, rng=5,
        )
        assert result.n_actions > 0
        # Every fast-mode action is one fused update (and one pass).
        assert len(performed) == (result.n_actions if gain_mode == "fast" else 0)
        # Exact mode reads the pass only in refreshes (each under a new
        # stamp) and in the weighted/greedy ordering's estimate lanes.
        estimated = gain_mode == "fast" or ordering in ("weighted", "greedy")
        assert bool(reuses) == estimated

    @pytest.mark.parametrize("gain_mode", ["fast", "exact"])
    @pytest.mark.parametrize("extra", [
        dict(alpha=0.6),
        dict(constraints=Constraints(max_overlap=0.2)),
    ], ids=["alpha", "cons-o"])
    def test_reuse_under_constraints(self, monkeypatch, gain_mode, extra):
        reuses = []
        _reuse_checking_deviations(monkeypatch, reuses)
        floc(
            TestFastModeFreshness._matrix(0.3, 4), 3, p=0.3,
            gain_mode=gain_mode, residue_target=4.0, reseed_rounds=1,
            rng=6, **extra,
        )
        assert reuses


class TestDenseDeviationPass:
    """The deviation pass runs one formula on every matrix: it gathers
    blocks of the NaN-holding values, drops the unspecified cells with
    ``fmax`` and guards the base with ``max(count, 1)``.  On a matrix
    without missing entries, and on the same values with NaN cells and
    blanked lines drawn onto them, every entry must keep the bits of
    the mask-product formula, clusters with an empty axis included."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_line_deviations_match_masked_formula(self, data):
        # Up to 20 lines per axis: blocks below 8 members, from 8 on
        # (where NumPy sums a row pairwise) and from 16 on.
        n = data.draw(st.integers(1, 20))
        m = data.draw(st.integers(1, 20))
        k = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        values = rng.normal(0.0, 10.0 ** data.draw(st.integers(-3, 6)), (n, m))
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                      st.floats(-1e6, 1e6, allow_nan=False,
                                allow_infinity=False)),
            max_size=n * m,
        ))
        for i, j, value in cells:
            values[i, j] = value
        seeds = [
            (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))),
             np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m))))
            for _ in range(k)
        ]
        state = _State(values, seeds)
        holed = values.copy()
        for i, j in data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
            max_size=n * m,
        )):
            holed[i, j] = NAN
        holed[data.draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = NAN
        holed[:, data.draw(st.lists(st.integers(0, m - 1), max_size=m))] = NAN
        masked = _State(holed, seeds)
        for kind, index, c in data.draw(st.lists(st.tuples(
            st.sampled_from(["row", "col"]), st.integers(0, max(n, m) - 1),
            st.integers(0, k - 1),
        ), max_size=6)):
            for target in (state, masked):
                target.perform(kind, index % (n if kind == "row" else m), c)
        for target in (state, masked):
            for c in range(k):
                assert _same_bits(
                    target.line_deviations(c), masked_line_deviations(target, c)
                ), c


class TestMaskedLedgers:
    """Paranoia over NaN-heavy runs: after every ``perform``, ``toggle``,
    ``refresh_cluster``, ``restore`` and ``set_score``, each cluster's
    ``member_cells`` ledger equals the sum of its line counts (the
    estimate lane reads it as the cells it scans), its ``sign`` row is
    -1.0 at member lines and +1.0 elsewhere, ``total_volume`` is the
    exact sum of the volumes and ``excess`` has the bits of the
    relative excess ``_score`` derives from the residues; and whenever
    the deviation pass runs, every line without a specified cell on
    the cluster sums to exactly +0.0 (the masked base divides it by 1.0
    instead of selecting 0.0)."""

    @staticmethod
    def _matrix(seed):
        values = generate_embedded(
            60, 14, 2, cluster_shape=(10, 5), noise=1.0,
            missing_fraction=0.6, rng=seed,
        ).matrix.values.copy()
        values[[4, 31], :] = NAN  # all-missing rows
        values[:, 9] = NAN  # and an all-missing column
        return values

    @pytest.mark.parametrize("ordering", ["fixed", "greedy"])
    @pytest.mark.parametrize("gain_mode", ["fast", "exact"])
    def test_ledgers_after_every_operation(
        self, monkeypatch, gain_mode, ordering
    ):
        checked = {}

        def check_ledger(state, label):
            for c in range(state.k):
                assert state.member_cells[c] == int(state.counts[c].sum()), (
                    label, c,
                )
            sign = np.where(state.member, -1.0, 1.0)
            assert state.sign.tobytes() == sign.tobytes(), label
            assert state.total_volume == int(state.volumes.sum()), label
            excess = np.maximum(state.residues - 3.0, 0.0) / 3.0
            assert state.excess.tobytes() == excess.tobytes(), label
            checked[label] = checked.get(label, 0) + 1

        for name in ("perform", "toggle", "refresh_cluster", "restore",
                     "set_score"):
            original = getattr(_State, name)

            def wrapped(self, *args, _original=original, _name=name):
                _original(self, *args)
                check_ledger(self, _name)

            monkeypatch.setattr(_State, name, wrapped)
        deviation_pass = _State._deviation_pass

        def checked_pass(self, c, rows, cols):
            empty = self.sums[c][self.counts[c] == 0]
            assert empty.tobytes() == bytes(empty.nbytes), c
            checked["pass"] = checked.get("pass", 0) + 1
            return deviation_pass(self, c, rows, cols)

        monkeypatch.setattr(_State, "_deviation_pass", checked_pass)
        reseed = floc_module._reseed_dead_slots
        reseeded = []

        def recording(*args, **kwargs):
            reseeded.append(reseed(*args, **kwargs))
            return reseeded[-1]

        monkeypatch.setattr(floc_module, "_reseed_dead_slots", recording)
        result = floc(
            self._matrix(5), 4, p=0.3, ordering=ordering,
            gain_mode=gain_mode, residue_target=3.0, reseed_rounds=3,
            constraints=Constraints(min_rows=3, min_cols=3),
            rng=15, work=WorkCounters(),
        )
        assert result.n_actions > 0
        action = "perform" if gain_mode == "fast" else "toggle"
        assert checked[action] >= result.n_actions
        assert any(reseeded)
        assert checked["restore"] > 0
        assert checked["pass"] > 0
        if gain_mode == "exact":
            assert checked["set_score"] >= result.n_actions


class TestBestPrefix:
    """A sweep whose best prefix is the whole sweep keeps its state: no
    rollback, no replay -- and the same result as always replaying."""

    @pytest.mark.parametrize("gain_mode", ["fast", "exact"])
    @pytest.mark.parametrize("target", [None, 6.0])
    def test_whole_prefix_skips_restore_with_replay_results(
        self, monkeypatch, gain_mode, target
    ):
        matrix = generate_embedded(
            80, 16, 2, cluster_shape=(12, 6), noise=1.0, rng=21,
        ).matrix
        kwargs = dict(
            p=0.3, ordering="greedy", gain_mode=gain_mode,
            residue_target=target, rng=8,
        )
        adopt = floc_module._adopt_best_prefix
        sweeps = []  # (whole prefix?, restores during the step)

        def watched(state, start, performed, n_best, fast_mode):
            before = state.work.restores
            adopt(state, start, performed, n_best, fast_mode)
            sweeps.append((n_best == len(performed),
                           state.work.restores - before))

        monkeypatch.setattr(floc_module, "_adopt_best_prefix", watched)
        work = WorkCounters()
        result = floc(matrix, 3, work=work, **kwargs)
        assert any(whole for whole, _ in sweeps)
        assert all(restores == 0 for whole, restores in sweeps if whole)
        assert all(restores == 1 for whole, restores in sweeps if not whole)

        monkeypatch.setattr(floc_module, "_adopt_best_prefix", replay_best_prefix)
        forced_work = WorkCounters()
        forced = floc(matrix, 3, work=forced_work, **kwargs)
        assert _outcome(result) == _outcome(forced)
        whole = sum(whole for whole, _ in sweeps)
        assert work.restores == forced_work.restores - whole
        for name, value in work:
            assert value <= getattr(forced_work, name), name
