"""Property tests for the batched gain engine (``repro.core.gain_engine``).

The engine's whole claim is *equivalence*: the batched exact evaluator,
its block-windowed form, and the vectorised gain ladder must reproduce
the per-action oracles (``evaluate_toggle``'s full-submatrix rescan, the
scalar frozen-bases fold in ``tests/oracles.py``, scalar ``_gain``) --
exactly where exactness is promised (volumes, chosen actions,
bitwise-identical lane entries) and to float tolerance where the oracle
recomputes from scratch (residues).  The WorkCounters accounting rules
of the batched counters are pinned here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.gain_engine as ge
from repro.core.actions import BLOCKED_GAIN, evaluate_toggle
from repro.core.constraints import Constraints
from repro.core.floc import _State, _gain, _trim_seed_to_alpha, floc
from repro.core.gain_engine import (
    GainEngine, estimate_lane, exact_context, exact_lane, gain_lane,
    occupancy_blocked,
)
from repro.core.seeding import bernoulli_seeds
from repro.data.synthetic import generate_embedded
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf.counters import WorkCounters
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from tests.oracles import (
    frozen_bases_parts,
    occupancy_blocked_reference,
    per_kind_estimate_lane,
    per_kind_lane_gains,
    sequential_next_action,
)

NAN = float("nan")

# -- strategies --------------------------------------------------------


@st.composite
def matrices_with_missing(draw, min_side=3, max_side=10):
    """Matrices with scattered NaNs, optionally NaN-heavy, plus any
    number of all-missing rows and columns (up to a fully missing
    matrix)."""
    n = draw(st.integers(min_side, max_side))
    m = draw(st.integers(min_side, max_side))
    values = draw(arrays(
        np.float64,
        (n, m),
        elements=st.one_of(
            st.floats(
                min_value=-1e4, max_value=1e4,
                allow_nan=False, allow_infinity=False,
            ),
            st.just(NAN),
        ),
    )).copy()
    if draw(st.booleans()):  # NaN-heavy: blank a further random pattern
        values[draw(arrays(np.bool_, (n, m)))] = NAN
    values[draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = NAN
    values[:, draw(st.lists(st.integers(0, m - 1), max_size=m))] = NAN
    return values


def make_state(values, seed, k, work=None):
    rng = np.random.default_rng(seed)
    seeds = bernoulli_seeds(values.shape[0], values.shape[1], k, 0.4, rng)
    return _State(values, seeds, work=work)


def held_seeds(values, seeds, alpha, min_rows=1, min_cols=1):
    """The seeds as FLOC would hold them at ``alpha``: trimmed to it,
    or empty where the trim reaches the floor first."""
    mask = ~np.isnan(values)
    return [
        _trim_seed_to_alpha(rows, cols, mask, alpha, min_rows, min_cols)
        or (np.zeros_like(rows), np.zeros_like(cols))
        for rows, cols in seeds
    ]


def lane_size(values, kind):
    return values.shape[0] if kind == "row" else values.shape[1]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- exact lane vs the per-action oracle -------------------------------


class TestExactLaneOracle:
    @given(matrices_with_missing(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_lane_matches_exact_candidate(self, values, seed, k):
        """Full-lane residues/volumes == per-action evaluate_toggle
        rescans; line residues == the frozen-bases oracle's."""
        state = make_state(values, seed, k)
        for kind in ("row", "col"):
            for c in range(k):
                lane = exact_lane(state, kind, c)
                for i in range(lane_size(values, kind)):
                    oracle_res, oracle_vol = evaluate_toggle(
                        values, state.row_member[c], state.col_member[c],
                        kind, i,
                    )
                    assert int(lane.new_volumes[i]) == oracle_vol
                    assert float(lane.new_residues[i]) == pytest.approx(
                        oracle_res, rel=1e-9, abs=1e-9
                    )
                    _, _, line_res = frozen_bases_parts(state, kind, i, c)
                    assert float(lane.line_residues[i]) == pytest.approx(
                        line_res, rel=1e-9, abs=1e-9
                    )

    @given(matrices_with_missing(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_chosen_action_matches_oracle_argmax(self, values, seed, k):
        """best_action's winner == argmax of per-action oracle gains."""
        state = make_state(values, seed, k)
        engine = GainEngine(
            state, Constraints(min_rows=1, min_cols=1),
            alpha=0.0, residue_target=None, gain_mode="exact",
        )
        for kind in ("row", "col"):
            for index in range(min(lane_size(values, kind), 4)):
                picked = engine.best_action(kind, index)
                gains = {}
                for c in range(k):
                    n_c = int(state.row_member[c].sum())
                    m_c = int(state.col_member[c].sum())
                    member = (
                        state.row_member[c] if kind == "row"
                        else state.col_member[c]
                    )
                    if member[index]:  # structural floor on removals
                        if kind == "row" and (n_c - 1 < 1 or m_c < 1):
                            continue
                        if kind == "col" and (n_c < 1 or m_c - 1 < 1):
                            continue
                    res, _ = evaluate_toggle(
                        values, state.row_member[c], state.col_member[c],
                        kind, index,
                    )
                    gains[c] = _gain(
                        float(state.residues[c]), int(state.volumes[c]),
                        res, 0, residue_target=None,
                    )
                if not gains:
                    assert picked is None
                    continue
                assert picked is not None
                best = max(gains.values())
                # Chosen cluster is a maximiser of the oracle gains (up
                # to float tolerance -- ulp ties may pick either), and
                # the reported gain is that cluster's oracle gain.
                assert picked[0] in gains
                assert gains[picked[0]] == pytest.approx(
                    best, rel=1e-9, abs=1e-9
                )
                assert picked[3] == pytest.approx(
                    gains[picked[0]], rel=1e-9, abs=1e-9
                )


# -- estimate lane vs the scalar frozen-bases oracle -------------------


class TestEstimateLane:
    @given(matrices_with_missing(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_estimate_lane_matches_frozen_bases_oracle(self, values, seed, k):
        state = make_state(values, seed, k)
        for c in range(k):
            lane = estimate_lane(state, c)
            for kind in ("row", "col"):
                offset = 0 if kind == "row" else values.shape[0]
                for index in range(lane_size(values, kind)):
                    new_res, new_vol, line_res = frozen_bases_parts(
                        state, kind, index, c
                    )
                    line = offset + index
                    assert int(lane.new_volumes[line]) == new_vol
                    assert float(lane.new_residues[line]) == pytest.approx(
                        new_res, rel=1e-9, abs=1e-9
                    )
                    assert float(lane.line_residues[line]) == pytest.approx(
                        line_res, rel=1e-9, abs=1e-9
                    )

    @staticmethod
    def _assert_concatenation(state, c):
        lane = estimate_lane(state, c)
        halves = [per_kind_estimate_lane(state, kind, c) for kind in ("row", "col")]
        for name in ("new_residues", "new_volumes", "line_residues"):
            expected = np.concatenate([getattr(half, name) for half in halves])
            assert _same_bits(getattr(lane, name), expected), (c, name)
        return lane

    @given(matrices_with_missing(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_all_lines_bitwise_equal_per_kind_lanes(self, values, seed, k):
        """One lane over M+N lines is the two per-kind lanes, rows first,
        bit for bit -- NaN-heavy inputs hit the untouched overlay."""
        state = make_state(values, seed, k)
        for c in range(k):
            self._assert_concatenation(state, c)

    def test_overlays_and_per_kind_bounds(self):
        """Untouched and emptied overlays, and a cluster at the row floor
        but not the column floor: only its row removals are blocked.  At
        alpha 0.7 the clusters are ones FLOC can hold: cluster 1 cannot
        trim to it above the floor and is empty, cluster 2 is taken
        without the all-missing column 7."""
        rng = np.random.default_rng(12)
        values = rng.normal(size=(12, 9))
        values[3, :] = NAN  # untouched by every cluster
        values[:, 7] = NAN
        values[np.ix_([0, 1], [0, 1, 2])] = NAN
        seeds = bernoulli_seeds(12, 9, 3, 0.5, rng)
        # Cluster 1: two rows, one of them fully missing on the member
        # columns, so removing the other row empties it.
        rows = np.zeros(12, dtype=bool)
        rows[[0, 5]] = True
        cols = np.zeros(9, dtype=bool)
        cols[[0, 1, 2]] = True
        values[5, [1, 2]] = NAN
        seeds[1] = (rows, cols)
        # Cluster 2: at the row floor (3 rows), well above the column floor.
        rows = np.zeros(12, dtype=bool)
        rows[[2, 6, 8]] = True
        seeds[2] = (rows, np.ones(9, dtype=bool))
        state = _State(values, seeds)
        constraints = Constraints(min_rows=3, min_cols=3)
        lane = self._assert_concatenation(state, 1)
        assert lane.new_volumes[5] == 0.0 and state.counts[1, 5] > 0  # emptied
        for c in range(3):
            lane = self._assert_concatenation(state, c)
            assert state.counts[c, 3] == 0  # untouched
        cols = np.arange(9) != 7
        held = _State(values, held_seeds(values, seeds[:2] + [(rows, cols)], 0.7, 3, 3))
        assert not held.member[1].any()
        assert (held.row_member[2] == rows).all() and (held.col_member[2] == cols).all()
        for target, alpha in ((None, 0.0), (2.0, 0.0), (2.0, 0.7)):
            if alpha > 0.0:
                state = held
            engine = GainEngine(state, constraints, alpha, target, "fast")
            engine.best_action("row", 0)
            for c in range(3):
                expected = np.concatenate([
                    per_kind_lane_gains(state, constraints, alpha, target, kind, c)
                    for kind in ("row", "col")
                ])
                assert _same_bits(engine._move.gains[c], expected), (c, target)
        gains = engine._move.gains[2]
        assert (gains[:12][state.row_member[2]] == BLOCKED_GAIN).all()
        assert (gains[12:][state.col_member[2]] != BLOCKED_GAIN).any()

    def test_overlays_where_the_fold_rounds_off(self):
        """The overlays' values hold where the fold would not give them:
        an untouched line keeps the cluster's residue itself, not
        ``V * R / V``, and a removal that empties the cluster scores
        0.0.  A residue is planted for which both folds round off."""
        rng = np.random.default_rng(3)
        values = rng.normal(size=(8, 6))
        values[3, :] = NAN  # untouched by the cluster
        values[np.ix_([1, 2, 4], [0, 1, 2])] = NAN  # row 0 holds every cell
        rows = np.zeros(8, dtype=bool)
        rows[[0, 1, 2, 4]] = True
        cols = np.zeros(6, dtype=bool)
        cols[[0, 1, 2]] = True
        state = _State(values, [(rows, cols)])
        assert state.volumes[0] == 3
        state.residues[0] = 0.1  # 3 * 0.1 / 3 != 0.1
        lane = self._assert_concatenation(state, 0)
        assert state.counts[0, 3] == 0
        assert _same_bits(lane.new_residues[3], np.float64(0.1))
        assert lane.new_residues[0] == 0.0 and lane.line_residues[0] == 0.0

    def test_dense_clusters_with_one_row_or_column_keep_overlays(self):
        """On a fully specified matrix a one-row or one-column cluster
        still empties on a removal, and the overlays say so."""
        values = np.random.default_rng(4).normal(size=(7, 5))
        one_row, one_col = np.zeros(7, dtype=bool), np.zeros(5, dtype=bool)
        one_row[2], one_col[1] = True, True
        seeds = [(one_row, np.ones(5, dtype=bool)), (np.ones(7, dtype=bool), one_col)]
        state = _State(values, seeds)
        for c in range(2):
            lane = self._assert_concatenation(state, c)
            assert (lane.new_volumes >= 0.0).all() and np.isfinite(lane.new_residues).all()


# -- alpha-occupancy lane masks vs the scalar rule ---------------------


@st.composite
def occupancy_states(draw):
    """Matrices from one line up, fully specified to NaN-heavy, with
    all-missing lines, and clusters that may be empty, hold one row or
    one column, or any member lines."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(n_rows, n_cols))
    density = draw(st.sampled_from((1.0, 0.9, 0.75, 0.6, 0.4, 0.1)))
    values[rng.random(values.shape) >= density] = NAN
    values[draw(st.lists(st.integers(0, n_rows - 1), max_size=1)), :] = NAN
    values[:, draw(st.lists(st.integers(0, n_cols - 1), max_size=1))] = NAN
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = rng.random(n_rows) < 0.5, rng.random(n_cols) < 0.5
        shape = draw(st.sampled_from(("any", "any", "empty", "one row", "one column")))
        if shape == "empty":
            rows[:] = False
        elif shape != "any":
            line = rows if shape == "one row" else cols
            line[:] = False
            line[rng.integers(line.size)] = True
        seeds.append((rows, cols))
    return values, seeds


class TestOccupancyMask:
    @given(occupancy_states(), st.sampled_from((1 / 3, 0.5, 0.6, 1.0)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_lane_masks_match_scalar_rule(self, spec, alpha, data):
        """Every lane's alpha-blocked entries are the toggles
        ``occupancy_blocked_reference`` blocks, entry by entry: the
        estimate lanes of fast mode, the full exact lanes and ``sel``
        windows of them."""
        values, seeds = spec
        state = _State(values, held_seeds(values, seeds, alpha))
        constraints = Constraints(min_rows=1, min_cols=1)
        split = values.shape[0]

        def expected(kind, c, lines):
            member = (state.row_member if kind == "row" else state.col_member)[c]
            n, m = int(state.row_member[c].sum()), int(state.col_member[c].sum())
            removal, addition = ge._structural_bounds(constraints, kind, n, m)
            alpha_blocked = np.array([
                occupancy_blocked_reference(state, alpha, kind, int(i), c)
                for i in lines
            ], dtype=bool)
            got = occupancy_blocked(state, alpha, kind, c, lines)
            assert np.array_equal(alpha_blocked, got), (kind, c, lines)
            return alpha_blocked | np.where(member.take(lines), removal, addition)

        fast = GainEngine(state, constraints, alpha, 2.0, "fast")
        exact = GainEngine(state, constraints, alpha, 2.0, "exact")
        fast.best_action("row", 0)
        exact.best_action("row", 0)
        exact.best_action("col", 0)
        for c in range(len(seeds)):
            for kind, lo, size in (("row", 0, split), ("col", split, values.shape[1])):
                lines = np.arange(size, dtype=np.intp)
                want = expected(kind, c, lines)
                for engine in (fast, exact):
                    got = engine._move.gains[c, lo:lo + size] == BLOCKED_GAIN
                    assert np.array_equal(got, want), (engine.fast_mode, kind, c)
                sel = np.array(data.draw(st.lists(
                    st.integers(0, size - 1), min_size=1, max_size=size, unique=True,
                )), dtype=np.intp)
                exact._build(exact._move, exact._move.part(lo), c, sel=sel)
                got = exact._move.gains[c, lo + sel] == BLOCKED_GAIN
                assert np.array_equal(got, expected(kind, c, sel)), (kind, c, sel)

    def test_removal_that_breaks_a_column_is_blocked(self):
        """Removing the one member row specified on a member column at
        the alpha boundary is blocked in every lane, and the other
        removal and the additions are not; an empty cluster blocks every
        toggle."""
        values = np.arange(12.0).reshape(4, 3)
        values[1, 0] = NAN  # column 0: 1 of the 2 member rows
        rows = np.array([True, True, False, False])
        state = _State(values, [(rows, np.ones(3, dtype=bool))])
        blocked = occupancy_blocked(state, 0.5, "row", 0)
        assert blocked is not None
        assert blocked.tolist() == [True, False, False, False]
        constraints = Constraints(min_rows=1, min_cols=1)
        for gain_mode in ("fast", "exact"):
            engine = GainEngine(state, constraints, 0.5, 2.0, gain_mode)
            engine.best_action("row", 0)
            assert (engine._move.gains[0, :4] == BLOCKED_GAIN).tolist() == blocked.tolist()
        empty = _State(values, [(np.zeros(4, dtype=bool), np.zeros(3, dtype=bool))])
        for kind, size in (("row", 4), ("col", 3)):
            assert occupancy_blocked(empty, 0.5, kind, 0).tolist() == [True] * size
        sel = np.array([2, 0], dtype=np.intp)
        assert occupancy_blocked(empty, 0.5, "row", 0, sel).tolist() == [True, True]


# -- block windows are bitwise-identical to the full lane --------------


class TestBlockAndScalarParity:
    def test_block_and_one_slot_bitwise_equal_full_lane(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            N = int(rng.integers(8, 80))
            M = int(rng.integers(4, 30))
            k = int(rng.integers(1, 6))
            values = rng.normal(size=(N, M)) * 3
            values[rng.random((N, M)) < 0.15] = np.nan
            seeds = bernoulli_seeds(N, M, k, 0.3, rng)
            state = _State(values, seeds, work=None)
            for kind in ("row", "col"):
                size = N if kind == "row" else M
                for c in range(k):
                    ctx = exact_context(state, kind, c)
                    full = exact_lane(state, kind, c, ctx=ctx)
                    bs = int(rng.integers(1, size + 1))
                    sel = rng.permutation(size)[:bs].astype(np.intp)
                    blk = exact_lane(state, kind, c, sel=sel, ctx=ctx)
                    for name in ("new_residues", "new_volumes", "line_residues"):
                        assert np.array_equal(
                            getattr(full, name)[sel], getattr(blk, name)
                        ), name
                    # A one-slot block is the lane's scalar form.
                    for i in rng.integers(0, size, size=min(4, size)):
                        one = exact_lane(
                            state, kind, c,
                            sel=np.array([i], dtype=np.intp), ctx=ctx,
                        )
                        for name in (
                            "new_residues", "new_volumes", "line_residues",
                        ):
                            assert getattr(one, name)[0] == getattr(
                                full, name
                            )[i], name

    def test_ctx_reuse_bitwise_equals_fresh_ctx(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 12))
        values[rng.random((40, 12)) < 0.1] = np.nan
        seeds = bernoulli_seeds(40, 12, 3, 0.3, rng)
        state = _State(values, seeds, work=None)
        for kind in ("row", "col"):
            for c in range(3):
                ctx = exact_context(state, kind, c)
                with_ctx = exact_lane(state, kind, c, ctx=ctx)
                without = exact_lane(state, kind, c)
                for name in ("new_residues", "new_volumes", "line_residues"):
                    assert np.array_equal(
                        getattr(with_ctx, name), getattr(without, name)
                    ), name


# -- full contexts are bitwise the masked formulas --------------------


@st.composite
def full_states(draw):
    """A matrix with at least two lines per axis and k clusters of any
    membership (empty axes, single members and full extents included),
    fully specified or with holes only in rows outside every cluster
    and columns outside every cluster, so that lanes stay full."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, 8))
    values = draw(arrays(
        np.float64, (n, m),
        elements=st.floats(
            min_value=-1e4, max_value=1e4,
            allow_nan=False, allow_infinity=False,
        ),
    ))
    k = draw(st.integers(1, 4))
    seeds = [
        (draw(arrays(np.bool_, n)), draw(arrays(np.bool_, m)))
        for _ in range(k)
    ]
    free_rows = ~np.logical_or.reduce([rows for rows, _ in seeds])
    free_cols = ~np.logical_or.reduce([cols for _, cols in seeds])
    holes = draw(arrays(np.bool_, (n, m)))
    values[holes & (free_rows[:, None] | free_cols)] = NAN
    return values, seeds


def _pad(values, seeds):
    """``values`` and ``seeds`` with one all-missing row and one
    all-missing column appended: no exact context of them is full."""
    n, m = values.shape
    padded = np.full((n + 1, m + 1), NAN)
    padded[:n, :m] = values
    return padded, [(np.append(rows, False), np.append(cols, False))
                    for rows, cols in seeds]


def _work_delta(work, before):
    start = before.as_dict()
    return {name: value - start[name] for name, value in work}


def _assert_full_matches_masked(values, seeds, sels=()):
    """Every exact lane (full, and each ``sel`` window) equals, bit for
    bit and counter for counter, the lane of the same state padded by
    an all-missing row and column, which takes the masked formulas.
    A padded full lane also scores the padding line: one more toggle
    evaluation, no more cells.  Returns how many contexts were full."""
    work, padded_work = WorkCounters(), WorkCounters()
    state = _State(values, seeds, work=work)
    padded = _State(*_pad(values, seeds), work=padded_work)
    before, padded_before = work.copy(), padded_work.copy()
    n_full = full_lanes = 0
    for kind in ("row", "col"):
        size = lane_size(values, kind)
        for c in range(len(seeds)):
            ctx = exact_context(state, kind, c)
            ctx_p = exact_context(padded, kind, c)
            assert (ctx.n, ctx.m) == (ctx_p.n, ctx_p.m)
            assert not ctx_p.full
            n_full += ctx.full
            for sel in (None,) + tuple(sels):
                if sel is not None:
                    sel = sel[sel < size]
                got = exact_lane(state, kind, c, sel=sel, ctx=ctx)
                want = exact_lane(padded, kind, c, sel=sel, ctx=ctx_p)
                scored = slice(None) if sel is not None else slice(size)
                full_lanes += sel is None
                for name in ("new_residues", "new_volumes", "line_residues"):
                    assert _same_bits(getattr(got, name), getattr(want, name)[scored]), (
                        kind, c, sel, name,
                    )
    delta = _work_delta(work, before)
    padded_delta = _work_delta(padded_work, padded_before)
    assert padded_delta.pop("toggle_evals") == delta.pop("toggle_evals") + full_lanes
    assert padded_delta == delta
    return n_full


class TestDenseSelections:
    @given(full_states(), st.lists(st.integers(0, 8), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_dense_lanes_bitwise_equal_masked(self, state_spec, picks):
        values, seeds = state_spec
        _assert_full_matches_masked(
            values, seeds, sels=(np.array(picks, dtype=np.intp),),
        )

    def test_shortcut_edges(self):
        """The full shortcut's edges: one candidate-kind member (volume
        == m, its removal empties the cluster), two members (the first
        full case), an empty base axis, an empty candidate axis, and a
        masked matrix whose row lanes are full and column lanes not."""
        rng = np.random.default_rng(5)
        values = rng.normal(size=(7, 5)) * 10
        rows, cols = np.zeros(7, dtype=bool), np.zeros(5, dtype=bool)
        one_row = rows.copy()
        one_row[3] = True
        two_rows = one_row.copy()
        two_rows[5] = True
        one_col = cols.copy()
        one_col[1] = True
        seeds = [
            (one_row, np.ones(5, dtype=bool)),  # row lane: volume == m
            (np.ones(7, dtype=bool), one_col),  # column lane: volume == m
            (two_rows, one_col),  # full row lane at n == 2, m == 1
            (two_rows, cols),  # empty column axis
            (rows, np.ones(5, dtype=bool)),  # empty row axis
        ]
        windows = (np.array([3, 0, 6], dtype=np.intp), np.array([1], dtype=np.intp))
        # Full: cluster 0's column lane, clusters 1 and 2's row lanes.
        assert _assert_full_matches_masked(values, seeds, sels=windows) == 3
        # The single-member row lane empties on removal: volume 0.
        state = _State(values, seeds)
        assert not exact_context(state, "row", 0).full
        lane = exact_lane(state, "row", 0)
        assert lane.new_volumes[3] == 0 and lane.new_residues[3] == 0.0
        # Row 3 misses column 4, outside the cluster's columns.
        holed = values.copy()
        holed[3, 4] = NAN
        seeds = [(two_rows, np.arange(5) < 4)]
        state = _State(holed, seeds)
        assert exact_context(state, "row", 0).full
        assert not exact_context(state, "col", 0).full
        assert _assert_full_matches_masked(holed, seeds, sels=windows) == 1


# -- vectorised gain ladder vs the scalar ------------------------------


class TestGainLane:
    finite = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)

    @given(
        finite,
        st.integers(0, 1000),
        st.lists(finite, min_size=1, max_size=8),
        st.lists(st.integers(0, 1000), min_size=8, max_size=8),
        st.one_of(st.none(), st.floats(1e-3, 1e3)),
        st.lists(finite, min_size=8, max_size=8),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_gain_lane_bitwise_equals_scalar_gain(
        self, old_res, old_vol, new_res, new_vol, target, line_res, is_add
    ):
        n = len(new_res)
        new_vol, line_res, is_add = new_vol[:n], line_res[:n], is_add[:n]
        lane = gain_lane(
            old_res, old_vol,
            np.asarray(new_res), np.asarray(new_vol, dtype=np.float64),
            target,
            np.asarray(line_res), np.asarray(is_add),
        )
        for i in range(n):
            scalar = _gain(
                old_res, old_vol, new_res[i], int(new_vol[i]), target,
                line_residue=line_res[i], is_addition=is_add[i],
            )
            assert lane[i] == scalar, (i, lane[i], scalar)


# -- WorkCounters accounting rules -------------------------------------


class TestCounterAccounting:
    def _payload(self, work):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(60, 20))
        values[rng.random((60, 20)) < 0.1] = np.nan
        seeds = bernoulli_seeds(60, 20, 4, 0.3, rng)
        return _State(values, seeds, work=work)

    def test_exact_context_counts_one_residue_eval_of_volume_cells(self):
        work = WorkCounters()
        state = self._payload(work)
        before = work.copy()
        ctx = exact_context(state, "row", 0)
        assert work.residue_evals == before.residue_evals + 1
        assert work.cells_scanned == before.cells_scanned + ctx.volume
        assert work.toggle_evals == before.toggle_evals
        assert work.batch_evals == before.batch_evals

    def test_exact_lane_counts_batch_and_per_slot_toggles(self):
        work = WorkCounters()
        state = self._payload(work)
        ctx = exact_context(state, "row", 0)
        before = work.copy()
        exact_lane(state, "row", 0, ctx=ctx)
        assert work.batch_evals == before.batch_evals + 1
        assert work.lane_builds == before.lane_builds + 1
        assert work.toggle_evals == before.toggle_evals + 60
        assert work.cells_scanned == (
            before.cells_scanned + int(state.row_counts[0].sum())
        )

    def test_block_lane_scans_only_selected_slots(self):
        work = WorkCounters()
        state = self._payload(work)
        ctx = exact_context(state, "row", 0)
        sel = np.arange(10, dtype=np.intp)
        before = work.copy()
        lane = exact_lane(state, "row", 0, sel=sel, ctx=ctx)
        assert work.batch_evals == before.batch_evals + 1
        assert work.toggle_evals == before.toggle_evals + 10
        assert work.cells_scanned == (
            before.cells_scanned + int(state.row_counts[0].take(sel).sum())
        )
        assert lane.new_volumes.size == 10


# -- full-run identity: engine caching policies are invisible ----------


def _fingerprint(res):
    return (
        res.n_iterations, res.n_actions, res.converged, res.average_residue,
        tuple((tuple(c.rows), tuple(c.cols)) for c in res.clustering.clusters),
    )


class _EagerEngine(GainEngine):
    """Paranoia-mode engine: no block windows, and the sweep scan
    replaced by the slot-by-slot reference loop that rebuilds every lane
    from scratch at every consult."""

    def begin_sweep(self, order):
        self._sweep = list(order)

    def next_action(self, t):
        return sequential_next_action(self, self._sweep, t)


class _SlotEngine(GainEngine):
    """The cached engine consulted slot by slot: the lane builds the
    sweep scan must reproduce."""

    def begin_sweep(self, order):
        super().begin_sweep(order)
        self._sweep = list(order)

    def next_action(self, t):
        return sequential_next_action(self, self._sweep, t, invalidate=False)


def _embedded(rows, cols, missing=0.0):
    dataset = generate_embedded(
        rows, cols, 3, cluster_shape=(max(rows // 8, 4), 6), noise=1.0, rng=0
    )
    values = dataset.matrix.values.copy()
    if missing:
        values[np.random.default_rng(1).random(values.shape) < missing] = NAN
    return values


#: Run-identity cases: (label, input shape + missing fraction, floc kwargs).
_IDENTITY_CASES = [
    # Row lanes of >= 192 slots: the exact path scans block windows.
    ("exact-block-greedy", (200, 12, 0.0),
     dict(gain_mode="exact", ordering="greedy", max_iterations=6)),
    ("exact-block-fixed-mandatory", (200, 12, 0.0),
     dict(gain_mode="exact", ordering="fixed", mandatory_moves=True,
          max_iterations=3)),
] + [
    (f"{mode}-{ordering}-{extra}", (60, 16, 0.0), dict(
        gain_mode=mode, ordering=ordering,
        mandatory_moves=extra == "mandatory",
        max_iterations=4 if extra == "mandatory" else 8,
    ))
    for mode in ("exact", "fast")
    for ordering in ("fixed", "random", "weighted", "greedy")
    for extra in ("plain", "mandatory")
] + [
    (f"{mode}-alpha-reseed", (60, 16, 0.2), dict(
        gain_mode=mode, alpha=0.6, reseed_rounds=2, max_iterations=8,
    ))
    for mode in ("exact", "fast")
] + [
    (f"{mode}-cons-o-{ordering}", (60, 16, 0.0), dict(
        gain_mode=mode, ordering=ordering, reseed_rounds=1,
        constraints=Constraints(max_overlap=0.2), max_iterations=8,
    ))
    for mode in ("exact", "fast")
    for ordering in ("random", "greedy")
] + [
    ("exact-alpha-mandatory", (60, 16, 0.2), dict(
        gain_mode="exact", alpha=0.6, mandatory_moves=True, max_iterations=4,
    )),
    ("exact-literal", (60, 16, 0.0), dict(
        gain_mode="exact", residue_target=None, max_iterations=5,
    )),
]


def _identity_run(shape, kwargs, **extra):
    rows, cols, missing = shape
    options = dict(residue_target=2.0, rng=7)
    options.update(kwargs)
    options.update(extra)
    return floc(_embedded(rows, cols, missing), 6, **options)


class TestRunIdentity:
    @pytest.mark.parametrize("gain_mode", ["exact", "fast"])
    def test_lazy_block_engine_bit_identical_to_eager(
        self, gain_mode, monkeypatch
    ):
        dataset = generate_embedded(
            250, 30, 4, cluster_shape=(20, 8), noise=1.0, rng=0
        )
        kwargs = dict(
            gain_mode=gain_mode, residue_target=2.0,
            max_iterations=12, rng=7,
        )
        cached = floc(dataset.matrix, 8, **kwargs)
        monkeypatch.setattr(ge, "GainEngine", _EagerEngine)
        eager = floc(dataset.matrix, 8, **kwargs)
        assert _fingerprint(cached) == _fingerprint(eager)

    @pytest.mark.parametrize(
        "shape,kwargs", [case[1:] for case in _IDENTITY_CASES],
        ids=[case[0] for case in _IDENTITY_CASES],
    )
    def test_scan_engine_bit_identical_to_eager(
        self, shape, kwargs, monkeypatch
    ):
        cached = _identity_run(shape, kwargs)
        monkeypatch.setattr(ge, "GainEngine", _EagerEngine)
        eager = _identity_run(shape, kwargs)
        assert _fingerprint(cached) == _fingerprint(eager)
        assert cached.history == eager.history

    @pytest.mark.parametrize(
        "shape,kwargs", [case[1:] for case in _IDENTITY_CASES],
        ids=[case[0] for case in _IDENTITY_CASES],
    )
    def test_traced_run_does_the_untraced_work(self, shape, kwargs):
        """The engine never sees the tracer: a run traced with a sink and
        metrics matches the untraced run in clusters, history and every
        work counter."""
        plain_work = WorkCounters()
        plain = _identity_run(shape, kwargs, work=plain_work)
        traced_work = WorkCounters()
        traced = _identity_run(
            shape, kwargs, work=traced_work,
            tracer=Tracer(sinks=[RingBufferSink(capacity=100_000)],
                          metrics=MetricsRegistry()),
        )
        assert _fingerprint(traced) == _fingerprint(plain)
        assert traced.history == plain.history
        assert traced_work.as_dict() == plain_work.as_dict()

    @pytest.mark.parametrize("label", [
        "exact-block-greedy", "fast-greedy-plain", "exact-cons-o-random",
        "fast-alpha-reseed", "exact-alpha-mandatory",
    ])
    def test_traced_metrics_match_sequential_reference(
        self, label, monkeypatch
    ):
        """The scan's traced observations (event counts, span counts
        and the iteration records) equal the slot-by-slot loop's."""
        shape, kwargs = next(case[1:] for case in _IDENTITY_CASES
                             if case[0] == label)

        def traced_observations():
            sink = RingBufferSink(capacity=100_000)
            tracer = Tracer(sinks=[sink])
            _identity_run(shape, kwargs, tracer=tracer)
            summary = tracer.summary()
            spans = {name: agg["count"]
                     for name, agg in summary["spans"].items()}
            iterations = [
                {k: v for k, v in record.items() if k != "elapsed_s"}
                for record in sink.by_type("iteration")
            ]
            return summary["events"], spans, iterations

        scanned = traced_observations()
        monkeypatch.setattr(ge, "GainEngine", _EagerEngine)
        reference = traced_observations()
        assert scanned == reference

    @pytest.mark.parametrize("label", [
        "exact-block-greedy", "exact-block-fixed-mandatory",
        "fast-random-plain", "fast-greedy-plain", "fast-fixed-mandatory",
        "exact-cons-o-greedy", "fast-alpha-reseed",
    ])
    def test_scan_builds_the_lanes_of_the_slot_loop(self, label, monkeypatch):
        """Lanes are built only where a slot-by-slot consult builds them,
        so every work counter matches the per-slot loop's."""
        shape, kwargs = next(case[1:] for case in _IDENTITY_CASES
                             if case[0] == label)
        scanned = WorkCounters()
        _identity_run(shape, kwargs, work=scanned)
        monkeypatch.setattr(ge, "GainEngine", _SlotEngine)
        slot_by_slot = WorkCounters()
        _identity_run(shape, kwargs, work=slot_by_slot)
        assert scanned.as_dict() == slot_by_slot.as_dict()

    def test_gain_eval_spans_track_performed_actions(self):
        """One ``gain_eval`` span per scan: one per performed action plus
        one closing scan per sweep, not one per slot."""
        tracer = Tracer()
        result = _identity_run((60, 16, 0.0), dict(gain_mode="fast"),
                               tracer=tracer)
        spans = result.trace_summary["spans"]["gain_eval"]["count"]
        assert spans == result.n_actions + result.n_iterations

    def test_invalidate_all_preserves_best_action(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(50, 15))
        seeds = bernoulli_seeds(50, 15, 3, 0.3, rng)
        state = _State(values, seeds, work=None)
        engine = GainEngine(
            state, Constraints(min_rows=1, min_cols=1),
            alpha=0.0, residue_target=2.0, gain_mode="exact",
        )
        first = [engine.best_action("row", i) for i in range(50)]
        engine.invalidate_all()
        again = [engine.best_action("row", i) for i in range(50)]
        assert first == again


# -- precise invalidation: restore keeps unchanged clusters' lanes -----


class TestPreciseInvalidation:
    def _engine(self, work):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 12))
        seeds = bernoulli_seeds(40, 12, 2, 0.4, rng)
        state = _State(values, seeds, work=work)
        engine = GainEngine(
            state, Constraints(min_rows=1, min_cols=1),
            alpha=0.0, residue_target=2.0, gain_mode="exact",
        )
        return state, engine

    @staticmethod
    def _consult_both_kinds(engine):
        engine.best_action("row", 0)
        engine.best_action("col", 0)

    def test_restore_rebuilds_only_the_changed_cluster(self):
        work = WorkCounters()
        state, engine = self._engine(work)
        self._consult_both_kinds(engine)
        lanes = [part.scores[0] for part in engine._move.parts]
        stamp = state.stamp.copy()
        snapshot = state.snapshot()
        state.toggle("row", 5, 1)
        toggled_stamp = int(state.stamp[1])
        state.restore(snapshot)
        assert state.stamp[0] == stamp[0]
        assert state.stamp[1] > toggled_stamp
        before = work.batch_evals
        self._consult_both_kinds(engine)
        # Cluster 1's row and column lanes, nothing of cluster 0.
        assert work.batch_evals - before == 2
        for part, lane in zip(engine._move.parts, lanes):
            assert part.scores[0] is lane

    def test_restore_without_changes_rebuilds_nothing(self):
        work = WorkCounters()
        state, engine = self._engine(work)
        self._consult_both_kinds(engine)
        stamp, rev = state.stamp.copy(), state.rev
        state.restore(state.snapshot())
        assert np.array_equal(state.stamp, stamp)
        assert state.rev == rev
        before = work.batch_evals
        self._consult_both_kinds(engine)
        assert work.batch_evals == before


# -- satellite: empty-action sweeps take no snapshots ------------------


class TestEmptySweepSnapshotSkip:
    def test_zero_action_run_takes_only_the_initial_snapshot(self):
        # Paper-literal mode on a constant matrix: every toggle leaves
        # the residue at 0, every gain is 0, and mandatory_moves=False
        # performs nothing -- the sweep is empty from the start, so the
        # per-iteration bookkeeping must not deep-copy the state at all
        # beyond the initial best-state capture.
        work = WorkCounters()
        values = np.full((30, 10), 5.0)
        result = floc(
            values, 3, gain_mode="exact", residue_target=None,
            max_iterations=10, rng=1, work=work,
        )
        assert result.converged
        assert result.n_actions == 0
        assert work.snapshots == 1
        assert work.restores == 0

    def test_terminal_empty_sweep_adds_no_snapshot(self):
        # A converging r-residue run ends with one empty sweep; only
        # sweeps that performed actions may snapshot/restore.  Initial
        # capture: 1.  Improving sweep: iteration_start + new best = 2
        # snapshots, 1 restore.  Non-improving sweep with actions:
        # 1 snapshot, 1 restore.  The terminal empty sweep: nothing --
        # so snapshots < 1 + 2 * iterations must hold strictly even in
        # the all-improving worst case.
        work = WorkCounters()
        values = np.full((30, 10), 5.0)
        result = floc(
            values, 3, gain_mode="exact", residue_target=2.0,
            max_iterations=10, rng=1, work=work,
        )
        assert result.converged
        assert work.snapshots < 1 + 2 * result.n_iterations
        assert work.restores < result.n_iterations
