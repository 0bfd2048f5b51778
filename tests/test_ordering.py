"""Unit tests for the fixed / random / weighted action orders (Sec. 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import (
    ORDERINGS,
    action_slots,
    fixed_order,
    greedy_order,
    make_order,
    random_order,
    weighted_order,
)
from tests.oracles import sorted_key_greedy_order


class TestSlots:
    def test_rows_then_cols(self):
        slots = action_slots(2, 3)
        assert slots == [
            ("row", 0), ("row", 1),
            ("col", 0), ("col", 1), ("col", 2),
        ]

    def test_fixed_order_is_canonical(self):
        assert fixed_order(2, 2) == action_slots(2, 2)


class TestRandomOrder:
    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        slots = action_slots(10, 5)
        shuffled = random_order(slots, rng)
        assert sorted(shuffled) == sorted(slots)

    def test_usually_differs_from_fixed(self):
        rng = np.random.default_rng(1)
        slots = action_slots(20, 10)
        assert random_order(slots, rng) != slots

    def test_deterministic_given_seed(self):
        slots = action_slots(8, 8)
        first = random_order(slots, np.random.default_rng(42))
        second = random_order(slots, np.random.default_rng(42))
        assert first == second

    def test_zero_swaps_identity(self):
        slots = action_slots(5, 5)
        assert random_order(slots, np.random.default_rng(0), swaps=0) == slots

    def test_negative_swaps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            random_order(action_slots(2, 2), np.random.default_rng(0), swaps=-1)

    def test_short_lists_unchanged(self):
        rng = np.random.default_rng(0)
        assert random_order([("row", 0)], rng) == [("row", 0)]


class TestWeightedOrder:
    def test_is_permutation(self):
        rng = np.random.default_rng(0)
        slots = action_slots(10, 5)
        gains = list(np.linspace(-1, 1, len(slots)))
        shuffled = weighted_order(slots, gains, rng)
        assert sorted(shuffled) == sorted(slots)

    def test_gains_length_checked(self):
        with pytest.raises(ValueError, match="gains"):
            weighted_order(action_slots(3, 3), [1.0], np.random.default_rng(0))

    def test_high_gain_tends_to_front(self):
        # Statistically, the maximum-gain slot should sit earlier than the
        # minimum-gain slot most of the time.
        slots = action_slots(15, 15)
        gains = [0.0] * len(slots)
        gains[0] = 10.0   # ('row', 0): best
        gains[-1] = -10.0  # ('col', 14): worst
        wins = 0
        trials = 60
        for seed in range(trials):
            order = weighted_order(slots, gains, np.random.default_rng(seed))
            if order.index(("row", 0)) < order.index(("col", 14)):
                wins += 1
        assert wins > trials * 0.75

    def test_front_loads_vs_uniform(self):
        # The mean position of the best slot must be earlier under the
        # weighted scheme than under the uniform shuffle.
        slots = action_slots(20, 20)
        gains = [0.0] * len(slots)
        gains[5] = 100.0
        weighted_positions = []
        uniform_positions = []
        for seed in range(40):
            w = weighted_order(slots, gains, np.random.default_rng(seed))
            u = random_order(slots, np.random.default_rng(seed))
            weighted_positions.append(w.index(("row", 5)))
            uniform_positions.append(u.index(("row", 5)))
        assert np.mean(weighted_positions) < np.mean(uniform_positions)

    def test_blocked_gains_handled(self):
        slots = action_slots(4, 4)
        gains = [float("-inf")] * len(slots)
        gains[0] = 1.0
        order = weighted_order(slots, gains, np.random.default_rng(0))
        assert sorted(order) == sorted(slots)

    def test_equal_gains_behaves_like_random(self):
        slots = action_slots(10, 10)
        gains = [2.0] * len(slots)
        order = weighted_order(slots, gains, np.random.default_rng(3))
        assert sorted(order) == sorted(slots)


class TestDispatch:
    def test_known_orderings(self):
        assert set(ORDERINGS) == {"fixed", "random", "weighted", "greedy"}

    def test_greedy_sorts_descending(self):
        from repro.core.ordering import greedy_order

        slots = action_slots(2, 2)
        gains = [0.5, 2.0, float("-inf"), 1.0]
        order = greedy_order(slots, gains)
        assert order == [("row", 1), ("col", 1), ("row", 0), ("col", 0)]

    def test_greedy_ties_keep_canonical_order(self):
        from repro.core.ordering import greedy_order

        slots = action_slots(3, 0)
        order = greedy_order(slots, [1.0, 1.0, 1.0])
        assert order == slots

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            # A small pool forces ties; the extremes probe the -1e30 map.
            st.sampled_from([
                0.0, -0.0, 1.0, -1.0, 2.5, -1e30, 1e300, -1e300,
                float("inf"), float("-inf"), float("nan"),
            ]),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        max_size=40,
    ))
    def test_greedy_equals_sorted_key_reference(self, gains):
        slots = action_slots(len(gains), 0)
        assert greedy_order(slots, gains) == sorted_key_greedy_order(slots, gains)

    def test_greedy_length_checked(self):
        from repro.core.ordering import greedy_order

        with pytest.raises(ValueError, match="gains"):
            greedy_order(action_slots(2, 2), [1.0])

    def test_make_order_fixed(self):
        slots = action_slots(3, 2)
        assert make_order("fixed", slots, [], np.random.default_rng(0)) == slots

    def test_make_order_unknown(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            make_order("sorted", [], [], np.random.default_rng(0))

    def test_make_order_random_and_weighted(self):
        slots = action_slots(6, 6)
        rng = np.random.default_rng(0)
        assert sorted(make_order("random", slots, [], rng)) == sorted(slots)
        gains = [0.0] * len(slots)
        assert sorted(make_order("weighted", slots, gains, rng)) == sorted(slots)
