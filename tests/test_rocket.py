from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testprio.errors import InputError, LengthMismatch
from testprio.history import ReplayState, build_status_matrix
from testprio.rocket import (
    WeightScheme,
    geometric_weights,
    label_dataset,
    linear_weights,
    priorities,
    priority,
    weight_scheme,
)

from conftest import cycles_from


class TestWeightSchemes:
    def test_linear_m1(self):
        assert linear_weights(1).weights.tolist() == [1.0]

    def test_linear_m3(self):
        assert linear_weights(3).weights.tolist() == pytest.approx([1 / 6, 2 / 6, 3 / 6])

    def test_linear_m4(self):
        assert linear_weights(4).weights.tolist() == pytest.approx([0.1, 0.2, 0.3, 0.4])

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_linear_invariants(self, m):
        scheme = linear_weights(m)
        assert scheme.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(scheme.weights) >= 0)
        assert np.all(scheme.weights > 0) and np.all(scheme.weights <= 1)

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_geometric_invariants(self, m, r):
        scheme = geometric_weights(m, r)
        assert scheme.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(scheme.weights) >= 0)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            WeightScheme(np.array([0.6, 0.4]))  # decreasing
        with pytest.raises(ValueError):
            WeightScheme(np.array([0.2, 0.2]))  # sum != 1

    def test_parser(self):
        assert weight_scheme("linear", 5).weights.tolist() == linear_weights(5).weights.tolist()
        parsed = weight_scheme("geometric(0.8)", 5)
        assert parsed.weights.tolist() == geometric_weights(5, 0.8).weights.tolist()
        with pytest.raises(InputError):
            weight_scheme("quadratic", 5)
        with pytest.raises(InputError):
            weight_scheme("geometric(1.5)", 5)


def reference_priority(window, weights):
    """Straight-line re-evaluation of the weighted failure sum."""
    total = 0.0
    for status, weight in zip(window, weights):
        total += weight * max(status, 0)
    return total


class TestPriority:
    def test_all_fail_is_one(self):
        for m in (1, 3, 10):
            assert priority([1] * m, linear_weights(m)) == pytest.approx(1.0)

    def test_all_pass_and_all_skipped_are_zero(self):
        assert priority([0, 0, 0], linear_weights(3)) == 0.0
        assert priority([-1, -1, -1], linear_weights(3)) == 0.0

    def test_hand_evaluated_window(self):
        assert priority([0, 1, 1], linear_weights(3)) == pytest.approx(5 / 6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            priority([0, 1], linear_weights(3))

    def test_matches_reference_loop(self):
        rng = random.Random(21)
        for _ in range(2000):
            m = rng.randint(1, 20)
            scheme = linear_weights(m) if rng.random() < 0.5 else geometric_weights(
                m, rng.uniform(0.1, 0.9))
            window = [rng.choice([-1, 0, 1]) for _ in range(m)]
            assert priority(window, scheme) == pytest.approx(
                reference_priority(window, scheme.weights), abs=1e-12)

    def test_flip_to_fail_never_decreases(self):
        rng = random.Random(22)
        for _ in range(500):
            m = rng.randint(1, 15)
            scheme = linear_weights(m)
            window = [rng.choice([-1, 0, 1]) for _ in range(m)]
            base = priority(window, scheme)
            flip = rng.randrange(m)
            if window[flip] != 1:
                bumped = list(window)
                bumped[flip] = 1
                assert priority(bumped, scheme) >= base

    def test_recency_dominance(self):
        for m in range(2, 12):
            scheme = linear_weights(m)
            recent = [0] * (m - 1) + [1]
            old = [1] + [0] * (m - 1)
            assert priority(recent, scheme) > priority(old, scheme)

    def test_ordering_invariant_to_weight_rescaling(self):
        """Scaling the raw ramp before normalizing cannot change the ranking
        (up to ties, which rounding may break either way)."""
        rng = random.Random(23)
        m = 10
        ramp = np.arange(1, m + 1, dtype=float)
        for scale in (0.001, 3.0, 1e6):
            a = WeightScheme(ramp / ramp.sum())
            b = WeightScheme((ramp * scale) / (ramp * scale).sum())
            windows = np.array(
                [[rng.choice([-1, 0, 1]) for _ in range(m)] for _ in range(50)])
            pa = priorities(windows, a)
            pb = priorities(windows, b)
            assert np.allclose(pa, pb, atol=1e-12)
            order_a = np.argsort(-pa, kind="stable")
            # a's descending order must also be descending under b
            assert np.all(np.diff(pb[order_a]) <= 1e-12)


class TestLabelDataset:
    def test_never_executed_labels_zero(self):
        cycles = cycles_from([(1, 10, False)])
        state = ReplayState.from_cycles(cycles, 10, 10)
        matrix = state.matrix_for([*state.index, 2, 3])
        labeled = label_dataset(matrix, linear_weights(10))
        by_id = dict(zip(labeled.test_ids, labeled.labels.tolist()))
        assert by_id[2] == 0.0 and by_id[3] == 0.0

    def test_always_failing_labels_one(self):
        cycles = cycles_from([(1, c, True) for c in range(1, 11)])
        labeled = label_dataset(build_status_matrix(cycles, 10), linear_weights(10))
        assert labeled.labels[0] == pytest.approx(1.0)

    def test_mixed_matrix_matches_per_row_loop(self):
        rng = random.Random(24)
        rows = [(t, c, rng.random() < 0.3) for t in range(1, 8) for c in range(1, 13)
                if rng.random() < 0.8]
        matrix = build_status_matrix(cycles_from(rows), 10)
        scheme = linear_weights(10)
        labeled = label_dataset(matrix, scheme)
        assert len(labeled.labels) == len(matrix.test_ids)
        for i, label in enumerate(labeled.labels.tolist()):
            expected = reference_priority(matrix.statuses[i], scheme.weights)
            assert label == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= label <= 1.0

    def test_scheme_must_match_window(self, tiny_history):
        matrix = build_status_matrix(tiny_history, 10)
        with pytest.raises(LengthMismatch):
            label_dataset(matrix, linear_weights(4))
