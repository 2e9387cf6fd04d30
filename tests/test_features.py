from __future__ import annotations

import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from testprio.errors import OutOfRange, WindowLenMismatch
from testprio.features import (
    FeatureVector,
    _encode_last_run_clipped,
    bounds_from_matrix,
    change_in_status,
    distance,
    dump_features_csv,
    encode_last_run,
    extract,
    feature_matrix,
    load_features_csv,
    normalize_duration,
    stack,
)
from testprio.history import NEVER_RAN, build_status_matrix, from_epoch_us
from testprio.rocket import label_dataset, linear_weights

from conftest import cycles_from
from test_history import random_cycles


class TestNormalizeDuration:
    def test_midpoint(self):
        assert normalize_duration(5, 0, 10) == 0.5

    def test_max_maps_to_one(self):
        assert normalize_duration(10, 0, 10) == 1.0

    def test_degenerate_suite(self):
        assert normalize_duration(7, 7, 7) == 0.5

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            normalize_duration(1, 5, 2)


class TestEncodeLastRun:
    def test_endpoints(self):
        lo, hi = datetime(2016, 1, 1), datetime(2016, 1, 11)
        assert encode_last_run(lo, lo, hi) == 0.0
        assert encode_last_run(hi, lo, hi) == 1.0

    def test_midpoint_of_ten_days(self):
        lo = datetime(2016, 1, 1)
        assert encode_last_run(lo + timedelta(days=5), lo, lo + timedelta(days=10)) == 0.5

    def test_out_of_range(self):
        lo, hi = datetime(2016, 1, 1), datetime(2016, 1, 11)
        with pytest.raises(OutOfRange):
            encode_last_run(hi + timedelta(seconds=1), lo, hi)

    def test_degenerate_span(self):
        lo = datetime(2016, 1, 1)
        assert encode_last_run(lo, lo, lo) == 0.5


class TestWindowFeatures:
    @pytest.mark.parametrize("window,expected", [
        ([-1, 0, 0, 1], 2),
        ([0, 0, 0, 0], 0),
        ([1, 0], 1),
    ])
    def test_distance(self, window, expected):
        assert distance(window) == expected

    @pytest.mark.parametrize("window,expected", [
        ([0, 1, 0, 1], 2),
        ([1, 1, 1], 0),
        ([0, -1, 1], 1),  # the gap is skipped, pass then fail still counts
    ])
    def test_change_in_status(self, window, expected):
        assert change_in_status(window) == expected

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            distance([])
        with pytest.raises(ValueError):
            change_in_status([])

    def test_change_invariant_under_leading_padding(self):
        rng = random.Random(3)
        for _ in range(200):
            window = [rng.choice([-1, 0, 1]) for _ in range(rng.randint(1, 12))]
            padded = [-1] * rng.randint(1, 4) + window
            assert change_in_status(padded) == change_in_status(window)

    def test_distance_invariant_once_padded(self):
        # distance reads the raw first slot, so it only stays put when that
        # slot is already padding
        rng = random.Random(4)
        for _ in range(200):
            window = [-1] + [rng.choice([-1, 0, 1]) for _ in range(rng.randint(1, 10))]
            assert distance([-1] * 3 + window) == distance(window)


class TestExtract:
    def test_all_pass_window(self):
        cycles = cycles_from([(1, c, False, 3.0) for c in range(1, 11)])
        vectors = extract(build_status_matrix(cycles, 10))
        v = vectors[0]
        assert v.es_window == (0,) * 10
        assert v.distance == 0
        assert v.change_in_status == 0
        assert len(v.flatten()) == 14

    def test_order_preserved(self):
        cycles = cycles_from([(2, 1, False), (1, 1, False)] +
                             [(2, c, False) for c in range(2, 11)])
        vectors = extract(build_status_matrix(cycles, 10))
        assert [v.test_id for v in vectors] == [2, 1]

    def test_fail_in_last_cycle(self):
        cycles = cycles_from([(1, c, c == 10) for c in range(1, 11)])
        v = extract(build_status_matrix(cycles, 10))[0]
        assert v.es_window[-1] == 1
        assert v.distance == abs(1 - v.es_window[0]) == 1

    def test_window_len_mismatch(self, tiny_history):
        with pytest.raises(WindowLenMismatch):
            extract(build_status_matrix(tiny_history, 4))

    def test_extract_is_pure(self, tiny_history):
        m1 = build_status_matrix(tiny_history, 10)
        m2 = build_status_matrix(tiny_history, 10)
        x1, _, _ = stack(extract(m1))
        x2, _, _ = stack(extract(m2))
        assert np.array_equal(x1, x2)

    def test_flatten_always_14_and_normalized(self):
        rng = random.Random(11)
        for _ in range(20):
            cycles = random_cycles(rng)
            matrix = build_status_matrix(cycles, 10)
            for v in extract(matrix):
                flat = v.flatten()
                assert flat.shape == (14,)
                assert 0.0 <= v.duration_norm <= 1.0
                assert 0.0 <= v.last_run_norm <= 1.0

    def test_feature_matrix_matches_per_row_helpers(self):
        """feature_matrix agrees bitwise with the scalar definition of each
        feature, under the matrix's own bounds and under narrower persisted
        ones that force clipping."""
        rng = random.Random(12)
        for _ in range(20):
            cycles = random_cycles(rng)
            matrix = build_status_matrix(cycles, 10, include_tests=[999])
            early = build_status_matrix(cycles[: max(1, len(cycles) // 2)], 10)
            for bounds in (bounds_from_matrix(matrix), bounds_from_matrix(early)):
                expected = np.array([
                    [*window,
                     normalize_duration(dur, bounds.duration_min, bounds.duration_max),
                     _encode_last_run_clipped(None if us == NEVER_RAN else from_epoch_us(us),
                                              bounds),
                     distance(window),
                     change_in_status(window)]
                    for window, dur, us in zip(matrix.statuses.tolist(),
                                               matrix.mean_duration_s.tolist(),
                                               matrix.last_run.tolist())
                ])
                assert np.array_equal(feature_matrix(matrix, bounds), expected)


class TestFeatureSet:
    def test_rows_are_vectors_of_the_matrix(self, tiny_history):
        matrix = build_status_matrix(tiny_history, 10)
        vectors = extract(matrix)
        assert len(vectors) == len(matrix.test_ids)
        assert [v.test_id for v in vectors] == list(matrix.test_ids)
        X = feature_matrix(matrix)
        for i, v in enumerate(vectors):
            assert v == vectors[i]
            assert np.array_equal(v.flatten(), X[i])
            assert v.label_priority is None
        assert [v.test_id for v in vectors[1:]] == list(matrix.test_ids[1:])

    def test_stack_of_a_set_equals_stack_of_its_vectors(self):
        rng = random.Random(13)
        matrix = build_status_matrix(random_cycles(rng), 10, include_tests=[999])
        labeled = label_dataset(matrix, linear_weights(10))
        X, y, ids = stack(labeled)
        X_obj, y_obj, ids_obj = stack(list(labeled))
        assert np.array_equal(X, X_obj) and np.array_equal(y, y_obj) and ids == ids_obj
        assert stack(extract(matrix))[1] is None

    def test_is_read_only(self, tiny_history):
        labeled = label_dataset(build_status_matrix(tiny_history, 10), linear_weights(10))
        X, y, _ = stack(labeled)
        with pytest.raises(ValueError):
            X[0, 0] = 5.0
        with pytest.raises(ValueError):
            y[0] = 5.0


def test_features_csv_round_trip(tmp_path, tiny_history):
    matrix = build_status_matrix(tiny_history, 10)
    vectors = list(extract(matrix).with_labels(0.25 * np.arange(len(matrix.test_ids))))
    vectors[1] = FeatureVector(**{**vectors[1].__dict__, "label_priority": None})
    path = tmp_path / "features.csv"
    dump_features_csv(vectors, path)
    assert load_features_csv(path) == vectors
