from __future__ import annotations

import random
from datetime import datetime, timedelta

import numpy as np
import pytest

from testprio.errors import MalformedRow, MissingColumn, WindowLenMismatch
from testprio.features import (
    FeatureBounds,
    FeatureSet,
    bounds_from_matrix,
    dump_features_csv,
    extract,
    feature_matrix,
    load_features_csv,
    stack,
)
from testprio.history import (
    FAIL,
    NEVER_RAN,
    NOT_RUN,
    PASS,
    ReplayState,
    build_status_matrix,
    from_epoch_us,
)
from testprio.rocket import label_dataset, linear_weights

from conftest import cycles_from
from test_history import random_cycles


def with_unseen_test(cycles):
    """The status matrix of every test in ``cycles`` plus test 999, which never ran."""
    state = ReplayState.from_cycles(cycles, 10, cycles[-1].cycle_id)
    return state.matrix_for([*state.index, 999])


# --- scalar references: one test's derived features, which feature_matrix
# computes for all rows at once ---------------------------------------------


def normalize_duration(mean_duration_s: float, suite_min: float, suite_max: float) -> float:
    """Min-max scale into [0,1]; a degenerate suite (min == max) maps to 0.5."""
    if suite_min > suite_max:
        raise ValueError(f"suite_min {suite_min} > suite_max {suite_max}")
    if suite_min == suite_max:
        return 0.5
    x = (mean_duration_s - suite_min) / (suite_max - suite_min)
    return float(min(1.0, max(0.0, x)))


def encode_last_run(ts: datetime, suite_earliest: datetime, suite_latest: datetime) -> float:
    """Fraction of the suite's time span elapsed at ``ts`` (day resolution
    plus fractional days)."""
    if not (suite_earliest <= ts <= suite_latest):
        raise ValueError(f"value {ts} outside [{suite_earliest}, {suite_latest}]")
    if suite_earliest == suite_latest:
        return 0.5
    span = (suite_latest - suite_earliest).total_seconds()
    return (ts - suite_earliest).total_seconds() / span


def encode_last_run_clipped(ts: datetime | None, bounds: FeatureBounds) -> float:
    # Prediction-time timestamps may fall outside the persisted training
    # bounds; clip instead of failing. Never-executed tests map to 0.
    if ts is None or bounds.lastrun_earliest is None or bounds.lastrun_latest is None:
        return 0.0
    if bounds.lastrun_earliest == bounds.lastrun_latest:
        return 0.5
    span = (bounds.lastrun_latest - bounds.lastrun_earliest).total_seconds()
    x = (ts - bounds.lastrun_earliest).total_seconds() / span
    return float(min(1.0, max(0.0, x)))


def distance(window) -> int:
    """Absolute swing between the oldest and newest raw status code."""
    if len(window) == 0:
        raise ValueError("window must be non-empty")
    return abs(int(window[-1]) - int(window[0]))


def change_in_status(window) -> int:
    """Count pass-to-fail flips between consecutive *executed* cycles."""
    if len(window) == 0:
        raise ValueError("window must be non-empty")
    executed = [int(s) for s in window if s != NOT_RUN]
    return sum(1 for a, b in zip(executed, executed[1:]) if a == PASS and b == FAIL)


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
        with pytest.raises(ValueError, match="outside"):
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
        v = extract(build_status_matrix(cycles, 10)).X[0]
        assert v.shape == (14,)
        assert (v[:10] == 0).all()
        assert v[12] == 0  # distance
        assert v[13] == 0  # change in status

    def test_order_preserved(self):
        cycles = cycles_from([(2, 1, False), (1, 1, False)] +
                             [(2, c, False) for c in range(2, 11)])
        assert extract(build_status_matrix(cycles, 10)).test_ids == (2, 1)

    def test_fail_in_last_cycle(self):
        cycles = cycles_from([(1, c, c == 10) for c in range(1, 11)])
        v = extract(build_status_matrix(cycles, 10)).X[0]
        assert v[9] == 1
        assert v[12] == abs(1 - v[0]) == 1

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
            X = extract(matrix).X
            assert X.shape == (len(matrix.test_ids), 14)
            assert ((0.0 <= X[:, 10:12]) & (X[:, 10:12] <= 1.0)).all()

    def test_feature_matrix_matches_per_row_helpers(self):
        """feature_matrix agrees bitwise with the scalar definition of each
        feature, under the matrix's own bounds and under narrower persisted
        ones that force clipping."""
        rng = random.Random(12)
        for _ in range(20):
            cycles = random_cycles(rng)
            matrix = with_unseen_test(cycles)
            early = build_status_matrix(cycles[: max(1, len(cycles) // 2)], 10)
            for bounds in (bounds_from_matrix(matrix), bounds_from_matrix(early)):
                expected = np.array([
                    [*window,
                     normalize_duration(dur, bounds.duration_min, bounds.duration_max),
                     encode_last_run_clipped(None if us == NEVER_RAN else from_epoch_us(us),
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
        assert vectors.test_ids == tuple(matrix.test_ids)
        assert np.array_equal(vectors.X, feature_matrix(matrix))
        assert vectors.labels is None
        tail = vectors[1:]
        assert tail.test_ids == tuple(matrix.test_ids[1:])
        assert np.array_equal(tail.X, vectors.X[1:])
        picked = vectors[np.array([2, 0])]
        assert picked.test_ids == (matrix.test_ids[2], matrix.test_ids[0])
        assert np.array_equal(picked.X, vectors.X[[2, 0]])

    def test_stack_of_a_set_equals_stack_of_its_vectors(self):
        rng = random.Random(13)
        matrix = with_unseen_test(random_cycles(rng))
        labeled = label_dataset(matrix, linear_weights(10))
        X, y, ids = stack(labeled)
        assert X is labeled.X and y is labeled.labels and ids == list(matrix.test_ids)
        assert np.array_equal(X, feature_matrix(matrix))
        assert stack(extract(matrix))[1] is None

    def test_an_int_or_iteration_raises_a_type_error_that_names_what_selects_rows(
            self, tiny_history):
        vectors = extract(build_status_matrix(tiny_history, 10))
        for read in (lambda: vectors[0], lambda: vectors[np.int64(1)], lambda: list(vectors),
                     lambda: [row for row in vectors], lambda: list(vectors[:0])):
            with pytest.raises(TypeError, match="only slices and index arrays select"):
                read()

    def test_is_read_only(self, tiny_history):
        labeled = label_dataset(build_status_matrix(tiny_history, 10), linear_weights(10))
        X, y, _ = stack(labeled)
        with pytest.raises(ValueError):
            X[0, 0] = 5.0
        with pytest.raises(ValueError):
            y[0] = 5.0


def assert_same_set(a: FeatureSet, b: FeatureSet):
    assert a.test_ids == b.test_ids and np.array_equal(a.X, b.X)
    assert (a.labels is None) == (b.labels is None)
    assert a.labels is None or np.array_equal(a.labels, b.labels)


def test_features_csv_round_trip(tmp_path, tiny_history):
    matrix = build_status_matrix(tiny_history, 10)
    unlabeled = extract(matrix)
    labeled = unlabeled.with_labels(np.linspace(0.0, 1.0, len(matrix.test_ids)) ** 3)
    for data in (labeled, unlabeled):
        path = tmp_path / "features.csv"
        dump_features_csv(data, path)
        assert_same_set(load_features_csv(path), data)


@pytest.mark.parametrize("drop, error, message", [
    ("Priority", MissingColumn, "'Priority' is missing"),
    ("ES3", MissingColumn, "'ES3' is missing"),
    (None, MalformedRow, "^row 1: expected the header Id,ES1,"),
], ids=["no-priority", "no-es3", "out-of-order"])
def test_features_csv_header_errors_name_what_is_wrong(tmp_path, tiny_history, drop, error,
                                                       message):
    """The first expected column that is absent is named; a header with
    every column in another order is a malformed row 1."""
    path = tmp_path / "features.csv"
    dump_features_csv(extract(build_status_matrix(tiny_history, 10)), path)
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    names = header.split(",")
    names = [n for n in names if n != drop] if drop else names[1:] + names[:1]
    path.write_text(",".join(names) + "\n" + rest, encoding="utf-8")
    with pytest.raises(error, match=message):
        load_features_csv(path)


@pytest.mark.parametrize("blank", [1, 0])
def test_features_csv_with_labels_on_some_rows_is_malformed(tmp_path, tiny_history, blank):
    """Priority is set on every row or on none; the first row that differs
    from the first data row (file row 2) is named."""
    data = extract(build_status_matrix(tiny_history, 10))
    data = data.with_labels(0.25 * np.arange(len(data)))
    path = tmp_path / "features.csv"
    dump_features_csv(data, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1 + blank] = lines[1 + blank].rsplit(",", 1)[0] + ",\r\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        load_features_csv(path)
    assert err.value.row == 3
