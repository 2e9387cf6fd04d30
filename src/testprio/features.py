"""Model inputs: turn a status window plus duration/recency stats into a
fixed-width feature vector, held as one row of a matrix per test.

With the default 10-cycle window a row holds 14 numbers: the 10 raw
statuses, then normalized mean duration, normalized last-run time, the
swing between oldest and newest status, and the count of pass-to-fail
flips among executed cycles. A FeatureSet carries that matrix with its
test ids and, once labeled, one priority per row. CompactFeatures holds
the same vectors in a quarter of the bytes, keeping the integer features
as small integers; the training set uses it. The features CSV writes and
reads a FeatureSet; its Priority column is set on every row or on none.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MalformedRow, WindowLenMismatch
from .history import (DEFAULT_WINDOW, FAIL, NEVER_RAN, NOT_RUN, PASS, StatusMatrix,
                      check_header, csv_rows, from_epoch_us, to_epoch_us)

DERIVED_FEATURES = 4  # duration, last run, distance, change-in-status


@dataclass(frozen=True)
class FeatureBounds:
    """Suite-relative normalization bounds, persisted with a model so that
    prediction-time inputs are scaled exactly like training inputs."""

    duration_min: float
    duration_max: float
    lastrun_earliest: datetime | None
    lastrun_latest: datetime | None


def bounds_from_matrix(matrix: StatusMatrix) -> FeatureBounds:
    durs = matrix.mean_duration_s
    stamps = matrix.last_run[matrix.last_run != NEVER_RAN]
    return FeatureBounds(
        duration_min=float(durs.min()) if len(durs) else 0.0,
        duration_max=float(durs.max()) if len(durs) else 0.0,
        lastrun_earliest=from_epoch_us(stamps.min()) if len(stamps) else None,
        lastrun_latest=from_epoch_us(stamps.max()) if len(stamps) else None,
    )


class FeatureSet:
    """Feature vectors held as arrays: row ``i`` of ``X`` (``stack``'s
    layout), ``test_ids[i]`` and, once labeled, ``labels[i]``.

    Read-only. A slice or an index array selects rows into a new FeatureSet.
    """

    def __init__(self, X: np.ndarray, test_ids: Sequence, labels: np.ndarray | None = None):
        self.X = X
        self.test_ids = tuple(test_ids)
        self.labels = labels
        for array in (X, labels):
            if array is not None:
                array.flags.writeable = False

    def with_labels(self, labels: np.ndarray) -> "FeatureSet":
        return FeatureSet(self.X, self.test_ids, labels)

    def __len__(self) -> int:
        return len(self.test_ids)

    def __getitem__(self, rows: slice | np.ndarray) -> "FeatureSet":
        if not isinstance(rows, slice) and np.ndim(rows) != 1:
            raise TypeError(f"only slices and index arrays select FeatureSet rows, "
                            f"not {type(rows).__name__}; read X, test_ids and labels for rows")
        ids = [self.test_ids[j] for j in np.arange(len(self))[rows].tolist()]
        return FeatureSet(self.X[rows], ids, None if self.labels is None else self.labels[rows])


class CompactFeatures:
    """Feature vectors of window ``w`` held in two blocks instead of one
    (n, w + 4) float64 matrix. ``small`` (n, w + 2) holds the integer
    features, the statuses, swing and flip count, in the narrowest signed
    type that holds a flip count of the window (int8 up to w = 255);
    ``real`` (n, 2) float64 holds normalized duration and last run. With
    w = 10 a vector takes 28 bytes instead of 112. ``fill`` writes rows in
    feature order, transposed, into a float64 buffer: the layout of a
    network input block."""

    def __init__(self, n: int, window_len: int):
        self.window_len = window_len
        # at most w // 2 pass-to-fail flips fit in a window of w
        self.small = np.empty((n, window_len + 2), np.min_scalar_type(-(window_len // 2) - 1))
        self.real = np.empty((n, 2))

    def __len__(self) -> int:
        return len(self.real)

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of the dense matrix: (n, w + 4)."""
        return len(self), self.window_len + DERIVED_FEATURES

    def put(self, start: int, X: np.ndarray) -> None:
        """Store the rows of ``X`` (``feature_matrix``'s layout) from row ``start`` on."""
        w, rows = self.window_len, slice(start, start + len(X))
        self.small[rows, :w] = X[:, :w]
        self.small[rows, w:] = X[:, w + 2:]
        self.real[rows] = X[:, w:w + 2]

    def fill(self, rows, out: np.ndarray) -> None:
        """``out[..., f, j]`` = feature f of vector ``rows[..., j]``: the
        selected vectors, feature-major, into the float64 ``out`` of shape
        (*rows.shape[:-1], w + 4, rows.shape[-1]). ``rows`` is a slice or
        an index array."""
        w = self.window_len
        small = self.small[rows].swapaxes(-1, -2)
        out[..., :w, :] = small[..., :w, :]
        out[..., w + 2:, :] = small[..., w:, :]
        out[..., w:w + 2, :] = self.real[rows].swapaxes(-1, -2)

    def dense(self) -> np.ndarray:
        """The (n, w + 4) float64 matrix of the vectors."""
        X = np.empty(self.shape)
        self.fill(slice(None), X.T)
        return X


def extract(
    matrix: StatusMatrix,
    bounds: FeatureBounds | None = None,
    expected_window: int = DEFAULT_WINDOW,
) -> FeatureSet:
    """One unlabeled feature vector per matrix row, order preserved.

    Normalizer bounds default to suite-relative min/max over the same
    matrix; pass persisted bounds to reproduce training-time scaling at
    prediction time (out-of-range values are clipped into [0,1]).
    """
    return FeatureSet(feature_matrix(matrix, bounds, expected_window), matrix.test_ids)


def stack(data: FeatureSet) -> tuple[np.ndarray, np.ndarray | None, list]:
    """The (n, d) input matrix, labels (None if unlabeled) and ids of a
    feature set: its own read-only arrays, handed over without a copy."""
    return data.X, data.labels, list(data.test_ids)


def feature_matrix(matrix: StatusMatrix, bounds: FeatureBounds | None = None,
                   expected_window: int = DEFAULT_WINDOW) -> np.ndarray:
    """The (n, window + 4) input matrix of a status matrix. Per row: the
    window's statuses; mean duration min-max scaled by the bounds and
    clipped into [0, 1] (0.5 when the bounds are equal); last run as the
    elapsed share of the bounds' span, clipped into [0, 1] (0.5 for an empty
    span, 0 for a test that never ran or without stamp bounds); the swing
    ``|newest - oldest|`` of the raw window; and the count of pass-to-fail
    flips between consecutive executed cycles, skipping -1 slots."""
    if matrix.window_len != expected_window:
        raise WindowLenMismatch(matrix.window_len, expected_window)
    if bounds is None:
        bounds = bounds_from_matrix(matrix)
    statuses = matrix.statuses.astype(np.float64)
    n, w = statuses.shape

    span = bounds.duration_max - bounds.duration_min
    if span == 0:
        dur = np.full(n, 0.5)
    else:
        dur = np.clip((matrix.mean_duration_s - bounds.duration_min) / span, 0.0, 1.0)
    lastrun, stamps = np.zeros(n), matrix.last_run
    if bounds.lastrun_earliest is not None and bounds.lastrun_latest is not None:
        # Bit-equal to the datetime arithmetic: total_seconds() is microseconds / 10**6.
        lo, hi = to_epoch_us(bounds.lastrun_earliest), to_epoch_us(bounds.lastrun_latest)
        seen, span = stamps != NEVER_RAN, (hi - lo) / 1e6
        lastrun[seen] = np.clip((stamps[seen] - lo) / 1e6 / span, 0.0, 1.0) if span else 0.5

    swing = np.abs(statuses[:, -1] - statuses[:, 0])
    flips = np.zeros(n)
    prev = np.full(n, float(NOT_RUN))
    for j in range(w):
        cur = statuses[:, j]
        executed = cur != NOT_RUN
        flips += ((prev == PASS) & (cur == FAIL)).astype(np.float64)
        prev = np.where(executed, cur, prev)
    return np.column_stack([statuses, dur, lastrun, swing, flips])


# --- debug CSV dump: id + window + 4 derived + optional label -------------

def dump_features_csv(data: FeatureSet, path: str | Path) -> None:
    if not len(data):
        raise ValueError("nothing to dump")
    w = data.X.shape[1] - DERIVED_FEATURES
    header = ["Id"] + [f"ES{i}" for i in range(1, w + 1)] + [
        "Duration", "LastRun", "Distance", "ChangeInStatus", "Priority",
    ]
    labels = [""] * len(data) if data.labels is None else map(repr, data.labels.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for tid, row, label in zip(data.test_ids, data.X.tolist(), labels):
            writer.writerow([tid, *map(int, row[:w]), repr(row[w]), repr(row[w + 1]),
                             int(row[w + 2]), int(row[w + 3]), label])


def load_features_csv(path: str | Path) -> FeatureSet:
    """Read what dump_features_csv wrote. Priority is set on every row or
    on none; a row that differs from the first is malformed, and so is a
    non-finite feature or Priority."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_rows(csv.reader(fh))
        header = next(reader, (1, []))[1]
        w = max(1, sum(c.startswith("ES") for c in header))
        check_header(header, ["Id", *(f"ES{i}" for i in range(1, w + 1)), "Duration",
                              "LastRun", "Distance", "ChangeInStatus", "Priority"])
        ids, rows, labels = [], [], []
        for rownum, row in reader:
            if len(row) != len(header):
                raise MalformedRow(rownum, f"expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([*map(int, row[1 : 1 + w]), float(row[1 + w]), float(row[2 + w]),
                             int(row[3 + w]), int(row[4 + w])])
                labels.append(float(row[5 + w]) if row[5 + w] else None)
            except ValueError as exc:
                raise MalformedRow(rownum, str(exc)) from None
            if (labels[-1] is None) != (labels[0] is None):
                raise MalformedRow(rownum, "Priority must be set on every row or on none")
            ids.append(parse_id(row[0]))
    X = np.array(rows, dtype=np.float64).reshape(len(rows), w + DERIVED_FEATURES)
    labeled = bool(labels) and labels[0] is not None
    y = np.array(labels, dtype=np.float64) if labeled else None
    finite = np.isfinite(X).all(axis=1) & (np.isfinite(y) if labeled else True)
    if not finite.all():
        raise MalformedRow(int(np.argmin(finite)) + 2, "features and Priority must be finite")
    return FeatureSet(X, ids, y)


def parse_id(raw: str):
    """A test id read from CSV: an int where the text is one, else the text."""
    try:
        return int(raw)
    except ValueError:
        return raw
