"""Recency-weighted history priority (the ROCKET rule).

A test's priority is the weighted count of its recent failures: weights
over the last m cycles are positive, sum to one and never decrease toward
the most recent cycle, and passes / non-executions contribute nothing.
Besides serving as a deterministic baseline strategy, this rule labels
datasets that ship without ground-truth priorities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, LengthMismatch
from .features import FeatureBounds, FeatureSet, extract
from .history import StatusMatrix

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class WeightScheme:
    """Per-cycle weights, oldest first, most recent cycle last."""

    weights: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(w) < 1:
            raise ValueError("weights must be a non-empty 1-d sequence")
        if np.any(w <= 0) or np.any(w > 1):
            raise ValueError("weights must lie in (0, 1]")
        if abs(w.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if np.any(np.diff(w) < 0):
            raise ValueError("weights must be non-decreasing toward the most recent cycle")

    def __len__(self) -> int:
        return len(self.weights)


def linear_weights(m: int) -> WeightScheme:
    """w_j = j / (1 + 2 + ... + m), so the newest cycle weighs most."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    j = np.arange(1, m + 1, dtype=np.float64)
    return WeightScheme(j / j.sum(), name="linear")


def geometric_weights(m: int, r: float) -> WeightScheme:
    """w_j proportional to r^(m-j) with 0 < r < 1, normalized."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < r < 1:
        raise ValueError(f"ratio must be in (0, 1), got {r}")
    w = r ** np.arange(m - 1, -1, -1, dtype=np.float64)
    return WeightScheme(w / w.sum(), name=f"geometric({r})")


_GEOMETRIC_RE = re.compile(r"^geometric\(\s*([0-9.eE+-]+)\s*\)$")


def weight_scheme(kind: str, m: int) -> WeightScheme:
    """Parse a config value: ``linear`` or ``geometric(r)``."""
    kind = kind.strip()
    if kind == "linear":
        return linear_weights(m)
    match = _GEOMETRIC_RE.match(kind)
    if match:
        try:
            return geometric_weights(m, float(match.group(1)))
        except ValueError as exc:
            raise InputError(f"bad weight scheme {kind!r}: {exc}") from None
    raise InputError(f"unknown weight scheme {kind!r} (expected linear or geometric(r))")


def priority(window: Sequence[int], scheme: WeightScheme) -> float:
    """Weighted sum of failures over the window; passes and skips score 0."""
    window = np.asarray(window, dtype=np.float64)
    if len(window) != len(scheme):
        raise LengthMismatch(len(window), len(scheme))
    return float(scheme.weights @ np.maximum(window, 0.0))


def priorities(statuses: np.ndarray, scheme: WeightScheme) -> np.ndarray:
    """Vectorized priority over a (n_tests, m) status matrix."""
    statuses = np.asarray(statuses, dtype=np.float64)
    if statuses.shape[1] != len(scheme):
        raise LengthMismatch(statuses.shape[1], len(scheme))
    return np.maximum(statuses, 0.0) @ scheme.weights


def label_dataset(
    matrix: StatusMatrix,
    scheme: WeightScheme,
    bounds: FeatureBounds | None = None,
) -> FeatureSet:
    """Extract features and attach the history-weighted priority as label."""
    if matrix.window_len != len(scheme):
        raise LengthMismatch(matrix.window_len, len(scheme))
    vectors = extract(matrix, bounds=bounds, expected_window=matrix.window_len)
    return vectors.with_labels(priorities(matrix.statuses, scheme))
