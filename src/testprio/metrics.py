"""Evaluation metrics: fault-detection effectiveness of an ordering,
regression accuracy of the model, and wall-clock phase accounting.

Metrics that are undefined for an input (no faults, zero label variance)
come back as None rather than NaN, so reports can spell out
"not applicable" instead of propagating garbage.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch


@dataclass(frozen=True, eq=False)
class CycleOutcome:
    """Executed tests of one replayed cycle, in execution order.

    ``failed`` (bool) and ``duration_s`` (float64) are held as arrays; any
    sequence is accepted. In replay each failing test counts as one
    distinct fault. ``total_known_faults`` covers faults outside the
    executed portion (budget-truncated runs); it defaults to the detected
    count.
    """

    failed: np.ndarray
    duration_s: np.ndarray
    total_known_faults: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "failed", np.asarray(self.failed, dtype=bool))
        object.__setattr__(self, "duration_s", np.asarray(self.duration_s, dtype=np.float64))
        if len(self.failed) != len(self.duration_s):
            raise LengthMismatch(len(self.failed), len(self.duration_s))
        if (self.total_known_faults is not None
                and self.total_known_faults < np.count_nonzero(self.failed)):
            raise ValueError("total_known_faults smaller than detected faults")

    @property
    def fault_positions(self) -> np.ndarray:
        """1-based positions of the tests that revealed a fault."""
        return np.flatnonzero(self.failed) + 1


def apfd(outcome: CycleOutcome) -> float | None:
    """Average percentage of faults detected: 1 - sum(TF)/(n*m) + 1/(2n).

    Assumes the executed order contains every fault (full-suite replay).
    None when there is nothing executed or no fault to detect.
    """
    n = len(outcome.failed)
    positions = outcome.fault_positions
    m = len(positions)
    if n == 0 or m == 0:
        return None
    return 1.0 - int(positions.sum()) / (n * m) + 1.0 / (2 * n)


def napfd(outcome: CycleOutcome) -> float | None:
    """APFD normalized for partial suites: p - sum(TF)/(n*m) + p/(2n) with
    p = detected/m over all known faults; undetected faults contribute 0."""
    positions = outcome.fault_positions
    m_total = outcome.total_known_faults
    if m_total is None:
        m_total = len(positions)
    if m_total == 0:
        return None
    n = len(outcome.failed)
    if n == 0:
        return 0.0
    p = len(positions) / m_total
    return p - int(positions.sum()) / (n * m_total) + p / (2 * n)


@dataclass(frozen=True)
class TimeMetrics:
    first_fault_s: float | None  # FT
    last_fault_s: float | None  # LT
    avg_fault_s: float | None  # AT


def time_metrics(outcome: CycleOutcome) -> TimeMetrics:
    """Cumulative execution time until the first/last fault and the mean
    over all fault detections."""
    if not outcome.failed.any():
        return TimeMetrics(None, None, None)
    at_faults = np.cumsum(outcome.duration_s)[outcome.failed]
    return TimeMetrics(float(at_faults[0]), float(at_faults[-1]), float(np.mean(at_faults)))


@dataclass(frozen=True)
class RegressionAccuracy:
    mse: float
    r_squared: float | None  # None when the labels have zero variance
    residual_std: float


def regression_accuracy(preds: Sequence[float], labels: Sequence[float]) -> RegressionAccuracy:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise LengthMismatch(preds.size, labels.size)
    if preds.size < 2:
        raise ValueError("need at least 2 points")
    residuals = preds - labels
    mse = float(residuals @ residuals / residuals.size)
    ss_tot = float(np.sum((labels - labels.mean()) ** 2))
    r_squared = None if ss_tot == 0.0 else float(1.0 - (residuals @ residuals) / ss_tot)
    return RegressionAccuracy(mse, r_squared, float(residuals.std()))


# --- wall-clock phases ------------------------------------------------------

@contextmanager
def span(totals: dict[str, float], name: str, clock=time.perf_counter):
    """Time the block and add its seconds to ``totals[name]``; a name may
    open many times, and its seconds add up. The pipeline's names are the
    paper's PT (processing, training, validation), RT (prioritization) and
    TT (the whole run)."""
    start = clock()
    try:
        yield
    finally:
        totals[name] = totals.get(name, 0.0) + (clock() - start)


# --- report formatting ------------------------------------------------------

def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned plain-text table; None renders as n/a."""
    def cell(x):
        if x is None:
            return "n/a"
        if isinstance(x, float):
            return f"{x:.4f}"
        return str(x)

    grid = [[cell(x) for x in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in grid)) if grid else len(h)
              for i, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in grid)
    return "\n".join(lines)
