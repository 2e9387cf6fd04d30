"""Turn predicted priorities into an ordering and a budget-fitted subset.

A suite is held as parallel arrays in rank order, so ranking, selection,
scoring and the suite CSV all work without one Python object per test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import LengthMismatch, MalformedRow, NonFinitePriority
from .features import parse_id
from .history import check_header, csv_rows

OVER_BUDGET = "over_budget"


def _object_array(values) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=len(values))


class PrioritizedSuite:
    """Tests in non-increasing priority order; ties keep input order.

    Held as parallel arrays in rank order: ``ids`` (object), ``priority``
    and ``duration_s`` (float64), and ``index``, the position each test
    had in the arrays given to :func:`rank` (``0..n-1`` for a suite read
    from a file). Equality compares ids, priorities and durations.
    """

    def __init__(self, ids: np.ndarray, priority: np.ndarray, duration_s: np.ndarray,
                 index: np.ndarray):
        self.ids, self.priority, self.duration_s, self.index = ids, priority, duration_s, index

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrioritizedSuite):
            return NotImplemented
        return (self.order() == other.order()
                and np.array_equal(self.priority, other.priority)
                and np.array_equal(self.duration_s, other.duration_s))

    def __repr__(self) -> str:
        return (f"PrioritizedSuite(ids={self.order()!r}, priority={self.priority.tolist()!r}, "
                f"duration_s={self.duration_s.tolist()!r})")

    def order(self) -> list:
        return self.ids.tolist()


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """The tests of ``suite`` the budget walk took (``taken``, one flag per
    rank position) and the estimated seconds they use."""

    suite: PrioritizedSuite
    taken: np.ndarray
    budget_s: float
    used_s: float

    @property
    def skipped(self) -> tuple[tuple[object, str], ...]:
        """(test_id, reason) of every test left out, in rank order."""
        return tuple((tid, OVER_BUDGET) for tid in self.suite.ids[~self.taken].tolist())

    def order(self) -> list:
        return self.suite.ids[self.taken].tolist()


def rank(ids: Sequence, priorities: Sequence[float],
         durations: Sequence[float] | None = None) -> PrioritizedSuite:
    """Stable descending sort by priority; ties keep input order.

    ``ids``, ``priorities`` and ``durations`` (mean seconds per test,
    default 0) are aligned. A NaN or infinite priority raises
    ``NonFinitePriority`` naming the first such test.
    """
    ids = _object_array(ids)
    prio = np.asarray(priorities, dtype=np.float64)
    if len(prio) != len(ids):
        raise LengthMismatch(len(ids), len(prio))
    finite = np.isfinite(prio)
    if not finite.all():
        raise NonFinitePriority(ids[np.argmin(finite)])
    dur = np.zeros(len(ids)) if durations is None else np.asarray(durations, dtype=np.float64)
    if len(dur) != len(ids):
        raise LengthMismatch(len(ids), len(dur))
    order = np.argsort(-prio, kind="stable")
    return PrioritizedSuite(ids[order], prio[order], dur[order], order)


def budget_walk(durations: np.ndarray, budget_s: float) -> tuple[np.ndarray, np.ndarray]:
    """The skip-and-continue walk over each row of an (R, n) matrix of
    non-negative durations in rank order: a test is taken iff its duration
    fits what is left of the budget, and the walk goes on past a test that
    does not fit.

    Returns the (R, n) mask of tests taken and the (R,) budget left, both
    bit-equal to walking each row one test at a time with
    ``remaining -= d``. Each pass works on every row at once. A test that
    does not fit at the start of a pass never fits later, since the budget
    only shrinks, so the pass charges it 0, which leaves the budget exact.
    The other tests are charged in walk order by
    ``np.subtract.accumulate`` and taken up to the first one that no
    longer fits; the next pass starts after it.
    """
    R, n = durations.shape
    cols = np.arange(n)
    taken = np.zeros((R, n), dtype=bool)
    remaining = np.full(R, float(budget_s))
    rows = np.arange(R)
    start = np.zeros((R, 1), dtype=np.intp)  # first position not yet walked
    while True:
        fits = (durations <= remaining[:, None]) & (cols >= start)
        if not fits.any():
            return taken, remaining
        left = np.subtract.accumulate(
            np.concatenate([remaining[:, None], np.where(fits, durations, 0.0)], axis=1),
            axis=1,
        )
        stops = fits & ~(durations <= left[:, :-1])
        end = np.where(stops.any(axis=1), stops.argmax(axis=1), n)
        taken |= fits & (cols < end[:, None])
        remaining = left[rows, end]
        start = end[:, None] + 1


def select_within_budget(suite: PrioritizedSuite, budget_s: float) -> SelectionResult:
    """Greedy walk in priority order.

    A test is taken iff its duration fits the remaining budget; otherwise
    it is skipped and the walk continues, so cheaper lower-priority tests
    can still fill the gap.
    """
    if not 0 <= budget_s < math.inf:
        raise ValueError(f"budget must be a finite number of seconds >= 0, got {budget_s}")
    if not ((suite.duration_s >= 0) & (suite.duration_s < math.inf)).all():
        raise ValueError("test durations must be finite and >= 0")
    taken, remaining = budget_walk(suite.duration_s[None, :], budget_s)
    return SelectionResult(suite, taken[0], budget_s, budget_s - float(remaining[0]))


# --- CI-facing output formats ----------------------------------------------

_SUITE_HEADER = ["rank", "test_id", "priority", "duration_s"]


def write_suite_csv(suite: PrioritizedSuite, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUITE_HEADER)
        rows = zip(suite.ids.tolist(), suite.priority.tolist(), suite.duration_s.tolist())
        for pos, (tid, prio, dur) in enumerate(rows, start=1):
            writer.writerow([pos, tid, repr(prio), repr(dur)])


def read_suite_csv(path: str | Path) -> PrioritizedSuite:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_rows(csv.reader(fh))
        check_header(next(reader, (1, []))[1], _SUITE_HEADER)
        ids, priority, duration_s = [], [], []
        for rownum, row in reader:
            try:
                tid, prio, dur = parse_id(row[1]), float(row[2]), float(row[3])
            except (IndexError, ValueError) as exc:
                raise MalformedRow(rownum, str(exc)) from None
            if not math.isfinite(prio):
                raise MalformedRow(rownum, f"priority must be finite, got {row[2]!r}")
            if not 0 <= dur < math.inf:
                raise MalformedRow(rownum, f"duration must be finite and >= 0, got {row[3]!r}")
            ids.append(tid)
            priority.append(prio)
            duration_s.append(dur)
    return PrioritizedSuite(_object_array(ids), np.array(priority, dtype=np.float64),
                            np.array(duration_s, dtype=np.float64), np.arange(len(ids)))


def write_order(tests: Iterable, path: str | Path) -> None:
    """Plain one-id-per-line list for CI consumption."""
    Path(path).write_text("".join(f"{tid}\n" for tid in tests), encoding="utf-8")
