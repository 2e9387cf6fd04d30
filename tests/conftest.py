from __future__ import annotations

import csv
import tracemalloc
from datetime import datetime, timedelta

import pytest

from testprio.history import CycleLog, emit_csv, to_epoch_us

BASE_DAY = datetime(2016, 1, 1)


def day_us(cycle):
    """The last-run stamp of a row of ``cycles_from``: its cycle's day."""
    return to_epoch_us(BASE_DAY + timedelta(days=cycle - 1))


def cycles_from(rows):
    """Build sorted CycleLogs from (test_id, cycle, failed[, duration]) tuples."""
    by_cycle = {}
    for test_id, cycle, failed, *duration in rows:
        by_cycle.setdefault(cycle, []).append(
            (test_id, f"T{test_id}", failed, *(duration or [1.0]), day_us(cycle)))
    return [CycleLog(c, *zip(*by_cycle[c])) for c in sorted(by_cycle)]


def emit_with_calc_prio(cycles, path, cell):
    """emit_csv(cycles, path) plus a last column, CalcPrio, whose text in the
    row of test t in cycle c is ``cell(c, t)``."""
    emit_csv(cycles, path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*header, "CalcPrio"])
        writer.writerows([*row, cell(int(row[5]), int(row[0]))] for row in rows)
    return path


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs,
    and the bytes still allocated once it has returned: what its result
    holds, besides anything it imported."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841  (alive while the memory is read)
        kept, peak = tracemalloc.get_traced_memory()
        return peak, kept
    finally:
        tracemalloc.stop()


@pytest.fixture
def tiny_history():
    """3 tests over 5 cycles with a couple of failures."""
    return cycles_from([
        (1, 1, False, 2.0), (2, 1, True, 3.0),
        (1, 2, False, 2.2), (2, 2, True, 3.1), (3, 2, False, 1.0),
        (1, 3, True, 2.1), (3, 3, False, 1.1),
        (2, 4, False, 3.0), (3, 4, False, 0.9),
        (1, 5, False, 2.0), (2, 5, True, 2.9), (3, 5, False, 1.0),
    ])
