from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from testprio.history import CycleLog, to_epoch_us

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
