from __future__ import annotations

import math
import random

import numpy as np
import pytest

from testprio.errors import LengthMismatch, MalformedRow, MissingColumn, NonFinitePriority
from testprio.prioritize import (
    OVER_BUDGET,
    PrioritizedSuite,
    budget_walk,
    rank,
    read_suite_csv,
    select_within_budget,
    write_order,
    write_suite_csv,
)


def reference_rank(ids, priorities):
    """rank as it was when it built one record object per test: list.sort on
    the negated priority, which is stable."""
    entries = list(zip(ids, priorities))
    entries.sort(key=lambda e: -e[1])
    return [tid for tid, _ in entries]


class TestRank:
    def test_descending(self):
        suite = rank(["a", "b"], [0.2, 0.9])
        assert suite.order() == ["b", "a"]

    def test_ties_keep_input_order(self):
        suite = rank(["a", "b", "c"], [0.5, 0.5, 0.5])
        assert suite.order() == ["a", "b", "c"]

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinitePriority):
            rank(["a"], [math.nan])
        with pytest.raises(NonFinitePriority):
            rank(["a"], [math.inf])

    def test_non_finite_names_the_first_such_test(self):
        with pytest.raises(NonFinitePriority) as err:
            rank(["a", 7, "c", "d"], [0.5, -math.inf, math.nan, 0.1])
        assert err.value.test_id == 7

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            rank(["a", "b"], [0.5])
        with pytest.raises(LengthMismatch):
            rank(["a", "b"], [0.5, 0.1], [1.0])

    def test_matches_sort_oracle(self):
        """Ties, 0.0 against -0.0, and ids of mixed types keep the order the
        per-object sort gave, and priorities and durations travel with
        their ids."""
        rng = random.Random(1)
        pool = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 1e-300, -1e-300]
        for _ in range(500):
            n = rng.randint(0, 40)
            ids = [rng.choice([i, f"t{i}"]) for i in range(n)]
            prios = [rng.choice(pool + [rng.random()]) for _ in range(n)]
            durations = [rng.random() for _ in range(n)]
            suite = rank(ids, prios, durations)
            expected = reference_rank(ids, prios)
            assert suite.order() == expected
            by_id = {tid: (p, d) for tid, p, d in zip(ids, prios, durations)}
            ranked = zip(suite.order(), suite.priority.tolist(), suite.duration_s.tolist())
            for tid, prio, dur in ranked:
                p, d = by_id[tid]
                assert (math.copysign(1.0, prio), prio, dur) == (math.copysign(1.0, p), p, d)
            assert [ids[i] for i in suite.index] == expected

    def test_idempotent(self):
        rng = random.Random(2)
        prios = [rng.choice([0.1, 0.5, 0.9]) for _ in range(30)]
        once = rank(list(range(30)), prios)
        twice = rank(once.order(), once.priority)
        assert once.order() == twice.order()

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(3)
        prios = [rng.random() for _ in range(50)]
        ids = list(range(50))
        assert rank(ids, prios).order() == rank(ids, [3.0 * p + 1.0 for p in prios]).order()

    def test_durations_attached(self):
        suite = rank(["a"], [0.9], [4.5])
        assert suite.duration_s.tolist() == [4.5]
        assert rank(["a"], [0.9]).duration_s.tolist() == [0.0]


def suite_of(durations, priorities=None):
    if priorities is None:
        priorities = [1.0 - 0.01 * i for i in range(len(durations))]
    n = len(durations)
    return PrioritizedSuite(np.array(list(range(n)), dtype=object),
                            np.array(priorities, dtype=np.float64),
                            np.array(durations, dtype=np.float64), np.arange(n))


class TestSelectWithinBudget:
    def test_zero_budget_selects_nothing(self):
        result = select_within_budget(suite_of([5.0, 3.0, 4.0]), 0.0)
        assert result.order() == []
        assert [reason for _, reason in result.skipped] == [OVER_BUDGET] * 3
        assert result.used_s == 0.0

    def test_hand_simulated_walk(self):
        """Durations [5,3,4] at priorities [.9,.8,.7], budget 8: take the
        first two (using the whole budget), skip the third."""
        result = select_within_budget(
            suite_of([5.0, 3.0, 4.0], [0.9, 0.8, 0.7]), 8.0)
        assert result.order() == [0, 1]
        assert result.used_s == 8.0
        assert result.skipped == ((2, OVER_BUDGET),)

    def test_budget_covers_everything(self):
        result = select_within_budget(suite_of([5.0, 3.0, 4.0]), 12.0)
        assert len(result.order()) == 3 and not result.skipped

    def test_skip_and_continue(self):
        """A skipped expensive test does not block cheaper ones behind it."""
        result = select_within_budget(suite_of([10.0, 2.0, 3.0]), 5.0)
        assert result.order() == [1, 2]

    def test_selection_semantics_are_not_prefix_monotone(self):
        # Raising the budget can legitimately swap which tests fit: at 2s the
        # cheap test gets in, at 10s the expensive head consumes everything.
        suite = suite_of([10.0, 2.0])
        small = select_within_budget(suite, 2.0)
        large = select_within_budget(suite, 10.0)
        assert small.order() == [1]
        assert large.order() == [0]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            select_within_budget(suite_of([1.0]), -0.1)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="finite"):
            select_within_budget(suite_of([1.0]), budget)

    @pytest.mark.parametrize("duration", [-0.5, math.nan, math.inf])
    def test_negative_duration_rejected(self, duration):
        with pytest.raises(ValueError):
            select_within_budget(suite_of([1.0, duration]), 2.0)

    def test_budget_never_exceeded_randomized(self):
        rng = random.Random(4)
        for _ in range(2000):
            durations = [rng.uniform(0.01, 10.0) for _ in range(rng.randint(1, 20))]
            budget = rng.uniform(0.0, sum(durations) * 1.2)
            result = select_within_budget(suite_of(durations), budget)
            assert result.used_s <= budget + 1e-12
            assert result.used_s == pytest.approx(
                sum(result.suite.duration_s[result.taken].tolist()))
            assert len(result.order()) + len(result.skipped) == len(durations)

    def test_used_time_monotone_in_budget(self):
        rng = random.Random(5)
        for _ in range(2000):
            durations = [rng.uniform(0.01, 10.0) for _ in range(rng.randint(1, 15))]
            suite = suite_of(durations)
            b1 = rng.uniform(0.0, sum(durations))
            b2 = b1 + rng.uniform(0.0, 10.0)
            used1 = select_within_budget(suite, b1).used_s
            used2 = select_within_budget(suite, b2).used_s
            assert used2 >= used1 - 1e-12

    def test_selected_preserves_suite_order(self):
        rng = random.Random(6)
        for _ in range(200):
            durations = [rng.uniform(0.1, 5.0) for _ in range(12)]
            suite = suite_of(durations)
            result = select_within_budget(suite, rng.uniform(0, 20))
            positions = [suite.order().index(tid) for tid in result.order()]
            assert positions == sorted(positions)


def sequential_walk(durations, budget_s):
    """The budget walk one test at a time, as select_within_budget ran it
    before it walked arrays: the reference for budget_walk."""
    remaining, taken = budget_s, []
    for d in durations:
        taken.append(d <= remaining)
        if taken[-1]:
            remaining -= d
    return taken, remaining


def test_budget_walk_matches_a_sequential_loop():
    """Mask and remainder equal the one-test-at-a-time walk bit for bit:
    durations on a coarse grid (budgets then land exactly on partial
    sums), with zeros for unseen tests, runs of zeros after the first
    skip, no rows, no tests, and rows of more than 1,000 tests."""
    rng = np.random.default_rng(7)
    grid = np.array([0.0, 0.1, 0.2, 0.3, 1.0, 2.5])
    for trial in range(600):
        R = int(rng.integers(0, 6))
        n = int(rng.integers(1000, 1200)) if trial % 100 == 0 else int(rng.integers(0, 40))
        kind = trial % 3
        if kind == 0:
            durations = rng.choice(grid, (R, n))
        elif kind == 1:
            durations = rng.exponential(1.0, (R, n)) * (rng.random((R, n)) < 0.6)
        else:
            durations = rng.uniform(0.0, 1.0, (R, n))
        row = durations[0].tolist() if R else []
        k = int(rng.integers(0, n + 1))
        partial = 0.0
        for d in row[:k]:
            partial += d
        budget = [0.0, partial, 0.5 * sum(row), sum(row), float(rng.uniform(0, 3))][trial % 5]
        taken, remaining = budget_walk(durations, budget)
        assert taken.shape == (R, n) and remaining.shape == (R,)
        for r in range(R):
            want_taken, want_remaining = sequential_walk(durations[r].tolist(), budget)
            assert np.array_equal(taken[r], np.array(want_taken, dtype=bool).reshape(n))
            assert remaining[r] == want_remaining


def test_suite_csv_round_trip(tmp_path):
    suite = rank(["a", 7, "c"], [0.9, 0.5, 0.1], [1.5, 2.5, 0.5])
    path = tmp_path / "suite.csv"
    write_suite_csv(suite, path)
    assert read_suite_csv(path) == suite


@pytest.mark.parametrize("duration", ["-2.0", "nan", "inf"])
def test_suite_csv_with_a_negative_duration_is_malformed(tmp_path, duration):
    path = tmp_path / "suite.csv"
    path.write_text(f"rank,test_id,priority,duration_s\n1,a,0.9,1.5\n2,b,0.5,{duration}\n")
    with pytest.raises(MalformedRow, match="row 3"):
        read_suite_csv(path)


@pytest.mark.parametrize("priority", ["nan", "inf", "-inf"])
def test_suite_csv_with_a_priority_that_is_not_finite_is_malformed(tmp_path, priority):
    """rank never writes one: it raises NonFinitePriority instead."""
    path = tmp_path / "suite.csv"
    path.write_text(f"rank,test_id,priority,duration_s\n1,a,0.9,1.5\n2,b,{priority},2.0\n")
    with pytest.raises(MalformedRow, match=f"^row 3: priority must be finite, got '{priority}'$"):
        read_suite_csv(path)


@pytest.mark.parametrize("header, error, message", [
    ("rank,test_id,priority", MissingColumn, "'duration_s' is missing"),
    ("rank,test_id,duration_s,priority", MalformedRow,
     "^row 1: expected the header rank,test_id,priority,duration_s$"),
], ids=["missing-column", "out-of-order"])
def test_suite_csv_header_errors_name_what_is_wrong(tmp_path, header, error, message):
    """A missing column is named; a header holding every column in another
    order is a malformed row 1, not a missing 'rank'."""
    path = tmp_path / "suite.csv"
    path.write_text(f"{header}\n1,a,0.9,1.5\n")
    with pytest.raises(error, match=message):
        read_suite_csv(path)


def test_write_order(tmp_path):
    path = tmp_path / "order.txt"
    write_order(["b", "a", 3], path)
    assert path.read_text().splitlines() == ["b", "a", "3"]
