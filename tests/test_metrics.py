from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from testprio.errors import LengthMismatch
from testprio.metrics import (
    CycleOutcome,
    apfd,
    format_table,
    napfd,
    regression_accuracy,
    span,
    time_metrics,
)


def outcome(failed, durations=None, total=None):
    if durations is None:
        durations = [1.0] * len(failed)
    return CycleOutcome(tuple(bool(f) for f in failed), tuple(durations), total)


class TestApfd:
    def test_hand_example(self):
        """n=4 with faults at positions 2 and 4: 1 - 6/8 + 1/8 = 0.375."""
        assert apfd(outcome([0, 1, 0, 1])) == pytest.approx(0.375)

    def test_single_test_single_fault(self):
        assert apfd(outcome([1])) == pytest.approx(0.5)

    def test_front_loaded_approaches_one(self):
        n, m = 100, 3
        value = apfd(outcome([1] * m + [0] * (n - m)))
        assert 0.95 < value <= 1.0

    def test_no_faults_not_applicable(self):
        assert apfd(outcome([0, 0, 0])) is None

    def test_empty_not_applicable(self):
        assert apfd(outcome([])) is None


class TestNapfd:
    def test_equals_apfd_when_everything_detected(self):
        rng = random.Random(1)
        for _ in range(200):
            failed = [rng.random() < 0.4 for _ in range(rng.randint(1, 10))]
            if not any(failed):
                continue
            assert napfd(outcome(failed)) == pytest.approx(apfd(outcome(failed)))

    def test_nothing_detected_is_zero(self):
        assert napfd(outcome([0, 0], total=3)) == 0.0

    def test_hand_example(self):
        """3 executed, 2 of 3 known faults at positions 1 and 2: 4/9."""
        assert napfd(outcome([1, 1, 0], total=3)) == pytest.approx(4 / 9)

    def test_no_known_faults_not_applicable(self):
        assert napfd(outcome([0, 0])) is None

    def test_empty_execution_with_known_faults(self):
        assert napfd(outcome([], total=2)) == 0.0


def reference_apfd(failed):
    """Exact-arithmetic position scan, independent of the implementation."""
    n = len(failed)
    positions = [i + 1 for i, f in enumerate(failed) if f]
    if n == 0 or not positions:
        return None
    m = len(positions)
    total = Fraction(0)
    for p in positions:
        total += Fraction(p)
    return Fraction(1) - total / (n * m) + Fraction(1, 2 * n)


def reference_napfd(failed, m_total):
    n = len(failed)
    positions = [i + 1 for i, f in enumerate(failed) if f]
    if m_total == 0:
        return None
    if n == 0:
        return Fraction(0)
    p = Fraction(len(positions), m_total)
    total = sum((Fraction(pos) for pos in positions), Fraction(0))
    return p - total / (n * m_total) + p / (2 * n)


class TestAgainstExhaustiveReference:
    def test_all_orderings_of_small_suites(self):
        """Every permutation of every small suite matches exact arithmetic."""
        rng = random.Random(2)
        for _ in range(12):
            n = rng.randint(1, 6)
            m = min(rng.randint(0, 3), n)
            base = [True] * m + [False] * (n - m)
            for perm in set(itertools.permutations(base)):
                got = apfd(outcome(perm))
                want = reference_apfd(perm)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(float(want), abs=1e-12)
                for k in range(n + 1):
                    got_n = napfd(outcome(perm[:k], total=m))
                    want_n = reference_napfd(perm[:k], m)
                    if want_n is None:
                        assert got_n is None
                    else:
                        assert got_n == pytest.approx(float(want_n), abs=1e-12)

    def test_moving_fault_earlier_never_decreases_apfd(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(2, 10)
            failed = [rng.random() < 0.4 for _ in range(n)]
            if not any(failed):
                failed[rng.randrange(n)] = True
            i = rng.randrange(n - 1)
            if failed[i] or not failed[i + 1]:
                continue
            swapped = list(failed)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert apfd(outcome(swapped)) >= apfd(outcome(failed))


class TestTimeMetrics:
    def test_single_fault_mid_suite(self):
        tm = time_metrics(outcome([0, 1, 0], [2.0, 3.0, 4.0]))
        assert (tm.first_fault_s, tm.last_fault_s, tm.avg_fault_s) == (5.0, 5.0, 5.0)

    def test_fault_at_first_test(self):
        tm = time_metrics(outcome([1, 0], [2.5, 9.0]))
        assert tm.first_fault_s == 2.5

    def test_two_faults(self):
        tm = time_metrics(outcome([1, 0, 1], [1.0, 1.0, 1.0]))
        assert (tm.first_fault_s, tm.last_fault_s, tm.avg_fault_s) == (1.0, 3.0, 2.0)

    def test_no_faults(self):
        tm = time_metrics(outcome([0, 0]))
        assert tm.first_fault_s is None
        assert tm.last_fault_s is None
        assert tm.avg_fault_s is None


class TestCycleOutcome:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            CycleOutcome((True,), (1.0, 2.0))

    def test_total_known_faults_lower_bound(self):
        with pytest.raises(ValueError):
            CycleOutcome((True, True), (1.0, 1.0), total_known_faults=1)


class TestRegressionAccuracy:
    def test_perfect_predictions(self):
        acc = regression_accuracy([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert (acc.mse, acc.r_squared, acc.residual_std) == (0.0, 1.0, 0.0)

    def test_constant_mean_prediction_scores_zero(self):
        labels = [0.0, 0.5, 1.0]
        acc = regression_accuracy([0.5, 0.5, 0.5], labels)
        assert acc.r_squared == pytest.approx(0.0)

    def test_zero_variance_labels(self):
        acc = regression_accuracy([0.4, 0.6], [0.5, 0.5])
        assert acc.r_squared is None

    def test_matches_two_pass_reference(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 50)
            preds = [rng.random() for _ in range(n)]
            labels = [rng.random() for _ in range(n)]
            acc = regression_accuracy(preds, labels)
            residuals = [p - l for p, l in zip(preds, labels)]
            mse_ref = sum(r * r for r in residuals) / n
            mean_label = sum(labels) / n
            ss_tot = sum((l - mean_label) ** 2 for l in labels)
            r2_ref = 1 - sum(r * r for r in residuals) / ss_tot
            mean_res = sum(residuals) / n
            std_ref = (sum((r - mean_res) ** 2 for r in residuals) / n) ** 0.5
            assert acc.mse == pytest.approx(mse_ref, rel=1e-12)
            assert acc.r_squared == pytest.approx(r2_ref, rel=1e-9)
            assert acc.residual_std == pytest.approx(std_ref, rel=1e-9)

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            regression_accuracy([0.1], [0.1, 0.2])
        with pytest.raises(ValueError):
            regression_accuracy([0.1], [0.1])


class TestStopwatch:
    def test_known_spans(self):
        stamps = iter([1.0, 3.5, 4.0, 4.25, 5.0, 5.5])
        clock = lambda: next(stamps)  # noqa: E731
        totals: dict[str, float] = {}
        for name in ("process", "prioritize", "process"):
            with span(totals, name, clock):
                pass
        assert totals["process"] == pytest.approx(3.0)
        assert totals["prioritize"] == pytest.approx(0.25)

    def test_stopwatch_metric_keys(self):
        stamps = iter([0.0, 0.0, 2.0, 2.0, 3.0, 4.0])
        clock = lambda: next(stamps)  # noqa: E731
        totals: dict[str, float] = {}
        with span(totals, "TT", clock):
            with span(totals, "PT", clock):
                pass
            with span(totals, "RT", clock):
                pass
        assert totals == {"PT": 2.0, "RT": 1.0, "TT": 4.0}
        assert totals["TT"] >= totals["PT"] + totals["RT"]

    def test_phase_timer_context(self):
        """A span records its seconds also when its block raises."""
        totals: dict[str, float] = {}
        with pytest.raises(KeyError):
            with span(totals, "TT"):
                with span(totals, "PT"):
                    raise KeyError("boom")
        assert set(totals) == {"PT", "TT"}
        assert totals["TT"] >= totals["PT"] >= 0.0


def test_format_table_renders_none_as_na():
    text = format_table(["a", "b"], [[1, None], [2.5, "x"]])
    assert "n/a" in text
    assert "2.5000" in text
