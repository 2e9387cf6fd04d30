from __future__ import annotations

import logging
import random

import numpy as np
import pytest

from testprio.augment import (
    AugmentConfig,
    augment,
    fail_ratio,
    gaussian_perturb,
    smoter_interpolate,
    split_bins,
)
from testprio.features import FeatureSet, FeatureVector


def vec(test_id, window, duration=0.5, lastrun=0.5, label=0.5):
    window = tuple(window)
    executed = [s for s in window if s != -1]
    return FeatureVector(
        test_id=test_id,
        es_window=window,
        duration_norm=duration,
        last_run_norm=lastrun,
        distance=abs(window[-1] - window[0]),
        change_in_status=sum(1 for a, b in zip(executed, executed[1:]) if (a, b) == (0, 1)),
        label_priority=label,
    )


class FixedUniform:
    """Stand-in rng whose uniform() returns a preset value."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


class TestSplitBins:
    def test_window_ending_in_fail(self):
        failed, passed = split_bins([vec(1, [0] * 9 + [1])])
        assert len(failed) == 1 and not passed

    def test_all_pass(self):
        failed, passed = split_bins([vec(1, [0] * 10)])
        assert not failed and len(passed) == 1

    def test_empty(self):
        assert split_bins([]) == ([], [])

    def test_most_recent_executed_wins_over_trailing_gap(self):
        # last slot not executed, but the last *executed* verdict is a fail
        failed, passed = split_bins([vec(1, [0] * 8 + [1, -1])])
        assert len(failed) == 1 and not passed

    def test_never_executed_goes_to_passed(self):
        failed, passed = split_bins([vec(1, [-1] * 10)])
        assert not failed and len(passed) == 1

    def test_partition_is_total(self):
        rng = random.Random(5)
        vectors = [vec(i, [rng.choice([-1, 0, 1]) for _ in range(10)])
                   for i in range(100)]
        failed, passed = split_bins(vectors)
        assert len(failed) + len(passed) == len(vectors)


class TestSmoterInterpolate:
    def test_u_zero_copies_seed(self):
        seed = vec(1, [0] * 9 + [1], duration=0.2, lastrun=0.3, label=0.4)
        other = vec(2, [1] * 10, duration=0.9, lastrun=0.8, label=0.9)
        assert smoter_interpolate(seed, other, FixedUniform(0.0)) == seed

    def test_u_one_takes_neighbor_values(self):
        seed = vec(1, [0] * 9 + [1], duration=0.2, lastrun=0.3, label=0.4)
        other = vec(2, [1] * 10, duration=0.9, lastrun=0.8, label=0.9)
        out = smoter_interpolate(seed, other, FixedUniform(1.0))
        assert out.duration_norm == other.duration_norm
        assert out.last_run_norm == other.last_run_norm
        assert out.label_priority == other.label_priority
        assert out.es_window == other.es_window

    def test_halfway_interpolation(self):
        seed = vec(1, [0] * 9 + [1], duration=0.2)
        other = vec(2, [0] * 9 + [1], duration=0.6)
        out = smoter_interpolate(seed, other, FixedUniform(0.5))
        assert out.duration_norm == pytest.approx(0.4)
        assert out.es_window == seed.es_window  # seed wins the tie

    def test_discrete_features_stay_discrete(self):
        rng = np.random.default_rng(0)
        seed = vec(1, [-1, 0] * 5, label=0.3)
        other = vec(2, [0, 1] * 5, label=0.8)
        for _ in range(50):
            out = smoter_interpolate(seed, other, rng)
            assert out.es_window in (seed.es_window, other.es_window)
            assert out.distance in (seed.distance, other.distance)


class TestGaussianPerturb:
    def test_zero_noise_copies(self):
        seed = vec(1, [0] * 9 + [1], duration=0.25, lastrun=0.75, label=0.4)
        assert gaussian_perturb(seed, 0.0, np.random.default_rng(0)) == seed

    def test_clamped_to_unit_interval(self):
        seed = vec(1, [0] * 9 + [1], duration=0.95, lastrun=0.05, label=0.99)
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            out = gaussian_perturb(seed, 5.0, rng)
            assert 0.0 <= out.duration_norm <= 1.0
            assert 0.0 <= out.last_run_norm <= 1.0
            assert 0.0 < out.label_priority < 1.0

    def test_deterministic_under_seed(self):
        seed = vec(1, [0] * 9 + [1])
        a = gaussian_perturb(seed, 0.1, np.random.default_rng(42))
        b = gaussian_perturb(seed, 0.1, np.random.default_rng(42))
        assert a == b

    def test_discrete_untouched(self):
        seed = vec(1, [0, 1] * 5, label=0.5)
        out = gaussian_perturb(seed, 2.0, np.random.default_rng(3))
        assert out.es_window == seed.es_window
        assert out.distance == seed.distance
        assert out.change_in_status == seed.change_in_status


def population(n_failed, n_passed, rng):
    vectors = []
    for i in range(n_failed):
        vectors.append(vec(f"f{i}", [rng.choice([0, 1]) for _ in range(9)] + [1],
                           duration=rng.random(), lastrun=rng.random(),
                           label=0.3 + 0.6 * rng.random()))
    for i in range(n_passed):
        vectors.append(vec(f"p{i}", [rng.choice([-1, 0]) for _ in range(10)],
                           duration=rng.random(), lastrun=rng.random(),
                           label=0.2 * rng.random()))
    rng.shuffle(vectors)
    return vectors


def test_fail_ratio_counts_the_split_bins_fail_bin():
    """fail_ratio's one mask on the window columns of a FeatureSet counts what
    split_bins' per-vector walk puts in the fail bin."""
    rng = np.random.default_rng(6)
    for n in (1, 7, 200):
        windows = rng.choice([-1, 0, 1], size=(n, 10), p=[0.5, 0.4, 0.1])
        windows[rng.random(n) < 0.2] = -1  # rows that never ran
        X = np.column_stack([windows, rng.random((n, 4))])
        vectors = FeatureSet(X, list(range(n)), rng.random(n))
        expected = len(split_bins(list(vectors))[0]) / n
        assert fail_ratio(vectors) == expected == fail_ratio(list(vectors))
    assert fail_ratio(FeatureSet(np.empty((0, 14)), [])) == 0.0


class TestAugment:
    def test_already_balanced_returns_unchanged(self):
        vectors = population(10, 10, random.Random(1))
        out = augment(vectors, AugmentConfig(target_fail_ratio=0.3, rng_seed=0))
        assert out == vectors

    def test_paint_control_like_imbalance_reaches_target(self):
        """0.19% failing input, 2.6% target: output meets the target."""
        vectors = population(4, 2096, random.Random(2))
        assert fail_ratio(vectors) == pytest.approx(0.0019, abs=2e-4)
        out = augment(vectors, AugmentConfig(target_fail_ratio=0.026, rng_seed=0))
        assert fail_ratio(out) >= 0.026

    def test_singleton_fail_bin_warns_and_returns_input(self, caplog):
        vectors = population(1, 50, random.Random(3))
        with caplog.at_level(logging.WARNING):
            out = augment(vectors, AugmentConfig(rng_seed=0))
        assert out == vectors
        assert any("fail bin" in message for message in caplog.messages)

    def test_unlabeled_input_rejected(self):
        bad = [vec(1, [0] * 9 + [1], label=None), vec(2, [0] * 9 + [1], label=None)]
        with pytest.raises(ValueError):
            augment(bad, AugmentConfig())

    def test_original_failures_never_dropped(self):
        rng = random.Random(4)
        vectors = population(6, 300, rng)
        originals = [v for v in vectors if v.es_window[-1] == 1]
        out = augment(vectors, AugmentConfig(target_fail_ratio=0.2,
                                             pass_keep_fraction=0.5, rng_seed=1))
        for v in originals:
            assert v in out

    def test_undersampling_touches_only_passed(self):
        vectors = population(5, 200, random.Random(5))
        out = augment(vectors, AugmentConfig(target_fail_ratio=0.1,
                                             pass_keep_fraction=0.4, rng_seed=2))
        failed, passed = split_bins(out)
        kept_original_passed = [v for v in passed if v in vectors]
        assert len(kept_original_passed) == int(0.4 * 200)

    def test_reproducible_byte_identical(self):
        vectors = population(8, 400, random.Random(6))
        cfg = AugmentConfig(target_fail_ratio=0.15, rng_seed=123)
        assert augment(vectors, cfg) == augment(vectors, cfg)

    def test_synthetic_values_stay_in_bounds(self):
        rng = random.Random(7)
        vectors = population(10, 500, rng)
        out = augment(vectors, AugmentConfig(target_fail_ratio=0.25, rng_seed=3))
        synthetic = out[len(vectors):]
        assert synthetic, "expected oversampling to add vectors"
        for v in synthetic:
            assert 0.0 <= v.duration_norm <= 1.0
            assert 0.0 <= v.last_run_norm <= 1.0
            assert 0.0 < v.label_priority < 1.0
            assert v.es_window[-1] == 1  # discrete slots come from fail-bin parents

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            AugmentConfig(target_fail_ratio=1.0)
        with pytest.raises(ValueError):
            AugmentConfig(noise_scale=0.0)
        with pytest.raises(ValueError):
            AugmentConfig(pass_keep_fraction=0.0)
