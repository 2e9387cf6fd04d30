from __future__ import annotations

import hashlib
import logging
import math
import random
import sys
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

import testprio.augment
from testprio.augment import (
    AugmentConfig,
    _synthesize,
    augment,
    fail_mask,
    fail_ratio,
    nearest_neighbors,
    split_bins,
)
from testprio.features import FeatureSet, bounds_from_matrix, stack
from testprio.history import FAIL, NOT_RUN, build_status_matrix
from testprio.pipeline import training_vectors
from testprio.rocket import weight_scheme
from testprio.simulate import PAINT_CONTROL_LIKE, generate_history


@dataclass(frozen=True)
class Row:
    """One labeled feature vector as an object, the form the reference
    rebalancer below was written on."""

    test_id: object
    es_window: tuple[int, ...]
    duration_norm: float
    last_run_norm: float
    distance: int
    change_in_status: int
    label_priority: float | None = None

    def flatten(self) -> np.ndarray:
        return np.array(
            [*self.es_window, self.duration_norm, self.last_run_norm,
             self.distance, self.change_in_status],
            dtype=np.float64,
        )


def as_set(rows) -> FeatureSet:
    """Rows stacked into the arrays augment works on; labeled iff every row is."""
    rows = list(rows)
    X = np.array([r.flatten() for r in rows]).reshape(len(rows), 14)
    labels = None
    if all(r.label_priority is not None for r in rows):
        labels = np.array([r.label_priority for r in rows], dtype=np.float64)
    return FeatureSet(X, [r.test_id for r in rows], labels)


def rows_of(data: FeatureSet) -> list[Row]:
    labels = [None] * len(data) if data.labels is None else data.labels.tolist()
    return [Row(tid, tuple(int(s) for s in x[:10]), x[10], x[11], int(x[12]), int(x[13]), label)
            for tid, x, label in zip(data.test_ids, data.X.tolist(), labels)]


def vec(test_id, window, duration=0.5, lastrun=0.5, label=0.5):
    window = tuple(window)
    executed = [s for s in window if s != -1]
    return Row(
        test_id=test_id,
        es_window=window,
        duration_norm=duration,
        last_run_norm=lastrun,
        distance=abs(window[-1] - window[0]),
        change_in_status=sum(1 for a, b in zip(executed, executed[1:]) if (a, b) == (0, 1)),
        label_priority=label,
    )


# --- the reference: the rebalancer as it was written on row objects ---

def _last_executed_failed(window) -> bool:
    for status in reversed(window):
        if status != NOT_RUN:
            return status == FAIL
    return False


def reference_split_bins(vectors):
    bin_failed, bin_passed = [], []
    for v in vectors:
        (bin_failed if _last_executed_failed(v.es_window) else bin_passed).append(v)
    return bin_failed, bin_passed


def reference_smoter_interpolate(seed, neighbor, rng):
    u = float(rng.uniform())
    lerp = lambda a, b: (1.0 - u) * a + u * b
    near = seed if u <= 0.5 else neighbor
    return Row(
        test_id=seed.test_id,
        es_window=near.es_window,
        duration_norm=lerp(seed.duration_norm, neighbor.duration_norm),
        last_run_norm=lerp(seed.last_run_norm, neighbor.last_run_norm),
        distance=near.distance,
        change_in_status=near.change_in_status,
        label_priority=lerp(seed.label_priority, neighbor.label_priority),
    )


def reference_gaussian_perturb(seed, noise_scale, rng, stds):
    s_dur, s_lr, s_label = (float(s) for s in stds)
    clip01 = lambda x: float(min(1.0, max(0.0, x)))
    duration = clip01(seed.duration_norm + rng.normal(0.0, noise_scale * s_dur))
    lastrun = clip01(seed.last_run_norm + rng.normal(0.0, noise_scale * s_lr))
    label = seed.label_priority + rng.normal(0.0, noise_scale * s_label)
    label = float(min(1.0 - 1e-12, max(1e-12, label)))
    return replace(seed, duration_norm=duration, last_run_norm=lastrun, label_priority=label)


def reference_augment(vectors, config):
    """The rebalancer on objects, with a dense (n_fail, n_fail, d) distance
    tensor and ``argsort`` for the neighbors. Where no row's nearest
    distances tie, ``augment`` must equal it bit for bit."""
    vectors = list(vectors)
    bin_failed, bin_passed = reference_split_bins(vectors)
    if len(bin_failed) < 2:
        return vectors
    rng = np.random.default_rng(config.rng_seed)
    kept_passed = bin_passed
    if config.pass_keep_fraction < 1.0 and bin_passed:
        n_keep = max(1, math.floor(config.pass_keep_fraction * len(bin_passed)))
        keep_idx = sorted(rng.choice(len(bin_passed), size=n_keep, replace=False))
        kept_passed = [bin_passed[i] for i in keep_idx]
    n_fail, n_pass = len(bin_failed), len(kept_passed)
    t = config.target_fail_ratio
    needed = math.ceil(t * n_pass / (1.0 - t)) - n_fail
    kept_set = {id(v) for v in bin_failed} | {id(v) for v in kept_passed}
    out = [v for v in vectors if id(v) in kept_set]
    if needed <= 0:
        return out
    coords = np.stack([v.flatten() for v in bin_failed])
    dists = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    k = min(config.k_neighbors, n_fail - 1)
    knn = np.argsort(dists, axis=1)[:, 1 : k + 1]
    cont = np.array([[v.duration_norm, v.last_run_norm, v.label_priority] for v in bin_failed])
    stds = cont.std(axis=0)
    synth = []
    for _ in range(needed):
        si = int(rng.integers(n_fail))
        neighbor_ids = knn[si]
        threshold = float(np.median(dists[si, neighbor_ids])) / 2.0
        ni = int(neighbor_ids[int(rng.integers(len(neighbor_ids)))])
        if dists[si, ni] <= threshold:
            synth.append(reference_smoter_interpolate(bin_failed[si], bin_failed[ni], rng))
        else:
            synth.append(reference_gaussian_perturb(bin_failed[si], config.noise_scale, rng, stds))
    return out + synth


def assert_same(out: FeatureSet, expected):
    """Same rows, labels and ids, bit for bit and in order."""
    X, labels, ids = stack(expected if isinstance(expected, FeatureSet) else as_set(expected))
    assert isinstance(out, FeatureSet)
    assert np.array_equal(out.X, X)
    assert np.array_equal(out.labels, labels)
    assert list(out.test_ids) == ids


def row(v):
    """A vector as one ``[x | label]`` row, the layout _synthesize works on."""
    return np.append(v.flatten(), v.label_priority)[None, :]


DISCRETE = list(range(10)) + [12, 13]  # window, distance, change in status


class TestSplitBins:
    def test_window_ending_in_fail(self):
        failed, passed = split_bins(as_set([vec(1, [0] * 9 + [1])]))
        assert len(failed) == 1 and not passed

    def test_all_pass(self):
        failed, passed = split_bins(as_set([vec(1, [0] * 10)]))
        assert not failed and len(passed) == 1

    def test_empty(self):
        failed, passed = split_bins(as_set([]))
        assert len(failed) == len(passed) == 0

    def test_most_recent_executed_wins_over_trailing_gap(self):
        # last slot not executed, but the last *executed* verdict is a fail
        failed, passed = split_bins(as_set([vec(1, [0] * 8 + [1, -1])]))
        assert len(failed) == 1 and not passed

    def test_never_executed_goes_to_passed(self):
        failed, passed = split_bins(as_set([vec(1, [-1] * 10)]))
        assert not failed and len(passed) == 1

    def test_partition_is_total(self):
        rng = random.Random(5)
        vectors = [vec(i, [rng.choice([-1, 0, 1]) for _ in range(10)])
                   for i in range(100)]
        failed, passed = split_bins(as_set(vectors))
        assert len(failed) + len(passed) == len(vectors)
        ref_failed, ref_passed = reference_split_bins(vectors)
        assert_same(failed, ref_failed)
        assert_same(passed, ref_passed)


class TestSmoterInterpolate:
    """Rows where u is a number: SMOTER interpolation."""

    def synth(self, seed, other, u):
        return _synthesize(row(seed), row(other), np.array([u]), np.zeros((1, 3)))

    def test_u_zero_copies_seed(self):
        seed = vec(1, [0] * 9 + [1], duration=0.2, lastrun=0.3, label=0.4)
        other = vec(2, [1] * 10, duration=0.9, lastrun=0.8, label=0.9)
        assert np.array_equal(self.synth(seed, other, 0.0), row(seed))

    def test_u_one_takes_neighbor_values(self):
        seed = vec(1, [0] * 9 + [1], duration=0.2, lastrun=0.3, label=0.4)
        other = vec(2, [1] * 10, duration=0.9, lastrun=0.8, label=0.9)
        assert np.array_equal(self.synth(seed, other, 1.0), row(other))

    def test_halfway_interpolation(self):
        seed = vec(1, [0] * 9 + [1], duration=0.2)
        other = vec(2, [0, 1] * 5, duration=0.6)
        out = self.synth(seed, other, 0.5)
        assert out[0, 10] == pytest.approx(0.4)
        assert np.array_equal(out[0, DISCRETE], row(seed)[0, DISCRETE])  # seed wins the tie

    def test_discrete_features_stay_discrete(self):
        seed = vec(1, [-1, 0] * 5, label=0.3)
        other = vec(2, [0, 1] * 5, label=0.8)
        u = np.random.default_rng(0).uniform(size=50)
        out = _synthesize(np.repeat(row(seed), 50, axis=0), np.repeat(row(other), 50, axis=0),
                          u, np.zeros((50, 3)))
        from_seed = (out[:, DISCRETE] == row(seed)[0, DISCRETE]).all(axis=1)
        from_other = (out[:, DISCRETE] == row(other)[0, DISCRETE]).all(axis=1)
        assert np.array_equal(from_seed, u <= 0.5) and np.array_equal(from_other, u > 0.5)


class TestGaussianPerturb:
    """Rows where u is NaN: the seed plus noise on its continuous columns."""

    def test_zero_noise_copies(self):
        seed = vec(1, [0] * 9 + [1], duration=0.25, lastrun=0.75, label=0.4)
        out = _synthesize(row(seed), row(vec(2, [1] * 10)), np.array([np.nan]), np.zeros((1, 3)))
        assert np.array_equal(out, row(seed))

    def test_clamped_to_unit_interval(self):
        seed = vec(1, [0] * 9 + [1], duration=0.95, lastrun=0.05, label=0.99)
        seeds = np.repeat(row(seed), 10_000, axis=0)
        noise = np.random.default_rng(1).normal(0.0, 5.0, (10_000, 3))
        out = _synthesize(seeds, seeds, np.full(10_000, np.nan), noise)
        assert ((0.0 <= out[:, 10:12]) & (out[:, 10:12] <= 1.0)).all()
        assert ((0.0 < out[:, -1]) & (out[:, -1] < 1.0)).all()

    def test_deterministic_under_seed(self):
        # With one neighbor the safe zone is half that neighbor's distance,
        # so every synthetic row is a perturbation.
        vectors = as_set(population(8, 400, random.Random(8)))
        cfg = AugmentConfig(k_neighbors=1, target_fail_ratio=0.15, rng_seed=42)
        a, b = augment(vectors, cfg), augment(vectors, cfg)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.labels, b.labels)
        other = augment(vectors, replace(cfg, rng_seed=43))
        assert not np.array_equal(a.labels, other.labels)

    def test_discrete_untouched(self):
        seed = vec(1, [0, 1] * 5, label=0.5)
        noise = np.random.default_rng(3).normal(0.0, 2.0, (1, 3))
        out = _synthesize(row(seed), row(vec(2, [1] * 10)), np.array([np.nan]), noise)
        assert np.array_equal(out[0, DISCRETE], row(seed)[0, DISCRETE])
        assert not np.array_equal(out, row(seed))


class TestNearestNeighbors:
    def test_twin_rows_exclude_themselves_and_find_each_other(self):
        rng = random.Random(9)
        vectors = [v for v in population(40, 0, rng)]
        twins = {v.test_id: replace(v, test_id=f"{v.test_id}-twin") for v in vectors[:10]}
        vectors += list(twins.values())
        rng.shuffle(vectors)
        fail_X, _, ids = stack(split_bins(as_set(vectors))[0])
        idx, dist = nearest_neighbors(fail_X, 3)
        position = {tid: i for i, tid in enumerate(ids)}
        for tid in twins:
            i, j = position[tid], position[f"{tid}-twin"]
            assert i not in idx[i] and j in idx[i] and dist[i, 0] == 0.0
            assert j not in idx[j] and i in idx[j] and dist[j, 0] == 0.0

    @pytest.mark.parametrize("n, k", [(2, 1), (7, 5), (300, 5)])
    def test_exact_ranking_with_ties_broken_by_lower_index(self, n, k):
        # Small integer coordinates: many exact ties and duplicate rows.
        X = np.random.default_rng(n).integers(0, 3, (n, 4)).astype(np.float64)
        dense = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        np.fill_diagonal(dense, np.inf)
        expected = np.argsort(dense, axis=1, kind="stable")[:, :k]
        idx, dist = nearest_neighbors(X, k)
        assert np.array_equal(idx, expected)
        assert np.array_equal(dist, np.take_along_axis(dense, expected, axis=1))

    def test_a_rows_neighbors_do_not_depend_on_the_rows_requested(self):
        X = np.random.default_rng(12).integers(0, 3, (200, 4)).astype(np.float64)
        idx, dist = nearest_neighbors(X, 5)
        for rows in ([17], [199, 0, 17], np.arange(0, 200, 7), np.arange(199, -1, -3)):
            sub_idx, sub_dist = nearest_neighbors(X, 5, rows)
            assert np.array_equal(sub_idx, idx[rows]) and np.array_equal(sub_dist, dist[rows])


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
    """fail_ratio's mask on the window columns of a FeatureSet counts what
    the per-vector walk puts in the fail bin."""
    rng = np.random.default_rng(6)
    for n in (1, 7, 200):
        windows = rng.choice([-1, 0, 1], size=(n, 10), p=[0.5, 0.4, 0.1])
        windows[rng.random(n) < 0.2] = -1  # rows that never ran
        X = np.column_stack([windows, rng.random((n, 4))])
        vectors = FeatureSet(X, list(range(n)), rng.random(n))
        expected = len(reference_split_bins(rows_of(vectors))[0]) / n
        assert fail_ratio(vectors) == expected
        assert len(split_bins(vectors)[0]) / n == expected
    assert fail_ratio(FeatureSet(np.empty((0, 14)), [])) == 0.0


def test_the_augment_submodule_is_not_shadowed_by_its_function():
    """The package does not re-export augment(), which would rebind the
    attribute ``testprio.augment`` from the submodule to the function."""
    import testprio.augment as aug

    assert aug is sys.modules["testprio.augment"]
    assert aug.fail_mask is not None


class TestAugment:
    def test_already_balanced_returns_unchanged(self):
        vectors = population(10, 10, random.Random(1))
        out = augment(as_set(vectors), AugmentConfig(target_fail_ratio=0.3, rng_seed=0))
        assert_same(out, vectors)

    def test_paint_control_like_imbalance_reaches_target(self):
        """0.19% failing input, 2.6% target: output meets the target."""
        vectors = as_set(population(4, 2096, random.Random(2)))
        assert fail_ratio(vectors) == pytest.approx(0.0019, abs=2e-4)
        out = augment(vectors, AugmentConfig(target_fail_ratio=0.026, rng_seed=0))
        assert fail_ratio(out) >= 0.026

    def test_singleton_fail_bin_warns_and_returns_input(self, caplog):
        vectors = population(1, 50, random.Random(3))
        with caplog.at_level(logging.WARNING):
            out = augment(as_set(vectors), AugmentConfig(rng_seed=0))
        assert_same(out, vectors)
        assert any("fail bin" in message for message in caplog.messages)

    def test_unlabeled_input_rejected(self):
        bad = [vec(1, [0] * 9 + [1], label=None), vec(2, [0] * 9 + [1], label=None)]
        with pytest.raises(ValueError):
            augment(as_set(bad), AugmentConfig())

    def test_original_failures_never_dropped(self):
        rng = random.Random(4)
        vectors = population(6, 300, rng)
        out = augment(as_set(vectors), AugmentConfig(target_fail_ratio=0.2,
                                                     pass_keep_fraction=0.5, rng_seed=1))
        originals = [v for v in vectors if v.es_window[-1] == 1]
        X, labels, ids = stack(as_set(originals))
        rows = [out.test_ids.index(tid) for tid in ids]  # synthetic rows reuse ids later
        assert np.array_equal(out.X[rows], X) and np.array_equal(out.labels[rows], labels)

    def test_undersampling_touches_only_passed(self):
        vectors = population(5, 200, random.Random(5))
        out = augment(as_set(vectors), AugmentConfig(target_fail_ratio=0.1,
                                                     pass_keep_fraction=0.4, rng_seed=2))
        passed = split_bins(out)[1]
        input_passed = {v.test_id: v.flatten() for v in reference_split_bins(vectors)[1]}
        assert len(passed) == int(0.4 * 200)
        for tid, x in zip(passed.test_ids, passed.X):
            assert np.array_equal(input_passed[tid], x)

    def test_reproducible_byte_identical(self):
        vectors = as_set(population(8, 400, random.Random(6)))
        cfg = AugmentConfig(target_fail_ratio=0.15, rng_seed=123)
        first = augment(vectors, cfg)
        assert_same(augment(vectors, cfg), first)

    def test_synthetic_values_stay_in_bounds(self):
        rng = random.Random(7)
        vectors = population(10, 500, rng)
        out = augment(as_set(vectors), AugmentConfig(target_fail_ratio=0.25, rng_seed=3))
        synthetic = out[len(vectors):]
        assert len(synthetic), "expected oversampling to add vectors"
        assert ((0.0 <= synthetic.X[:, 10:12]) & (synthetic.X[:, 10:12] <= 1.0)).all()
        assert ((0.0 < synthetic.labels) & (synthetic.labels < 1.0)).all()
        assert (synthetic.X[:, 9] == 1).all()  # discrete slots come from fail-bin parents

    def test_synthetic_rows_copy_the_integer_features_of_a_fail_bin_row(self):
        """Only duration, last run and label are interpolated or jittered: a
        synthetic row's statuses, swing and flip count are those of one of
        its fail-bin parents."""
        vectors = population(10, 500, random.Random(7))
        data = as_set(vectors)
        out = augment(data, AugmentConfig(target_fail_ratio=0.25, rng_seed=3))
        integer = np.r_[0:10, 12:14]  # the statuses, then swing and flip count
        parents = {tuple(x) for x in split_bins(data)[0].X[:, integer].tolist()}
        synthetic = out.X[len(vectors):, integer].tolist()
        assert len(synthetic) > 100 and len(parents) > 1
        assert all(tuple(x) in parents for x in synthetic)

    def test_non_finite_input_rejected_naming_the_row(self):
        data = as_set(population(10, 50, random.Random(8)))
        bad_x, bad_label = data.X.copy(), data.labels.copy()
        bad_x[7, 10], bad_label[3] = np.nan, np.inf
        for X, labels, row in ((bad_x, data.labels, 7), (data.X, bad_label, 3)):
            with pytest.raises(ValueError, match=f"row {row} is not"):
                augment(FeatureSet(X, data.test_ids, labels), AugmentConfig(target_fail_ratio=0.5))

    def test_ranks_only_the_distinct_seeds_it_draws(self, monkeypatch):
        """Each drawn seed is ranked once, on its first draw; a fail-bin row
        that is never drawn is never ranked."""
        requested = []

        def spy(X, k, rows=None):
            requested.extend(range(len(X)) if rows is None else np.asarray(rows).tolist())
            return nearest_neighbors(X, k) if rows is None else nearest_neighbors(X, k, rows)

        monkeypatch.setattr(testprio.augment, "nearest_neighbors", spy)
        data = as_set(population(200, 2000, random.Random(13)))
        out = augment(data, AugmentConfig(target_fail_ratio=0.1, rng_seed=4))
        fail_ids = split_bins(data)[0].test_ids
        drawn = set(out.test_ids[len(data):])
        assert len(requested) == len(set(requested)) == len(drawn) < len(fail_ids)
        assert {fail_ids[i] for i in requested} == drawn

    def test_pinned_output_where_nearest_distances_tie(self):
        """PAINT-like seed 42's pre-cut training vectors at target 0.5. Its
        fail bin has a duplicate row and rows whose 5th and 6th nearest
        distances tie, so the lower-index rule picks neighbors, and the
        reference above (an unstable argsort) does not apply. The sha256
        pins the output, ties included."""
        cycles = generate_history(PAINT_CONTROL_LIKE, seed=42)
        train = cycles[:round(0.8 * len(cycles))]
        bounds = bounds_from_matrix(build_status_matrix(train, 10, as_of_cycle=train[-1].cycle_id))
        data = training_vectors(train, 10, weight_scheme("linear", 10), bounds)
        _, dist = nearest_neighbors(data.X[fail_mask(data.X)], 6)
        assert (dist[:, 4] == dist[:, 5]).any()
        out = augment(data, AugmentConfig(target_fail_ratio=0.5))
        digest = hashlib.sha256(out.X.astype("<f8").tobytes() + out.labels.astype("<f8").tobytes()
                                + repr(list(out.test_ids)).encode())
        assert len(out) == 14026
        assert digest.hexdigest() == (
            "86930064e1e18b2710c07fbed821917f34d1ffb5182550c7c7a65039e5789e43")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            AugmentConfig(target_fail_ratio=1.0)
        with pytest.raises(ValueError):
            AugmentConfig(noise_scale=0.0)
        with pytest.raises(ValueError):
            AugmentConfig(pass_keep_fraction=0.0)

    @pytest.mark.parametrize("pass_keep_fraction", [1.0, 0.5])
    @pytest.mark.parametrize("n_failed, n_passed, k, target", [
        (8, 400, 5, 0.15),
        (30, 500, 1, 0.2),
        (60, 2000, 3, 0.1),
        (556, 700, 5, 0.5),
    ])
    def test_matches_reference_on_tie_free_populations(self, n_failed, n_passed, k, target,
                                                       pass_keep_fraction):
        vectors = population(n_failed, n_passed, random.Random(n_failed))
        cfg = AugmentConfig(k_neighbors=k, target_fail_ratio=target,
                            pass_keep_fraction=pass_keep_fraction, rng_seed=n_passed)
        expected = reference_augment(vectors, cfg)
        assert len(expected) > len(vectors) * pass_keep_fraction  # it synthesized rows
        assert_same(augment(as_set(vectors), cfg), expected)

    def test_memory_is_bounded_by_the_row_blocks(self):
        """4,000 fail-bin rows, where the dense (n_fail, n_fail, 14) tensor
        needed 1.79 GB. Ranking one drawn seed at a time holds O(n_fail)
        values. Measured peak: 3.0 MB; the bound is fixed."""
        rng = np.random.default_rng(11)
        n_fail, n_pass = 4_000, 3_000
        windows = np.vstack([rng.integers(0, 2, (n_fail, 10)), np.zeros((n_pass, 10))])
        windows[:n_fail, -1] = 1
        X = np.column_stack([windows, rng.random((n_fail + n_pass, 2)),
                             rng.integers(0, 2, (n_fail + n_pass, 2))]).astype(np.float64)
        data = FeatureSet(X, range(len(X)), rng.random(len(X)))
        cfg = AugmentConfig(target_fail_ratio=0.6, rng_seed=0)
        tracemalloc.start()
        try:
            out = augment(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == len(X) + 500
        assert peak < 40_000_000, peak
