#!/usr/bin/env python3
"""Rebalancing a failure-starved training set.

Industrial CI logs are dominated by passes; a regression model trained on
them barely sees the cases it exists for. This demo builds a feature set
with a 0.2% fail share and oversamples it to 2.6% with synthetic fail-bin
vectors: interpolation between close neighbors, Gaussian jitter for
isolated seeds. The rebalancer works on the arrays of a FeatureSet: one
row per vector (10 window statuses, then duration, last run, distance and
change in status), one id and one label per row.
"""

import numpy as np

from testprio.augment import AugmentConfig, augment, fail_ratio, split_bins
from testprio.features import FeatureSet

rng = np.random.default_rng(0)
n, n_failing = 2100, 4

failing = np.arange(n) < n_failing
windows = np.where(failing[:, None], rng.integers(0, 2, (n, 10)), rng.integers(-1, 1, (n, 10)))
windows[failing, -1] = 1  # the fail bin: the last executed verdict is a fail
distance = np.abs(windows[:, -1] - windows[:, 0])
flips = np.zeros(n)
prev = np.full(n, -1)
for j in range(10):
    flips += (prev == 0) & (windows[:, j] == 1)
    prev = np.where(windows[:, j] != -1, windows[:, j], prev)
X = np.column_stack([windows, rng.random((n, 2)), distance, flips]).astype(np.float64)
labels = np.where(failing, rng.uniform(0.3, 0.95, n), rng.uniform(0.0, 0.1, n))
order = rng.permutation(n)
vectors = FeatureSet(X[order], order.tolist(), labels[order])
print(f"input: {len(vectors)} vectors, fail share {fail_ratio(vectors):.2%}")

config = AugmentConfig(k_neighbors=3, target_fail_ratio=0.026, rng_seed=7)
balanced = augment(vectors, config)
failed, passed = split_bins(balanced)
print(f"output: {len(balanced)} vectors, fail share {fail_ratio(balanced):.2%} "
      f"({len(failed)} fail-bin, {len(passed)} pass-bin)")

synthetic = balanced[len(vectors):]
print(f"\n{len(synthetic)} synthetic vectors; first three:")
for tid, row, label in zip(synthetic.test_ids[:3], synthetic.X[:3], synthetic.labels[:3]):
    window = " ".join(f"{int(s):+d}" for s in row[:10])
    print(f"  seed {tid:>4}: window {window}  duration {row[10]:.3f}  label {label:.3f}")

# Guarantees worth knowing: originals in the fail bin are never dropped
# (kept vectors come first, in input order, then the synthetic ones), and
# the whole procedure is reproducible from the seed.
originals = split_bins(vectors)[0]
kept = failed[: len(originals)]
assert np.array_equal(kept.X, originals.X) and kept.test_ids == originals.test_ids
rerun = augment(vectors, config)
assert np.array_equal(rerun.X, balanced.X) and np.array_equal(rerun.labels, balanced.labels)
assert rerun.test_ids == balanced.test_ids
print("\noriginal failures all kept; rerun with the same seed is identical")
