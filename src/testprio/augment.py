"""Rebalance a labeled feature set whose fail cases are rare.

CI histories are dominated by passing executions, so a regression model
trained on raw features mostly learns the easy low-priority region. This
module under-samples the pass bin (optional) and over-samples the fail
bin with synthetic cases: interpolation between a fail-bin seed and one
of its nearest fail-bin neighbors when they are close ("safe zone"),
Gaussian perturbation of the seed when the chosen neighbor is far.
It works on the arrays of a FeatureSet. Neighbors are found only for the
seeds the RNG draws, each ranked against the whole fail bin: O(n_fail)
memory and O(seeds x n_fail) time, never an n_fail x n_fail matrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .features import DERIVED_FEATURES, CompactFeatures, FeatureSet
from .history import FAIL, NOT_RUN

logger = logging.getLogger(__name__)

_LABEL_EPS = 1e-12  # labels stay strictly inside (0, 1)


@dataclass(frozen=True)
class AugmentConfig:
    k_neighbors: int = 5
    target_fail_ratio: float = 0.05
    noise_scale: float = 0.02  # fraction of per-feature std in the fail bin
    pass_keep_fraction: float = 1.0  # under-sampling knob; 1.0 keeps everything
    rng_seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0 < self.target_fail_ratio < 1:
            raise ValueError("target_fail_ratio must be in (0, 1)")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be > 0")
        if not 0 < self.pass_keep_fraction <= 1:
            raise ValueError("pass_keep_fraction must be in (0, 1]")


def fail_mask(X: np.ndarray | CompactFeatures) -> np.ndarray:
    """The fail bin of an input matrix (``stack``'s layout) or of compact
    vectors: rows whose most recent *executed* verdict is a fail. Rows that
    never executed are not in it."""
    if isinstance(X, CompactFeatures):
        window = X.small[:, :X.window_len]
    else:
        window = X[:, :-DERIVED_FEATURES]
    if window.size == 0:
        return np.zeros(len(window), dtype=bool)
    last = window.shape[1] - 1 - np.argmax(window[:, ::-1] != NOT_RUN, axis=1)
    return window[np.arange(len(window)), last] == FAIL


def split_bins(data: FeatureSet) -> tuple[FeatureSet, FeatureSet]:
    """Partition by ``fail_mask``: fail bin, pass bin, each in input order."""
    failed = fail_mask(data.X)
    return data[np.flatnonzero(failed)], data[np.flatnonzero(~failed)]


def fail_ratio(data: FeatureSet | CompactFeatures) -> float:
    """Share of the fail bin: of split_bins' fail bin for a FeatureSet."""
    mask = fail_mask(data.X if isinstance(data, FeatureSet) else data)
    return int(mask.sum()) / len(mask) if len(mask) else 0.0


def nearest_neighbors(X: np.ndarray, k: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest other rows of each requested row of ``X`` (default:
    every row), nearest first, and their distances (norms of row
    differences); ties go to the lower index. Needs ``1 <= k < len(X)``.
    Each row is ranked against every row, so its answer does not depend on
    which other rows were requested."""
    rows = np.arange(len(X)) if rows is None else np.asarray(rows, dtype=np.intp)
    idx, dist = np.empty((len(rows), k), dtype=np.intp), np.empty((len(rows), k))
    for out, i in enumerate(rows.tolist()):
        d = X[i] - X
        d = np.sqrt(np.add.reduce(d * d, axis=1))  # np.linalg.norm's sums, minus its conj() copy
        d[i] = np.inf  # never its own neighbor
        near = np.flatnonzero(d <= np.partition(d, k - 1)[k - 1])  # ascending indices
        near = near[np.argsort(d[near], kind="stable")[:k]]
        idx[out], dist[out] = near, d[near]
    return idx, dist


def _synthesize(seed: np.ndarray, neighbor: np.ndarray, u: np.ndarray,
                noise: np.ndarray) -> np.ndarray:
    """Synthetic fail-bin rows from ``[x | label]`` rows of seeds and neighbors.
    Where ``u`` is a number, duration, last run and label move the fraction
    ``u`` from seed to neighbor, and the discrete features come from the parent
    nearer the new point (the seed when u <= 0.5). Where ``u`` is NaN, the row
    is its seed plus ``noise`` on those three columns, features clamped to
    [0, 1] and the label kept strictly inside (0, 1)."""
    w = seed.shape[1] - 1 - DERIVED_FEATURES
    cont, u = [w, w + 1, -1], u[:, None]
    lerp = (1.0 - u) * seed[:, cont] + u * neighbor[:, cont]  # exact at both endpoints
    jitter = np.clip(seed[:, cont] + noise, [0.0, 0.0, _LABEL_EPS], [1.0, 1.0, 1.0 - _LABEL_EPS])
    out = np.where(u > 0.5, neighbor, seed)
    out[:, cont] = np.where(np.isnan(u), jitter, lerp)
    return out


def augment(data: FeatureSet, config: AugmentConfig) -> FeatureSet:
    """Rebalance until the fail-bin share reaches the configured target.

    Original fail-bin vectors are always kept; under-sampling (if enabled)
    drops only pass-bin vectors. Kept vectors come first, in input order,
    then the synthetic ones, each with its seed's test id. Deterministic
    for a fixed rng_seed. With fewer than two fail-bin vectors there is
    nothing to interpolate, so the input comes back unchanged. Unlabeled
    input, or a non-finite feature or label, raises ValueError."""
    X, labels, ids = data.X, data.labels, data.test_ids
    if labels is None:
        raise ValueError("augment requires labeled vectors")
    finite = np.isfinite(X).all(axis=1) & np.isfinite(labels)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"features and labels must be finite; row {bad} is not")
    failed = fail_mask(X)
    fail_rows, pass_rows = np.flatnonzero(failed), np.flatnonzero(~failed)
    n_fail, n_pass = len(fail_rows), len(pass_rows)
    if n_fail < 2:
        logger.warning("fail bin has %d vector(s); need at least 2 to augment, "
                       "returning input unchanged", n_fail)
        return data

    rng = np.random.default_rng(config.rng_seed)
    kept = data
    if config.pass_keep_fraction < 1.0 and n_pass:
        n_keep = max(1, math.floor(config.pass_keep_fraction * n_pass))
        keep = failed.copy()
        keep[pass_rows[rng.choice(n_pass, size=n_keep, replace=False)]] = True
        kept, n_pass = data[np.flatnonzero(keep)], n_keep
    t = config.target_fail_ratio
    needed = math.ceil(t * n_pass / (1.0 - t)) - n_fail
    if needed <= 0:
        return kept

    k = min(config.k_neighbors, n_fail - 1)
    fail_X = X[fail_rows]  # contiguous: each ranking reads all of it
    rows = np.column_stack([fail_X, labels[fail_rows]])
    w = X.shape[1] - DERIVED_FEATURES
    # C order: std's summation order, so its last bits, depends on the layout
    scale = config.noise_scale * np.ascontiguousarray(rows[:, [w, w + 1, -1]]).std(axis=0)
    seeds, neighbors = np.empty(needed, dtype=np.intp), np.empty(needed, dtype=np.intp)
    u, noise = np.full(needed, np.nan), np.zeros((needed, 3))
    near = {}  # seed -> its neighbors, their distances and its safe-zone radius
    for r in range(needed):
        si, j = int(rng.integers(n_fail)), int(rng.integers(k))
        if si not in near:
            (idx,), (dist,) = nearest_neighbors(fail_X, k, [si])
            near[si] = idx, dist, np.median(dist) / 2.0
        idx, dist, threshold = near[si]
        seeds[r], neighbors[r] = si, idx[j]
        if dist[j] <= threshold:
            u[r] = rng.uniform()
        else:
            noise[r] = rng.normal(0.0, scale)
    synth = _synthesize(rows[seeds], rows[neighbors], u, noise)
    synth_ids = tuple(ids[i] for i in fail_rows[seeds].tolist())
    return FeatureSet(np.concatenate([kept.X, synth[:, :-1]]), kept.test_ids + synth_ids,
                      np.concatenate([kept.labels, synth[:, -1]]))
