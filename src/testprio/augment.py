"""Rebalance a labeled feature set whose fail cases are rare.

CI histories are dominated by passing executions, so a regression model
trained on raw features mostly learns the easy low-priority region. This
module under-samples the pass bin (optional) and over-samples the fail
bin with synthetic cases: interpolation between a fail-bin seed and one
of its nearest fail-bin neighbors when they are close ("safe zone"),
Gaussian perturbation of the seed when the chosen neighbor is far.
It works on the arrays of a FeatureSet, and its neighbor search holds
O(KNN_BLOCK_ROWS x n_fail) values, never an n_fail x n_fail matrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .features import DERIVED_FEATURES, FeatureSet
from .history import FAIL, NOT_RUN

logger = logging.getLogger(__name__)

_LABEL_EPS = 1e-12  # labels stay strictly inside (0, 1)
KNN_BLOCK_ROWS = 256


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


def fail_mask(X: np.ndarray) -> np.ndarray:
    """The fail bin of an input matrix (``stack``'s layout): rows whose most
    recent *executed* verdict is a fail. Rows that never executed are not in it."""
    if X.size == 0:
        return np.zeros(len(X), dtype=bool)
    window = X[:, :-DERIVED_FEATURES]
    last = window.shape[1] - 1 - np.argmax(window[:, ::-1] != NOT_RUN, axis=1)
    return window[np.arange(len(window)), last] == FAIL


def split_bins(data: FeatureSet) -> tuple[FeatureSet, FeatureSet]:
    """Partition by ``fail_mask``: fail bin, pass bin, each in input order."""
    failed = fail_mask(data.X)
    return data[np.flatnonzero(failed)], data[np.flatnonzero(~failed)]


def fail_ratio(data: FeatureSet) -> float:
    """Share of split_bins' fail bin."""
    return int(fail_mask(data.X).sum()) / len(data) if len(data) else 0.0


def nearest_neighbors(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest other rows of each row of ``X``, nearest first, and
    their distances (norms of row differences); ties go to the lower index.
    Needs ``1 <= k < len(X)``. Each block of rows takes its ``2k`` best
    candidates by the Gram form ``|a|^2 + |b|^2 - 2ab`` and re-ranks them by
    the exact norm; a row whose k-th exact distance comes within rounding of
    a candidate left out is ranked against every row instead."""
    n, m = len(X), min(len(X) - 1, 2 * k)
    sq = np.einsum("ij,ij->i", X, X)
    idx, dist = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    for start in range(0, n, KNN_BLOCK_ROWS):
        rows = np.arange(start, min(start + KNN_BLOCK_ROWS, n))
        gram = X[rows] @ X.T
        gram *= -2.0
        gram += sq[rows, None] + sq
        gram[np.arange(len(rows)), rows] = np.inf  # never its own neighbor
        cand = np.sort(np.argpartition(gram, m - 1, axis=1)[:, :m], axis=1)
        idx[rows], dist[rows] = _rank_candidates(X, rows, cand, k)
        if m < n - 1:  # else every other row was a candidate
            left_out = np.take_along_axis(gram, cand, axis=1).max(axis=1)  # a lower bound
            unsure = dist[rows, -1] ** 2 >= left_out - 1e-9 * (sq[rows] + sq.max())
            for i in rows[unsure]:
                others = np.delete(np.arange(n), i)[None, :]
                idx[i], dist[i] = _rank_candidates(X, np.array([i]), others, k)
    return idx, dist


def _rank_candidates(X: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int):
    """The ``k`` of each row's candidates (ascending indices, so the stable
    sort breaks ties by index) nearest by the exact norm, and their norms."""
    exact = np.linalg.norm(X[rows, None, :] - X[cand], axis=2)
    order = np.argsort(exact, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(exact, order, axis=1)


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
    nothing to interpolate, so the input comes back unchanged."""
    X, labels, ids = data.X, data.labels, data.test_ids
    if labels is None:
        raise ValueError("augment requires labeled vectors")
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
    knn, knn_dist = nearest_neighbors(X[fail_rows], k)
    threshold = np.median(knn_dist, axis=1) / 2.0
    rows = np.column_stack([X[fail_rows], labels[fail_rows]])
    w = X.shape[1] - DERIVED_FEATURES
    # C order: std's summation order, so its last bits, depends on the layout
    scale = config.noise_scale * np.ascontiguousarray(rows[:, [w, w + 1, -1]]).std(axis=0)
    seeds, neighbors = np.empty(needed, dtype=np.intp), np.empty(needed, dtype=np.intp)
    u, noise = np.full(needed, np.nan), np.zeros((needed, 3))
    for r in range(needed):
        si, j = int(rng.integers(n_fail)), int(rng.integers(k))
        seeds[r], neighbors[r] = si, knn[si, j]
        if knn_dist[si, j] <= threshold[si]:
            u[r] = rng.uniform()
        else:
            noise[r] = rng.normal(0.0, scale)
    synth = _synthesize(rows[seeds], rows[neighbors], u, noise)
    synth_ids = tuple(ids[i] for i in fail_rows[seeds].tolist())
    return FeatureSet(np.concatenate([kept.X, synth[:, :-1]]), kept.test_ids + synth_ids,
                      np.concatenate([kept.labels, synth[:, -1]]))
