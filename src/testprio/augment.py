"""Rebalance a labeled feature set whose fail cases are rare.

CI histories are dominated by passing executions, so a regression model
trained on raw features mostly learns the easy low-priority region. This
module under-samples the pass bin (optional) and over-samples the fail
bin with synthetic cases: interpolation between a fail-bin seed and one
of its nearest fail-bin neighbors when they are close ("safe zone"),
Gaussian perturbation of the seed when the chosen neighbor is far.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .features import DERIVED_FEATURES, FeatureVector, stack
from .history import FAIL, NOT_RUN

logger = logging.getLogger(__name__)

_LABEL_EPS = 1e-12  # labels stay strictly inside (0, 1)


@dataclass(frozen=True)
class AugmentConfig:
    k_neighbors: int = 5
    target_fail_ratio: float = 0.05
    noise_scale: float = 0.02  # fraction of per-feature std in the fail bin
    distance_threshold: str = "half-median-knn"
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
        if self.distance_threshold != "half-median-knn":
            raise ValueError(f"unknown distance threshold mode {self.distance_threshold!r}")


def _last_executed_failed(window: Sequence[int]) -> bool:
    for status in reversed(window):
        if status != NOT_RUN:
            return status == FAIL
    return False


def split_bins(vectors: Sequence[FeatureVector]) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Partition by most recent *executed* verdict: fail bin, pass bin.

    Tests that never executed land in the pass bin.
    """
    bin_failed, bin_passed = [], []
    for v in vectors:
        (bin_failed if _last_executed_failed(v.es_window) else bin_passed).append(v)
    return bin_failed, bin_passed


def smoter_interpolate(seed: FeatureVector, neighbor: FeatureVector,
                       rng: np.random.Generator) -> FeatureVector:
    """New sample on the segment between two fail-bin members.

    Continuous features and the label move a common uniform fraction u from
    seed toward neighbor; discrete features are copied from whichever
    parent is nearer to the synthetic point (the seed when u <= 0.5).
    """
    u = float(rng.uniform())
    lerp = lambda a, b: (1.0 - u) * a + u * b  # exact at both endpoints
    near = seed if u <= 0.5 else neighbor
    label = None
    if seed.label_priority is not None and neighbor.label_priority is not None:
        label = lerp(seed.label_priority, neighbor.label_priority)
    return FeatureVector(
        test_id=seed.test_id,
        es_window=near.es_window,
        duration_norm=lerp(seed.duration_norm, neighbor.duration_norm),
        last_run_norm=lerp(seed.last_run_norm, neighbor.last_run_norm),
        distance=near.distance,
        change_in_status=near.change_in_status,
        label_priority=label,
    )


def gaussian_perturb(seed: FeatureVector, noise_scale: float, rng: np.random.Generator,
                     stds: Sequence[float] = (1.0, 1.0, 1.0)) -> FeatureVector:
    """Jitter the continuous features of a fail-bin seed.

    ``stds`` are the population stds of (duration, last_run, label) the
    noise is scaled by; features clamp to [0,1], the label stays strictly
    inside (0,1). Discrete features are untouched.
    """
    s_dur, s_lr, s_label = (float(s) for s in stds)
    clip01 = lambda x: float(min(1.0, max(0.0, x)))
    duration = clip01(seed.duration_norm + rng.normal(0.0, noise_scale * s_dur))
    lastrun = clip01(seed.last_run_norm + rng.normal(0.0, noise_scale * s_lr))
    label = seed.label_priority
    if label is not None:
        label = label + rng.normal(0.0, noise_scale * s_label)
        label = float(min(1.0 - _LABEL_EPS, max(_LABEL_EPS, label)))
    return replace(seed, duration_norm=duration, last_run_norm=lastrun, label_priority=label)


def augment(vectors: Sequence[FeatureVector], config: AugmentConfig) -> list[FeatureVector]:
    """Rebalance until the fail-bin share reaches the configured target.

    Original fail-bin vectors are always kept; under-sampling (if enabled)
    drops only pass-bin vectors. Deterministic for a fixed rng_seed. With
    fewer than two fail-bin vectors there is nothing to interpolate, so
    the input comes back unchanged.
    """
    vectors = list(vectors)
    if any(v.label_priority is None for v in vectors):
        raise ValueError("augment requires labeled vectors")
    bin_failed, bin_passed = split_bins(vectors)
    if len(bin_failed) < 2:
        logger.warning(
            "fail bin has %d vector(s); need at least 2 to augment, returning input unchanged",
            len(bin_failed),
        )
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
    knn = np.argsort(dists, axis=1)[:, 1 : k + 1]  # nearest first, self excluded

    cont = np.array(
        [[v.duration_norm, v.last_run_norm, v.label_priority] for v in bin_failed]
    )
    stds = cont.std(axis=0)

    synth = []
    for _ in range(needed):
        si = int(rng.integers(n_fail))
        seed = bin_failed[si]
        neighbor_ids = knn[si]
        threshold = float(np.median(dists[si, neighbor_ids])) / 2.0
        ni = int(neighbor_ids[int(rng.integers(len(neighbor_ids)))])
        if dists[si, ni] <= threshold:
            synth.append(smoter_interpolate(seed, bin_failed[ni], rng))
        else:
            synth.append(gaussian_perturb(seed, config.noise_scale, rng, stds))
    return out + synth


def fail_ratio(vectors: Sequence[FeatureVector]) -> float:
    """Share of split_bins' fail bin, counted with one mask on the window columns."""
    if not vectors:
        return 0.0
    window = stack(vectors)[0][:, :-DERIVED_FEATURES]
    last = window.shape[1] - 1 - np.argmax(window[:, ::-1] != NOT_RUN, axis=1)  # last executed
    return int((window[np.arange(len(window)), last] == FAIL).sum()) / len(window)
