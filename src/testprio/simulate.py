"""Synthetic CI histories shaped like the public industrial suites.

The real suites are hundreds of thousands to millions of executions; these
generators reproduce their qualitative structure at desk scale so the
whole pipeline runs in seconds. Failures come from two superimposed
processes: a stable per-test flakiness propensity (drawn once per test
from a skewed Beta, so a few tests fail chronically and most almost
never) and transient regression bursts from a hidden break/heal chain.
The propensity part is what makes longer history windows informative; the
burst part is what makes recency weighting informative.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .history import CycleLog, NameView, shared_names, to_epoch_us


@dataclass(frozen=True)
class SuiteProfile:
    name: str
    n_tests: int
    n_cycles: int
    participation: float  # chance a test runs in a cycle
    break_prob: float  # healthy -> broken, per cycle
    heal_prob: float  # broken -> healthy, per cycle
    burst_fail: float  # added failure probability while broken
    propensity_a: float  # Beta shape of the stable per-test failure rate
    propensity_b: float
    duration_log_mu: float = 1.0
    duration_log_sigma: float = 0.8
    start: datetime = datetime(2016, 1, 1)


PAINT_CONTROL_LIKE = SuiteProfile(
    name="paint-control-like", n_tests=60, n_cycles=220, participation=0.80,
    break_prob=0.03, heal_prob=0.15, burst_fail=0.50,
    propensity_a=0.40, propensity_b=2.8,
)

IOFROL_LIKE = SuiteProfile(
    name="iofrol-like", n_tests=140, n_cycles=130, participation=0.70,
    break_prob=0.025, heal_prob=0.18, burst_fail=0.45,
    propensity_a=0.25, propensity_b=3.0,
)

GSDTSR_LIKE = SuiteProfile(
    name="gsdtsr-like", n_tests=1200, n_cycles=250, participation=0.85,
    break_prob=0.012, heal_prob=0.20, burst_fail=0.50,
    propensity_a=0.12, propensity_b=6.0,
    duration_log_mu=0.3, duration_log_sigma=0.6,
)


def generate_history(profile: SuiteProfile, seed: int = 0) -> list[CycleLog]:
    rng = np.random.default_rng(seed)
    n = profile.n_tests
    base_duration = rng.lognormal(profile.duration_log_mu, profile.duration_log_sigma, n)
    propensity = rng.beta(profile.propensity_a, profile.propensity_b, n)
    broken = np.zeros(n, dtype=bool)
    names = {i: f"T{i}" for i in range(1, n + 1)}  # one name per test, shared by every cycle

    cycles = []
    for c in range(1, profile.n_cycles + 1):
        breaks = rng.uniform(size=n) < profile.break_prob
        heals = rng.uniform(size=n) < profile.heal_prob
        broken = np.where(broken, ~heals, breaks)

        executed = rng.uniform(size=n) < profile.participation
        if not executed.any():
            executed[rng.integers(n)] = True
        fail_prob = np.clip(propensity + np.where(broken, profile.burst_fail, 0.0), 0.0, 0.95)
        failing = executed & (rng.uniform(size=n) < fail_prob)
        durations = base_duration * rng.uniform(0.8, 1.2, size=n)
        day_us = to_epoch_us(profile.start + timedelta(days=c - 1))

        ran = np.flatnonzero(executed)
        test_ids = tuple((ran + 1).tolist())
        cycles.append(CycleLog(
            c,
            test_ids,
            NameView(names, test_ids),
            failing[ran],
            [round(d, 3) for d in durations[ran].tolist()],
            day_us + ran * 7_000_000,  # 7 s apart by 0-based test index
        ))
    return cycles


def sample_rows(cycles: list[CycleLog], fraction: float, seed: int = 0) -> list[CycleLog]:
    """Keep each row with probability ``fraction``; cycles left empty are
    dropped. Mimics working from a row-sampled slice of a huge log."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    out, table = [], {}
    for cycle in cycles:
        kept = np.flatnonzero(rng.uniform(size=len(cycle.test_ids)) < fraction)
        if len(kept):
            pick = kept.tolist()
            test_ids = tuple(cycle.test_ids[i] for i in pick)
            out.append(CycleLog(
                cycle.cycle_id,
                test_ids,
                shared_names(table, test_ids, [cycle.names[i] for i in pick]),
                cycle.failed[kept],
                cycle.duration_s[kept],
                cycle.last_run[kept],
            ))
    return out


def row_count(cycles: list[CycleLog]) -> int:
    return sum(len(c.test_ids) for c in cycles)


def failure_ratio(cycles: list[CycleLog]) -> float:
    rows = row_count(cycles)
    if rows == 0:
        return 0.0
    fails = sum(int(c.failed.sum()) for c in cycles)
    return fails / rows
