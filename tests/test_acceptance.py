"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Heavy artifacts (datasets, trained pipelines) are module-scoped fixtures
shared across criteria so the whole gate stays inside a desk-scale time
budget.
"""

from __future__ import annotations

import itertools
import random
import time
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from testprio.metrics import CycleOutcome, apfd, napfd
from testprio.net import (
    backward,
    forward,
    load_model,
    predict,
    save_model,
    xavier_init,
)
from testprio.pipeline import ExperimentPlan, history_length_study, run_pipeline
from testprio.prioritize import PrioritizedSuite, select_within_budget
from testprio.rocket import geometric_weights, linear_weights, priorities, priority
from testprio.simulate import (
    GSDTSR_LIKE,
    IOFROL_LIKE,
    PAINT_CONTROL_LIKE,
    generate_history,
    row_count,
    sample_rows,
)

from test_metrics import reference_apfd, reference_napfd
from test_net import finite_difference_grads, max_rel_err


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


@pytest.fixture(scope="module")
def paint_cycles():
    return generate_history(PAINT_CONTROL_LIKE, seed=42)


@pytest.fixture(scope="module")
def iofrol_cycles():
    return generate_history(IOFROL_LIKE, seed=11)


@pytest.fixture(scope="module")
def gsdtsr_slice():
    return sample_rows(generate_history(GSDTSR_LIKE, seed=5), 0.10, seed=1)


@pytest.fixture(scope="module")
def paint_run(paint_cycles):
    started = time.perf_counter()
    result = run_pipeline(ExperimentPlan(dataset=paint_cycles, seed=7, name="paint"))
    result.wall_s = time.perf_counter() - started
    return result


@pytest.fixture(scope="module")
def iofrol_run(iofrol_cycles):
    return run_pipeline(ExperimentPlan(dataset=iofrol_cycles, seed=7, name="iofrol"))


def test_criterion_1_gradient_correctness():
    """Analytic gradients vs central finite differences on 100+ random nets."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for trial in range(101):
        if trial < 5:
            dims = (14, 10, 20, 15, 1)
        else:
            depth = int(rng.integers(1, 4))
            dims = (int(rng.integers(1, 15)),
                    *(int(rng.integers(1, 21)) for _ in range(depth)), 1)
        net = xavier_init(dims, rng)
        X = rng.normal(size=(int(rng.integers(1, 9)), dims[0]))
        y = rng.uniform(size=X.shape[0])
        _, cache = forward(net, X)
        analytic = backward(net, cache, y)
        numeric = finite_difference_grads(net, X, y, h=1e-5)
        worst = max(worst, max_rel_err(analytic[0] + analytic[1],
                                       numeric[0] + numeric[1]))
        checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 60
    report(1, ok, f"{checked} nets, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 60


def test_criterion_2_rocket_formula_oracle():
    """Weighted-failure priority, scalar and vectorized (the form the replay
    runs), matches a brute-force loop on 10^4 windows."""
    started = time.perf_counter()
    rng = random.Random(99)
    worst = worst_vectorized = 0.0
    for _ in range(10_000):
        m = rng.randint(1, 25)
        scheme = (linear_weights(m) if rng.random() < 0.5
                  else geometric_weights(m, rng.uniform(0.05, 0.95)))
        window = [rng.choice([-1, 0, 1]) for _ in range(m)]
        expected = sum(w * max(s, 0) for s, w in zip(window, scheme.weights))
        worst = max(worst, abs(priority(window, scheme) - expected))
        vectorized = priorities(np.array([window], dtype=np.int8), scheme)[0]
        worst_vectorized = max(worst_vectorized, abs(vectorized - expected))
    elapsed = time.perf_counter() - started
    ok = max(worst, worst_vectorized) <= 1e-12
    report(2, ok, f"10000 windows, worst abs diff {worst:.2e} scalar, "
                  f"{worst_vectorized:.2e} vectorized, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert worst_vectorized <= 1e-12


def test_criterion_3_metric_oracle():
    """apfd/napfd vs exact-arithmetic scans over all orderings, n<=6, m<=3."""
    started = time.perf_counter()
    orderings = 0
    for n in range(1, 7):
        for m in range(0, min(3, n) + 1):
            base = [True] * m + [False] * (n - m)
            for perm in set(itertools.permutations(base)):
                orderings += 1
                got = apfd(CycleOutcome(perm, (1.0,) * n))
                want = reference_apfd(perm)
                if want is None:
                    assert got is None
                else:
                    assert abs(got - float(want)) <= 1e-12
                for k in range(n + 1):
                    got_n = napfd(
                        CycleOutcome(perm[:k], (1.0,) * k, total_known_faults=m))
                    want_n = reference_napfd(perm[:k], m)
                    if want_n is None:
                        assert got_n is None
                    else:
                        assert abs(got_n - float(want_n)) <= 1e-12
    elapsed = time.perf_counter() - started
    ok = elapsed < 60
    report(3, ok, f"{orderings} orderings with all prefixes, {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_4_end_to_end_learnability(paint_run):
    """Held-out MSE <= 1e-3, Spearman >= 0.9, R^2 >= 0.6 on post-cut cycles."""
    preds, labels = paint_run.holdout_pairs
    rho = float(spearmanr(preds, labels).statistic)
    mse = paint_run.holdout.mse
    r2 = paint_run.holdout.r_squared
    ok = mse <= 1e-3 and rho >= 0.9 and r2 >= 0.6 and paint_run.wall_s < 600
    report(4, ok, f"holdout mse {mse:.2e}, spearman {rho:.4f}, "
                  f"r2 {r2:.4f}, {paint_run.wall_s:.1f}s")
    assert mse <= 1e-3
    assert rho >= 0.9
    assert r2 >= 0.6
    assert paint_run.wall_s < 600


def _win_fraction(rows) -> tuple[int, int]:
    by_cycle: dict = {}
    for row in rows:
        by_cycle.setdefault(row["cycle"], {})[row["strategy"]] = row
    wins = total = 0
    for per_strategy in by_cycle.values():
        if per_strategy["deeporder"]["n_faults"] == 0:
            continue
        total += 1
        learned = per_strategy["deeporder"]["napfd"]
        chance = per_strategy["random"]["napfd"]
        if learned is not None and chance is not None and learned > chance:
            wins += 1
    return wins, total


def test_criterion_5_beats_random(paint_run, iofrol_run):
    """Learned ordering beats the 30-rep random mean in >= 70% of fault cycles."""
    details = []
    ok = True
    for name, result in (("paint", paint_run), ("iofrol", iofrol_run)):
        wins, total = _win_fraction(result.per_cycle)
        frac = wins / total
        agg = {a["strategy"]: a for a in result.aggregates}
        details.append(
            f"{name}: {wins}/{total} ({frac:.0%}), "
            f"apfd {agg['deeporder']['mean_apfd']:.3f}, "
            f"napfd {agg['deeporder']['mean_napfd']:.3f} "
            f"vs random {agg['random']['mean_napfd']:.3f}"
        )
        ok = ok and frac >= 0.70
    report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_history_length_direction():
    """Soft check: the 10-cycle window should beat the 4-cycle window on at
    least 2 of the 3 suite profiles. A miss warns instead of failing."""
    outcomes = []
    for profile, seed in ((PAINT_CONTROL_LIKE, 42), (IOFROL_LIKE, 11), (GSDTSR_LIKE, 5)):
        cycles = generate_history(profile, seed=seed)
        study = history_length_study(
            ExperimentPlan(dataset=cycles, seed=3, name=profile.name,
                           augment_enabled=False),
            (4, 10),
        )
        outcomes.append((profile.name, study.rows[0]["mean_apfd"],
                         study.rows[1]["mean_apfd"]))
    favorable = sum(1 for _, w4, w10 in outcomes if w10 >= w4)
    detail = "; ".join(f"{name}: w4 {w4:.4f} -> w10 {w10:.4f}"
                       for name, w4, w10 in outcomes)
    ok = favorable >= 2
    report(6, ok, f"{favorable}/3 favorable ({detail})")
    if not ok:
        warnings.warn(
            f"longer history did not help on {3 - favorable} of 3 datasets: {detail}",
            stacklevel=1,
        )


def test_criterion_7_budget_safety_and_monotonicity():
    """10^5 randomized selections: budget never exceeded, used time monotone."""
    started = time.perf_counter()
    rng = random.Random(31337)
    calls = 0
    for _ in range(50_000):
        n = rng.randint(1, 12)
        durations = [rng.uniform(0.01, 10.0) for _ in range(n)]
        suite = PrioritizedSuite(np.array(list(range(n)), dtype=object),
                                 np.array([1.0 - i * 0.01 for i in range(n)]),
                                 np.array(durations), np.arange(n))
        total = sum(durations)
        b1 = rng.uniform(0.0, total * 1.1)
        b2 = b1 + rng.uniform(0.0, total * 0.5)
        r1 = select_within_budget(suite, b1)
        r2 = select_within_budget(suite, b2)
        calls += 2
        assert r1.used_s <= b1 + 1e-12
        assert r2.used_s <= b2 + 1e-12
        assert r2.used_s >= r1.used_s - 1e-12
    elapsed = time.perf_counter() - started
    ok = elapsed < 120
    report(7, ok, f"{calls} calls, safety and monotonicity held, {elapsed:.1f}s")
    assert calls == 100_000
    assert elapsed < 120


def test_criterion_8_model_round_trip(paint_run, tmp_path):
    """save -> load gives bit-identical predictions on 100 random inputs."""
    model = paint_run.model
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    X = np.random.default_rng(71).uniform(-2.0, 2.0, (100, model.net.input_dim))
    identical = np.array_equal(predict(model.net, X), predict(loaded.net, X))
    report(8, identical, "100/100 predictions bit-identical")
    assert identical


def test_criterion_9_timing_structure(paint_cycles, gsdtsr_slice, paint_run, iofrol_run):
    """TT >= PT + RT everywhere; prioritization time grows sub-linearly with
    dataset rows between the small suite and the 10%-sampled large slice."""
    for result in (paint_run, iofrol_run):
        assert result.timings["TT"] >= result.timings["PT"] + result.timings["RT"]

    def timed_rt(cycles, name):
        cut = cycles[-1].cycle_id - 40  # same evaluation horizon for both
        best = float("inf")
        for _ in range(2):
            run = run_pipeline(ExperimentPlan(
                dataset=cycles, seed=7, name=name, cut_cycle=cut,
                strategies=("deeporder",)))
            assert run.timings["TT"] >= run.timings["PT"] + run.timings["RT"]
            best = min(best, run.timings["RT"])
        return best

    rt_small = timed_rt(paint_cycles, "paint")
    rt_large = timed_rt(gsdtsr_slice, "gslice")
    rows_ratio = row_count(gsdtsr_slice) / row_count(paint_cycles)
    rt_ratio = rt_large / rt_small
    ok = rt_ratio <= rows_ratio
    report(9, ok, f"rows x{rows_ratio:.2f} but RT x{rt_ratio:.2f} "
                  f"({rt_small * 1e3:.1f}ms -> {rt_large * 1e3:.1f}ms); TT >= PT + RT held")
    assert rt_ratio <= rows_ratio
