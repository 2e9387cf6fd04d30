from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from datetime import datetime
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest

from testprio import pipeline
from testprio.augment import AugmentConfig
from testprio.config import LookupLog, get_bool, get_float, load_config, parse_config
from testprio.errors import (
    InputError,
    InsufficientHistory,
    MalformedRow,
    MissingPriorityColumn,
    NegativeDuration,
    NonFinitePriority,
)
from testprio.history import (
    NEVER_RAN,
    ExecutionRecord,
    NameView,
    build_status_matrix,
    emit_csv,
    ingest_csv,
    to_epoch_us,
)
from testprio.features import bounds_from_matrix, feature_matrix
from testprio.net import TrainConfig, predict
from testprio.pipeline import (
    ALL_STRATEGIES,
    ExperimentPlan,
    ReplayState,
    _evaluate_orders,
    _evaluate_suite,
    compare_against_ground_truth,
    history_length_study,
    plan_from_config,
    run_pipeline,
    train_model,
    training_vectors,
)
from testprio import history, pipeline
from testprio.prioritize import PrioritizedSuite
from testprio.rocket import label_dataset, linear_weights, priorities
from testprio import simulate
from testprio.simulate import SuiteProfile, generate_history

from conftest import emit_with_calc_prio
from test_history import HEADER, random_cycles

TINY = SuiteProfile(
    name="tiny", n_tests=15, n_cycles=40, participation=0.8,
    break_prob=0.05, heal_prob=0.2, burst_fail=0.5,
    propensity_a=0.4, propensity_b=2.8,
)

FAST_TRAIN = TrainConfig(epochs_max=60, mse_stop=1e-3, batch_size=32, rng_seed=0)


@pytest.fixture(scope="module")
def tiny_cycles():
    return generate_history(TINY, seed=100)


def tiny_plan(cycles, **kwargs):
    defaults = dict(dataset=cycles, seed=5, name="tiny", train_config=FAST_TRAIN,
                    random_repeats=5)
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


@pytest.fixture(scope="module")
def tiny_result(tiny_cycles):
    return run_pipeline(tiny_plan(tiny_cycles))


def per_record_status_matrix(cycles, window_len, as_of_cycle, include_tests):
    """build_status_matrix as it was before it became a ReplayState snapshot:
    one pass over every row, written out as the reference."""
    past = [c for c in cycles if c.cycle_id <= as_of_cycle]
    order, index = [], {}
    for cycle in past:
        for test_id in cycle.test_ids:
            if test_id not in index:
                index[test_id] = len(order)
                order.append(test_id)
    for tid in include_tests:
        if tid not in index:
            index[tid] = len(order)
            order.append(tid)
    n = len(order)
    statuses = np.full((n, window_len), -1, dtype=np.int8)
    dur_sum, dur_count = np.zeros(n), np.zeros(n)
    last_run = [None] * n
    window_lo = as_of_cycle - window_len + 1
    for cycle in past:
        slot = cycle.cycle_id - window_lo
        for test_id, failed, duration, stamp in zip(cycle.test_ids, cycle.failed.tolist(),
                                                    cycle.duration_s.tolist(),
                                                    cycle.last_run.tolist()):
            i = index[test_id]
            if slot >= 0:
                statuses[i, slot] = 1 if failed else 0
            dur_sum[i] += duration
            dur_count[i] += 1
            if last_run[i] is None or stamp > last_run[i]:
                last_run[i] = stamp
    mean = np.divide(dur_sum, dur_count, out=np.zeros(n), where=dur_count > 0)
    last_run = np.array([NEVER_RAN if us is None else us for us in last_run], dtype=np.int64)
    return tuple(order), statuses, mean, last_run


class TestReplayState:
    def test_matches_batch_matrix_builder(self):
        """The incremental state and its snapshot, build_status_matrix, equal
        a per-record rebuild at any as-of point, bit for bit."""
        rng = random.Random(55)
        for trial in range(40):
            cycles = random_cycles(rng)
            if trial % 2:  # last-run stamps out of cycle order, with ties
                cycles = [replace(c, last_run=[
                    to_epoch_us(datetime(2016, 1, rng.randint(1, 4))) for _ in c.test_ids])
                    for c in cycles]
            ids = sorted({t for c in cycles for t in c.test_ids})
            extra = ids + [99, 98]
            window = rng.randint(1, 8)
            as_of = rng.choice([c.cycle_id for c in cycles]) + rng.choice([0, 0, 3])
            order, statuses, mean, last_run = per_record_status_matrix(
                cycles, window, as_of, extra)
            seen = len(per_record_status_matrix(cycles, window, as_of, ())[0])
            snapshot = build_status_matrix(cycles, window, as_of_cycle=as_of)
            assert snapshot.test_ids == order[:seen]
            assert np.array_equal(snapshot.statuses, statuses[:seen])
            assert np.array_equal(snapshot.mean_duration_s, mean[:seen])
            assert np.array_equal(snapshot.last_run, last_run[:seen])

            # the ids of later cycles and 99, 98 are unseen: matrix_for pads them
            state = ReplayState.from_cycles(cycles, window, as_of)
            incremental = state.matrix_for(order)
            assert tuple(state.index) == order
            assert incremental.test_ids == order
            assert np.array_equal(incremental.statuses, statuses)
            assert np.array_equal(incremental.mean_duration_s, mean)
            assert np.array_equal(incremental.last_run, last_run)

    def test_cannot_move_backwards(self):
        state = ReplayState(4)
        state.advance_to(5)
        with pytest.raises(ValueError):
            state.advance_to(3)


def test_training_vectors_are_each_cycles_labeled_rows_in_order():
    rng = random.Random(31)
    for _ in range(10):
        cycles = random_cycles(rng)
        bounds = bounds_from_matrix(build_status_matrix(cycles, 4))
        pooled = training_vectors(cycles, 4, linear_weights(4), bounds)
        per_cycle = [label_dataset(ReplayState.from_cycles(cycles, 4, c.cycle_id)
                                   .matrix_for(c.test_ids), linear_weights(4), bounds)
                     for c in cycles]
        assert pooled.test_ids == tuple(t for labeled in per_cycle for t in labeled.test_ids)
        assert np.array_equal(pooled.X, np.concatenate([labeled.X for labeled in per_cycle]))
        assert np.array_equal(pooled.labels,
                              np.concatenate([labeled.labels for labeled in per_cycle]))


@pytest.fixture
def records_built(monkeypatch):
    """The test ids of the ExecutionRecords built while a test runs."""
    built = []
    init = ExecutionRecord.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.test_id)

    monkeypatch.setattr(ExecutionRecord, "__init__", counting)
    return built


def test_ingest_and_replay_build_no_execution_records(tmp_path, records_built):
    """The columnar history path never materializes per-row records."""
    path = tmp_path / "log.csv"
    emit_csv(generate_history(TINY, seed=3), path)
    cycles = ingest_csv(path)
    result = run_pipeline(tiny_plan(cycles))
    assert result.per_cycle
    assert records_built == []


def test_simulating_sampling_and_the_row_walk_build_no_execution_records(
        tmp_path, monkeypatch, records_built):
    """Nor do the simulator and the row-by-row ingest walk."""
    cycles = generate_history(TINY, seed=3)
    assert records_built == [], "generate_history"
    assert simulate.sample_rows(cycles, 0.5, seed=1)
    assert records_built == [], "sample_rows"
    path = tmp_path / "log.csv"
    emit_csv(cycles, path)
    # csv reads a '"' inside an unquoted field as a plain character; the
    # bulk reader leaves such a log to the row walk.
    path.write_text(path.read_text().replace(",T1,", ',T"1,'), newline="")
    monkeypatch.setattr(history, "_ingest_rows", Mock(wraps=history._ingest_rows))
    walked = ingest_csv(path)
    assert history._ingest_rows.call_count == 1
    assert [n for c in walked for n in c.names] == [
        'T"1' if n == "T1" else n for c in cycles for n in c.names]
    assert records_built == [], "the row walk"


def test_simulated_sampled_and_walked_logs_hold_each_name_once(tmp_path):
    """The simulator, sample_rows and the row-by-row ingest walk hand every
    cycle a NameView over one table of names per log, as the bulk ingest
    does, so a log holds one name object per test, not one per row."""
    cycles = generate_history(TINY, seed=3)
    sampled = simulate.sample_rows(cycles, 0.5, seed=1)
    path = tmp_path / "log.csv"
    emit_csv(cycles, path)
    path.write_text(path.read_text().replace(",T1,", ',T"1,'), newline="")  # takes the row walk
    walked = ingest_csv(path)
    for log in (cycles, sampled, walked):
        assert all(isinstance(c.names, NameView) for c in log)
        assert len({id(c.names.table) for c in log}) == 1
        names = [n for c in log for n in c.names]
        assert len(names) == simulate.row_count(log)
        assert len({id(n) for n in names}) == len(set(names))
    assert [(t, n) for c in sampled for t, n in zip(c.test_ids, c.names)] == [
        (t, f"T{t}") for c in sampled for t in c.test_ids]


class TestRunPipeline:
    def test_report_completeness(self, tiny_cycles, tiny_result):
        """Every post-cut cycle appears exactly once per strategy."""
        post_cut = [c.cycle_id for c in tiny_cycles if c.cycle_id > tiny_result.cut_cycle]
        seen = {}
        for row in tiny_result.per_cycle:
            key = (row["cycle"], row["strategy"])
            assert key not in seen
            seen[key] = row
        assert {c for c, _ in seen} == set(post_cut)
        assert {s for _, s in seen} == set(ALL_STRATEGIES)

    def test_deterministic_reports(self, tiny_cycles, tiny_result):
        again = run_pipeline(tiny_plan(tiny_cycles))
        assert again.per_cycle == tiny_result.per_cycle
        assert again.aggregates == tiny_result.aggregates

    def test_replay_causality_under_future_poisoning(self, tiny_cycles, tiny_result):
        """Corrupting the final cycle cannot change earlier cycles' rows."""
        last = tiny_cycles[-1]
        poisoned = [*tiny_cycles[:-1], replace(last, failed=~last.failed)]
        other = run_pipeline(tiny_plan(poisoned))
        early = [r for r in tiny_result.per_cycle if r["cycle"] != last.cycle_id]
        early_poisoned = [r for r in other.per_cycle if r["cycle"] != last.cycle_id]
        assert early == early_poisoned

    def test_budget_safety_in_reports(self, tiny_result):
        for row in tiny_result.per_cycle:
            assert row["used_s"] <= row["budget_s"] + 1e-9
            assert row["actual_s"] <= row["budget_s"]

    def test_phase_accounting(self, tiny_result):
        t = tiny_result.timings
        assert t["TT"] >= t["PT"] + t["RT"]
        assert t["RT"] > 0 and t["PT"] > 0

    def test_rocket_only_skips_training(self, tiny_cycles):
        result = run_pipeline(tiny_plan(tiny_cycles, strategies=("rocket",)))
        assert result.model is None
        assert result.training is None
        assert result.holdout is None
        assert {r["strategy"] for r in result.per_cycle} == {"rocket"}

    def test_retrain_every(self, tiny_cycles):
        result = run_pipeline(tiny_plan(tiny_cycles, strategies=("deeporder",),
                                        retrain_every=10))
        assert result.model is not None
        again = run_pipeline(tiny_plan(tiny_cycles, strategies=("deeporder",),
                                       retrain_every=10))
        assert again.per_cycle == result.per_cycle

    def test_replay_goes_on_from_the_state_training_folded(self, tiny_cycles):
        """train_model returns the state its training set was folded in,
        equal to ReplayState.from_cycles; the replay advances it to the cut,
        and a retrain keeps it. So rocket scores each cycle as in a
        rocket-only replay, which folds the pre-cut cycles on its own."""
        model, training, state = train_model(tiny_cycles[:30], tiny_plan(tiny_cycles))
        folded = ReplayState.from_cycles(tiny_cycles[:30], 10, tiny_cycles[29].cycle_id)
        assert state.index == folded.index and state.cycle == folded.cycle
        for name in ("statuses", "dur_sum", "dur_count", "last_run"):
            assert np.array_equal(getattr(state, name), getattr(folded, name))
        alone = run_pipeline(tiny_plan(tiny_cycles, strategies=("rocket",))).per_cycle
        for retrain_every in (None, 4):
            both = run_pipeline(tiny_plan(tiny_cycles, strategies=("deeporder", "rocket"),
                                          retrain_every=retrain_every))
            assert [r for r in both.per_cycle if r["strategy"] == "rocket"] == alone

    def test_unknown_strategy_rejected(self, tiny_cycles):
        with pytest.raises(InputError):
            run_pipeline(tiny_plan(tiny_cycles, strategies=("bogus",)))

    @pytest.mark.parametrize("window_len", [0, -2])
    def test_window_below_one_rejected(self, tiny_cycles, window_len):
        with pytest.raises(InputError, match=f"window length must be >= 1, got {window_len}"):
            run_pipeline(tiny_plan(tiny_cycles, window_len=window_len))

    def test_explicit_cut_validation(self, tiny_cycles):
        with pytest.raises(InputError):
            run_pipeline(tiny_plan(tiny_cycles, cut_cycle=40))  # nothing after
        with pytest.raises(InputError):
            run_pipeline(tiny_plan(tiny_cycles, cut_cycle=0))

    def test_artifacts_written(self, tiny_cycles, tmp_path):
        result = run_pipeline(tiny_plan(tiny_cycles, out_dir=tmp_path / "run"))
        for key in ("per_cycle", "per_cycle_txt", "aggregate", "aggregate_txt",
                    "timings", "model", "training_log", "holdout"):
            assert result.paths[key].exists(), key
        timings = result.paths["timings"].read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in timings] == ["phase", "PT", "RT", "TT"]

    def test_untreated_order_alias(self, tiny_cycles):
        """The alias is normalized in the result's plan, not in the caller's."""
        plan = tiny_plan(tiny_cycles, strategies=("untreated-order",))
        result = run_pipeline(plan)
        assert {r["strategy"] for r in result.per_cycle} == {"untreated"}
        assert result.plan.strategies == ("untreated",)
        assert plan.strategies == ("untreated-order",)

    def test_augmentation_kicks_in_when_imbalanced(self):
        calm = SuiteProfile(name="calm", n_tests=12, n_cycles=40, participation=0.9,
                            break_prob=0.004, heal_prob=0.6, burst_fail=0.9,
                            propensity_a=0.05, propensity_b=30.0)
        cycles = generate_history(calm, seed=3)
        plan = tiny_plan(cycles, strategies=("deeporder",),
                         augment_config=AugmentConfig(target_fail_ratio=0.05, rng_seed=1))
        result = run_pipeline(plan)  # smoke: augmented training still works
        assert result.training is not None


class TestHistoryLengthStudy:
    def test_insufficient_history(self, tiny_cycles):
        with pytest.raises(InsufficientHistory):
            history_length_study(tiny_plan(tiny_cycles[:8]), (4, 10))

    def test_window_below_one_rejected(self, tiny_cycles):
        with pytest.raises(InputError, match="window length must be >= 1, got 0"):
            history_length_study(tiny_plan(tiny_cycles), (0, 10))

    def test_identical_windows_zero_delta(self, tiny_cycles):
        study = history_length_study(tiny_plan(tiny_cycles), (6, 6))
        assert study.delta_apfd == 0.0
        assert study.delta_napfd == 0.0

    def test_two_windows_reported(self, tiny_cycles, tmp_path):
        study = history_length_study(tiny_plan(tiny_cycles, out_dir=tmp_path), (4, 10))
        assert [r["window"] for r in study.rows] == [4, 10]
        assert (tmp_path / "history_study.csv").exists()
        for row in study.rows:
            assert row["mean_apfd"] is not None


class TestGroundTruthComparison:
    def make_prio_log(self, cycles, path, epsilon=0.0):
        """The log with a CalcPrio column holding the rule's priorities plus
        ``epsilon``. A test's value is set in its last run, or, for every
        third test, in the run before, with a blank cell after it. Its earlier
        runs hold decoys or empty cells, and the cycles are written in a
        shuffled order, so file order does not pick the value that counts."""
        matrix = build_status_matrix(cycles, 10)
        prios = priorities(matrix.statuses, linear_weights(10))
        lookup = dict(zip(matrix.test_ids, prios.tolist()))
        runs: dict = {}  # test id -> the cycles it ran in
        for cycle in cycles:
            for test_id in cycle.test_ids:
                runs.setdefault(test_id, []).append(cycle.cycle_id)

        def cell(cycle_id, test_id):
            ran = runs[test_id]
            setting = ran[-2] if test_id % 3 == 0 and len(ran) > 1 else ran[-1]
            if cycle_id == setting:
                return repr(lookup[test_id] + epsilon)
            if cycle_id > setting:
                return " "
            return "" if cycle_id % 2 else repr(lookup[test_id] + 0.5)

        return emit_with_calc_prio(random.Random(3).sample(cycles, len(cycles)), path, cell)

    def test_exact_match_gives_zero_difference(self, tiny_cycles, tmp_path):
        log = self.make_prio_log(tiny_cycles, tmp_path / "prio.csv")
        report = compare_against_ground_truth(tiny_plan(log))
        assert report.rocket_mean == pytest.approx(0.0, abs=1e-12)
        assert report.rocket_max == pytest.approx(0.0, abs=1e-12)
        assert {r["test_id"] for r in report.rows} == {t for c in tiny_cycles for t in c.test_ids}

    def test_known_perturbation_recovered(self, tiny_cycles, tmp_path):
        log = self.make_prio_log(tiny_cycles, tmp_path / "prio.csv", epsilon=0.01)
        report = compare_against_ground_truth(tiny_plan(log))
        assert report.rocket_mean == pytest.approx(0.01, abs=1e-9)
        assert report.rocket_max == pytest.approx(0.01, abs=1e-9)

    def test_missing_column(self, tiny_cycles):
        """An in-memory dataset carries no priorities."""
        with pytest.raises(MissingPriorityColumn):
            compare_against_ground_truth(tiny_plan(tiny_cycles))

    @pytest.mark.parametrize("body, error, message", [
        ("1,T1,1.0,2016-01-02,0,1,0.5\n2,T2,1.0,2016-01-02,0,1, high \n",
         MalformedRow, "row 3: bad priority 'high'"),
        ("1,T1,1.0,2016-01-02,0,1, nan\n2,T2,1.0,2016-01-02,0,1,0.5\n",
         MalformedRow, "row 2: priority must be finite, got 'nan'"),
        ("1,T1,1.0,2016-01-02,0,1,0.5\n2,T2,1.0,2016-01-02,0,1,-inf\n",
         MalformedRow, "row 3: priority must be finite, got '-inf'"),
        # The log is checked before its priorities: the bad duration on row 3
        # is reported, not the bad priority on row 2.
        ("1,T1,1.0,2016-01-02,0,1,high\n2,T2,-1.0,2016-01-02,0,1,0.5\n",
         NegativeDuration, "row 3: duration must be >= 0"),
    ], ids=["bad-priority", "nan", "inf", "log-error-first"])
    def test_bad_priority_names_its_row(self, tmp_path, body, error, message):
        log = tmp_path / "prio.csv"
        log.write_text(HEADER.replace("\n", ",CalcPrio\n") + body, encoding="utf-8")
        with pytest.raises(error, match=message):
            compare_against_ground_truth(tiny_plan(log))

    def test_model_comparison_included(self, tiny_cycles, tmp_path):
        model, _, _ = train_model(tiny_cycles[:30], tiny_plan(tiny_cycles))
        log = self.make_prio_log(tiny_cycles, tmp_path / "prio.csv")
        report = compare_against_ground_truth(tiny_plan(log), model=model)
        assert report.model_mean is not None
        assert 0.0 <= report.model_mean <= 1.0


class TestConfig:
    def test_parse_basics(self):
        cfg = parse_config("# comment\nrocket.weights = geometric(0.8)\n\n"
                           "train.learning_rate=0.01  # inline\n")
        assert cfg == {"rocket.weights": "geometric(0.8)",
                       "train.learning_rate": "0.01"}

    def test_parse_errors(self):
        with pytest.raises(InputError):
            parse_config("just some words\n")
        with pytest.raises(InputError):
            parse_config("= value\n")

    def test_typed_getters(self):
        cfg = {"a": "yes", "b": "0.5", "c": "nope"}
        assert get_bool(cfg, "a", False) is True
        assert get_float(cfg, "b", 1.0) == 0.5
        assert get_bool(cfg, "missing", True) is True
        with pytest.raises(InputError):
            get_bool(cfg, "c", False)
        with pytest.raises(InputError):
            get_float(cfg, "a", 0.0)

    def test_plan_from_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "rocket.weights = geometric(0.7)\n"
            "replay.budget_fraction = 0.25\n"
            "replay.strategies = rocket, untreated\n"
            "train.batch_size = 64\n"
            "augment.enabled = false\n"
            "seed = 9\n"
        )
        plan = plan_from_config(load_config(path))
        assert plan.weights == "geometric(0.7)"
        assert plan.budget_fraction == 0.25
        assert plan.strategies == ("rocket", "untreated")
        assert plan.train_config.batch_size == 64
        assert plan.augment_enabled is False
        assert plan.seed == 9

    def test_master_seed_reaches_training_and_augmentation(self, tiny_cycles):
        plan = plan_from_config({}, seed=7)
        assert plan.train_config.rng_seed == 7
        assert plan.augment_config.rng_seed == 7
        from_config, _, _ = train_model(tiny_cycles[:30], plan)
        direct, _, _ = train_model(tiny_cycles[:30], ExperimentPlan(dataset=None, seed=7))
        for a, b in zip(from_config.net.weights + from_config.net.biases,
                        direct.net.weights + direct.net.biases):
            assert np.array_equal(a, b)
        assert from_config.rng_seed == 7

    def test_explicit_sub_seeds_win_over_the_master_seed(self):
        cfg = parse_config("seed = 7\ntrain.rng_seed = 3\naugment.rng_seed = 4\n")
        plan = plan_from_config(cfg)
        assert (plan.seed, plan.train_config.rng_seed, plan.augment_config.rng_seed) == (7, 3, 4)
        plan = plan_from_config(parse_config("seed = 7\n"), seed=5)
        assert (plan.seed, plan.train_config.rng_seed, plan.augment_config.rng_seed) == (5, 5, 5)

    def test_keys_nothing_reads_are_rejected_by_name(self):
        cfg = parse_config("seed = 7\ntrain.learnig_rate = 0.5\nreplay.budget = 0.1\n")
        with pytest.raises(InputError,
                           match="^unknown config key 'replay.budget', 'train.learnig_rate'$"):
            plan_from_config(cfg)

    def test_an_empty_config_builds_the_dataclass_defaults(self):
        plan = plan_from_config({})
        assert plan.train_config == TrainConfig(rng_seed=plan.seed)
        assert plan.augment_config == AugmentConfig(rng_seed=plan.seed)

    def test_readme_lists_every_config_key(self, monkeypatch):
        """README's Config keys block is a valid config that sets every key
        plan_from_config reads."""
        cfg = readme_config()
        lookups = []

        class Spy(LookupLog):
            def __init__(self, cfg):
                super().__init__(cfg)
                lookups.append(self)

        monkeypatch.setattr(pipeline, "LookupLog", Spy)
        plan_from_config(cfg)
        assert lookups[0].looked_up == cfg.keys()

    def test_readme_config_block_holds_the_defaults(self):
        """README lists each key at its default, replay.dataset aside."""
        cfg = readme_config()
        del cfg["replay.dataset"]
        assert plan_from_config(cfg) == plan_from_config({})


def readme_config() -> dict[str, str]:
    """The config in README's Config keys block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return parse_config(readme.split("## Config keys", 1)[1].split("```")[1])


# sha256 of the per_cycle rows of the strategies that do not train, serialized
# as the replay benchmark serializes them. None of them depends on BLAS, so the
# digests hold on any machine. A change that means to move them updates the
# digest here and says why.
PINNED_PER_CYCLE = [
    ("PAINT_CONTROL_LIKE", 42, "ab9ed512ce761c2e88f4a7ca4ff554edb472990c0032d8f06394cefa98f5a552"),
    ("IOFROL_LIKE", 11, "3c2a99ff8c1c86bd22263bf2a03bda6008499cc8eccd4d6777d7b1b97f2d5ef3"),
]


@pytest.fixture(scope="module", params=PINNED_PER_CYCLE, ids=[p for p, _, _ in PINNED_PER_CYCLE])
def untrained_rows(request):
    profile, seed, digest = request.param
    cycles = generate_history(getattr(simulate, profile), seed=seed)
    plan = ExperimentPlan(dataset=cycles, strategies=("rocket", "random", "untreated"))
    return run_pipeline(plan).per_cycle, digest


def test_untrained_strategy_rows_are_pinned(untrained_rows):
    rows, digest = untrained_rows
    text = json.dumps(rows, sort_keys=True, default=repr)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("make_log,digest", [
    (lambda: generate_history(simulate.PAINT_CONTROL_LIKE, 42),
     "003c98b19e61287cf52d36f3f701ab87f3fbc790abb1359f1697fdd8067dd879"),
    (lambda: generate_history(simulate.GSDTSR_LIKE, 5),
     "03f9b52bf38fddd8df8cd5ca60c41c805fc9805fe98ff9d36d2f7cda08b3714b"),
    (lambda: simulate.sample_rows(generate_history(simulate.GSDTSR_LIKE, 5), 0.1, seed=5),
     "5544bc679b5077e264594023ef1a015c06bb12483d2ef385f0e5cdffe54c4910"),
], ids=["paint-42", "gsdtsr-5", "gsdtsr-5-sampled"])
def test_simulated_logs_are_pinned(tmp_path, make_log, digest):
    """sha256 of the emitted CSV of three simulated logs. Like the per_cycle
    digests above, a change that means to move them says why."""
    emit_csv(make_log(), tmp_path / "log.csv")
    assert hashlib.sha256((tmp_path / "log.csv").read_bytes()).hexdigest() == digest


def test_no_replayed_row_runs_past_its_budget(untrained_rows):
    """The selection charges estimated seconds, so in actual seconds it can
    overrun the budget; the tests the deadline stops must not be scored."""
    rows, _ = untrained_rows
    assert all(row["actual_s"] <= row["budget_s"] for row in rows)
    assert all(row["used_s"] <= row["budget_s"] for row in rows)


def reference_score(order, failed, actual, est, n_faults, budget_s):
    """One ordering scored the way the replay scored it when every test was
    an object: plain lists, a sequential budget walk and the metric
    formulas written out, plus the deadline: the selected tests run in
    actual seconds, and NAPFD counts only those that finished within the
    budget. ``order`` lists positions into the per-test lists. The array
    scorers must equal this bit for bit."""
    fail = [failed[i] for i in order]
    n, m = len(order), sum(fail)
    positions = [k for k, f in enumerate(fail, start=1) if f]
    elapsed, at_faults = 0.0, []
    for i in order:
        elapsed += actual[i]
        if failed[i]:
            at_faults.append(elapsed)
    remaining, selected = budget_s, []
    for i in order:
        if est[i] <= remaining:
            selected.append(i)
            remaining -= est[i]
    elapsed, ran, actual_s = 0.0, [], 0.0
    for i in selected:  # in actual seconds, until the deadline
        elapsed += actual[i]
        if elapsed > budget_s:
            break
        ran.append(i)
        actual_s = elapsed
    hits = [k for k, i in enumerate(ran, start=1) if failed[i]]
    if not n_faults:
        napfd = None
    elif not ran:
        napfd = 0.0
    else:
        p = len(hits) / n_faults
        napfd = p - sum(hits) / (len(ran) * n_faults) + p / (2 * len(ran))
    return {
        "apfd": None if n == 0 or m == 0 else 1.0 - sum(positions) / (n * m) + 1.0 / (2 * n),
        "napfd": napfd,
        "ft_s": at_faults[0] if at_faults else None,
        "lt_s": at_faults[-1] if at_faults else None,
        "at_s": float(np.mean(at_faults)) if at_faults else None,
        "n_selected": len(ran),
        "detected": len(hits),
        "used_s": budget_s - remaining,
        "actual_s": actual_s,
    }


def test_scoring_orders_as_a_matrix_matches_scoring_each_order():
    """The random strategy scores its repetitions as one matrix, the other
    strategies score one ranked suite each; every row must equal the
    reference scorer bit for bit, budget walk included. Durations sit on a
    coarse grid, with zeros for unseen tests, so budgets land exactly on
    partial sums; cases include no tests, one repetition and cycles of
    more than 1,000 tests."""
    rng = random.Random(31)
    nprng = np.random.default_rng(31)
    grid = [0.0, 0.1, 0.2, 0.3, 1.0, 2.5]
    for trial in range(300):
        n = rng.randint(1000, 1100) if trial % 60 == 0 else rng.randint(0, 25)
        failed = [rng.random() < 0.3 for _ in range(n)]
        actual = [rng.choice(grid + [rng.random()]) for _ in range(n)]
        est = [rng.choice(grid + [rng.random()]) for _ in range(n)]
        repeats = rng.choice([1, rng.randint(1, 5)])
        perms = np.array([nprng.permutation(n) for _ in range(repeats)]).reshape(repeats, n)
        partial = 0.0  # a budget that is a partial sum of the first ordering
        for i in perms[0][:rng.randint(0, n)]:
            partial += est[i]
        budget = rng.choice([0.0, 0.3, partial, 0.5 * sum(actual), sum(est), 3 * rng.random()])
        n_faults = sum(failed)
        arrays = (np.array(failed, dtype=bool).reshape(n), np.array(actual).reshape(n))
        got = _evaluate_orders(perms, *arrays, np.array(est).reshape(n), n_faults, budget)
        for r, perm in enumerate(perms):
            expected = reference_score(perm.tolist(), failed, actual, est, n_faults, budget)
            assert {key: values[r] for key, values in got.items()} == expected
            suite = PrioritizedSuite(
                np.arange(n, dtype=object)[perm], np.zeros(n), np.array(est)[perm].reshape(n),
                perm)
            assert _evaluate_suite(suite, *arrays, n_faults, budget) == expected


def test_replayed_rows_equal_the_reference_scorer(tiny_cycles, tiny_result):
    """Each strategy's row of every replayed cycle equals the reference
    scorer run on that strategy's ordering: the list.sort order of its
    scores, or the seeded permutations for random, averaged."""
    plan = tiny_plan(tiny_cycles)
    model = tiny_result.model
    rows = {(r["cycle"], r["strategy"]): r for r in tiny_result.per_cycle}
    for cycle in tiny_cycles:
        if cycle.cycle_id <= tiny_result.cut_cycle:
            continue
        ids = cycle.test_ids
        matrix = ReplayState.from_cycles(tiny_cycles, plan.window_len,
                                         cycle.cycle_id - 1).matrix_for(ids)
        failed, actual = cycle.failed.tolist(), cycle.duration_s.tolist()
        est = matrix.mean_duration_s.tolist()
        args = (failed, actual, est, sum(failed), plan.budget_fraction * sum(actual))
        scores = {
            "deeporder": np.clip(predict(model.net, feature_matrix(
                matrix, bounds=model.bounds, expected_window=plan.window_len)), 0.0, 1.0),
            "rocket": priorities(matrix.statuses, linear_weights(plan.window_len)),
            "untreated": np.zeros(len(ids)),
        }
        for strategy, s in scores.items():
            order = sorted(range(len(ids)), key=lambda i: -s[i])
            want = reference_score(order, *args)
            got = rows[(cycle.cycle_id, strategy)]
            assert {key: got[key] for key in want} == want, strategy
        reps = [reference_score(
            np.random.default_rng([plan.seed, cycle.cycle_id, rep]).permutation(len(ids)).tolist(),
            *args) for rep in range(plan.random_repeats)]
        got = rows[(cycle.cycle_id, "random")]
        for key in reps[0]:
            values = [rep[key] for rep in reps if rep[key] is not None]
            assert got[key] == (float(np.mean(values)) if values else None), key


def test_a_non_finite_prediction_stops_the_replay_naming_the_test(tiny_cycles, monkeypatch):
    plan = tiny_plan(tiny_cycles, strategies=("deeporder",))
    first = next(c for c in tiny_cycles if c.cycle_id > pipeline._resolve_cut(
        plan, [c.cycle_id for c in tiny_cycles]))
    real_predict = pipeline.predict

    def nan_in_row_2(net, X):
        out = real_predict(net, X).copy()
        out[2] = np.nan
        return out

    monkeypatch.setattr(pipeline, "predict", nan_in_row_2)
    with pytest.raises(NonFinitePriority) as err:
        run_pipeline(plan)
    assert err.value.test_id == first.test_ids[2]
