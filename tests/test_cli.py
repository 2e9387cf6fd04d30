from __future__ import annotations

import pytest

from testprio.cli import main
from testprio.features import DERIVED_FEATURES, load_features_csv
from testprio.history import emit_csv
from testprio.simulate import PAINT_CONTROL_LIKE, SuiteProfile, generate_history

from conftest import emit_with_calc_prio

SMALL = SuiteProfile(
    name="small", n_tests=12, n_cycles=30, participation=0.8,
    break_prob=0.05, heal_prob=0.2, burst_fail=0.5,
    propensity_a=0.4, propensity_b=2.8,
)

FAST_CFG = (
    "train.epochs_max = 40\n"
    "train.mse_stop = 0.002\n"
    "train.batch_size = 32\n"
    "replay.random_repeats = 5\n"
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    emit_csv(generate_history(SMALL, seed=9), path)
    return path


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "fast.cfg"
    path.write_text(FAST_CFG)
    return path


@pytest.fixture(scope="module")
def trained_model(dataset, fast_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main(["train", str(dataset), "--config", str(fast_config),
                 "--out-dir", str(out)])
    assert code == 0
    return out / "model.txt"


def test_ingest_summary_and_normalized_copy(dataset, tmp_path, capsys):
    assert main(["ingest", str(dataset), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "fail_ratio" in out
    assert (tmp_path / "cycles.csv").exists()


def test_ingest_missing_file_exits_2(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.csv")]) == 2


def test_ingest_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("Id,Name\n1,T1\n")
    assert main(["ingest", str(bad)]) == 2


def test_ingest_short_row_exits_2(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_bytes(b"Id,Name,Duration,LastRun,Verdict,Cycle\r\n1,,0.0\r\n")
    assert main(["ingest", str(bad)]) == 2
    assert "row 2" in capsys.readouterr().err


def test_label_writes_features(dataset, tmp_path):
    assert main(["label", str(dataset), "--out-dir", str(tmp_path)]) == 0
    vectors = load_features_csv(tmp_path / "features.csv")
    assert len(vectors) and vectors.labels is not None
    assert vectors.X.shape[1] == 10 + DERIVED_FEATURES


def test_augment_rebalances(dataset, tmp_path):
    assert main(["label", str(dataset), "--out-dir", str(tmp_path)]) == 0
    assert main(["augment", str(tmp_path / "features.csv"),
                 "--out-dir", str(tmp_path), "--seed", "3"]) == 0
    assert (tmp_path / "augmented.csv").exists()


def test_augment_explicit_seed_wins_over_master_seed(dataset, tmp_path):
    """augment.rng_seed set in the config wins over --seed, as in replay."""
    assert main(["label", str(dataset), "--out-dir", str(tmp_path)]) == 0
    features = str(tmp_path / "features.csv")
    # the small log is already past the default target ratio
    base = "augment.target_fail_ratio = 0.5\n"
    (tmp_path / "base.cfg").write_text(base)
    (tmp_path / "seeded.cfg").write_text(base + "augment.rng_seed = 4\n")

    def augmented(config, seed):
        out = tmp_path / f"{config}-{seed}"
        assert main(["augment", features, "--config", str(tmp_path / config),
                     "--seed", seed, "--out-dir", str(out)]) == 0
        return (out / "augmented.csv").read_bytes()

    explicit = augmented("seeded.cfg", "7")
    assert explicit == augmented("base.cfg", "4")
    assert explicit != augmented("base.cfg", "7")


def test_train_writes_model_and_log(trained_model):
    assert trained_model.exists()
    assert (trained_model.parent / "training_log.csv").exists()


def test_prioritize_and_select(dataset, trained_model, tmp_path):
    assert main(["prioritize", str(dataset), "--model", str(trained_model),
                 "--out-dir", str(tmp_path)]) == 0
    suite_csv = tmp_path / "suite.csv"
    order_txt = tmp_path / "order.txt"
    assert suite_csv.exists() and order_txt.exists()
    assert len(order_txt.read_text().splitlines()) == SMALL.n_tests

    assert main(["select", str(suite_csv), "--budget", "10",
                 "--out-dir", str(tmp_path)]) == 0
    selection = (tmp_path / "selection.csv").read_text().splitlines()
    assert selection[0] == "test_id,included,reason"
    assert any(line.endswith("over_budget") for line in selection[1:])


@pytest.mark.parametrize("budget", ["-1", "nan", "inf"])
def test_select_rejects_a_budget_that_is_not_finite_and_non_negative(tmp_path, capsys, budget):
    suite = tmp_path / "suite.csv"
    suite.write_text("rank,test_id,priority,duration_s\n1,a,0.9,1.5\n2,b,0.5,2.0\n")
    assert main(["select", str(suite), "--budget", budget, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: budget must be a finite number") and err.count("\n") == 1
    assert not (tmp_path / "selection.csv").exists()


FEATURES_HEADER = "Id,ES1,ES2,Duration,LastRun,Distance,ChangeInStatus,Priority\n"


@pytest.mark.parametrize("rows, message", [
    ("1,0,1,0.5,0.5,1,1,\n2,0,0,0.2,0.4,0,0,\n", "no Priority labels"),
    ("", "no feature rows"),
    ("1,0,1,0.5,0.5,1,1,0.6\n2,0,1,nan,0.4,1,1,0.7\n",
     "row 3: features and Priority must be finite"),
    ("1,0,1,0.5,0.5,1,1,inf\n2,0,1,0.2,0.4,1,1,0.7\n",
     "row 2: features and Priority must be finite"),
], ids=["empty-priority", "header-only", "nan-duration", "inf-priority"])
def test_augment_rejects_features_it_cannot_rebalance(tmp_path, capsys, rows, message):
    features = tmp_path / "features.csv"
    features.write_text(FEATURES_HEADER + rows)
    assert main(["augment", str(features), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "augmented.csv").exists()


def test_evaluate_model_accuracy(dataset, trained_model, capsys):
    assert main(["evaluate", str(dataset), "--model", str(trained_model)]) == 0
    assert "r_squared" in capsys.readouterr().out


def test_evaluate_requires_something(dataset):
    assert main(["evaluate", str(dataset)]) == 2


def test_evaluate_ground_truth_missing_column(dataset, trained_model):
    assert main(["evaluate", str(dataset), "--model", str(trained_model),
                 "--ground-truth"]) == 2


def test_evaluate_ground_truth_present(tmp_path, capsys):
    path = emit_with_calc_prio(generate_history(SMALL, seed=9), tmp_path / "prio.csv",
                               lambda cycle_id, test_id: "0.5")
    assert main(["evaluate", str(path), "--ground-truth"]) == 0
    assert "mean_abs_diff" in capsys.readouterr().out


def test_evaluate_ground_truth_bad_priority_exits_2(tmp_path, capsys):
    path = emit_with_calc_prio(generate_history(SMALL, seed=9), tmp_path / "prio.csv",
                               lambda cycle_id, test_id: "n/a" if cycle_id == 2 else "0.5")
    assert main(["evaluate", str(path), "--ground-truth"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row ") and err.endswith(": bad priority 'n/a'\n")


def test_replay_end_to_end(dataset, fast_config, tmp_path, capsys):
    assert main(["replay", str(dataset), "--config", str(fast_config),
                 "--seed", "4", "--out-dir", str(tmp_path),
                 "--strategies", "deeporder,random"]) == 0
    out = capsys.readouterr().out
    assert "mean_napfd" in out
    assert (tmp_path / "per_cycle.csv").exists()
    assert (tmp_path / "aggregate.csv").exists()
    assert (tmp_path / "timings.csv").exists()


def test_replay_holdout_csv_holds_numbers(fast_config, tmp_path):
    log = tmp_path / "paint.csv"
    emit_csv(generate_history(PAINT_CONTROL_LIKE, seed=42), log)
    assert main(["replay", str(log), "--config", str(fast_config), "--seed", "42",
                 "--out-dir", str(tmp_path), "--strategies", "deeporder"]) == 0
    header, row = (tmp_path / "holdout.csv").read_text().splitlines()
    assert header == "mse,r_squared,residual_std"
    assert len([float(field) for field in row.split(",")]) == 3


def test_replay_mixed_offset_kinds_exits_2(tmp_path, capsys):
    bad = tmp_path / "mixed.csv"
    bad.write_text("Id,Name,Duration,LastRun,Verdict,Cycle\n"
                   + "".join(f"{t},T{t},1.0,2016-01-0{c} 09:00:00,{t % 2},{c}\n"
                             for c in (1, 2, 3) for t in (1, 2))
                   + "1,T1,1.0,2016-01-04 09:00:00+01:00,0,4\n")
    assert main(["replay", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "row 8" in capsys.readouterr().err


def test_replay_unknown_strategy_exits_2(dataset, tmp_path):
    assert main(["replay", str(dataset), "--strategies", "sorcery",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("fraction", ["-1", "nan", "inf"])
def test_replay_rejects_a_budget_fraction_that_is_not_finite_and_non_negative(
        dataset, tmp_path, capsys, fraction):
    assert main(["replay", str(dataset), "--budget-fraction", fraction,
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: budget fraction must be")


@pytest.mark.parametrize("argv, config", [
    (["label", "--window", "0"], ""),
    (["train", "--window", "0"], ""),
    (["history-study", "--windows", "0,10"], ""),
    (["history-study", "--windows", "a,b"], ""),
    (["replay"], "augment.k_neighbors = 0"),
    (["replay"], "train.learning_rate = -1"),
    (["replay"], "replay.random_repeats = -3"),
    (["replay"], "replay.window_len = 0"),
    (["replay", "--retrain-every", "-1"], ""),
], ids=["label-window", "train-window", "study-window-0", "study-window-text",
        "k-neighbors", "learning-rate", "random-repeats", "config-window", "retrain-every"])
def test_bad_window_and_config_values_exit_2(dataset, tmp_path, capsys, argv, config):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config + "\n")
    out = tmp_path / "out"
    assert main([argv[0], str(dataset), *argv[1:], "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_replay_numeric_failure_exits_3(dataset, tmp_path):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text("train.learning_rate = 1e200\ntrain.epochs_max = 10\n"
                   "train.batch_size = 32\n")
    assert main(["replay", str(dataset), "--config", str(cfg),
                 "--out-dir", str(tmp_path), "--strategies", "deeporder"]) == 3


def test_history_study_cli(dataset, fast_config, tmp_path, capsys):
    assert main(["history-study", str(dataset), "--windows", "3,6",
                 "--config", str(fast_config), "--out-dir", str(tmp_path)]) == 0
    assert "delta APFD" in capsys.readouterr().out


def test_history_study_bad_windows(dataset):
    assert main(["history-study", str(dataset), "--windows", "4"]) == 2
