from __future__ import annotations

import csv
import gc
import io
from dataclasses import replace

import pytest

from testprio import cli, pipeline
from testprio.cli import main
from testprio.features import DERIVED_FEATURES, load_features_csv
from testprio.history import emit_csv, ingest_csv
from testprio.net import load_model
from testprio.simulate import PAINT_CONTROL_LIKE, SuiteProfile, generate_history

from conftest import emit_with_calc_prio, write_model_with_dims

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


HEADER = b"Id,Name,Duration,LastRun,Verdict,Cycle\n"


@pytest.mark.parametrize("text, message", [
    (HEADER + b"1," + b"T" * 200_000 + b",1.0,2016-01-02,0,1\n",
     "error: row 2: field larger than field limit (131072)\n"),
    (HEADER[:-1] + b"," + b"X" * 140_000 + b"\n1,T1,1.0,2016-01-02,0,1\n",
     "error: row 1: field larger than field limit (131072)\n"),
    (HEADER + "1,Caf\u00e9,1.0,2016-01-02,0,1\n".encode("latin-1"),
     "error: the log is not UTF-8 text: byte 0xe9 is invalid continuation byte\n"),
], ids=["long-field", "long-header-field", "latin-1"])
def test_ingest_unreadable_log_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    assert main(["ingest", str(bad)]) == 2
    assert capsys.readouterr().err == message


def test_label_writes_features(dataset, tmp_path):
    assert main(["label", str(dataset), "--out-dir", str(tmp_path)]) == 0
    vectors = load_features_csv(tmp_path / "features.csv")
    assert len(vectors) and vectors.labels is not None
    assert vectors.X.shape[1] == 10 + DERIVED_FEATURES


@pytest.mark.parametrize("window_flag, window", [([], 4), (["--window", "6"], 6)],
                         ids=["config-window", "flag-window"])
def test_window_comes_from_the_config_unless_a_flag_sets_it(dataset, fast_config, tmp_path,
                                                            window_flag, window):
    """label and train take replay.window_len from the config; --window wins."""
    cfg = tmp_path / "window.cfg"
    cfg.write_text(fast_config.read_text() + "replay.window_len = 4\n")
    argv = [str(dataset), "--config", str(cfg), "--out-dir", str(tmp_path), *window_flag]
    assert main(["label", *argv]) == 0
    assert main(["train", *argv]) == 0
    header = (tmp_path / "features.csv").read_text().split("\n", 1)[0].split(",")
    assert [c for c in header if c.startswith("ES")] == [f"ES{i}" for i in range(1, window + 1)]
    assert load_model(tmp_path / "model.txt").net.input_dim == window + DERIVED_FEATURES


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


def test_train_and_replay_write_one_training_log_format(dataset, fast_config, trained_model,
                                                        tmp_path):
    assert main(["replay", str(dataset), "--config", str(fast_config),
                 "--out-dir", str(tmp_path), "--strategies", "deeporder"]) == 0
    for log in (trained_model.parent / "training_log.csv", tmp_path / "training_log.csv"):
        header, *rows, end = log.read_bytes().split(b"\r\n")
        assert (header, end) == (b"epoch,mse", b"") and rows
        assert [row.split(b",")[0] for row in rows] == [
            str(epoch).encode() for epoch in range(1, len(rows) + 1)]


def test_prioritize_and_select(dataset, trained_model, tmp_path):
    assert main(["prioritize", str(dataset), "--model", str(trained_model),
                 "--out-dir", str(tmp_path)]) == 0
    suite_csv = tmp_path / "suite.csv"
    order_txt = tmp_path / "order.txt"
    assert suite_csv.exists() and order_txt.exists()
    assert len(order_txt.read_text().splitlines()) == SMALL.n_tests

    with open(suite_csv, "a", encoding="utf-8", newline="") as fh:
        fh.write(f'{SMALL.n_tests + 1},"a,b",0.0,0.0\r\n')  # an id holding a comma
    assert main(["select", str(suite_csv), "--budget", "10",
                 "--out-dir", str(tmp_path)]) == 0
    selection = (tmp_path / "selection.csv").read_text().splitlines()
    assert selection[0] == "test_id,included,reason"
    assert any(line.endswith("over_budget") for line in selection[1:])
    text = (tmp_path / "selection.csv").read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert all(len(row) == 3 for row in rows) and ["a,b", "1", ""] in rows
    assert text.count("\r\n") == text.count("\n") == len(rows)


def test_select_rejects_a_suite_with_a_priority_that_is_not_finite(tmp_path, capsys):
    suite = tmp_path / "suite.csv"
    suite.write_text("rank,test_id,priority,duration_s\n1,a,nan,1.0\n2,b,inf,1.0\n"
                     "3,c,0.5,1.0\n")
    assert main(["select", str(suite), "--budget", "2", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: row 2: priority must be finite, got 'nan'\n"
    assert not (tmp_path / "selection.csv").exists()


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
    ("1,0,1,0.5,0.5,1,1,0.6\n" + "x" * 140_000 + ",0,1,0.2,0.4,1,1,0.7\n",
     "row 3: field larger than field limit (131072)"),
], ids=["empty-priority", "header-only", "nan-duration", "inf-priority", "long-field"])
def test_augment_rejects_features_it_cannot_rebalance(tmp_path, capsys, rows, message):
    features = tmp_path / "features.csv"
    features.write_text(FEATURES_HEADER + rows)
    assert main(["augment", str(features), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "augmented.csv").exists()


SUITE_HEADER = "rank,test_id,priority,duration_s\n"


@pytest.mark.parametrize("argv, text, message", [
    (["select", "{input}", "--budget", "10"],
     (SUITE_HEADER + "1,a,0.9,1.5\n2," + "b" * 140_000 + ",0.5,2.0\n").encode(),
     "row 3: field larger than field limit (131072)"),
    (["select", "{input}", "--budget", "10"],
     (SUITE_HEADER + "1,caf\u00e9,0.9,1.5\n").encode("latin-1"), "byte 0xe9"),
    (["augment", "{input}"],
     (FEATURES_HEADER + "caf\u00e9,0,1,0.5,0.5,1,1,0.6\n").encode("latin-1"), "byte 0xe9"),
    (["prioritize", "{dataset}", "--model", "{input}"],
     "tpmodel 1\nseed 0\nscheme caf\u00e9\n".encode("latin-1"), "byte 0xe9"),
    (["replay", "{dataset}", "--config", "{input}"],
     "seed = 1  # caf\u00e9\n".encode("latin-1"), "byte 0xe9"),
], ids=["select-long-field", "select-latin-1", "augment-latin-1", "prioritize-latin-1-model",
        "replay-latin-1-config"])
def test_unreadable_input_exits_2(dataset, tmp_path, capsys, argv, text, message):
    bad = tmp_path / "input"
    bad.write_bytes(text)
    out = tmp_path / "out"
    argv = [arg.format(input=bad, dataset=dataset) for arg in argv]
    assert main([*argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_prioritize_with_a_model_holding_nan_exits_2(dataset, trained_model, tmp_path,
                                                     capsys):
    lines = trained_model.read_text().splitlines()
    at = 1 + next(i for i, ln in enumerate(lines) if ln.startswith("layer 0 weights"))
    lines[at] = " ".join(["nan", *lines[at].split()[1:]])
    model = tmp_path / "model.txt"
    model.write_text("\n".join(lines) + "\n")
    assert main(["prioritize", str(dataset), "--model", str(model),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dims", ["14", "0 1", "4 1", "14 2"])
def test_prioritize_with_a_model_whose_dims_build_no_usable_network_exits_2(
        dataset, tmp_path, capsys, dims):
    model = tmp_path / "model.txt"
    write_model_with_dims(model, [int(d) for d in dims.split()])
    assert main(["prioritize", str(dataset), "--model", str(model),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: dims {dims} build no usable network")
    assert not (tmp_path / "out").exists()


def test_repeated_prioritize_calls_leave_no_reference_cycles(dataset, trained_model, tmp_path,
                                                             capsys):
    """The parser is built once per process; a parser built per call leaves
    hundreds of objects that only a full collection frees."""
    argv = ["prioritize", str(dataset), "--model", str(trained_model),
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0  # warm-up
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_model_accuracy(dataset, trained_model, capsys):
    assert main(["evaluate", str(dataset), "--model", str(trained_model)]) == 0
    assert "r_squared" in capsys.readouterr().out


def test_evaluate_model_and_ground_truth_ingest_the_log_once(trained_model, tmp_path,
                                                           monkeypatch, capsys):
    path = emit_with_calc_prio(generate_history(SMALL, seed=9), tmp_path / "prio.csv",
                               lambda cycle_id, test_id: "0.5")
    calls = []

    def counted(log):
        calls.append(log)
        return ingest_csv(log)

    monkeypatch.setattr(cli, "ingest_csv", counted)
    monkeypatch.setattr(pipeline, "ingest_csv", counted)
    assert main(["evaluate", str(path), "--model", str(trained_model), "--ground-truth"]) == 0
    out = capsys.readouterr().out
    assert "r_squared" in out and "mean_abs_diff" in out
    assert calls == [str(path)]


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


def test_evaluate_ground_truth_non_finite_priority_exits_2(tmp_path, capsys):
    """A nan and an inf CalcPrio in the latest cycle are bad rows, not a
    report of nan differences."""
    cycles = generate_history(replace(PAINT_CONTROL_LIKE, n_cycles=30), seed=1)
    last = cycles[-1]
    odd = {last.test_ids[0]: "nan", last.test_ids[1]: "inf"}
    path = emit_with_calc_prio(cycles, tmp_path / "prio.csv",
                               lambda cycle_id, test_id: odd.get(test_id, "0.5")
                               if cycle_id == last.cycle_id else "0.5")
    assert main(["evaluate", str(path), "--ground-truth"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row ") and err.endswith(": priority must be finite, got 'nan'\n")


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


@pytest.mark.parametrize("fraction", ["nan", "inf", "-1", "1.5"])
def test_replay_rejects_a_cut_fraction_outside_0_to_1(dataset, tmp_path, capsys, fraction):
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(f"replay.cut_fraction = {fraction}\n")
    assert main(["replay", str(dataset), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cut fraction must lie in (0, 1], got {float(fraction)}\n"
    assert not (tmp_path / "out").exists()


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
    (["replay"], "train.learnig_rate = 0.5"),
    (["replay"], "replay.budget = 0.1"),
    (["replay"], "augment.enable = false"),
    (["replay"], "train.batch_size = 0"),
], ids=["label-window", "train-window", "study-window-0", "study-window-text",
        "k-neighbors", "learning-rate", "random-repeats", "config-window", "retrain-every",
        "typo-learning-rate", "typo-budget", "typo-augment-enabled", "batch-size-0"])
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


def test_history_study_without_windows_studies_4_and_10(dataset, fast_config, tmp_path, capsys):
    """--windows falls back to history_length_study's own default."""
    assert main(["history-study", str(dataset), "--config", str(fast_config),
                 "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "history_study.csv", newline="", encoding="utf-8") as fh:
        assert [row["window"] for row in csv.DictReader(fh)] == ["4", "10"]
    assert "delta APFD (w=10 minus w=4)" in capsys.readouterr().out


def test_history_study_bad_windows(dataset):
    assert main(["history-study", str(dataset), "--windows", "4"]) == 2
