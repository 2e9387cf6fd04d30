"""Command-line front end.

Subcommands: ingest, label, augment, train, prioritize, select, evaluate,
replay, history-study. Exit codes: 0 success, 2 bad input, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

import numpy as np

from .augment import augment as augment_vectors, fail_ratio
from .config import load_config
from .errors import InputError, NumericError
from .features import dump_features_csv, extract, load_features_csv, stack
from .history import build_status_matrix, emit_csv, ingest_csv
from .metrics import format_table, regression_accuracy
from .net import SavedModel, load_model, predict, save_model
from .pipeline import (
    AGGREGATE_COLUMNS,
    ExperimentPlan,
    compare_against_ground_truth,
    history_length_study,
    plan_from_config,
    run_pipeline,
    training_vectors,
    train_model,
    write_csv,
    write_training_log,
)
from .prioritize import (
    rank,
    read_suite_csv,
    select_within_budget,
    write_order,
    write_suite_csv,
)
from .rocket import label_dataset, weight_scheme

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

logger = logging.getLogger(__name__)


def _out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plan(args, **overrides) -> ExperimentPlan:
    cfg = load_config(args.config) if args.config else {}
    return plan_from_config(cfg, seed=args.seed, out_dir=args.out_dir, **overrides)


def cmd_ingest(args) -> int:
    cycles = ingest_csv(args.dataset)
    executions = sum(len(c.test_ids) for c in cycles)
    failures = sum(int(c.failed.sum()) for c in cycles)
    tests = set().union(*(c.test_ids for c in cycles))
    print(format_table(
        ["cycles", "tests", "executions", "failed", "fail_ratio"],
        [[len(cycles), len(tests), executions, failures,
          failures / executions if executions else None]],
    ))
    if args.out_dir:
        path = _out_dir(args) / "cycles.csv"
        emit_csv(cycles, path)
        print(f"normalized log written to {path}")
    return EXIT_OK


def cmd_label(args) -> int:
    plan = _plan(args, dataset=args.dataset, window_len=args.window)
    cycles = ingest_csv(args.dataset)
    matrix = build_status_matrix(cycles, plan.window_len, as_of_cycle=args.as_of)
    scheme = weight_scheme(plan.weights, plan.window_len)
    labeled = label_dataset(matrix, scheme)
    path = _out_dir(args) / "features.csv"
    dump_features_csv(labeled, path)
    labels = labeled.labels
    print(f"labeled {len(labeled)} tests (priority mean {labels.mean():.4f}, "
          f"max {labels.max():.4f}); features written to {path}")
    return EXIT_OK


def cmd_augment(args) -> int:
    plan = _plan(args)
    data = load_features_csv(args.features)
    if not len(data):
        raise InputError(f"{args.features} has no feature rows")
    if data.labels is None:
        raise InputError(f"{args.features} has no Priority labels; augment needs labeled rows")
    cfg = plan.augment_config
    before = fail_ratio(data)
    augmented = augment_vectors(data, cfg)
    after = fail_ratio(augmented)
    path = _out_dir(args) / "augmented.csv"
    dump_features_csv(augmented, path)
    print(f"{len(data)} -> {len(augmented)} vectors; "
          f"fail ratio {before:.4f} -> {after:.4f}; written to {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    plan = _plan(args, dataset=args.dataset, window_len=args.window)
    cycles = ingest_csv(args.dataset)
    model, result, _ = train_model(cycles, plan)
    out = _out_dir(args)
    model_path = out / "model.txt"
    save_model(model, model_path)
    log_path = out / "training_log.csv"
    write_training_log(log_path, result)
    print(f"trained {model.net.parameter_count}-parameter network "
          f"({'x'.join(str(d) for d in model.net.dims)}) in {result.stopped_epoch} "
          f"epochs ({result.reason}); final MSE {result.final_mse:.6g}")
    print(f"model -> {model_path}\ntraining log -> {log_path}")
    return EXIT_OK


def cmd_prioritize(args) -> int:
    model = load_model(args.model)
    cycles = ingest_csv(args.dataset)
    matrix = build_status_matrix(cycles, model.window_len, as_of_cycle=args.as_of)
    X, _, ids = stack(extract(matrix, bounds=model.bounds,
                              expected_window=model.window_len))
    preds = np.clip(predict(model.net, X), 0.0, 1.0)
    suite = rank(ids, preds, matrix.mean_duration_s)
    out = _out_dir(args)
    write_suite_csv(suite, out / "suite.csv")
    write_order(suite.order(), out / "order.txt")
    top = zip(suite.ids[:10].tolist(), suite.priority[:10].tolist(),
              suite.duration_s[:10].tolist())
    print(format_table(
        ["rank", "test_id", "priority", "duration_s"],
        [[i + 1, *row] for i, row in enumerate(top)],
    ))
    print(f"full suite -> {out / 'suite.csv'}; plain order -> {out / 'order.txt'}")
    return EXIT_OK


def cmd_select(args) -> int:
    suite = read_suite_csv(args.suite)
    try:
        result = select_within_budget(suite, args.budget)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    selected = result.order()
    out = _out_dir(args)
    rows = [{"test_id": tid, "included": 1} for tid in selected]
    rows += [{"test_id": tid, "included": 0, "reason": r} for tid, r in result.skipped]
    write_csv(out / "selection.csv", ["test_id", "included", "reason"], rows)
    write_order(selected, out / "selected_order.txt")
    print(f"selected {len(selected)}/{len(suite)} tests, "
          f"used {result.used_s:.3f}s of {result.budget_s:.3f}s budget; "
          f"skipped {len(result.skipped)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    plan = _plan(args, dataset=args.dataset)
    if not (args.model or args.ground_truth):
        raise InputError("nothing to evaluate: pass --model and/or --ground-truth")
    model: SavedModel | None = load_model(args.model) if args.model else None
    cycles = ingest_csv(args.dataset)
    if model is not None:
        scheme = weight_scheme(model.weight_scheme, model.window_len)
        labeled = training_vectors(cycles, model.window_len, scheme, model.bounds)
        X, y, _ = stack(labeled)
        acc = regression_accuracy(predict(model.net, X), y)
        print(format_table(["mse", "r_squared", "residual_std"],
                           [[acc.mse, acc.r_squared, acc.residual_std]]))
    if args.ground_truth:
        report = compare_against_ground_truth(plan, model=model, cycles=cycles)
        rows = [["rocket", report.rocket_mean, report.rocket_max]]
        if report.model_mean is not None:
            rows.append(["model", report.model_mean, report.model_max])
        print(format_table(["method", "mean_abs_diff", "max_abs_diff"], rows))
    return EXIT_OK


def cmd_replay(args) -> int:
    plan = _plan(
        args,
        dataset=args.dataset,
        budget_fraction=args.budget_fraction,
        cut_cycle=args.cut,
        retrain_every=args.retrain_every,
        strategies=tuple(args.strategies.split(",")) if args.strategies else None,
    )
    result = run_pipeline(plan)  # plan.out_dir None: tables only, no files
    n_cycles = result.aggregates[0]["cycles"] if result.aggregates else 0
    print(f"replayed {n_cycles} cycles after cut {result.cut_cycle}")
    print(format_table(
        AGGREGATE_COLUMNS,
        [[a[c] for c in AGGREGATE_COLUMNS] for a in result.aggregates],
    ))
    t = result.timings
    print(f"PT={t['PT']:.3f}s RT={t['RT']:.3f}s TT={t['TT']:.3f}s")
    if result.paths:
        print("artifacts: " + ", ".join(str(p) for p in result.paths.values()))
    return EXIT_OK


def cmd_history_study(args) -> int:
    given = {}  # no --windows: history_length_study's default applies
    if args.windows is not None:
        try:
            given["windows"] = tuple(int(w) for w in args.windows.split(","))
        except ValueError:
            given["windows"] = ()
        if len(given["windows"]) != 2 or min(given["windows"]) < 1:
            raise InputError(f"--windows takes two comma-separated lengths >= 1, "
                             f"got {args.windows!r}")
    plan = _plan(args, dataset=args.dataset)
    study = history_length_study(plan, **given)
    short, long = study.windows
    print(format_table(
        ["dataset", "window", "mean_apfd", "mean_napfd"],
        [[r["dataset"], r["window"], r["mean_apfd"], r["mean_napfd"]] for r in study.rows],
    ))
    print(f"delta APFD (w={long} minus w={short}): {study.delta_apfd}")
    print(f"delta NAPFD (w={long} minus w={short}): {study.delta_napfd}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse leaves each parser it builds
    in reference cycles, which only a full collection frees."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int, default=None, help="master RNG seed")
    common.add_argument("--out-dir", default=None, help="directory for artifacts")

    parser = argparse.ArgumentParser(
        prog="testprio",
        description="Learn test priorities from CI history, rank and budget-select suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="parse and validate a CSV log")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", parents=[common],
                       help="extract features with history-weighted priority labels")
    p.add_argument("dataset")
    p.add_argument("--window", type=int, default=None,
                   help="history window length (default: replay.window_len)")
    p.add_argument("--as-of", type=int, default=None)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("augment", parents=[common],
                       help="rebalance a labeled feature CSV")
    p.add_argument("features")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", parents=[common], help="train a model on a CSV log")
    p.add_argument("dataset")
    p.add_argument("--window", type=int, default=None,
                   help="history window length (default: replay.window_len)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prioritize", parents=[common],
                       help="rank a suite with a trained model")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--as-of", type=int, default=None)
    p.set_defaults(func=cmd_prioritize)

    p = sub.add_parser("select", parents=[common],
                       help="fit a prioritized suite into a time budget")
    p.add_argument("suite", help="suite.csv from the prioritize command")
    p.add_argument("--budget", type=float, required=True, help="seconds")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", parents=[common],
                       help="model accuracy and/or ground-truth comparison")
    p.add_argument("dataset")
    p.add_argument("--model")
    p.add_argument("--ground-truth", action="store_true",
                   help="compare against a CalcPrio column")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", parents=[common],
                       help="replay post-cut cycles under every strategy")
    p.add_argument("dataset")
    p.add_argument("--budget-fraction", type=float, default=None)
    p.add_argument("--cut", type=int, default=None)
    p.add_argument("--strategies", default=None,
                   help="comma list: deeporder,rocket,random,untreated")
    p.add_argument("--retrain-every", type=int, default=None)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("history-study", parents=[common],
                       help="compare two history window lengths")
    p.add_argument("dataset")
    p.add_argument("--windows", default=None,
                   help="two comma-separated window lengths (default: 4,10)")
    p.set_defaults(func=cmd_history_study)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
