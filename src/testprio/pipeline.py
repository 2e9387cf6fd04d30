"""End-to-end orchestration: train on pre-cut history, then replay every
post-cut cycle, re-ranking its tests with each strategy and scoring the
orderings.

The replay is causal: the ordering for cycle c is computed from cycles
strictly before c. History is carried in an incremental per-test state so
prioritization cost does not grow with the length of the already-processed
log.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .augment import AugmentConfig, augment, fail_ratio
from .config import get_bool, get_float, get_int
from .errors import InputError, InsufficientHistory, MalformedRow, MissingPriorityColumn
from .features import (
    FeatureBounds,
    FeatureSet,
    bounds_from_matrix,
    extract,  # not called here; bench/tracing.py wraps this module's name
    feature_matrix,
    stack,
)
from .history import (
    CycleLog,
    ReplayState,
    StatusMatrix,
    build_status_matrix,
    ingest_csv,
)
from .metrics import (
    CycleOutcome,
    RegressionAccuracy,
    apfd,
    format_table,
    napfd,
    regression_accuracy,
    span,
    time_metrics,
)
from .net import (
    SavedModel,
    TrainConfig,
    TrainResult,
    default_dims,
    predict,
    save_model,
    train,
    xavier_init,
)
from .prioritize import PrioritizedSuite, budget_walk, rank, select_within_budget
from .rocket import WeightScheme, label_dataset, priorities, weight_scheme

logger = logging.getLogger(__name__)

STRATEGY_DEEPORDER = "deeporder"
STRATEGY_ROCKET = "rocket"
STRATEGY_RANDOM = "random"
STRATEGY_UNTREATED = "untreated"
ALL_STRATEGIES = (STRATEGY_DEEPORDER, STRATEGY_ROCKET, STRATEGY_RANDOM, STRATEGY_UNTREATED)

# The train() op defaults to full batch; the harness overrides it because on
# replay-sized training sets mini-batches reach the MSE floor orders of
# magnitude faster within the same epoch cap. train.batch_size = 0 restores
# full-batch behavior.
DEFAULT_BATCH_SIZE = 128


@dataclass
class ExperimentPlan:
    dataset: object  # path to a CSV, or an in-memory list[CycleLog]
    window_len: int = 10
    cut_cycle: int | None = None  # None: cut at cut_fraction of the cycles
    cut_fraction: float = 0.8
    budget_fraction: float = 0.5
    strategies: tuple[str, ...] = ALL_STRATEGIES
    random_repeats: int = 30
    weights: str = "linear"
    augment_enabled: bool = True
    augment_config: AugmentConfig | None = None
    train_config: TrainConfig | None = None
    retrain_every: int | None = None
    seed: int = 0
    out_dir: object = None
    name: str | None = None

    def dataset_name(self) -> str:
        if self.name:
            return self.name
        if isinstance(self.dataset, (str, Path)):
            return Path(self.dataset).stem
        return "dataset"


def plan_from_config(cfg: dict[str, str], **overrides) -> "ExperimentPlan":
    """Build a plan from flat config keys; explicit overrides win.

    ``train.rng_seed`` and ``augment.rng_seed`` default to the master seed
    (the ``seed`` override, else the ``seed`` key), so one seed reaches
    every RNG unless a sub-seed is set explicitly.
    """
    seed = overrides.get("seed")
    if seed is None:
        seed = get_int(cfg, "seed", 0)
    try:
        aug = AugmentConfig(
            k_neighbors=get_int(cfg, "augment.k_neighbors", 5),
            target_fail_ratio=get_float(cfg, "augment.target_fail_ratio", 0.05),
            noise_scale=get_float(cfg, "augment.noise_scale", 0.02),
            pass_keep_fraction=get_float(cfg, "augment.pass_keep_fraction", 1.0),
            rng_seed=get_int(cfg, "augment.rng_seed", seed),
        )
        tr = TrainConfig(
            epochs_max=get_int(cfg, "train.epochs_max", 1000),
            learning_rate=get_float(cfg, "train.learning_rate", 0.001),
            adam_beta1=get_float(cfg, "train.adam_beta1", 0.9),
            adam_beta2=get_float(cfg, "train.adam_beta2", 0.999),
            adam_eps=get_float(cfg, "train.adam_eps", 1e-8),
            mse_stop=get_float(cfg, "train.mse_stop", 1e-4),
            batch_size=(get_int(cfg, "train.batch_size", DEFAULT_BATCH_SIZE) or None),
            rng_seed=get_int(cfg, "train.rng_seed", seed),
        )
    except ValueError as exc:
        raise InputError(f"config: {exc}") from None
    plan = ExperimentPlan(
        dataset=cfg.get("replay.dataset"),
        window_len=get_int(cfg, "replay.window_len", 10),
        cut_cycle=(get_int(cfg, "replay.cut_cycle", 0) or None),
        cut_fraction=get_float(cfg, "replay.cut_fraction", 0.8),
        budget_fraction=get_float(cfg, "replay.budget_fraction", 0.5),
        random_repeats=get_int(cfg, "replay.random_repeats", 30),
        weights=cfg.get("rocket.weights", "linear"),
        augment_enabled=get_bool(cfg, "augment.enabled", True),
        augment_config=aug,
        train_config=tr,
        retrain_every=(get_int(cfg, "replay.retrain_every", 0) or None),
        seed=seed,
    )
    if "replay.strategies" in cfg:
        plan.strategies = tuple(
            s.strip() for s in cfg["replay.strategies"].split(",") if s.strip()
        )
    for key, value in overrides.items():
        if value is not None:
            setattr(plan, key, value)
    if plan.window_len < 1:
        raise InputError(f"window length must be >= 1, got {plan.window_len}")
    return plan


# --- training ----------------------------------------------------------------

def training_vectors(cycles: Sequence[CycleLog], window_len: int, scheme: WeightScheme,
                     bounds: FeatureBounds):
    """Pool labeled vectors over every historical as-of point.

    For each cycle a, the tests that executed in a contribute one vector
    whose window ends at a. This is the supervised set the model learns
    from; the same construction (on post-cut cycles) yields held-out pairs.
    """
    state = ReplayState(window_len)
    ids = [tid for cycle in cycles for tid in cycle.test_ids]
    X, y = np.empty((len(ids), window_len + 4)), np.empty(len(ids))
    end = 0
    for cycle in cycles:
        state.ingest(cycle)
        labeled = label_dataset(state.matrix_for(cycle.test_ids), scheme, bounds=bounds)
        start, end = end, end + len(labeled)
        X[start:end], y[start:end] = labeled.X, labeled.labels
    return FeatureSet(X, ids, y)


def train_model(cycles: Sequence[CycleLog], plan: ExperimentPlan
                ) -> tuple[SavedModel, TrainResult]:
    """Label the pre-cut history, optionally rebalance, and fit the network."""
    scheme = weight_scheme(plan.weights, plan.window_len)
    as_of = cycles[-1].cycle_id
    base = build_status_matrix(cycles, plan.window_len, as_of_cycle=as_of)
    bounds = bounds_from_matrix(base)
    labeled = training_vectors(cycles, plan.window_len, scheme, bounds)
    aug_cfg = plan.augment_config or AugmentConfig(rng_seed=plan.seed)
    if plan.augment_enabled and fail_ratio(labeled) < aug_cfg.target_fail_ratio:
        before = len(labeled)
        labeled = augment(labeled, aug_cfg)
        logger.info("augmented training set: %d -> %d vectors", before, len(labeled))
    X, y, _ = stack(labeled)
    cfg = plan.train_config or TrainConfig(rng_seed=plan.seed, batch_size=DEFAULT_BATCH_SIZE)
    net = xavier_init(default_dims(plan.window_len + 4), np.random.default_rng(cfg.rng_seed))
    result = train(net, X, y, cfg)
    model = SavedModel(net, bounds, weight_scheme=plan.weights, rng_seed=cfg.rng_seed)
    return model, result


# --- replay ------------------------------------------------------------------

@dataclass
class PipelineResult:
    plan: ExperimentPlan
    cut_cycle: int
    per_cycle: list[dict]
    aggregates: list[dict]
    timings: dict[str, float]  # PT, RT and TT in seconds
    model: SavedModel | None
    training: TrainResult | None
    holdout: RegressionAccuracy | None
    holdout_pairs: tuple[np.ndarray, np.ndarray] | None
    paths: dict[str, Path] = field(default_factory=dict)


def _load_cycles(plan: ExperimentPlan) -> list[CycleLog]:
    if isinstance(plan.dataset, (str, Path)):
        return ingest_csv(plan.dataset)
    if plan.dataset is None:
        raise InputError("no dataset given (set replay.dataset or pass a path)")
    return list(plan.dataset)


def _resolve_cut(plan: ExperimentPlan, cycle_ids: list[int]) -> int:
    if len(cycle_ids) < 2:
        raise InputError("need at least 2 cycles to split into train and replay")
    if plan.cut_cycle is not None:
        if not cycle_ids[0] <= plan.cut_cycle < cycle_ids[-1]:
            raise InputError(
                f"cut cycle {plan.cut_cycle} must lie inside [{cycle_ids[0]}, {cycle_ids[-1]})"
            )
        return plan.cut_cycle
    idx = int(round(plan.cut_fraction * len(cycle_ids))) - 1
    idx = max(0, min(len(cycle_ids) - 2, idx))
    return cycle_ids[idx]


def _deeporder_scores(matrix: StatusMatrix, model: SavedModel | None,
                      scheme: WeightScheme) -> np.ndarray:
    X = feature_matrix(matrix, bounds=model.bounds, expected_window=matrix.window_len)
    return np.clip(predict(model.net, X), 0.0, 1.0)


def _rocket_scores(matrix: StatusMatrix, model: SavedModel | None,
                   scheme: WeightScheme) -> np.ndarray:
    return priorities(matrix.statuses, scheme)


def _untreated_scores(matrix: StatusMatrix, model: SavedModel | None,
                      scheme: WeightScheme) -> np.ndarray:
    return np.zeros(len(matrix))


# One score per test of the cycle; rank turns them into one ordering. The
# random strategy is not here: it draws R orderings, scored as one matrix.
SCORERS = {
    STRATEGY_DEEPORDER: _deeporder_scores,
    STRATEGY_ROCKET: _rocket_scores,
    STRATEGY_UNTREATED: _untreated_scores,
}


def _run_until_deadline(taken: np.ndarray, actual_dur: np.ndarray,
                        budget_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Run the selected tests of each row of an (R, n) matrix in rank order,
    in actual seconds, and stop them at the budget as a CI deadline would.

    The selection charges estimated durations, so its tests may take longer
    than the budget. A test counts as run only if it finished within the
    budget; one that the deadline cuts short, and every test after it, did
    not. Returns the (R, n) mask of tests run and the (R,) seconds they took.
    """
    elapsed = np.cumsum(np.where(taken, actual_dur, 0.0), axis=1)
    ran = taken & (elapsed <= budget_s)
    return ran, np.where(ran, elapsed, 0.0).max(axis=1, initial=0.0)


def _evaluate_suite(suite: PrioritizedSuite, failed: np.ndarray, actual_dur: np.ndarray,
                    n_faults: int, budget_s: float) -> dict:
    """Score one ordering through the public API: the full order for APFD
    and the time metrics; for NAPFD, the budget selection as far as it runs
    before the deadline. ``failed`` and ``actual_dur`` are aligned with the
    ids ``suite`` was ranked from."""
    fail, dur = failed[suite.index], actual_dur[suite.index]
    full = CycleOutcome(fail, dur)
    tm = time_metrics(full)
    selection = select_within_budget(suite, budget_s)
    ran, actual_s = _run_until_deadline(selection.taken[None], dur[None], budget_s)
    partial = CycleOutcome(fail[ran[0]], dur[ran[0]], total_known_faults=n_faults)
    return {
        "apfd": apfd(full),
        "napfd": napfd(partial),
        "ft_s": tm.first_fault_s,
        "lt_s": tm.last_fault_s,
        "at_s": tm.avg_fault_s,
        "n_selected": len(partial.failed),
        "detected": int(np.count_nonzero(partial.failed)),
        "used_s": selection.used_s,
        "actual_s": float(actual_s[0]),
    }


def _evaluate_orders(perms: np.ndarray, failed: np.ndarray, actual_dur: np.ndarray,
                     est_dur: np.ndarray, n_faults: int, budget_s: float) -> dict:
    """What _evaluate_suite reports, for each row of an (R, n) matrix of
    orderings (indices into the per-test arrays), all rows at once.

    Returns one list of R values per key, bit-equal to scoring each
    ordering on its own: every sum, cumsum and division runs in the order
    the scalar code runs it.
    """
    R, n = perms.shape
    fail, dur = failed[perms], actual_dur[perms]
    m = int(failed.sum())
    positions = np.arange(1, n + 1)
    none = [None] * R
    out: dict = {}
    if n and m:
        out["apfd"] = (1.0 - (fail * positions).sum(axis=1) / (n * m) + 1.0 / (2 * n)).tolist()
    else:
        out["apfd"] = none

    taken, remaining = budget_walk(est_dur[perms], budget_s)
    ran, actual_s = _run_until_deadline(taken, dur, budget_s)
    n_sel = ran.sum(axis=1)
    hit = ran & fail
    detected = hit.sum(axis=1)
    if n_faults:
        p = detected / n_faults
        ranks = np.cumsum(ran, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            score = p - (ranks * hit).sum(axis=1) / (n_sel * n_faults) + p / (2 * n_sel)
        out["napfd"] = np.where(n_sel > 0, score, 0.0).tolist()
    else:
        out["napfd"] = none

    if m:
        at_faults = np.cumsum(dur, axis=1)[fail].reshape(R, m)
        out["ft_s"] = at_faults[:, 0].tolist()
        out["lt_s"] = at_faults[:, -1].tolist()
        out["at_s"] = at_faults.mean(axis=1).tolist()  # per row, pairwise as np.mean adds
    else:
        out["ft_s"] = out["lt_s"] = out["at_s"] = none
    out["n_selected"] = n_sel.tolist()
    out["detected"] = detected.tolist()
    out["used_s"] = (budget_s - remaining).tolist()
    out["actual_s"] = actual_s.tolist()
    return out


def _mean_or_none(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


_STRATEGY_ALIASES = {"untreated-order": STRATEGY_UNTREATED}


def run_pipeline(plan: ExperimentPlan) -> PipelineResult:
    plan.strategies = tuple(_STRATEGY_ALIASES.get(s, s) for s in plan.strategies)
    for strategy in plan.strategies:
        if strategy not in ALL_STRATEGIES:
            raise InputError(f"unknown strategy {strategy!r}; choose from {ALL_STRATEGIES}")
    if not plan.strategies:
        raise InputError("no strategies selected")
    if plan.window_len < 1:
        raise InputError(f"window length must be >= 1, got {plan.window_len}")
    if not 0 <= plan.budget_fraction < np.inf:
        raise InputError(f"budget fraction must be a finite number >= 0, "
                         f"got {plan.budget_fraction}")
    if plan.random_repeats < 1:
        raise InputError(f"random repeats must be >= 1, got {plan.random_repeats}")
    if plan.retrain_every is not None and plan.retrain_every < 0:
        raise InputError(f"retrain interval must be >= 0 (0: never), got {plan.retrain_every}")

    timings = {"PT": 0.0, "RT": 0.0, "TT": 0.0}
    rows: list[dict] = []
    model: SavedModel | None = None
    training: TrainResult | None = None
    holdout_preds: list[float] = []
    holdout_labels: list[float] = []
    dataset_name = plan.dataset_name()

    with span(timings, "TT"):
        with span(timings, "PT"):
            cycles = _load_cycles(plan)
            cycle_ids = [c.cycle_id for c in cycles]
            cut = _resolve_cut(plan, cycle_ids)
            train_cycles = [c for c in cycles if c.cycle_id <= cut]
            eval_cycles = [c for c in cycles if c.cycle_id > cut]
            scheme = weight_scheme(plan.weights, plan.window_len)
            needs_model = STRATEGY_DEEPORDER in plan.strategies
            if needs_model:
                model, training = train_model(train_cycles, plan)
            state = ReplayState.from_cycles(train_cycles, plan.window_len, cut)
            trained_through = cut

        for cycle in eval_cycles:
            if (
                needs_model
                and plan.retrain_every
                and cycle.cycle_id - trained_through >= plan.retrain_every
            ):
                with span(timings, "PT"):
                    history = [c for c in cycles if c.cycle_id < cycle.cycle_id]
                    model, training = train_model(history, plan)
                    trained_through = cycle.cycle_id

            ids = cycle.test_ids
            n_faults = int(cycle.failed.sum())
            # A left-to-right sum: np.sum adds pairwise, which changes the last bits.
            budget_s = plan.budget_fraction * sum(cycle.duration_s.tolist())

            with span(timings, "RT"):
                state.advance_to(cycle.cycle_id - 1)
                matrix = state.matrix_for(ids)
                suites = {
                    strategy: rank(ids, SCORERS[strategy](matrix, model, scheme),
                                   matrix.mean_duration_s)
                    for strategy in plan.strategies if strategy != STRATEGY_RANDOM
                }

            base = {
                "dataset": dataset_name,
                "cycle": cycle.cycle_id,
                "n_tests": len(ids),
                "n_faults": n_faults,
                "budget_s": budget_s,
            }
            for strategy in plan.strategies:
                if strategy == STRATEGY_RANDOM:
                    perms = np.array([
                        np.random.default_rng([plan.seed, cycle.cycle_id, rep]).permutation(len(ids))
                        for rep in range(plan.random_repeats)
                    ]).reshape(plan.random_repeats, len(ids))
                    reps = _evaluate_orders(
                        perms, cycle.failed, cycle.duration_s, matrix.mean_duration_s,
                        n_faults, budget_s,
                    )
                    scores = {key: _mean_or_none(values) for key, values in reps.items()}
                else:
                    scores = _evaluate_suite(suites[strategy], cycle.failed, cycle.duration_s,
                                             n_faults, budget_s)
                rows.append({**base, "strategy": strategy, **scores})

            with span(timings, "PT"):
                state.ingest(cycle)
                if needs_model:
                    matrix_now = state.matrix_for(ids)
                    labeled = label_dataset(matrix_now, scheme, bounds=model.bounds)
                    X, y, _ = stack(labeled)
                    holdout_preds.extend(predict(model.net, X).tolist())
                    holdout_labels.extend(y.tolist())

    holdout = None
    holdout_pairs = None
    if holdout_preds:
        holdout_pairs = (np.array(holdout_preds), np.array(holdout_labels))
        holdout = regression_accuracy(*holdout_pairs)

    aggregates = aggregate_rows(rows, plan.strategies)
    result = PipelineResult(
        plan=plan,
        cut_cycle=cut,
        per_cycle=rows,
        aggregates=aggregates,
        timings=timings,
        model=model,
        training=training,
        holdout=holdout,
        holdout_pairs=holdout_pairs,
    )
    if plan.out_dir is not None:
        _write_artifacts(result, Path(plan.out_dir))
    return result


def aggregate_rows(rows: list[dict], strategies: Sequence[str]) -> list[dict]:
    """Per-strategy means over fault-containing cycles."""
    out = []
    for strategy in strategies:
        mine = [r for r in rows if r["strategy"] == strategy]
        faulty = [r for r in mine if r["n_faults"] > 0]
        out.append({
            "strategy": strategy,
            "cycles": len(mine),
            "fault_cycles": len(faulty),
            "mean_apfd": _mean_or_none([r["apfd"] for r in faulty]),
            "mean_napfd": _mean_or_none([r["napfd"] for r in faulty]),
            "mean_ft_s": _mean_or_none([r["ft_s"] for r in faulty]),
            "mean_lt_s": _mean_or_none([r["lt_s"] for r in faulty]),
            "mean_at_s": _mean_or_none([r["at_s"] for r in faulty]),
        })
    return out


PER_CYCLE_COLUMNS = [
    "dataset", "cycle", "strategy", "n_tests", "n_faults", "apfd", "napfd",
    "ft_s", "lt_s", "at_s", "n_selected", "detected", "budget_s", "used_s", "actual_s",
]
AGGREGATE_COLUMNS = [
    "strategy", "cycles", "fault_cycles", "mean_apfd", "mean_napfd",
    "mean_ft_s", "mean_lt_s", "mean_at_s",
]


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in columns])


def _write_artifacts(result: PipelineResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = result.paths
    paths["per_cycle"] = out_dir / "per_cycle.csv"
    write_csv(paths["per_cycle"], PER_CYCLE_COLUMNS, result.per_cycle)
    paths["per_cycle_txt"] = out_dir / "per_cycle.txt"
    paths["per_cycle_txt"].write_text(
        format_table(PER_CYCLE_COLUMNS,
                     [[r.get(c) for c in PER_CYCLE_COLUMNS] for r in result.per_cycle])
        + "\n",
        encoding="utf-8",
    )
    paths["aggregate"] = out_dir / "aggregate.csv"
    write_csv(paths["aggregate"], AGGREGATE_COLUMNS, result.aggregates)
    paths["aggregate_txt"] = out_dir / "aggregate.txt"
    table = format_table(
        AGGREGATE_COLUMNS,
        [[a[c] for c in AGGREGATE_COLUMNS] for a in result.aggregates],
    )
    paths["aggregate_txt"].write_text(table + "\n", encoding="utf-8")
    paths["timings"] = out_dir / "timings.csv"
    write_csv(paths["timings"], ["phase", "seconds"],
              [{"phase": k, "seconds": v} for k, v in result.timings.items()])
    if result.model is not None:
        paths["model"] = out_dir / "model.txt"
        save_model(result.model, paths["model"])
    if result.training is not None:
        paths["training_log"] = out_dir / "training_log.csv"
        write_csv(
            paths["training_log"],
            ["epoch", "mse"],
            [{"epoch": i + 1, "mse": repr(m)} for i, m in enumerate(result.training.epoch_mse)],
        )
    if result.holdout is not None:
        paths["holdout"] = out_dir / "holdout.csv"
        write_csv(
            paths["holdout"],
            ["mse", "r_squared", "residual_std"],
            [{
                "mse": repr(result.holdout.mse),
                "r_squared": "" if result.holdout.r_squared is None
                else repr(result.holdout.r_squared),
                "residual_std": repr(result.holdout.residual_std),
            }],
        )


# --- history-length study ----------------------------------------------------

@dataclass
class StudyResult:
    windows: tuple[int, int]
    rows: list[dict]  # one per window: aggregates of the learned strategy
    delta_apfd: float | None
    delta_napfd: float | None
    results: dict[int, PipelineResult]


def history_length_study(plan: ExperimentPlan, windows: tuple[int, int] = (4, 10)
                         ) -> StudyResult:
    """Train one model per window length, replay identically, compare."""
    cycles = _load_cycles(plan)
    if len(cycles) <= max(windows):
        raise InsufficientHistory(
            f"dataset has {len(cycles)} cycles; need more than {max(windows)}"
        )
    results: dict[int, PipelineResult] = {}
    for w in dict.fromkeys(windows):  # deduplicate, keep order
        sub = replace(
            plan,
            dataset=cycles,
            window_len=w,
            strategies=(STRATEGY_DEEPORDER,),
            out_dir=None,
            name=plan.dataset_name(),
        )
        results[w] = run_pipeline(sub)

    rows = []
    for w in windows:
        agg = results[w].aggregates[0]
        rows.append({
            "dataset": plan.dataset_name(),
            "window": w,
            "mean_apfd": agg["mean_apfd"],
            "mean_napfd": agg["mean_napfd"],
        })
    a, b = rows[0], rows[1]
    delta_apfd = (
        None if a["mean_apfd"] is None or b["mean_apfd"] is None
        else b["mean_apfd"] - a["mean_apfd"]
    )
    delta_napfd = (
        None if a["mean_napfd"] is None or b["mean_napfd"] is None
        else b["mean_napfd"] - a["mean_napfd"]
    )
    study = StudyResult(tuple(windows), rows, delta_apfd, delta_napfd, results)
    if plan.out_dir is not None:
        out_dir = Path(plan.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "history_study.csv",
                  ["dataset", "window", "mean_apfd", "mean_napfd"], rows)
    return study


# --- ground-truth comparison ---------------------------------------------------

@dataclass
class GroundTruthReport:
    rows: list[dict]
    rocket_mean: float
    rocket_max: float
    model_mean: float | None
    model_max: float | None


def _read_priorities(path: str | Path) -> dict:
    """Each test's ``CalcPrio`` from the latest cycle whose row sets one. Empty
    cells are skipped; a value float() rejects raises MalformedRow. The log's
    other fields are ingest_csv's to check, before this runs."""
    latest: dict = {}  # test id -> (cycle id, priority)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if "CalcPrio" not in (reader.fieldnames or ()):
            return {}
        for rownum, row in enumerate(reader, start=2):
            raw = (row["CalcPrio"] or "").strip()
            if not raw:
                continue
            try:
                prio = float(raw)
            except ValueError:
                raise MalformedRow(rownum, f"bad priority {raw!r}") from None
            test_id, cycle_id = int(row["Id"]), int(row["Cycle"])
            if cycle_id > latest.get(test_id, (0,))[0]:
                latest[test_id] = (cycle_id, prio)
    return {test_id: prio for test_id, (_, prio) in latest.items()}


def compare_against_ground_truth(plan: ExperimentPlan,
                                 model: SavedModel | None = None) -> GroundTruthReport:
    """Per-test |actual - computed| for the history-weighted rule and, when a
    model is given, for its predictions. The actual priorities are the
    ``CalcPrio`` column of the CSV log ``plan.dataset``."""
    if not isinstance(plan.dataset, (str, Path)):
        raise MissingPriorityColumn("only a CSV log carries 'CalcPrio' values, "
                                    "not an in-memory dataset")
    cycles = ingest_csv(plan.dataset)
    actual = _read_priorities(plan.dataset)
    if not actual:
        raise MissingPriorityColumn("dataset carries no usable 'CalcPrio' values")

    window = model.window_len if model is not None else plan.window_len
    matrix = build_status_matrix(cycles, window)
    scheme = weight_scheme(plan.weights, window)
    rocket_prios = SCORERS[STRATEGY_ROCKET](matrix, model, scheme)
    preds = None if model is None else SCORERS[STRATEGY_DEEPORDER](matrix, model, scheme)

    rows = []
    for i, tid in enumerate(matrix.test_ids):
        if tid not in actual:
            continue
        row = {
            "test_id": tid,
            "actual": actual[tid],
            "rocket": float(rocket_prios[i]),
            "rocket_diff": abs(actual[tid] - float(rocket_prios[i])),
        }
        if preds is not None:
            row["model"] = float(preds[i])
            row["model_diff"] = abs(actual[tid] - float(preds[i]))
        rows.append(row)

    rocket_diffs = [r["rocket_diff"] for r in rows]
    model_diffs = [r["model_diff"] for r in rows] if preds is not None else None
    report = GroundTruthReport(
        rows=rows,
        rocket_mean=float(np.mean(rocket_diffs)),
        rocket_max=float(np.max(rocket_diffs)),
        model_mean=float(np.mean(model_diffs)) if model_diffs else None,
        model_max=float(np.max(model_diffs)) if model_diffs else None,
    )
    if plan.out_dir is not None:
        out_dir = Path(plan.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = ["test_id", "actual", "rocket", "rocket_diff"]
        if preds is not None:
            columns += ["model", "model_diff"]
        write_csv(out_dir / "ground_truth.csv", columns, rows)
    return report
