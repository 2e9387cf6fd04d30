"""Benchmark worker: one fresh process that drives testprio's public API.

``bench/run.py`` starts it; it is not meant to be run by hand.

  worker.py generate --root R --profile P --seed N --out LOG.csv
      Write a simulated execution log and print its manifest as JSON.

  worker.py session --root R --log LOG.csv --workdir DIR --result OUT.jsonl
                    [--replay] [--prioritize-for S] [--augment 0|1] [--trace 0|1]
      A closed loop of one caller: time ``import testprio`` plus
      ``ingest_csv`` (setup); then, if asked, one ``run_pipeline`` call
      (replay), which saves the model it trained to DIR; then, if asked,
      ``testprio prioritize`` calls with that model, repeated for at least
      S seconds (at least once). Every operation is appended to OUT.jsonl as soon as it ends,
      so the parent can account for an operation that was running when the
      worker died.

Before anything is imported the worker caps its own address space
(``--as-limit-mib``), so an oversized allocation surfaces as a MemoryError
instead of an out-of-memory kill, and pins itself to one CPU (``--cpu``). The
parent pins the BLAS thread count through the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import Tracer, install, peak_rss_mib, span_cost_s  # noqa: E402

CUT_FRACTION = 0.8  # ExperimentPlan's default: train on the first 80% of cycles

ROWS_CHECK = "per_cycle has one row per replayed cycle per strategy"
RANGE_CHECK = "APFD/NAPFD in [0, 1], None only on fault-free cycles"
ORDER_CHECK = "order.txt is a permutation of the log's test ids"
# Every log a replaying session ran on must pass all three, or nothing was verified.
REQUIRED_CHECKS = (ROWS_CHECK, RANGE_CHECK, ORDER_CHECK)


def _import_testprio(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import testprio

    if not Path(testprio.__file__).resolve().is_relative_to(src):
        raise ImportError(f"testprio was imported from {testprio.__file__}, not from {src}")
    return testprio


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def generate(args) -> int:
    testprio = _import_testprio(Path(args.root))
    from testprio import simulate

    if args.profile.startswith("{"):
        profile = simulate.SuiteProfile(**json.loads(args.profile))
    else:
        profile = getattr(simulate, args.profile)
    cycles = simulate.generate_history(profile, seed=args.seed)
    out = Path(args.out)
    testprio.emit_csv(cycles, out)
    # Every training vector ends at its own execution, so the fail-bin share
    # of the training set is the failure share of the pre-cut executions.
    cut = max(0, min(len(cycles) - 2, int(round(CUT_FRACTION * len(cycles))) - 1))
    pre_cut = [r for c in cycles[: cut + 1] for r in c.records]
    fail_bin = sum(r.failed for r in pre_cut)
    print(json.dumps({
        "profile": profile.name,
        "seed": args.seed,
        "rows": simulate.row_count(cycles),
        "tests": len({r.test_id for c in cycles for r in c.records}),
        "cycles": len(cycles),
        "fail_bin_vectors": fail_bin,
        "fail_bin_share": fail_bin / len(pre_cut),
        "sha256": sha256_file(out),
    }))
    return 0


# --- output checks ----------------------------------------------------------

def per_cycle_digest(rows: list[dict]) -> str:
    text = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check_replay(result, cycles) -> list[dict]:
    strategies = result.plan.strategies
    replayed = [c.cycle_id for c in cycles if c.cycle_id > result.cut_cycle]
    keys = [(r["cycle"], r["strategy"]) for r in result.per_cycle]
    expected = {(c, s) for c in replayed for s in strategies}
    rows_ok = len(keys) == len(expected) and set(keys) == expected
    bad = []
    for r in result.per_cycle:
        for key in ("apfd", "napfd"):
            v = r[key]
            if v is None and r["n_faults"] > 0 or v is not None and not 0.0 <= v <= 1.0:
                bad.append(f"cycle {r['cycle']} {r['strategy']} {key}={v!r}")
    return [
        {"name": ROWS_CHECK, "ok": rows_ok,
         "detail": f"{len(keys)} rows for {len(replayed)} cycles x {len(strategies)} strategies"},
        {"name": RANGE_CHECK, "ok": not bad,
         "detail": "; ".join(bad[:3]) or f"{2 * len(keys)} values"},
    ]


def check_order(order_path: Path, test_ids: set[str]) -> dict:
    lines = order_path.read_text(encoding="utf-8").split() if order_path.exists() else []
    ok = len(lines) == len(test_ids) and set(lines) == test_ids
    return {"name": ORDER_CHECK, "ok": ok,
            "detail": f"{len(lines)} lines, {len(set(lines))} distinct, {len(test_ids)} test ids"}


# --- session ------------------------------------------------------------------

class Session:
    def __init__(self, args):
        self.result = Path(args.result)
        self.tracer = Tracer() if args.trace else None

    def emit(self, record: dict) -> None:
        with open(self.result, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, name: str, fn):
        """Run one timed operation; an exception is a failure with no timing."""
        self.emit({"kind": "start", "op": name})
        start = time.perf_counter()
        try:
            with self.span("op." + name):
                value = fn()
        except Exception as exc:  # every failure is counted, none is dropped
            self.emit({"kind": "op", "op": name, "ok": False,
                       "error": {"type": type(exc).__name__, "message": str(exc)[:300]}})
            return None
        self.emit({"kind": "op", "op": name, "ok": True,
                   "seconds": time.perf_counter() - start})
        return value


def session(args) -> int:
    root, log = Path(args.root), Path(args.log)
    s = Session(args)

    def setup():
        testprio = _import_testprio(root)
        with s.span("history.ingest_csv") as record:
            cycles = testprio.ingest_csv(log)
        if record is not None:
            record["counts"]["rows"] = sum(len(c.records) for c in cycles)
        return testprio, cycles

    summary: dict = {"kind": "summary", "checks": []}
    loaded = s.op("setup", setup)
    if loaded is not None and (args.replay or args.prioritize_for is not None):
        testprio, cycles = loaded
        import testprio.cli  # noqa: F401  (untimed: setup_s is the library import)
        if s.tracer:
            install(s.tracer)
        replay_and_prioritize(s, args, testprio, cycles, summary)
    summary["peak_rss_mib"] = peak_rss_mib()
    if s.tracer:
        summary["spans"] = s.tracer.spans
        summary["span_cost_s"] = span_cost_s()
    s.emit(summary)
    return 0


def replay_and_prioritize(s: Session, args, testprio, cycles, summary: dict) -> None:
    log, workdir = Path(args.log), Path(args.workdir)
    model_path = workdir / "model.txt"  # written by every replay, read by prioritize
    prio_dir = workdir / "prioritize"
    argv = ["prioritize", str(log), "--model", str(model_path), "--out-dir", str(prio_dir)]

    def replay():
        plan = testprio.ExperimentPlan(dataset=cycles, augment_enabled=bool(args.augment))
        return testprio.run_pipeline(plan)

    def prioritize():
        if s.tracer:
            s.tracer.prefix = "cli."
        try:
            code = testprio.cli.main(argv)
        finally:
            if s.tracer:
                s.tracer.prefix = ""
        if code != 0:
            raise RuntimeError(f"testprio prioritize exited with status {code}")
        return True

    if args.replay:
        result = s.op("replay", replay)
        if result is not None:
            summary["checks"] += check_replay(result, cycles)
            summary["apfd"] = {a["strategy"]: a["mean_apfd"] for a in result.aggregates}
            summary["napfd"] = {a["strategy"]: a["mean_napfd"] for a in result.aggregates}
            summary["per_cycle_digest"] = per_cycle_digest(result.per_cycle)
            summary["epochs"] = result.training.stopped_epoch
            testprio.save_model(result.model, model_path)
    if args.prioritize_for is None or not model_path.exists():
        return
    test_ids = {str(r.test_id) for c in cycles for r in c.records}
    order_path = prio_dir / "order.txt"
    start = time.perf_counter()
    while True:
        order_path.unlink(missing_ok=True)
        if s.op("prioritize", prioritize):
            summary["checks"].append(check_order(order_path, test_ids))
        if time.perf_counter() - start >= args.prioritize_for:
            break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("generate", "session"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--as-limit-mib", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--profile")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--log")
    parser.add_argument("--workdir")
    parser.add_argument("--result")
    parser.add_argument("--replay", action="store_true")
    parser.add_argument("--prioritize-for", type=float, default=None,
                        help="call prioritize repeatedly for at least this many seconds")
    parser.add_argument("--augment", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    limit = args.as_limit_mib * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    os.sched_setaffinity(0, {args.cpu})
    return generate(args) if args.mode == "generate" else session(args)


if __name__ == "__main__":
    sys.exit(main())
