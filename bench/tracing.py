"""Spans around the calls that ``testprio.pipeline`` and ``testprio.cli`` make
into each layer, recorded from the benchmark's own code.

A traced worker replaces the module-level names those two modules imported
(and the ``ReplayState`` methods) with wrappers that open a span, so nothing
under ``src/`` changes. Spans live in memory as plain dicts and are written
out once the run ends. The parent process turns them into per-layer metrics
with :func:`layer_metrics`; it never imports ``testprio``.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Nested spans of one single-threaded process: name, start, end, parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.prefix = ""  # prepended to every span name, e.g. "cli." during prioritize
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": self.prefix + name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": self.clock(),
            "end": None,
            "error": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def wrap(self, fn, name: str, count=None, rss: bool = False):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` adds counts
        to it (``result`` is None when the call raised), ``rss`` records the
        growth of the process's peak RSS across the call. The time spent
        taking counts is kept in the span's ``hook_s``: it is tracing
        overhead, not work of the layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = None
            rss_before = peak_rss_mib() if rss else 0.0
            with self.span(name) as record:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    start = time.perf_counter()
                    if rss:
                        record["counts"]["rss_growth_mib"] = peak_rss_mib() - rss_before
                    if count is not None:
                        record["counts"].update(count(args, result))
                    record["hook_s"] = time.perf_counter() - start
            return result

        return traced


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds a span wrapper adds to one call, timed on a function that does
    nothing. Two replays are too noisy to resolve this by their difference:
    on a shared VM they differ by whole seconds from run to run."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibrate")
    elapsed = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - start)
    return max(elapsed[1] - elapsed[0], 0.0) / calls


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the pipeline and the CLI call."""
    from testprio import cli, pipeline, rocket
    from testprio.augment import split_bins

    def n_rows(args, cycles):
        return {"rows": sum(len(c.records) for c in cycles)} if cycles else {}

    def n_vectors(args, vectors):
        return {"vectors": len(vectors)} if vectors is not None else {}

    def n_input_rows(args, result):
        return {"rows": len(args[1])}

    def train_counts(args, result):
        counts = {"vectors": len(args[1])}
        if result is not None:
            counts["epochs"] = result.stopped_epoch
        return counts

    def augment_counts(args, result):
        counts = {"fail_bin_vectors": len(split_bins(args[0])[0])}
        if result is not None:
            counts["synthetic_vectors"] = len(result) - len(args[0])
        return counts

    def budget(args, result):
        return {"budget_s": float(args[1])}

    def actual_seconds(args, result):
        return {"actual_s": float(sum(args[0].duration_s))}

    # (module, imported name, span name, count)
    hooks = [
        (pipeline, "ingest_csv", "history.ingest_csv", n_rows),
        (pipeline, "build_status_matrix", "history.build_status_matrix", None),
        (pipeline, "label_dataset", "rocket.label_dataset", n_vectors),
        (pipeline, "extract", "features.extract", n_vectors),
        (pipeline, "stack", "features.stack", None),
        (pipeline, "feature_matrix", "features.feature_matrix", None),
        (pipeline, "priorities", "rocket.priorities", None),
        (pipeline, "fail_ratio", "augment.fail_ratio", None),
        (pipeline, "train", "net.train", train_counts),
        (pipeline, "predict", "net.predict", n_input_rows),
        (pipeline, "rank", "prioritize.rank", None),
        (pipeline, "select_within_budget", "prioritize.select_within_budget", budget),
        (pipeline, "apfd", "metrics.apfd", None),
        (pipeline, "napfd", "metrics.napfd", actual_seconds),
        (pipeline, "time_metrics", "metrics.time_metrics", None),
        # label_dataset calls these through the rocket module's own names
        (rocket, "extract", "features.extract", n_vectors),
        (rocket, "priorities", "rocket.priorities", None),
        (cli, "load_model", "net.load_model", None),
        (cli, "ingest_csv", "history.ingest_csv", n_rows),
        (cli, "build_status_matrix", "history.build_status_matrix", None),
        (cli, "extract", "features.extract", n_vectors),
        (cli, "stack", "features.stack", None),
        (cli, "predict", "net.predict", n_input_rows),
        (cli, "rank", "prioritize.rank", None),
        (cli, "write_suite_csv", "prioritize.write_suite_csv", None),
        (cli, "write_order", "prioritize.write_order", None),
    ]
    for module, attr, name, count in hooks:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, count))
    pipeline.augment = tracer.wrap(pipeline.augment, "augment.augment", augment_counts, rss=True)
    for method in ("ingest", "advance_to", "matrix_for"):
        fn = getattr(pipeline.ReplayState, method)
        setattr(pipeline.ReplayState, method, tracer.wrap(fn, "state." + method))


# --- rollup (parent side) -------------------------------------------------------

def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


def rollup(spans: list[dict]) -> None:
    """Add ``dur`` and ``self`` to each span: self time is the duration minus
    the part its direct children cover (spans nest, so that is their sum)."""
    covered: dict = defaultdict(float)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            covered[s["parent"]] += s["dur"]
    for s in spans:
        s["self"] = s["dur"] - covered[s["id"]]


def subtree(spans: list[dict], root: dict) -> list[dict]:
    """``root`` and every span below it (spans are listed in start order)."""
    inside = {root["id"]}
    out = [root]
    for s in spans[root["id"] + 1:]:
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


class SpanView:
    """Totals over the spans of one operation."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, *names: str) -> float | None:
        found = [s for n in names for s in self.named(n)]
        return sum(s["dur"] for s in found) if found else None

    def self_time(self, name: str) -> float | None:
        found = self.named(name)
        return sum(s["self"] for s in found) if found else None

    def calls(self, *names: str) -> int:
        return sum(len(self.named(n)) for n in names)

    def count(self, name: str, key: str) -> float | None:
        values = [s["counts"][key] for s in self.named(name) if key in s["counts"]]
        return sum(values) if values else None

    def layer_time(self, layer: str) -> float | None:
        """Time inside a layer, counting a span nested in its own layer once."""
        found = [
            s for s in self.spans
            if _layer(s["name"]) == layer
            and (s["parent"] not in self.by_id or _layer(self.by_id[s["parent"]]["name"]) != layer)
        ]
        return sum(s["dur"] for s in found) if found else None

    def layer_calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if _layer(s["name"]) == layer)


def _rate(amount, seconds):
    if amount is None or not seconds:
        return None
    return amount / seconds


def over_budget_share(view: SpanView) -> float | None:
    """Share of budget selections whose tests, in actual seconds, overrun the
    budget. The pipeline scores each selection with ``napfd`` right after
    ``select_within_budget``; that outcome carries the actual durations."""
    pending = None
    selections = over = 0
    for s in view.spans:
        if s["name"] == "prioritize.select_within_budget":
            pending = s["counts"]["budget_s"]
        elif s["name"] == "metrics.napfd" and pending is not None:
            selections += 1
            over += s["counts"]["actual_s"] > pending
            pending = None
    return over / selections if selections else None


def layer_metrics(spans: list[dict], span_cost: float,
                  napfd: dict[str, float | None]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced worker: setup, one replay, one prioritize.

    ``span_cost`` is what one span wrapper adds to a call (:func:`span_cost_s`).
    Metrics of a layer the workload never entered are left out.
    """
    rollup(spans)
    roots = {s["name"]: s for s in spans if s["parent"] is None}
    views = {op: SpanView(subtree(spans, roots[op])) if op in roots else SpanView([])
             for op in ("op.setup", "op.replay", "op.prioritize")}
    setup, replay, cli = views["op.setup"], views["op.replay"], views["op.prioritize"]

    ingest_s = setup.total("history.ingest_csv")
    extract_s = replay.total("features.extract")
    train_s = replay.total("net.train")
    predict_s = replay.total("net.predict")
    m: dict[str, tuple[float | None, str]] = {
        "history.ingest_s": (ingest_s, "s"),
        "history.ingest_rows_per_s": (_rate(setup.count("history.ingest_csv", "rows"), ingest_s), "1/s"),
        "history.status_matrix_s": (replay.total("history.build_status_matrix"), "s"),
        "state.s": (replay.layer_time("state"), "s"),
        "state.calls": (replay.layer_calls("state") or None, "count"),
        "features.extract_s": (extract_s, "s"),
        "features.extract_vectors_per_s": (_rate(replay.count("features.extract", "vectors"), extract_s), "1/s"),
        "features.feature_matrix_s": (replay.total("features.feature_matrix"), "s"),
        "features.stack_s": (replay.total("features.stack"), "s"),
        "rocket.label_s": (replay.self_time("rocket.label_dataset"), "s"),
        "rocket.labeled_vectors": (replay.count("rocket.label_dataset", "vectors"), "count"),
        "rocket.priorities_s": (replay.total("rocket.priorities"), "s"),
        "augment.s": (replay.total("augment.augment"), "s"),
        "augment.fail_bin_vectors": (replay.count("augment.augment", "fail_bin_vectors"), "count"),
        "augment.synthetic_vectors": (replay.count("augment.augment", "synthetic_vectors"), "count"),
        "augment.rss_growth_mib": (replay.count("augment.augment", "rss_growth_mib"), "MiB"),
        "augment.errors": (
            sum(s["error"] is not None for s in replay.named("augment.augment"))
            if replay.named("augment.augment") else None, "count"),
        "net.train_s": (train_s, "s"),
        "net.train_vectors": (replay.count("net.train", "vectors"), "count"),
        "net.epochs": (replay.count("net.train", "epochs"), "count"),
        "net.epochs_per_s": (_rate(replay.count("net.train", "epochs"), train_s), "1/s"),
        "net.predict_s": (predict_s, "s"),
        "net.predict_rows_per_s": (_rate(replay.count("net.predict", "rows"), predict_s), "1/s"),
        "prioritize.rank_s": (replay.total("prioritize.rank"), "s"),
        "prioritize.select_s": (replay.total("prioritize.select_within_budget"), "s"),
        "prioritize.select_calls": (replay.calls("prioritize.select_within_budget") or None, "count"),
        "prioritize.over_budget_share": (over_budget_share(replay), "share"),
        "metrics.score_s": (replay.total("metrics.apfd", "metrics.napfd", "metrics.time_metrics"), "s"),
        "metrics.score_calls": (
            replay.calls("metrics.apfd", "metrics.napfd", "metrics.time_metrics") or None, "count"),
    }
    for strategy, value in napfd.items():
        m[f"metrics.napfd.{strategy}"] = (value, "share")
    if "op.replay" in roots:
        m["pipeline.self_s"] = (roots["op.replay"]["self"], "s")
        # The op span is the benchmark's own; every span below it is a wrapper.
        wrapped = replay.spans[1:]
        m["trace.overhead_s"] = (len(wrapped) * span_cost + sum(s.get("hook_s", 0.0) for s in wrapped), "s")
    for metric, name in (
        ("cli.history.ingest_s", "cli.history.ingest_csv"),
        ("cli.history.status_matrix_s", "cli.history.build_status_matrix"),
        ("cli.features.extract_s", "cli.features.extract"),
        ("cli.features.stack_s", "cli.features.stack"),
        ("cli.net.predict_s", "cli.net.predict"),
        ("cli.prioritize.rank_s", "cli.prioritize.rank"),
    ):
        m[metric] = (cli.total(name), "s")
    return {k: v for k, v in m.items() if v[0] is not None}
