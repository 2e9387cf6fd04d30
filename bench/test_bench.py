"""Self-test of the benchmark harness: span rollup and failure accounting.

Runs in seconds on a tiny simulated suite:

  python3 -m pytest -q bench
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import measure  # noqa: E402
from tracing import SpanView, Tracer, over_budget_share, rollup, subtree  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = dict(
    name="tiny", n_tests=8, n_cycles=30, participation=0.8, break_prob=0.05,
    heal_prob=0.2, burst_fail=0.5, propensity_a=0.3, propensity_b=4.0,
)


def tiny_workload(logs=1, **overrides) -> Workload:
    return Workload(name="tiny", profile=json.dumps({**TINY, **overrides}),
                    default_seed=3, augment_enabled=False, why="self-test", logs=logs)


@pytest.fixture(autouse=True)
def short_prioritize(monkeypatch):
    monkeypatch.setattr(run, "PRIORITIZE_S", 0.0)


def fake_clock(step=1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=fake_clock())
    with tracer.span("op.replay"):              # t=0 .. 9
        with tracer.span("state.ingest"):       # t=1 .. 4
            with tracer.span("state.advance_to"):  # t=2 .. 3
                pass
        with tracer.span("rocket.label_dataset"):  # t=5 .. 8
            with tracer.span("features.extract"):  # t=6 .. 7
                pass
    spans = tracer.spans
    rollup(spans)
    by_name = {s["name"]: s for s in spans}
    assert by_name["op.replay"]["dur"] == 9
    assert by_name["op.replay"]["self"] == 9 - 3 - 3
    assert by_name["state.ingest"]["self"] == 2
    assert by_name["rocket.label_dataset"]["self"] == 2
    view = SpanView(subtree(spans, by_name["op.replay"]))
    assert view.layer_time("state") == 3  # the nested advance_to is not counted twice
    assert view.layer_calls("state") == 2
    assert sum(s["self"] for s in spans) == by_name["op.replay"]["dur"]


def test_failed_call_closes_its_span_and_keeps_counts():
    tracer = Tracer(clock=fake_clock())

    def boom(vectors):
        raise MemoryError("too big")

    wrapped = tracer.wrap(boom, "augment.augment", lambda args, out: {"inputs": len(args[0])})
    with pytest.raises(MemoryError):
        wrapped([1, 2, 3])
    (span,) = tracer.spans
    assert span["error"] == "MemoryError"
    assert span["end"] is not None
    assert span["counts"] == {"inputs": 3}


def test_over_budget_pairs_each_selection_with_its_napfd():
    tracer = Tracer(clock=fake_clock())
    for budget, actual in ((10.0, 11.0), (10.0, 9.5), (5.0, 5.0), (5.0, 6.0)):
        with tracer.span("prioritize.select_within_budget") as s:
            s["counts"]["budget_s"] = budget
        with tracer.span("metrics.napfd") as s:
            s["counts"]["actual_s"] = actual
    rollup(tracer.spans)
    assert over_budget_share(SpanView(tracer.spans)) == 0.5


def test_tiny_run_is_correct_and_accounts_every_operation():
    (report,) = measure(tiny_workload(logs=2), seed=3, seconds=0, passes=(0,))
    assert report["correct"], report["checks"]
    assert len(report["checks"]) == 3
    assert report["failed"] == 0
    assert [log["seed"] for log in report["logs"]] == [3, 3 + run.LOG_SEED_STRIDE]
    m = report["metrics"]
    assert m["setup_s"]["n"] == run.SETUP_SAMPLES
    assert m["replay_s"]["n"] == 2 and m["prioritize_s"]["n"] >= 2  # one round per log
    assert report["attempted"] == run.SETUP_SAMPLES + 2 + m["prioritize_s"]["n"]
    assert m["error_rate"]["value"] == 0
    apfd = m["apfd.deeporder"]
    assert apfd["n"] == 2 and apfd["value"] == pytest.approx(sum(apfd["samples"]) / 2)
    assert set(report["per_cycle_digest"]) == {"log0", "log1"}


def test_failing_replay_counts_as_a_failed_operation():
    # One cycle cannot be split into training and replay: run_pipeline raises.
    (report,) = measure(tiny_workload(n_cycles=1), seed=3, seconds=0, passes=(0,))
    assert [f["op"] for f in report["failures"]] == ["replay"]
    assert report["failures"][0]["type"] == "InputError"
    m = report["metrics"]
    assert m["replay_s"]["n"] == 0 and m["replay_s"]["value"] is None
    assert m["prioritize_s"]["n"] == 0  # no model, so no prioritize attempt
    assert report["attempted"] == m["setup_s"]["n"] + 1
    assert m["error_rate"]["value"] == 1 / report["attempted"]
    # Nothing was verified, so the run is not correct.
    assert not report["correct"]
    assert {c["name"] for c in report["checks"] if not c["ok"]} == set(run.REQUIRED_CHECKS)


def test_both_passes_share_one_log_and_the_traced_one_rolls_up_to_the_replay():
    untraced, report = measure(tiny_workload(), seed=3, seconds=0)
    assert untraced["trace"] == 0 and report["trace"] == 1
    assert untraced["logs"] == report["logs"]
    assert report["per_cycle_digest"] == untraced["per_cycle_digest"]  # tracing changes no output
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == 3  # setup, replay, prioritize; no untraced worker
    spans = report["spans"]
    replay = next(s for s in spans if s["name"] == "op.replay")
    inside = subtree(spans, replay)
    assert sum(s["self"] for s in inside) == pytest.approx(replay["dur"], abs=1e-9)
    children = sum(s["dur"] for s in inside if s["parent"] == replay["id"])
    m = report["metrics"]
    assert m["pipeline.self_s"]["value"] == pytest.approx(replay["dur"] - children, abs=1e-9)
    assert "augment.s" not in m  # augmentation is off
    for name in ("net.train_s", "state.s", "cli.history.ingest_s", "trace.overhead_s"):
        assert name in m
    assert m["net.epochs"]["value"] >= 1
    assert 0 < m["trace.overhead_s"]["value"] < replay["dur"]
