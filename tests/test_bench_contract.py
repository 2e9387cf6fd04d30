"""The replay benchmark's traced pass still finds every layer it measures.

``bench/tracing.py`` wraps names that ``testprio.pipeline``, ``testprio.rocket``
and ``testprio.cli`` import, and derives the per-layer metrics that
``BENCHMARK.json`` declares from the spans those wrappers record. A refactor
that renames one of them, or takes it off the replay path, leaves a metric
without a value. This test runs one traced worker on a tiny log and checks
that each declared metric still has one.

The bench modules are loaded by file path, and ``sys.modules`` and
``sys.path`` are restored afterwards, so their generic names (``run``,
``worker``, ``tracing``) stay out of the other tests.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    saved_path = list(sys.path)
    try:
        run = _load(BENCH / "run.py", "_bench_run")
        selftest = _load(BENCH / "test_bench.py", "_bench_selftest")
        yield run, selftest
    finally:
        sys.path[:] = saved_path
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == BENCH:
                del sys.modules[name]


def declared_per_layer() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"]]


@pytest.mark.parametrize("augment", [False, True], ids=["augment-off", "augment-on"])
def test_traced_run_reports_every_declared_layer_metric(bench, augment):
    run, selftest = bench
    workload = dataclasses.replace(selftest.tiny_workload(), augment_enabled=augment)
    (report,) = run.measure(workload, seed=3, seconds=0, passes=(1,))
    assert report["correct"], report["checks"]
    assert report["failed"] == 0, report["failures"]
    metrics = report["metrics"]
    missing = [name for name in declared_per_layer()
               if metrics.get(name, {}).get("value") is None]
    assert not missing, f"per-layer metrics without a value: {missing}"
    # label_dataset labels every pre-cut row on the training path and every
    # replayed row on the holdout path: each row of the log exactly once.
    assert metrics["rocket.labeled_vectors"]["value"] == report["logs"][0]["rows"]
