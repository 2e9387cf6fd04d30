"""Every demo runs end to end, each in its own interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, expected", [
    ("01_ingest_and_windows.py", "window_len=4 equals the last 4 columns of window_len=10: ok"),
    ("02_priority_labels.py", "the five most failure-prone right now"),
    ("03_rebalance_rare_failures.py",
     "original failures all kept; rerun with the same seed is identical"),
    ("04_train_and_predict.py", "predictions bit-identical"),
    ("05_budget_selection.py", "budget    60s -> run ui-login, smoke-api, export-csv"),
    ("06_replay_experiment.py", "phases: PT "),
    ("07_history_length.py", "window 10 minus window 4:"),
])
def test_demo_runs(demo, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
