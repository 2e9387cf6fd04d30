"""The quick demos run end to end, each in its own interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, expected", [
    ("02_priority_labels.py", "the five most failure-prone right now"),
    ("03_rebalance_rare_failures.py",
     "original failures all kept; rerun with the same seed is identical"),
    ("05_budget_selection.py", "budget    60s -> run ui-login, smoke-api, export-csv"),
    ("06_replay_experiment.py", "phases: PT "),
])
def test_demo_runs(demo, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
