#!/usr/bin/env python3
"""The full experiment: train on the first 80% of cycles, then replay every
later cycle, re-ranking its tests with four strategies and scoring how
early each ordering finds the real failures.

Strategies: the learned model (deeporder), the deterministic recency rule
(rocket), a 30-repetition random mean, and the untouched log order.
Metrics: APFD on the full ordering; NAPFD under a 50% time budget, where
tests are selected on their mean past durations and stopped at the
deadline in actual seconds; time-to-fault numbers; and wall-clock phase
accounting (PT/RT/TT).
"""

from pathlib import Path

from testprio.metrics import format_table
from testprio.pipeline import AGGREGATE_COLUMNS, ExperimentPlan, run_pipeline
from testprio.simulate import PAINT_CONTROL_LIKE, generate_history

OUT = Path(__file__).parent / "out" / "replay"

cycles = generate_history(PAINT_CONTROL_LIKE, seed=42)
plan = ExperimentPlan(dataset=cycles, seed=7, name="paint", out_dir=OUT)
result = run_pipeline(plan)

print(f"cut at cycle {result.cut_cycle}; replayed "
      f"{result.aggregates[0]['cycles']} cycles\n")
print(format_table(AGGREGATE_COLUMNS,
                   [[a[c] for c in AGGREGATE_COLUMNS] for a in result.aggregates]))

wins = 0
faulty = 0
per_cycle = {}
for row in result.per_cycle:
    per_cycle.setdefault(row["cycle"], {})[row["strategy"]] = row
for strategies in per_cycle.values():
    if strategies["deeporder"]["n_faults"] > 0:
        faulty += 1
        if strategies["deeporder"]["napfd"] > strategies["random"]["napfd"]:
            wins += 1
print(f"\nlearned ordering beat the random mean in {wins}/{faulty} fault cycles")

t = result.timings
print(f"phases: PT {t['PT']:.2f}s (process+train+validate), "
      f"RT {t['RT'] * 1e3:.1f}ms (prioritize), TT {t['TT']:.2f}s total")
print(f"\nartifacts written under {OUT}:")
for name, path in result.paths.items():
    print(f"  {name:<13} {path.name}")
