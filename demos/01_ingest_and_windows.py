#!/usr/bin/env python3
"""Walk through the raw data model: a CSV execution log becomes cycle
groups, and each test gets a rolling status window.

Also writes demos/out/sample.csv, which the README's CLI walkthrough and
the other demos reuse.
"""

from pathlib import Path

from testprio.history import build_status_matrix, emit_csv, from_epoch_us, ingest_csv
from testprio.simulate import PAINT_CONTROL_LIKE, generate_history, failure_ratio, row_count

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# A synthetic history shaped like a small industrial robotics suite:
# bursty regressions plus a few chronically flaky tests.
cycles = generate_history(PAINT_CONTROL_LIKE, seed=42)
csv_path = OUT / "sample.csv"
emit_csv(cycles, csv_path)
print(f"wrote {csv_path} ({row_count(cycles)} executions over {len(cycles)} cycles, "
      f"{failure_ratio(cycles):.1%} failing)")

# Round-trip through the CSV reader; grouping and ordering are preserved.
parsed = ingest_csv(csv_path)
assert parsed == cycles
# Each cycle holds its rows as columns; last_run is int64 epoch microseconds.
first = parsed[0]
print(f"\nfirst row: test {first.test_ids[0]} ({first.names[0]}) ran "
      f"{first.duration_s[0]}s on {from_epoch_us(first.last_run[0])}, "
      f"{'failed' if first.failed[0] else 'passed'}")

# The matrix view: last 10 outcomes per test, most recent last.
# +1 = failed, 0 = passed, -1 = not executed in that cycle.
# last_run holds int64 microseconds since 1970-01-01, which numpy reads as dates.
matrix = build_status_matrix(parsed, window_len=10)
last_day = matrix.last_run.astype("datetime64[us]").astype("datetime64[D]")
print(f"\nstatus windows as of cycle {parsed[-1].cycle_id}:")
print("test  window(oldest..newest)        mean_s   last_run")
for i, tid in enumerate(matrix.test_ids[:8]):
    window = " ".join(f"{s:+d}" for s in matrix.statuses[i])
    print(f"{tid:>4}  {window}  {matrix.mean_duration_s[i]:7.2f}   {last_day[i]}")
print("...")

# Narrower windows are suffixes of wider ones; padding is always -1 on the
# old side, so a young test keeps its recent history in the same slots.
narrow = build_status_matrix(parsed, window_len=4)
assert (narrow.statuses == matrix.statuses[:, -4:]).all()
print("\nwindow_len=4 equals the last 4 columns of window_len=10: ok")
