#!/usr/bin/env python3
"""From predicted priorities to a schedule that fits the time budget.

Ranking is a stable descending sort; selection walks the ranking and takes
every test whose historical mean duration still fits, skipping (not
stopping at) tests that do not, so cheap lower-priority tests can fill
leftover budget.
"""

from testprio.prioritize import rank, select_within_budget

tests = ["ui-login", "payments-e2e", "search-index", "cart-flow", "smoke-api", "export-csv"]
predictions = [0.91, 0.88, 0.55, 0.55, 0.32, 0.10]
durations = [40.0, 210.0, 95.0, 30.0, 12.0, 5.0]  # historical mean seconds

suite = rank(tests, predictions, durations)
print("ranked suite (ties keep input order):")
ranked = zip(suite.order(), suite.priority.tolist(), suite.duration_s.tolist())
for pos, (tid, prio, dur) in enumerate(ranked, 1):
    print(f"  {pos}. {tid:<13} priority {prio:.2f}  ~{dur:.0f}s")

for budget in (60.0, 180.0, 400.0):
    result = select_within_budget(suite, budget)
    chosen = ", ".join(str(t) for t in result.order()) or "(nothing)"
    print(f"\nbudget {budget:5.0f}s -> run {chosen}")
    print(f"  used {result.used_s:.0f}s, skipped "
          f"{[tid for tid, _ in result.skipped]}")

# The expensive second-ranked test fits only the largest budget; meanwhile
# the walk keeps harvesting cheaper tests behind it.
tight = select_within_budget(suite, 60.0)
assert "payments-e2e" not in tight.order()
assert "smoke-api" in tight.order()
