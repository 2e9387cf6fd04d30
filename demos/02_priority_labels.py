#!/usr/bin/env python3
"""The deterministic priority rule that both ranks suites directly and
labels training data: a weighted count of recent failures.

Weights over the last m cycles are positive, sum to one, and grow toward
the most recent cycle, so yesterday's failure outweighs last week's.
Passes (0) and skipped cycles (-1) contribute nothing.
"""

import numpy as np

from testprio.history import build_status_matrix
from testprio.rocket import geometric_weights, label_dataset, linear_weights, priority
from testprio.simulate import PAINT_CONTROL_LIKE, generate_history

m = 10
linear = linear_weights(m)
geometric = geometric_weights(m, 0.7)
print("linear weights:   ", " ".join(f"{w:.3f}" for w in linear.weights))
print("geometric(0.7):   ", " ".join(f"{w:.3f}" for w in geometric.weights))

windows = {
    "all passing      ": [0] * 10,
    "never executed   ": [-1] * 10,
    "always failing   ": [1] * 10,
    "failed long ago  ": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    "failing recently ": [0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    "intermittent     ": [1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
}
print("\nwindow             ->  linear   geometric(0.7)")
for name, window in windows.items():
    print(f"{name} ->  {priority(window, linear):.4f}   {priority(window, geometric):.4f}")

# Labeling a whole dataset: one priority per test from its current window.
cycles = generate_history(PAINT_CONTROL_LIKE, seed=42)
matrix = build_status_matrix(cycles, window_len=10)
labeled = label_dataset(matrix, linear)
top = np.argsort(-labeled.labels, kind="stable")[:5]  # ties keep matrix order
print(f"\nlabeled {len(labeled)} tests; the five most failure-prone right now:")
for i in top.tolist():
    window = " ".join(f"{s:+d}" for s in matrix.statuses[i].tolist())
    print(f"  test {labeled.test_ids[i]:>3}: label {labeled.labels[i]:.4f}  window {window}")
