"""Workload table of the replay benchmark.

Each workload names a ``testprio.simulate`` profile, the seed the acceptance
tests use for it, the replay configuration and how many logs a run replays. This module imports nothing
from ``testprio`` so the parent process stays free of the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass


LOG_SEED_STRIDE = 1_000_000  # keeps the logs of nearby seeds apart


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str  # attribute of testprio.simulate, or a JSON object of SuiteProfile fields
    default_seed: int
    augment_enabled: bool
    why: str
    # Logs per untraced run; log i uses seed + i * LOG_SEED_STRIDE. APFD differs
    # from log to log, and the run reports its mean over these logs.
    logs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paint-replay",
            profile="PAINT_CONTROL_LIKE",
            default_seed=42,
            augment_enabled=True,
            why="training-bound control: train() is ~90% of the replay and the "
                "fail-bin share is above the 5% target, so augmentation never runs",
            # Over ten seeds, one log's APFD spread 0.06-0.07 between quartiles;
            # a replay takes ~5 s, so four fit in a run and halve that spread.
            logs=4,
        ),
        Workload(
            name="gsdtsr-replay",
            profile="GSDTSR_LIKE",
            default_seed=5,
            augment_enabled=False,
            why="full 255k-row log with augmentation off: bound by ingest, history "
                "state, feature/label build and scoring rather than training",
            # Training stops after 3 or 4 epochs depending on the log, which moves
            # replay_s by about 10%; a run replays two logs, one round each.
            logs=2,
        ),
        Workload(
            name="gsdtsr-default",
            profile="GSDTSR_LIKE",
            default_seed=5,
            augment_enabled=True,
            why="the same log under the default config, the only workload that "
                "loads the rebalancer; its replay fails while augment builds a dense "
                "(n_fail, n_fail, 14) distance tensor",
        ),
    )
}
