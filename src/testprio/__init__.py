"""Learn test-case priorities from CI execution history, rank regression
suites, fit them into time budgets and score the orderings."""

from . import errors
from .augment import AugmentConfig, split_bins
from .features import FeatureBounds, bounds_from_matrix, extract
from .history import (
    ColumnMapping,
    CycleLog,
    StatusMatrix,
    build_status_matrix,
    emit_csv,
    ingest_csv,
)
from .metrics import (
    CycleOutcome,
    RegressionAccuracy,
    TimeMetrics,
    apfd,
    napfd,
    regression_accuracy,
    time_metrics,
)
from .net import (
    AdamState,
    Network,
    SavedModel,
    TrainConfig,
    TrainResult,
    adam_step,
    backward,
    forward,
    load_model,
    mish,
    mse,
    predict,
    save_model,
    train,
    xavier_init,
)
from .pipeline import (
    ExperimentPlan,
    PipelineResult,
    compare_against_ground_truth,
    history_length_study,
    run_pipeline,
    train_model,
)
from .prioritize import (
    PrioritizedSuite,
    SelectionResult,
    rank,
    select_within_budget,
)
from .rocket import (
    WeightScheme,
    geometric_weights,
    label_dataset,
    linear_weights,
    priorities,
    priority,
    weight_scheme,
)

__version__ = "0.1.0"
