"""Simultaneous lower confidence bounds on true discoveries for sum tests.

The package tests intersection hypotheses with permutation-based sum
statistics and, through closed testing, turns them into lower confidence
bounds on the number and proportion of true discoveries inside arbitrary
query subsets, all valid simultaneously at one confidence level.  A
bound-and-path scan embedded in branch and bound keeps the closed testing
tractable; column reduction shrinks truncated problems further.

Typical use::

    from sumtdp import (
        StatisticMatrix, TestConfig, SumTestProblem, discoveries,
    )

    stats = StatisticMatrix(values)          # first row = observed
    cfg = TestConfig(alpha=0.05, n_transforms=stats.n_transforms)
    prob = SumTestProblem.from_matrix(stats, cfg)
    res = discoveries(prob, [0, 1, 4])
    print(res.discoveries, res.tdp)
"""

from .combiners import (
    COMBINER_KINDS,
    Combiner,
    TruncationRule,
    apply_combiner,
    evidence_from_t,
    threshold_from_rank,
    truncate,
)
from .generators import TransformationScheme, sign_flip_matrix
from .inference import (
    DiscoveryResult,
    discoveries,
    discoveries_matrix,
    largest_subset,
)
from .oracle import RejectionTable
from .problem import ReductionResult, SumTestProblem, reduce_columns, reject, subset_quantile
from .shortcut import Verdict
from .simharness import (
    GRID_COLUMNS,
    ReplicationOutcome,
    SimulationConfig,
    StudyResult,
    effect_size,
    run_grid,
    run_replication,
    run_study,
    simulate_data,
)
from .statmatrix import (
    StatisticMatrix,
    TestConfig,
    read_data_csv,
    read_statistic_csv,
    validate_subset,
    write_statistic_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data model
    "StatisticMatrix", "TestConfig",
    "subset_quantile", "reject", "validate_subset",
    "read_statistic_csv", "read_data_csv", "write_statistic_csv",
    # combiners and truncation
    "Combiner", "COMBINER_KINDS", "apply_combiner",
    "TruncationRule", "truncate", "threshold_from_rank", "evidence_from_t",
    # transformation schemes
    "TransformationScheme", "sign_flip_matrix",
    # problem, verdicts and trace
    "SumTestProblem", "Verdict",
    # inference
    "discoveries", "discoveries_matrix", "DiscoveryResult",
    "largest_subset",
    # reduction
    "reduce_columns", "ReductionResult",
    # exhaustive reference
    "RejectionTable",
    # simulation harness
    "SimulationConfig", "effect_size", "simulate_data",
    "run_replication", "run_study", "run_grid",
    "ReplicationOutcome", "StudyResult", "GRID_COLUMNS",
]
