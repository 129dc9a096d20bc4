"""In-memory evaluation engine: the executable specification of BMO.

The paper implements Preference SQL purely by rewriting to the host SQL
system.  This package provides the second evaluation path: a small
relational engine that executes the Preference SQL query block directly
over in-memory relations.  It serves as

* the semantics oracle — differential tests assert the rewriter and this
  engine agree on every query,
* the substrate of the ``memory`` strategy: one kernel front door
  (:func:`repro.engine.bmo.memory_evaluator`) over the columnar kernels
  and a BNL window [BKS01], checked against the paper's abstract
  nested-loop selection method (:mod:`repro.engine.algorithms`),
* the evaluator used by the COSIMA-style meta-search simulation, which in
  the paper ran Preference SQL over a temporary database.
"""

from repro.engine.relation import Relation, column_index_map
from repro.engine.expressions import Evaluator, RowEnvironment
from repro.engine.columns import (
    RankColumns,
    columnar_skyline,
    compute_rank_columns,
    rank_columns_from_values,
    rank_row_skyline,
    rank_shape,
)
from repro.engine.algorithms import (
    block_nested_loops,
    maximal_indices,
    nested_loop_maximal,
)
from repro.engine.bmo import (
    ENGINE_ALGORITHMS,
    BmoResult,
    PreferenceEngine,
    bmo_filter,
    memory_evaluator,
    run_in_memory_plan,
)
from repro.engine.parallel import (
    ParallelExecutor,
    default_worker_count,
    parallel_maximal_indices,
    partition_count,
    shared_executor,
)

__all__ = [
    "ParallelExecutor",
    "parallel_maximal_indices",
    "partition_count",
    "default_worker_count",
    "shared_executor",
    "Relation",
    "column_index_map",
    "Evaluator",
    "RowEnvironment",
    "RankColumns",
    "columnar_skyline",
    "compute_rank_columns",
    "rank_columns_from_values",
    "rank_row_skyline",
    "rank_shape",
    "ENGINE_ALGORITHMS",
    "maximal_indices",
    "nested_loop_maximal",
    "block_nested_loops",
    "PreferenceEngine",
    "BmoResult",
    "bmo_filter",
    "memory_evaluator",
    "run_in_memory_plan",
]
