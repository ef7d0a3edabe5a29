"""Overlap-aware source permutation and online query scheduling."""

import logging

from .cost import (
    PREFIX_AVERAGE,
    SEQUENTIAL,
    CostResult,
    QuerySpec,
    permutation_time_cost,
)
from .lattice import (
    LatticeCell,
    StatsSnapshot,
    dump_snapshot,
    parse_snapshot,
    snapshot_from_cells,
)
from .permutation import (
    TABLE_ALGO_ORDER,
    PermCandidate,
    approx_bound,
    baseline_order,
    brute_force_opt,
    greedy_by_rate,
    refine_order,
)
from .scheduler import RunConfig, RunResult, run_query
from .simulator import Universe, UniverseConfig, demo_universe, generate

__all__ = [
    "PREFIX_AVERAGE",
    "SEQUENTIAL",
    "CostResult",
    "QuerySpec",
    "permutation_time_cost",
    "LatticeCell",
    "StatsSnapshot",
    "dump_snapshot",
    "parse_snapshot",
    "snapshot_from_cells",
    "TABLE_ALGO_ORDER",
    "PermCandidate",
    "approx_bound",
    "baseline_order",
    "brute_force_opt",
    "greedy_by_rate",
    "refine_order",
    "RunConfig",
    "RunResult",
    "run_query",
    "Universe",
    "UniverseConfig",
    "demo_universe",
    "generate",
]

# Library default: no output unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
