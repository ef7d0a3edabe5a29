"""Correctness gate and order statistics for the benchmark.

Every ``RunResult`` a pass produces is checked against the invariants the
paper states for one query run; a run that breaks one counts as failed.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def run_violations(result, in_scope_distinct: int) -> list[str]:
    """Invariants of one run; an empty list means the run is correct.

    ``in_scope_distinct`` is the number of distinct tuples the query's
    scope holds in the universe, which decides whether a shortfall is
    legitimate.
    """
    trace = result.per_source_trace
    new = sum(t.new_tuples for t in trace)
    dup = sum(t.duplicate_tuples for t in trace)
    problems = []
    if result.tuples_retrieved != new + dup:
        problems.append(
            f"tuples_retrieved {result.tuples_retrieved} != new+dup {new + dup}"
        )
    if result.distinct_tuples != new:
        problems.append(f"distinct_tuples {result.distinct_tuples} != new {new}")
    sources = [t.source for t in trace]
    if len(set(sources)) != len(sources):
        problems.append("a source appears twice in the trace")
    if not result.shortfall and result.distinct_tuples < result.k:
        problems.append(f"distinct {result.distinct_tuples} < k {result.k} without shortfall")
    if result.shortfall and result.k <= in_scope_distinct:
        problems.append(
            f"shortfall although k {result.k} <= in-scope distinct {in_scope_distinct}"
        )
    return problems
