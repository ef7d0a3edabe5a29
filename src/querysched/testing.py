"""Seeded random instances for oracle comparisons and property checks."""

from __future__ import annotations

import random

from .lattice import StatsSnapshot
from .simulator import SCOPE_ALL, ReplicationModel, UniverseConfig, generate

#: The distinct tuple counts an instance draws from.
INSTANCE_DISTINCT = range(40, 140)


def random_instance(
    n_sources: int, seed: int, *, style: str = "uniform"
) -> tuple[StatsSnapshot, int]:
    """Small exact-lattice instance: (snapshot, distinct tuple count).

    Cardinalities, latencies and overlap structure vary with the seed;
    the snapshot holds the ground-truth lattice, so planner comparisons
    against exhaustive search are exact.
    """
    rng = random.Random(f"instance:{seed}")
    n_distinct = rng.randrange(INSTANCE_DISTINCT.start, INSTANCE_DISTINCT.stop)
    mean_depth = 1.2 + rng.random() * (min(n_sources, 4) - 1.2)
    max_depth = min(n_sources, 6)
    mean_depth = min(mean_depth, max_depth)
    total = int(round(n_distinct * mean_depth))
    total = max(total, n_distinct)
    config = UniverseConfig(
        n_sources=n_sources,
        n_distinct=n_distinct,
        total_tuples=total,
        overlap=ReplicationModel(
            style=style,
            mean_depth=mean_depth,
            max_depth=max_depth,
            chains=max(4, n_sources),
            popularity_alpha=0.4 + rng.random(),
        ),
        access_ms=(0.0, 20.0),
        per_tuple_ms=(0.05, 1.5),
        query_split=1.0,
    )
    universe = generate(config, seed)
    snapshot = universe.truth_snapshot(SCOPE_ALL)
    return snapshot, universe.truth.distinct_in_scope(SCOPE_ALL)
