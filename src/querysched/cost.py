"""Cost model shared by every planner: query rates and retrieval times.

Two time-cost accountings are exposed.  The default ``sequential`` model
walks the permutation source by source, charging each fully scanned source
its whole access-plus-transfer time and the final source a pro-rata share
of it (full time divided by its residual tuples, times the tuples still
needed).  The ``prefix-average`` model instead divides the target count by
the average rate of the covering prefix.  The two disagree on multi-source
prefixes; the sequential model is the default because it is the one that
matches the piecewise-linear retrieval curves the planner optimizes
against (the bundled demo instance reproduces its published optimal-prefix
table only under this model).

Every walk along an order goes through :class:`CoverageWalk`, which reads
the snapshot's cells by position in its shared cell index rather than by
mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lattice import StatsSnapshot

SEQUENTIAL = "sequential"
PREFIX_AVERAGE = "prefix-average"
COST_MODELS = (SEQUENTIAL, PREFIX_AVERAGE)


@dataclass(frozen=True)
class QuerySpec:
    """A request for ``k`` distinct result tuples under a named predicate."""

    predicate_id: str
    k: int

    def __post_init__(self) -> None:
        # NaN fails every comparison and is not integral, so it fails here too.
        try:
            whole = self.k >= 1 and float(self.k).is_integer()
        except OverflowError:  # an int past the float range
            raise ValueError(f"k is too large: {len(str(self.k))} digits") from None
        if not whole:
            raise ValueError(f"k must be an integer of at least 1, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))  # a result reports k as given


def rate_from_parts(
    access_ms: float, per_tuple_ms: float, cardinality: float, intersect_count: float
) -> float:
    """Residual tuples per millisecond of full scan time.

    A source whose results are fully covered by earlier sources rates 0;
    so does the degenerate empty-and-free source (cardinality 0 with zero
    access time), which keeps it out of every greedy selection.
    """
    denom = access_ms + per_tuple_ms * cardinality
    if denom <= 0.0:
        return 0.0
    residual = cardinality - intersect_count
    if residual <= 0.0:
        return 0.0
    return residual / denom


class CoverageWalk:
    """Incremental residual bookkeeping while a permutation grows.

    Marks lattice cells as covered when any of their sources joins the
    prefix and keeps per-source covered amounts, so appending a source and
    querying residuals are both cheap inside greedy loops.  Cells are read
    by position in the snapshot's cell index: one byte per cell says
    whether it is covered.  Rates divide by the scan times the snapshot
    computed once.
    """

    __slots__ = (
        "snapshot",
        "_covered",
        "_covered_amt",
        "_values",
        "_members",
        "_by_source",
        "_cards",
        "_scan",
    )

    def __init__(self, snapshot: StatsSnapshot):
        index = snapshot.index
        self.snapshot = snapshot
        self._values = snapshot.values
        self._members = index.members
        self._by_source = index.by_source
        self._cards = snapshot.cardinalities
        self._scan = snapshot._scan_ms
        self._covered = bytearray(len(index.masks))
        self._covered_amt = [0.0] * snapshot.n_sources

    def residual(self, source: int) -> float:
        # Clamped at zero: estimated cells may briefly overshoot a freshly
        # detected cardinality, and a negative residual is meaningless.
        return max(0.0, self._cards[source] - self._covered_amt[source])

    def rate(self, source: int) -> float:
        """:func:`rate_from_parts` of ``source`` over the walk, read off its scan time."""
        denom = self._scan[source]
        if denom <= 0.0:
            return 0.0
        residual = self._cards[source] - self._covered_amt[source]
        if residual <= 0.0:
            return 0.0
        return residual / denom

    def append(self, source: int) -> None:
        covered = self._covered
        covered_amt = self._covered_amt
        values = self._values
        members = self._members
        for i in self._by_source[source]:
            if covered[i]:
                continue
            covered[i] = 1
            value = values[i]
            for s in members[i]:
                covered_amt[s] += value


def walk_residuals(order: Sequence[int], snapshot: StatsSnapshot) -> list[float]:
    """Residual tuple count of each source at its position in ``order``."""
    walk = CoverageWalk(snapshot)
    out = []
    for s in order:
        out.append(walk.residual(s))
        walk.append(s)
    return out


@dataclass(frozen=True)
class CostResult:
    time_ms: float
    covered: float
    prefix_len: int
    shortfall: bool


def permutation_time_cost(
    order: Sequence[int],
    snapshot: StatsSnapshot,
    k: float,
    model: str = SEQUENTIAL,
) -> CostResult:
    """Time to collect ``k`` distinct tuples along ``order``.

    Truncates at the minimal covering prefix.  If the whole permutation
    cannot cover ``k`` the result carries the cost of scanning everything
    plus the ``shortfall`` flag instead of raising.
    """
    if model not in COST_MODELS:
        raise ValueError(f"unknown cost model {model!r}")
    if k <= 0:
        raise ValueError("k must be positive")
    walk = CoverageWalk(snapshot)
    cum = 0.0
    seq_time = 0.0
    residual_sum = 0.0
    scan_sum = 0.0
    for pos, s in enumerate(order):
        res = walk.residual(s)
        full = snapshot.scan_cost_ms(s)
        residual_sum += res
        scan_sum += full
        if cum + res >= k and res > 0.0:
            seq_time += full * (k - cum) / res
            if model == SEQUENTIAL:
                return CostResult(seq_time, cum + res, pos + 1, False)
            avg = residual_sum / scan_sum if scan_sum > 0 else 0.0
            return CostResult(k / avg, cum + res, pos + 1, False)
        seq_time += full
        cum += res
        walk.append(s)
    time = scan_sum
    return CostResult(time, cum, len(order), True)
