"""Permutation construction: greedy selection, swap refinement, baselines.

A plan is its source order alone: every source not in it is free to be
picked.  The planner grows an order greedily by residual query rate, then
sweeps it head to tail looking for profitable swaps between an ordered
source and a larger-cardinality source not ahead of it in the order.
Each swap cuts the order at the swapped position and rebuilds it through
the same greedy step, which walks the given order once: it cuts the
order after its minimal covering prefix (never inside the pinned prefix)
or extends it from the sources the order leaves out.  The extension and
every deterministic baseline share one lazy selection loop, each with
its own score.  That loop needs only an upper bound on each score to
start from: the greedy starts from each source's rate with nothing
covered, computed and sorted once per snapshot, and re-rates only the
tops it meets.  It reads that sorted list in place, skipping the sources
already in the order, and keeps the re-rated ones in a small side heap.
Scan sums read each source's scan time, kept by the pass that sorts the
rates.  Every greedy, the start and each rebuild, walks its order from a
fresh :class:`~querysched.cost.CoverageWalk`.  Swap candidates are ranked
by overlap ratio with the anchor, read from the anchor's cells, and those
below a fixed floor are dropped, since swapping sources that barely
intersect cannot change which order wins.
A replan during a run needs only the first unpinned source of the full
order, which the greedy start and the swap at that position decide
(:func:`next_source`).  The incumbent after that swap is the greedy start
of every longer pinned prefix it begins with, so a replan over the same
snapshot after dispatching its first sources may start from it.
A brute-force oracle over all covering prefixes serves small universes,
with the analytic approximation bound used to sanity-check sweep output.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import AbstractSet, Callable, Container, Iterator, Sequence

from .cost import COST_MODELS, SEQUENTIAL, CoverageWalk, walk_residuals
from .lattice import StatsSnapshot, member_sources

ALGO_RANDOM = "random"
ALGO_MAX_TUPLES = "max_tuples"
ALGO_MAX_RESIDUAL = "max_residual"
ALGO_MIN_UNIT_COST = "min_unit_cost"
ALGO_MIN_RESIDUAL_COST = "min_residual_cost"
ALGO_SEQUENTIAL = "sequential"
ALGO_ONLINE = "online"
ALGO_FULL_KNOWLEDGE = "full_knowledge"

BASELINE_ALGOS = (
    ALGO_RANDOM,
    ALGO_MAX_TUPLES,
    ALGO_MAX_RESIDUAL,
    ALGO_MIN_UNIT_COST,
    ALGO_MIN_RESIDUAL_COST,
)
#: Reporting order for benchmark tables.
TABLE_ALGO_ORDER = BASELINE_ALGOS + (ALGO_SEQUENTIAL, ALGO_ONLINE, ALGO_FULL_KNOWLEDGE)

#: Least overlap ratio with the anchor for a swap candidate to be tried.
OVERLAP_FLOOR = 0.05
ORACLE_SOURCE_BOUND = 9


class PinnedSwapError(ValueError):
    """Attempted to move a source out of the already-dispatched prefix."""


class OracleSizeError(ValueError):
    """Universe too large for exhaustive search."""


class WorkMeter:
    """Counts planner evaluations so sweep effort can be charged as time."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0

    def add(self, n: int = 1) -> None:
        self.ops += n


@dataclass(frozen=True)
class PermCandidate:
    """A candidate order with its covered-tuple total and average rate.

    The sources left out of ``order`` are the ones a rebuild may still pick.
    """

    order: tuple[int, ...]
    covered: float
    avg_rate: float


def covered_total(order: Sequence[int], snapshot: StatsSnapshot) -> float:
    """Total residual tuples the order can deliver."""
    return sum(walk_residuals(order, snapshot))


def swap_source(order: Sequence[int], pos: int, incoming: int, pinned: int = 0) -> tuple[int, ...]:
    """The order with ``incoming`` at ``pos`` and the tail behind it cut.

    The outgoing source and every source ranked behind it leave the
    order, so a rebuild may pick them again; ``incoming`` may be any
    source not at or before ``pos``.  Raises :class:`PinnedSwapError` for
    positions inside the pinned prefix.
    """
    if pos < pinned:
        raise PinnedSwapError("pinned")
    if not 0 <= pos < len(order):
        raise ValueError("position out of range")
    if incoming in order[: pos + 1]:
        raise ValueError(f"source {incoming} not available for swapping in")
    return tuple(order[:pos]) + (incoming,)


def _check_order(order: Sequence[int], n: int) -> None:
    """Raise ValueError unless ``order`` holds distinct ids of ``range(n)``."""
    seen = set()
    for s in order:
        if s not in range(n):
            raise ValueError(f"source {s!r} in order is not in range({n})")
        if s in seen:
            raise ValueError(f"source {s!r} repeats in order")
        seen.add(s)


def overlap_ranked(
    anchor: int,
    candidates: AbstractSet[int],
    snapshot: StatsSnapshot,
    meter: WorkMeter | None = None,
) -> list[tuple[int, float]]:
    """Candidates sorted by overlap ratio with the anchor, descending.

    The ratio is the estimated shared-tuple count divided by the anchor's
    cardinality; entries below :data:`OVERLAP_FLOOR` are discarded.  An
    anchor with no tuples yields no candidates.  Only sources that share
    a cell with the anchor can pass, so only the anchor's cells are
    walked, in index order, each adding its value to every candidate it
    holds; ``meter`` is still charged one operation per candidate, as
    the planner's cost model counts them.
    """
    anchor_card = snapshot.cardinalities[anchor]
    if anchor_card <= 0:
        return []
    if meter is not None:
        meter.add(len(candidates) - (anchor in candidates))
    index = snapshot.index
    values = snapshot.values
    shared: dict[int, float] = {}
    for i in index.by_source[anchor]:
        v = values[i]
        for j in index.members[i]:
            if j != anchor and j in candidates:
                shared[j] = shared.get(j, 0.0) + v
    ranked = []
    for j, v in shared.items():
        ratio = v / anchor_card
        if ratio >= OVERLAP_FLOOR:
            ranked.append((j, ratio))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


def _picks(
    walk: CoverageWalk,
    bounds: Sequence[tuple[float, int]],
    taken: Container[int],
    score: Callable[[int], float],
    meter: WorkMeter | None,
) -> Iterator[tuple[float, int]]:
    """Yield ``(score, source)`` for every source of ``bounds`` not in ``taken``, best first.

    ``bounds`` holds ``(-bound, source)`` pairs in ascending order, whose
    bound is at least the source's current score; it is read, not
    changed, and ``taken`` holds only sources of it.  Ties go to the
    lowest id.  A pick joins ``walk`` when the next one is asked for, so
    the caller still reads the walk without it.  Scores only fall as the
    walk covers more cells (cells are nonnegative), so a re-rated score
    stays a bound: a still-current top wins its round and a stale one is
    re-rated (Minoux's accelerated greedy).  Re-rated sources move to a
    side heap, and each round's top is the least of its top and the
    first entry of ``bounds`` not yet passed or taken: the top of one
    heap of every source left.  ``meter`` is charged per round for the
    full scan the cost model prices.
    """
    side: list[tuple[float, int]] = []
    pos, end = 0, len(bounds)
    left = end - len(taken)
    while left:
        if meter is not None:
            meter.add(left)
        while True:
            while pos < end and bounds[pos][1] in taken:
                pos += 1
            fresh = pos < end and not (side and side[0] < bounds[pos])
            bound, best = bounds[pos] if fresh else side[0]
            current = score(best)
            if not current < -bound:
                break
            if fresh:
                pos += 1
                heapq.heappush(side, (-current, best))
            else:
                heapq.heapreplace(side, (-current, best))
        if fresh:
            pos += 1
        else:
            heapq.heappop(side)
        left -= 1
        yield current, best
        walk.append(best)


def _greedy(
    k: float, order: Sequence[int], pinned: int, meter: WorkMeter | None, snapshot: StatsSnapshot
) -> PermCandidate:
    """:func:`greedy_by_rate` without the order check."""
    walk = CoverageWalk(snapshot)
    scan = snapshot._scan_ms
    keep, res_sum, scan_sum = 0, 0.0, 0.0
    while keep < len(order) and not (res_sum >= k and keep >= pinned):
        s = order[keep]
        res_sum += walk.residual(s)
        scan_sum += scan[s]
        walk.append(s)
        keep += 1
    new_order = list(order[:keep])
    if res_sum < k:
        for rate, best in _picks(walk, snapshot._rate_heap, set(new_order), walk.rate, meter):
            if rate <= 0.0:
                break
            res_sum += walk.residual(best)
            scan_sum += scan[best]
            new_order.append(best)
            if res_sum >= k:
                break
    avg = res_sum / scan_sum if scan_sum > 0 else 0.0
    return PermCandidate(tuple(new_order), res_sum, avg)


def greedy_by_rate(
    k: float,
    order: Sequence[int],
    snapshot: StatsSnapshot,
    pinned: int = 0,
    meter: WorkMeter | None = None,
) -> PermCandidate:
    """Trim or extend an order until it covers ``k`` residual tuples.

    One walk over ``order`` stops after its minimal covering prefix (none
    when ``k <= 0``), but never inside the pinned prefix: dispatched
    sources stay even when the target is covered without them.  A short
    order is extended instead by :func:`_picks`: each round appends the
    source not yet in the order with the highest residual query rate,
    ties to the lowest id.  Zero-rate sources are never appended, so an
    under-covering universe ends with the shortfall left to the caller.
    Raises ValueError unless ``order`` holds distinct source ids.
    """
    _check_order(order, snapshot.n_sources)
    return _greedy(k, order, pinned, meter, snapshot)


def improve_position(
    k: float,
    order: Sequence[int],
    pos: int,
    snapshot: StatsSnapshot,
    pinned: int = 0,
    meter: WorkMeter | None = None,
) -> PermCandidate | None:
    """Best rebuild obtained by swapping the source at ``pos``.

    Tries each ranked candidate with more tuples than the anchor, drawn
    from the sources not at or before ``pos``, replays the greedy
    extension on the remainder and keeps the rebuild with the highest
    average rate.  Each rebuild walks its order from the start.  Returns
    None when no candidate qualifies; the caller compares the winner
    against its incumbent.
    """
    anchor = order[pos]
    pool = set(range(snapshot.n_sources)).difference(order[: pos + 1])
    anchor_card = snapshot.cardinalities[anchor]
    ranked = overlap_ranked(anchor, pool, snapshot, meter)
    swaps = [j for j, _ratio in ranked if snapshot.cardinalities[j] > anchor_card]
    if not swaps:
        return None
    best: PermCandidate | None = None
    for j in swaps:
        cand = _greedy(k, swap_source(order, pos, j, pinned), pinned, meter, snapshot)
        if best is None or cand.avg_rate > best.avg_rate:
            best = cand
    if best is not None and best.avg_rate > 0.0:
        return best
    return None


def _sweep(
    k: float,
    snapshot: StatsSnapshot,
    pinned_order: Sequence[int],
    meter: WorkMeter | None,
    start: PermCandidate | None = None,
) -> Iterator[PermCandidate]:
    """Yield the greedy start, then the incumbent after each swap position.

    ``start``, when given, is the greedy start, which is then not built.
    """
    pinned = len(pinned_order)
    incumbent = start
    if incumbent is None:
        incumbent = _greedy(k, tuple(pinned_order), pinned, meter, snapshot)
    yield incumbent

    pos = pinned
    while pos < len(incumbent.order):
        cand = improve_position(k, incumbent.order, pos, snapshot, pinned, meter)
        if cand is not None and cand.avg_rate > incumbent.avg_rate:
            incumbent = cand
        yield incumbent
        pos += 1


def refine_order(
    k: float,
    snapshot: StatsSnapshot,
    *,
    pinned_order: Sequence[int] = (),
    meter: WorkMeter | None = None,
) -> PermCandidate:
    """Greedy construction followed by the head-to-tail swap sweep.

    Pinned (already dispatched) positions are never swapped.  Raises
    ValueError unless ``pinned_order`` holds distinct source ids.
    """
    _check_order(pinned_order, snapshot.n_sources)
    for incumbent in _sweep(k, snapshot, pinned_order, meter):
        pass
    return incumbent


def next_source(
    k: float,
    snapshot: StatsSnapshot,
    pinned_order: Sequence[int],
    start: PermCandidate | None = None,
) -> tuple[int | None, PermCandidate]:
    """First unpinned source of the full-universe order, None if none is left, and its head.

    That order is :func:`refine_order`'s, extended by the greedy without a
    target and then by the remaining sources in id order.  Of the sweep,
    only the greedy start and the swap at the first unpinned position
    decide that source: every proper prefix of an incumbent at or past
    the pinned one covers less than ``k`` (the greedy stops at the first
    that covers it), and a rebuild walks the incumbent's prefix in the
    same floats, so a swap at a later position never trims before that
    position.  The incumbent after that swap is the head returned with
    the source.  When the refined order is the pinned prefix alone, the
    extension's first round picks the source with the highest rate,
    ties to the lowest id, over a walk of the pinned prefix.

    The head is also the greedy start of any longer pinned prefix it
    begins with, over the same ``k`` and snapshot: the greedy walks that
    prefix in the same floats, and its extension picks an exact argmax,
    ties to the lowest id, as the head's did.  A later call over such a
    prefix may pass it as ``start``, and the greedy start is not built
    again; the caller checks that the head begins with ``pinned_order``.
    """
    pinned = len(pinned_order)
    sweep = _sweep(k, snapshot, pinned_order, None, start)
    head = next(sweep)  # the greedy start
    head = next(sweep, head)  # after the swap at the first unpinned position
    if len(head.order) > pinned:
        return head.order[pinned], head
    walk = CoverageWalk(snapshot)
    for s in pinned_order:
        walk.append(s)
    # Rates are never negative, so with none positive the first pick is
    # the lowest id, as the remaining sources follow in id order.
    picks = _picks(walk, snapshot._rate_heap, set(head.order), walk.rate, None)
    return next((s for _, s in picks), None), head


def baseline_order(kind: str, snapshot: StatsSnapshot, seed: int | None = None) -> tuple[int, ...]:
    """Full-universe dispatch order for one of the baseline policies.

    ``random`` is a seeded shuffle; the others take every source from
    :func:`_picks` by their own score, ties to the lowest id.
    """
    if kind == ALGO_RANDOM:
        if seed is None:
            raise ValueError("random baseline requires a seed")
        order = list(range(snapshot.n_sources))
        random.Random(seed).shuffle(order)
        return tuple(order)
    walk = CoverageWalk(snapshot)

    def time_per_tuple(s: int, tuples: float) -> float:
        return snapshot.scan_cost_ms(s) / tuples if tuples > 0 else math.inf

    scores = {  # higher is better
        ALGO_MAX_TUPLES: snapshot.cardinalities.__getitem__,
        ALGO_MIN_UNIT_COST: lambda s: -time_per_tuple(s, snapshot.cardinalities[s]),
        ALGO_MAX_RESIDUAL: walk.residual,
        ALGO_MIN_RESIDUAL_COST: lambda s: -time_per_tuple(s, walk.residual(s)),
    }
    if kind not in scores:
        raise ValueError(f"unknown baseline {kind!r}")
    score = scores[kind]
    bounds = sorted((-score(s), s) for s in range(snapshot.n_sources))
    return tuple(s for _, s in _picks(walk, bounds, (), score, None))


def approx_bound(k: float, snapshot: StatsSnapshot) -> float:
    """Analytic worst-case ratio of the sweep's cost to the optimum.

    Sources are ranked by raw rate (cardinality over full scan time,
    overlap ignored); the bound is the target count times the total scan
    time of the universe, divided by the universe's total tuple count
    times the scan time of the minimal raw-cardinality prefix covering
    the target.  Values below 1 clamp to 1 (a single source is trivially
    optimal for itself).
    """
    n = snapshot.n_sources
    cards = snapshot.cardinalities
    scans = [snapshot.scan_cost_ms(s) for s in range(n)]

    def raw_rate(s: int) -> float:
        return cards[s] / scans[s] if scans[s] > 0 else 0.0

    ranked = sorted(range(n), key=lambda s: (-raw_rate(s), s))
    covered = 0.0
    prefix_scan = 0.0
    for s in ranked:
        prefix_scan += scans[s]
        covered += cards[s]
        if covered >= k:
            break
    total_tuples = sum(cards)
    total_scan = sum(scans)
    if total_tuples <= 0 or prefix_scan <= 0:
        return 1.0
    return max(1.0, k * total_scan / (total_tuples * prefix_scan))


def format_order(order: Sequence[int], pinned: int = 0) -> str:
    """Serialize an order as comma lists with a bar after the pinned prefix."""
    head = ",".join(str(s) for s in order[:pinned])
    tail = ",".join(str(s) for s in order[pinned:])
    return f"{head}|{tail}"


def _residual_table(snapshot: StatsSnapshot) -> list[list[float]]:
    """residual[source][prefix_mask] for every subset of a small universe."""
    n = snapshot.n_sources
    table = [[0.0] * (1 << n) for _ in range(n)]
    for mask in range(1 << n):
        walk = CoverageWalk(snapshot)
        for s in member_sources(mask):
            walk.append(s)
        for s in range(n):
            table[s][mask] = walk.residual(s)
    return table


def brute_force_opt(
    k: float,
    snapshot: StatsSnapshot,
    model: str = SEQUENTIAL,
) -> tuple[tuple[int, ...], float, bool]:
    """Exhaustive minimum over all covering prefixes of the universe.

    Returns (order, cost, shortfall).  Equal-cost orders resolve to the
    lexicographically smallest.  Refuses universes beyond :data:`ORACLE_SOURCE_BOUND`
    and a ``model`` that is not one of :data:`~querysched.cost.COST_MODELS`.
    """
    if model not in COST_MODELS:
        raise ValueError(f"unknown cost model {model!r}")
    n = snapshot.n_sources
    if n > ORACLE_SOURCE_BOUND:
        raise OracleSizeError("oracle size bound")
    residual = _residual_table(snapshot)
    scan = [snapshot.scan_cost_ms(s) for s in range(n)]
    total_coverage = covered_total(range(n), snapshot)
    if total_coverage < k:
        order = tuple(range(n))
        return order, sum(scan), True

    tol = 1e-9
    best_cost = float("inf")
    best_order: tuple[int, ...] = ()

    # Depth-first over prefixes in ascending-id order; the first minimum
    # found is therefore the lexicographic winner among ties.
    stack: list[tuple[tuple[int, ...], int, float, float, float]] = [((), 0, 0.0, 0.0, 0.0)]
    while stack:
        prefix, mask, cum, seq_time, scan_sum = stack.pop()
        for s in range(n - 1, -1, -1):
            if mask & (1 << s):
                continue
            res = residual[s][mask]
            new_prefix = prefix + (s,)
            if cum + res >= k and res > 0.0:
                if model == SEQUENTIAL:
                    cost = seq_time + scan[s] * (k - cum) / res
                else:
                    cost = k * (scan_sum + scan[s]) / (cum + res)
                if cost < best_cost - tol or (
                    cost <= best_cost + tol and list(new_prefix) < list(best_order)
                ):
                    if cost < best_cost:
                        best_cost = cost
                    best_order = new_prefix
            else:
                nxt_time = seq_time + scan[s]
                if model == SEQUENTIAL and nxt_time > best_cost + tol:
                    continue
                stack.append((new_prefix, mask | (1 << s), cum + res, nxt_time, scan_sum + scan[s]))
    return best_order, best_cost, False
