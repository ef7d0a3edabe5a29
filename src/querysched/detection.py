"""Two-stage statistics collection over the membership lattice.

The offline stage probes the sources level by level: per-source totals
first, then the cells of each deeper level, pruning estimated cells that
fall below a threshold share of the universe and admitting a deeper cell
only when its detected parents add up past the same threshold.  Whatever
is admitted but not yet detected is filled in by the entropy solver.  With
a positive threshold those fill-in values only decide which admitted
cells get probed or pruned at the next level; the snapshot keeps them
only when detection runs out of levels, so on the benchmark universes it
holds detected and pruned cells alone.  A threshold of zero disables
pruning entirely, in which case every cell is materialized and the
reconstruction is exact (only the deepest cell stays solver-estimated;
its value is pinned by the detected remainder).

The per-query stage starts from the offline snapshot and refines it while
the query is running: first per-source query cardinalities, detected in
the hinted order with the not-yet-detected ones scaled by the average
detected-to-offline ratio; then individual cell values, detected in
descending order of how far the current query-level estimate moved from
the offline value.  Each counting query advances the plan by one step,
whose version and stage are fixed at once.  The step's snapshot is built
when it is first read: its totals are rebuilt from the totals detected
by then, and its other cells are the projection of the offline cells
(in practice the detected ones) onto those totals, solved when the
snapshot's cells are first read and then kept.  Each projection starts
from the offline cells, so a snapshot's values do not depend on which
earlier snapshots were read; a scheduler that replans on a few of them
builds and solves only those.  A projection's values depend only on the
totals of the sources that hold a positive offline cell and on how many
cells were counted, so a plan keeps the last refresh it solved, and a
step read with the same two inputs takes its values: once every such
source total is detected, each later source-total probe moves only the
others.  Nothing of it outlives the plan.  Query-level snapshots carry
the live cells only: a cell pruned offline is never probed or estimated
per query.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from . import maxent
from .lattice import (
    DETECTED,
    ESTIMATED,
    PRUNED,
    STAGE_FINAL,
    STAGE_INITIAL,
    STAGE_ONLINE_1,
    STAGE_ONLINE_2,
    CellIndex,
    IndexedCells,
    LatticeCell,
    StatsSnapshot,
    all_masks_at_level,
    children,
    parents,
)

log = logging.getLogger(__name__)

DEFAULT_PRUNE_THRESHOLD = 0.005
EXHAUSTIVE_SOURCE_LIMIT = 16
#: Simulated time of one query-level counting query, before the overhead factor.
DETECTION_QUERY_MS = 1.5


class StatsProbe(Protocol):
    """Counting-query access to one query scope; a sampling probe scales its counts."""

    @property
    def n_sources(self) -> int: ...

    def access_ms(self, source: int) -> float: ...

    def per_tuple_ms(self, source: int) -> float: ...

    def cardinality(self, source: int) -> float: ...

    def cell_count(self, mask: int) -> float: ...


@dataclass(frozen=True)
class DetectionOutcome:
    snapshot: StatsSnapshot
    count_queries: int
    clamped_rows: int
    unavailable: tuple[int, ...]


def initial_detection(
    probe: StatsProbe,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    *,
    relative: bool = True,
) -> DetectionOutcome:
    """Level-by-level lattice detection with threshold pruning.

    Unreachable sources are zeroed out and detection continues; when no
    source has a tuple, no cell is probed and the snapshot holds none.
    """
    if not prune_threshold >= 0:  # NaN too: it would prune nothing
        raise ValueError("prune threshold must be nonnegative")
    n = probe.n_sources
    if n == 0:
        raise ValueError("empty universe")
    if prune_threshold == 0.0 and n > EXHAUSTIVE_SOURCE_LIMIT:
        raise ValueError(
            f"zero prune threshold materializes 2^{n} cells; universe too large"
        )

    queries = 0
    unavailable: list[int] = []
    cards: list[float] = []
    for s in range(n):
        queries += 1
        try:
            cards.append(probe.cardinality(s))
        except Exception:
            log.warning("source %d unavailable during initial detection", s)
            unavailable.append(s)
            cards.append(0.0)

    total = sum(cards)
    threshold = prune_threshold * total if relative else prune_threshold

    clamps = [0]

    def on_clamp(source: int, resid: float) -> None:
        clamps[0] += 1
        log.warning("detected cells overshoot source %d by %.6g; clamping", source, -resid)

    detected: dict[int, float] = {}
    pruned: set[int] = set()
    # Level-1 estimates; none when every source is down or empty.
    current = {1 << s: cards[s] for s in range(n)} if total > 0.0 else {}
    estimated = dict(current)

    for lvl in range(1, n):
        if not current:
            break
        survivors: list[int] = []
        for mask in sorted(current):
            if threshold > 0.0 and current[mask] <= threshold:
                pruned.add(mask)
            else:
                survivors.append(mask)
        for mask in survivors:
            queries += 1
            try:
                detected[mask] = probe.cell_count(mask)
            except Exception:
                # A cell predicate over an unreachable source cannot be
                # answered; the source contributes nothing downstream.
                detected[mask] = 0.0
        estimated = {}

        if threshold > 0.0:
            # The detected parents of a child are the survivors that
            # produce it.  One parent's sum is its value: the other parents
            # add zeros to a nonnegative count.
            producers: dict[int, list[int]] = {}
            for mask in survivors:
                for child in children(mask, n):
                    producers.setdefault(child, []).append(mask)
            admitted = []
            for c in sorted(producers):
                found = producers[c]
                if len(found) == 1:
                    mass = detected[found[0]]
                else:
                    mass = sum(detected.get(p, 0.0) for p in parents(c))
                if mass > threshold:
                    admitted.append(c)
        else:
            admitted = list(all_masks_at_level(n, lvl + 1))
        if not admitted:
            break
        # Known cells come first and subtract in detection order; the
        # admitted ones follow as the free cells, in ascending mask order.
        index = CellIndex([*detected, *admitted], n)
        known = dict(enumerate(detected.values()))
        try:
            solved, _ = maxent.solve(cards, index, known, on_clamp=on_clamp)
        except maxent.MaxEntError as exc:
            # Detection corrects the estimates next round; keep the best
            # iterate and carry on rather than losing the deeper levels.
            log.warning("lattice fill-in imprecise at level %d: %s", lvl + 1, exc)
            solved = exc.values
        estimated = current = dict(zip(admitted, solved[len(detected) :].tolist()))

    cells: dict[int, LatticeCell] = {}
    for mask in pruned:
        cells[mask] = LatticeCell(mask, 0.0, PRUNED)
    for mask, value in estimated.items():
        cells[mask] = LatticeCell(mask, value, ESTIMATED)
    for mask, value in detected.items():
        cells[mask] = LatticeCell(mask, value, DETECTED)

    snapshot = StatsSnapshot(
        version=0,
        stage=STAGE_INITIAL,
        access_ms=tuple(probe.access_ms(s) for s in range(n)),
        per_tuple_ms=tuple(probe.per_tuple_ms(s) for s in range(n)),
        cardinalities=tuple(cards),
        cells=cells,
        prune_threshold=prune_threshold,
    )
    return DetectionOutcome(snapshot, queries, clamps[0], tuple(unavailable))


def _query_snapshot(
    initial: StatsSnapshot,
    version: int,
    stage: str,
    cards: Sequence[float],
    cells: IndexedCells,
) -> StatsSnapshot:
    """A query-level snapshot: estimated and detected live cells only."""
    return StatsSnapshot(
        version=version,
        stage=stage,
        access_ms=initial.access_ms,
        per_tuple_ms=initial.per_tuple_ms,
        cardinalities=tuple(cards),
        cells=cells,
        prune_threshold=initial.prune_threshold,
    )


def prior_query_snapshot(initial: StatsSnapshot) -> StatsSnapshot:
    """Query-level view before any online evidence.

    Offline live cell values and per-source totals pass through as
    estimates, over the offline snapshot's cell index.
    """
    return _query_snapshot(
        initial,
        initial.version + 1,
        STAGE_ONLINE_1,
        initial.cardinalities,
        IndexedCells(initial._index, lambda: initial._live_values),
    )


def _read_once(build: Callable[..., StatsSnapshot], *args) -> Callable[[], StatsSnapshot]:
    """A reader that returns ``build(*args)``, built on its first call and kept.

    A plan makes one per counting query; ``functools.cache`` would copy
    the wrapped function's metadata onto each, which costs more.
    """
    snapshot: StatsSnapshot | None = None

    def read() -> StatsSnapshot:
        nonlocal snapshot
        if snapshot is None:
            snapshot = build(*args)
        return snapshot

    return read


def online_detection_plan(
    initial: StatsSnapshot,
    perm_hint: Sequence[int],
    probe: StatsProbe,
    *,
    per_query_ms: float = DETECTION_QUERY_MS,
) -> Iterator[tuple[float, Callable[[], StatsSnapshot], int]]:
    """Yield (elapsed_ms, read, probed_source) detection steps.

    ``read()`` builds the step's snapshot on its first call and returns
    that same object afterwards; the step's version and stage are fixed
    when it is yielded, so reading a step late, or never, changes no
    other step.  The first snapshot costs nothing and probes no source:
    it is the offline statistics passed through as the query-level
    estimate.  Each later snapshot becomes visible one counting query
    (``per_query_ms``) after the previous one: a source total, or one
    cell's count, asked of the cell's first member source.
    ``probed_source`` names the source the counting query contacted (-1
    for none), so a scheduler can model contention.  A later snapshot's
    estimated cells are solved from the offline cells on its first cell
    read; the plan itself reads only the last cardinality refresh, which
    orders the cell queries.  A step whose refresh has the inputs of the
    last one the plan solved reuses its values list.  The caller owns
    termination; abandoning the iterator is the stop signal.
    """
    n = initial.n_sources
    index = initial._index  # every snapshot of the plan shares it
    prior = initial._live_values
    n_cells = len(index.masks)
    versions = itertools.count(initial.version + 2)  # the prior is initial.version + 1
    # A refresh's values depend only on the totals of the rows that reach a
    # positive-prior cell and on the cells counted, which only grow, so
    # their number names them.  The plan keeps the last refresh it solved.
    support = [s for s, cells in enumerate(index.by_source) if any(prior[i] > 0.0 for i in cells)]
    last_key: tuple[list[float], int] | None = None
    last_values: list[float] = []

    def refreshed(
        version: int, stage: str, cards: Sequence[float], known: dict[int, float]
    ) -> StatsSnapshot:
        """A snapshot with ``known`` by position; its other cells are solved when first read."""

        def solve() -> list[float]:
            nonlocal last_key, last_values
            key = ([cards[s] for s in support], len(known))
            if key == last_key:
                return last_values
            if len(known) == n_cells:
                values = [known[i] for i in range(n_cells)]
            else:
                values = maxent.solve(
                    cards,
                    index,
                    known,
                    prior=prior,
                    on_clamp=lambda s, r: log.warning(
                        "query-level cells overshoot source %d by %.6g; clamping", s, -r
                    ),
                )[0].tolist()
            last_key, last_values = key, values
            return values

        cells = IndexedCells(index, solve, known)
        return _query_snapshot(initial, version, stage, cards, cells)

    read = _read_once(prior_query_snapshot, initial)
    yield 0.0, read, -1

    # Each source is probed once, in hint order.  An undetected source's
    # total is its offline one scaled by the average detected-to-offline
    # ratio, summed in detection order; sources with an offline total of
    # zero are left out of the ratio, and with no ratio yet the offline
    # totals stand.  A step keeps its probe count and ratio; its totals
    # are rebuilt from the detected ones on read.
    hint = list(dict.fromkeys(perm_hint))
    hinted = set(hint)
    hint += [s for s in range(n) if s not in hinted]
    offline_cards = initial.cardinalities
    offline = np.array(offline_cards, dtype=float)
    detected_cards: list[float] = []  # in hint order

    def totals_step(version: int, stage: str, probed: int, avg: float) -> StatsSnapshot:
        cards = offline * avg
        cards[hint[:probed]] = detected_cards[:probed]
        return refreshed(version, stage, cards.tolist(), {})

    ratio_sum = 0.0
    ratios = 0
    for probed, s in enumerate(hint, 1):
        try:
            card = float(probe.cardinality(s))
        except Exception:
            log.warning("source %d unavailable during query detection", s)
            card = 0.0
        detected_cards.append(card)
        if offline_cards[s] > 0.0:
            ratio_sum += card / offline_cards[s]
            ratios += 1
        avg = ratio_sum / ratios if ratios else 1.0
        stage = STAGE_ONLINE_1 if probed < n else STAGE_ONLINE_2
        read = _read_once(totals_step, next(versions), stage, probed, avg)
        yield per_query_ms, read, s

    # Cells go in descending order of how far the last cardinality
    # refresh moved them from the prior; that refresh is solved here.
    refresh = read()
    cards = refresh.cardinalities
    estimates = refresh._live_values
    gaps = sorted(
        range(n_cells),
        key=lambda i: (-abs(estimates[i] - prior[i]), index.masks[i]),
    )
    # A step keeps how many cells were counted by then.
    counted: list[int] = []  # positions, in detection order
    counts: list[float] = []

    def cells_step(version: int, stage: str, known: int) -> StatsSnapshot:
        return refreshed(version, stage, cards, dict(zip(counted[:known], counts[:known])))

    for i in gaps:
        m = index.masks[i]
        try:
            count = float(probe.cell_count(m))
        except Exception:
            log.warning("cell %#x undetectable during query detection", m)
            count = 0.0
        counted.append(i)
        counts.append(count)
        stage = STAGE_FINAL if len(counted) == n_cells else STAGE_ONLINE_2
        read = _read_once(cells_step, next(versions), stage, len(counted))
        yield per_query_ms, read, index.members[i][0]
