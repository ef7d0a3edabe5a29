"""Two-stage statistics collection over the membership lattice.

The offline stage probes the sources level by level: per-source totals
first, then the cells of each deeper level, pruning estimated cells that
fall below a threshold share of the universe and admitting a deeper cell
only when its detected parents add up past the same threshold.  The
entropy solver estimates each admitted level from the cells detected so
far; those estimates only decide which admitted cells get probed or
pruned.  The loop runs through the deepest level, so the snapshot holds
counted cells alone.  Pruned cells are not in the snapshot; the
outcome's provenance map names them beside the detected ones, for
``dump-stats``.  A threshold of zero disables pruning entirely: every
cell is counted, no estimate is read and so no solver runs, and the
snapshot is the exact lattice.

The per-query stage starts from the offline snapshot and refines it while
the query is running: first per-source query cardinalities, detected in
the hinted order; then individual cell values, detected in descending
order of how far the current query-level estimate moved from the offline
value.  The plan yields one step per counting query and leaves its price
on the simulated clock to the scheduler; what a step counted is fixed at
once.  The step's snapshot is built when it is read, and the scheduler
keeps the one in force: its cells are the projection of the offline
cells onto the rows of the sources detected by then, with the counted
cells fixed.  A detected
source publishes its detected total, and any other its cells' sum, or,
when it holds no positive cell, its offline total scaled by the average
detected-to-offline ratio.  Each projection starts from the offline
cells, so a snapshot's values do not depend on which earlier snapshots
were read; a scheduler that replans on a few of them builds and solves
only those.  A projection's values depend only on the detected totals
of the sources that hold a positive offline cell and on how many cells
were counted, so a plan keeps the last refresh it solved, and a step
read with the same inputs takes its values: a source-total probe
outside those sources moves no cell.  Nothing of it outlives the plan.
Query-level snapshots hold the offline snapshot's cells only: a cell
pruned offline is never probed or estimated per query.  In either
stage a counting query the probe cannot answer reads 0 and logs a warning.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from . import maxent
from .lattice import CellIndex, StatsSnapshot, children, level

log = logging.getLogger(__name__)

DETECTED = "detected"
PRUNED = "pruned"

DEFAULT_PRUNE_THRESHOLD = 0.005
EXHAUSTIVE_SOURCE_LIMIT = 16


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
    """An offline snapshot, what it cost, and how each cell got its value.

    ``provenance`` maps every mask detection reached to :data:`DETECTED`
    or :data:`PRUNED`; the snapshot holds the detected ones.
    """

    snapshot: StatsSnapshot
    count_queries: int
    clamped_rows: int
    provenance: Mapping[int, str]


def check_prune_threshold(prune_threshold: float, n_sources: int) -> None:
    """Raise ValueError for a negative or NaN threshold, or zero over too many sources.

    Zero counts all 2^n cells, so it takes at most :data:`EXHAUSTIVE_SOURCE_LIMIT` sources.
    """
    if not prune_threshold >= 0:  # NaN too: it would prune nothing
        raise ValueError("prune threshold must be nonnegative")
    if prune_threshold == 0.0 and n_sources > EXHAUSTIVE_SOURCE_LIMIT:
        raise ValueError(
            f"zero prune threshold materializes 2^{n_sources} cells; universe too large"
        )


def _count(probe: StatsProbe, key: int, stage: str, *, cell: bool = False) -> float:
    """Source ``key``'s total, or with ``cell`` cell ``key``'s count, asked in ``stage`` detection.

    A probe that raises (a source is down) reads 0.0 and logs one warning naming the stage.
    """
    try:
        return float(probe.cell_count(key) if cell else probe.cardinality(key))
    except Exception:
        what = ("cell %#x" if cell else "source %d") % key
        log.warning("%s unavailable during %s detection", what, stage)
        return 0.0


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
    n = probe.n_sources
    check_prune_threshold(prune_threshold, n)
    if n == 0:
        raise ValueError("empty universe")

    cards = [_count(probe, s, "initial") for s in range(n)]
    total = sum(cards)
    threshold = prune_threshold * total if relative else prune_threshold

    clamped_rows = 0
    detected: dict[int, float] = {}
    pruned: set[int] = set()
    # A level's candidates, ascending, and their estimates, which only
    # pruning reads: level 1 from the totals, none when every source is
    # down or empty.
    candidates = [1 << s for s in range(n)] if total > 0.0 else []
    estimates = dict(zip(candidates, cards))
    while candidates:
        survivors: list[int] = []
        for mask in candidates:
            if threshold > 0.0 and estimates[mask] <= threshold:
                pruned.add(mask)
            else:
                survivors.append(mask)
        for mask in survivors:
            detected[mask] = _count(probe, mask, "initial", cell=True)

        # A child's detected parents are this level's survivors; their
        # counts add in ascending mask order.  It is a candidate when
        # they add up past the threshold, and with no threshold always.
        mass: dict[int, float] = {}
        for mask in survivors:
            for child in children(mask, n):
                mass[child] = mass.get(child, 0.0) + detected[mask]
        candidates = sorted(c for c, m in mass.items() if m > threshold or threshold == 0.0)
        if threshold == 0.0 or not candidates:
            continue
        # Known cells come first and subtract in detection order; the
        # candidates follow as the free cells.
        index = CellIndex([*detected, *candidates], n)
        known = dict(enumerate(detected.values()))
        try:
            solved, report = maxent.solve(cards, index, known)
        except maxent.MaxEntError as exc:
            # Detection corrects the estimates next round; keep the best
            # iterate and carry on rather than losing the deeper levels.
            log.warning("lattice fill-in imprecise at level %d: %s", level(candidates[0]), exc)
            solved, report = exc.values, exc.report
        clamped_rows += len(report.clamped_sources)
        estimates = dict(zip(candidates, solved[len(detected) :].tolist()))

    provenance = dict.fromkeys(pruned, PRUNED)
    provenance.update(dict.fromkeys(detected, DETECTED))
    index = CellIndex(sorted(detected), n)
    snapshot = StatsSnapshot(
        access_ms=tuple(probe.access_ms(s) for s in range(n)),
        per_tuple_ms=tuple(probe.per_tuple_ms(s) for s in range(n)),
        cardinalities=tuple(cards),
        index=index,
        values=[detected[m] for m in index.masks],
    )
    return DetectionOutcome(snapshot, n + len(detected), clamped_rows, provenance)


def dump_snapshot(outcome: DetectionOutcome, prune_threshold: float) -> str:
    """Serialize an offline detection outcome to the line-oriented text format.

    The header line carries the source count and prune threshold (its
    version and stage are always 0 and ``initial``); each following line
    is ``<mask-hex> <value> <provenance>`` in ascending mask order, a
    pruned cell reading 0.
    """
    snapshot = outcome.snapshot
    values = dict(zip(snapshot.index.masks, snapshot.values))
    lines = [
        "snapshot version=0 stage=initial sources=%d threshold=%.9g"
        % (snapshot.n_sources, prune_threshold)
    ]
    lines.append("access " + " ".join("%.9g" % a for a in snapshot.access_ms))
    lines.append("transfer " + " ".join("%.9g" % t for t in snapshot.per_tuple_ms))
    lines.append("cardinality " + " ".join("%.9g" % c for c in snapshot.cardinalities))
    for mask in sorted(outcome.provenance):
        lines.append("%x %.9g %s" % (mask, values.get(mask, 0.0), outcome.provenance[mask]))
    return "\n".join(lines) + "\n"


def online_detection_plan(
    initial: StatsSnapshot, perm_hint: Sequence[int], probe: StatsProbe
) -> Iterator[tuple[Callable[[], StatsSnapshot], int]]:
    """Yield one ``(read, probed_source)`` step per counting query.

    Until the first step completes, ``initial`` itself stands as the
    query-level estimate.  A step is a source total, or one cell's count,
    asked of the cell's first member source; ``probed_source`` names the
    source the query contacted, so a scheduler can price the query and
    model contention.  Each ``read()`` builds the step's snapshot anew;
    what a step counted is fixed when it is yielded, so reading a step
    late, twice or never changes no other step.  A snapshot's cells are
    fitted to the detected rows when it is built; the plan itself reads
    only the last cardinality refresh, which orders the cell queries.  A
    step whose refresh has the inputs of the last one the plan solved
    reuses its values list.  The caller owns termination; abandoning the
    iterator is the stop signal.  Raises ValueError, before any probe,
    for a hint source outside the universe.
    """
    n = initial.n_sources
    # Each source is probed once, in hint order, then the rest in id order.
    hint = list(dict.fromkeys(perm_hint))
    for s in hint:
        if not 0 <= s < n:
            raise ValueError(f"detection hint names source {s}, outside the {n}-source universe")
    hinted = set(hint)
    hint += [s for s in range(n) if s not in hinted]
    index = initial.index  # every snapshot of the plan shares it
    prior = initial.values
    n_cells = len(index.masks)
    # A refresh's values depend only on the counted totals of the rows that
    # reach a positive-prior cell and on the cells counted, which only grow,
    # so their number names them.  The plan keeps the last refresh it solved.
    support = [s for s, cells in enumerate(index.by_source) if any(prior[i] > 0.0 for i in cells)]
    last_key: tuple[list[tuple[int, float]], int] | None = None
    last_values: list[float] = []

    def refreshed(
        fitted: Sequence[int], totals: np.ndarray, known: dict[int, float]
    ) -> StatsSnapshot:
        """A snapshot with ``known`` by position and its other cells fitted to some rows.

        The rows fitted are those of the ``fitted`` sources, each to its
        entry of ``totals``, and those sources publish that entry, met or
        not: over pruned cells some cannot all be met, and the step keeps
        the solve's last cells.  Every other source publishes its cells'
        sum, or its entry of ``totals`` when it holds no positive cell.
        The snapshot shares ``initial``'s timing arrays.
        """
        nonlocal last_key, last_values
        fit = set(fitted)
        row = totals.tolist()
        key = ([(s, row[s]) for s in support if s in fit], len(known))
        if key != last_key:
            rows = [row[s] if s in fit else math.nan for s in range(n)]
            last_values = maxent.solve(rows, index, known, prior=prior)[0].tolist()
            last_key = key
        cards = totals.copy()
        # Outside the support only counted cells can be positive, and cells
        # are counted once every source is.  Cells are never negative, so
        # a zero sum means no positive cell.
        for s in support:
            if s not in fit:
                cells_sum = sum(last_values[i] for i in index.by_source[s])
                if cells_sum > 0.0:
                    cards[s] = cells_sum
        return initial._refitted(cards, last_values)

    # A probed source's row is fitted from then on.  A source not yet
    # detected that holds no positive cell publishes its offline total
    # scaled by the average detected-to-offline ratio, summed in detection
    # order; sources with an offline total of zero are left out of the
    # ratio, and with no ratio yet the offline totals stand.  A step keeps
    # its probe count and ratio; its totals are rebuilt from the detected
    # ones on read.
    offline_cards = initial.cardinalities
    offline = initial._arrays[2]  # the cardinalities
    detected_cards: list[float] = []  # in hint order

    def totals_step(probed: int, avg: float) -> StatsSnapshot:
        cards = offline * avg
        cards[hint[:probed]] = detected_cards[:probed]
        return refreshed(hint[:probed], cards, {})

    ratio_sum = 0.0
    ratios = 0
    for probed, s in enumerate(hint, 1):
        card = _count(probe, s, "query")
        detected_cards.append(card)
        if offline_cards[s] > 0.0:
            ratio_sum += card / offline_cards[s]
            ratios += 1
        avg = ratio_sum / ratios if ratios else 1.0
        read = partial(totals_step, probed, avg)
        yield read, s

    # Cells go in descending order of how far the last cardinality
    # refresh moved them from the prior; that refresh is solved here.  By
    # then every source is detected.
    refresh = read()
    cards = refresh._arrays[2]
    estimates = refresh.values
    gaps = sorted(
        range(n_cells),
        key=lambda i: (-abs(estimates[i] - prior[i]), index.masks[i]),
    )
    # A step keeps how many cells were counted by then.
    counted: list[int] = []  # positions, in detection order
    counts: list[float] = []

    def cells_step(known: int) -> StatsSnapshot:
        return refreshed(hint, cards, dict(zip(counted[:known], counts[:known])))

    for i in gaps:
        counted.append(i)
        counts.append(_count(probe, index.masks[i], "query", cell=True))
        yield partial(cells_step, len(counted)), index.members[i][0]
