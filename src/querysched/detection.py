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
the offline value.  Every detection republishes a snapshot re-projected
onto the new totals, using the offline cells as the prior measure (in
practice the detected ones).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Protocol, Sequence

from . import maxent
from .cost import QuerySpec
from .lattice import (
    DETECTED,
    ESTIMATED,
    PRUNED,
    STAGE_FINAL,
    STAGE_INITIAL,
    STAGE_ONLINE_1,
    STAGE_ONLINE_2,
    LatticeCell,
    StatsSnapshot,
    all_masks_at_level,
    children,
    member_sources,
    parents,
)

log = logging.getLogger(__name__)

DEFAULT_PRUNE_THRESHOLD = 0.005
EXHAUSTIVE_SOURCE_LIMIT = 16


class StatsProbe(Protocol):
    """Counting-query access to a set of sources for one query scope."""

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
    sample_rate: float | None = None,
    rel_tol: float = maxent.DEFAULT_REL_TOL,
) -> DetectionOutcome:
    """Level-by-level lattice detection with threshold pruning.

    With ``sample_rate`` set, the probe is assumed to answer from a sample
    and every detected count is rescaled by its reciprocal before use.
    Unreachable sources are zeroed out and detection continues.
    """
    if prune_threshold < 0:
        raise ValueError("prune threshold must be nonnegative")
    n = probe.n_sources
    if n == 0:
        raise ValueError("empty universe")
    scale = 1.0 / sample_rate if sample_rate else 1.0

    queries = 0
    unavailable: list[int] = []
    cards: list[float] = []
    for s in range(n):
        queries += 1
        try:
            cards.append(probe.cardinality(s) * scale)
        except Exception:
            log.warning("source %d unavailable during initial detection", s)
            unavailable.append(s)
            cards.append(0.0)

    total = sum(cards)
    threshold = prune_threshold * total if relative else prune_threshold
    if threshold <= 0.0 and n > EXHAUSTIVE_SOURCE_LIMIT:
        raise ValueError(
            f"zero prune threshold materializes 2^{n} cells; universe too large"
        )

    constraints = {s: cards[s] for s in range(n)}
    clamps = [0]

    def on_clamp(source: int, resid: float) -> None:
        clamps[0] += 1
        log.warning("detected cells overshoot source %d by %.6g; clamping", source, -resid)

    detected: dict[int, float] = {}
    pruned: set[int] = set()
    current = {1 << s: cards[s] for s in range(n)}  # level-1 estimates
    estimated = dict(current)

    for lvl in range(1, n):
        survivors: list[int] = []
        for mask in sorted(current):
            if threshold > 0.0 and current[mask] <= threshold:
                pruned.add(mask)
            else:
                survivors.append(mask)
        for mask in survivors:
            queries += 1
            try:
                detected[mask] = probe.cell_count(mask) * scale
            except Exception:
                # A cell predicate over an unreachable source cannot be
                # answered; the source contributes nothing downstream.
                detected[mask] = 0.0
        estimated = {}

        if threshold > 0.0:
            candidates = sorted(
                {child for mask in survivors for child in children(mask, n)}
            )
            admitted = [
                c
                for c in candidates
                if sum(detected.get(p, 0.0) for p in parents(c)) > threshold
            ]
        else:
            admitted = list(all_masks_at_level(n, lvl + 1))
        if not admitted:
            break
        try:
            values, report = maxent.solve(
                constraints, detected, admitted, rel_tol=rel_tol, on_clamp=on_clamp
            )
        except maxent.MaxEntError as exc:
            # Detection corrects the estimates next round; keep the best
            # iterate and carry on rather than losing the deeper levels.
            log.warning("lattice fill-in imprecise at level %d: %s", lvl + 1, exc)
            values = {m: exc.values.get(m, 0.0) for m in admitted}
        estimated = values
        current = values

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


def scale_partial_cardinalities(
    detected: Mapping[int, float],
    initial_cards: Sequence[float],
    order: Sequence[int],
    fallback_ratio: float = 1.0,
) -> list[float]:
    """Fill undetected per-source totals from the detected prefix.

    Undetected sources get their offline total scaled by the average
    detected-to-offline ratio.  Detected sources pass through unchanged.
    Sources with an offline total of zero are skipped in the ratio; with
    no usable ratio at all, offline totals times ``fallback_ratio`` are
    the estimate.
    """
    ratio_sum = 0.0
    q = 0
    for s in order:
        if s not in detected:
            continue
        if initial_cards[s] <= 0.0:
            continue
        ratio_sum += detected[s] / initial_cards[s]
        q += 1
    avg = ratio_sum / q if q else fallback_ratio
    out = []
    for s in range(len(initial_cards)):
        if s in detected:
            out.append(float(detected[s]))
        else:
            out.append(initial_cards[s] * avg)
    return out


@dataclass(frozen=True)
class DetectionTiming:
    base_ms: float = 1.5
    overhead_factor: float = 1.0
    batch_size: int = 1

    @property
    def per_query_ms(self) -> float:
        return self.base_ms * self.overhead_factor


def prior_query_snapshot(
    initial: StatsSnapshot, fallback_ratio: float = 1.0
) -> StatsSnapshot:
    """Query-level view before any online evidence.

    Offline cell values pass through as estimates; per-source totals are
    the offline ones times the configured prior ratio.
    """
    cells: dict[int, LatticeCell] = {}
    for m, c in initial.cells.items():
        if c.provenance == PRUNED:
            cells[m] = c
        else:
            cells[m] = LatticeCell(m, c.value * fallback_ratio, ESTIMATED)
    return StatsSnapshot(
        version=initial.version + 1,
        stage=STAGE_ONLINE_1,
        access_ms=initial.access_ms,
        per_tuple_ms=initial.per_tuple_ms,
        cardinalities=tuple(c * fallback_ratio for c in initial.cardinalities),
        cells=cells,
        prune_threshold=initial.prune_threshold,
    )


def online_detection_plan(
    query: QuerySpec,
    initial: StatsSnapshot,
    perm_hint: Sequence[int],
    probe: StatsProbe,
    timing: DetectionTiming = DetectionTiming(),
    *,
    fallback_ratio: float = 1.0,
    rel_tol: float = maxent.DEFAULT_REL_TOL,
) -> Iterator[tuple[float, StatsSnapshot, int]]:
    """Yield (elapsed_ms, snapshot, probed_source) detection steps.

    The first snapshot costs nothing and probes no source: it is the
    offline statistics passed through as the query-level estimate.  Each
    later snapshot becomes visible one detection (or one batch) after
    the previous one; ``probed_source`` names the source the counting
    query contacted (-1 for none), so a scheduler can model contention.
    The caller owns termination; abandoning the iterator is the stop
    signal.
    """
    n = initial.n_sources
    live_cells = {m: c.value for m, c in initial.cells.items() if c.provenance != PRUNED}
    pruned = [m for m, c in initial.cells.items() if c.provenance == PRUNED]
    version = initial.version

    def publish(
        stage: str,
        cards: Sequence[float],
        estimates: Mapping[int, float],
        known: Mapping[int, float],
    ) -> StatsSnapshot:
        nonlocal version
        version += 1
        cells: dict[int, LatticeCell] = {m: LatticeCell(m, 0.0, PRUNED) for m in pruned}
        for m, v in estimates.items():
            cells[m] = LatticeCell(m, v, ESTIMATED)
        for m, v in known.items():
            cells[m] = LatticeCell(m, v, DETECTED)
        return StatsSnapshot(
            version=version,
            stage=stage,
            access_ms=initial.access_ms,
            per_tuple_ms=initial.per_tuple_ms,
            cardinalities=tuple(cards),
            cells=cells,
            prune_threshold=initial.prune_threshold,
        )

    def resolve(
        cards: Sequence[float],
        known: Mapping[int, float],
        estimates: Mapping[int, float],
    ) -> Mapping[int, float]:
        constraints = {s: cards[s] for s in range(n)}
        free = [m for m in live_cells if m not in known]
        if not free:
            return {}
        values, _ = maxent.solve(
            constraints,
            known,
            free,
            prior=live_cells,
            warm_start=estimates,
            rel_tol=rel_tol,
            on_clamp=lambda s, r: log.warning(
                "query-level cells overshoot source %d by %.6g; clamping", s, -r
            ),
        )
        return values

    prior = prior_query_snapshot(initial, fallback_ratio)
    version = prior.version
    cards: Sequence[float] = prior.cardinalities
    estimates = {m: c.value for m, c in prior.cells.items() if c.provenance != PRUNED}
    yield 0.0, prior, -1

    hint = list(perm_hint) + [s for s in range(n) if s not in set(perm_hint)]
    detected_cards: dict[int, float] = {}
    for s in hint:
        try:
            detected_cards[s] = float(probe.cardinality(s))
        except Exception:
            log.warning("source %d unavailable during query detection", s)
            detected_cards[s] = 0.0
        cards = scale_partial_cardinalities(
            detected_cards, initial.cardinalities, hint, fallback_ratio
        )
        estimates = resolve(cards, {}, estimates)
        stage = STAGE_ONLINE_1 if len(detected_cards) < n else STAGE_ONLINE_2
        yield timing.per_query_ms, publish(stage, cards, estimates, {}), s

    gaps = sorted(
        live_cells,
        key=lambda m: (-abs(estimates.get(m, 0.0) - live_cells[m]), m),
    )
    known: dict[int, float] = {}
    batch = max(1, timing.batch_size)
    for start in range(0, len(gaps), batch):
        chunk = gaps[start : start + batch]
        for m in chunk:
            try:
                known[m] = float(probe.cell_count(m))
            except Exception:
                log.warning("cell %#x undetectable during query detection", m)
                known[m] = 0.0
        estimates = resolve(cards, known, estimates)
        stage = STAGE_FINAL if len(known) == len(live_cells) else STAGE_ONLINE_2
        target = min(member_sources(chunk[0]))
        yield timing.per_query_ms * len(chunk), publish(stage, cards, estimates, known), target


def online_detection(
    query: QuerySpec,
    initial: StatsSnapshot,
    perm_hint: Sequence[int],
    stop: Callable[[], bool],
    probe: StatsProbe,
    timing: DetectionTiming = DetectionTiming(),
    **kwargs,
) -> Iterator[StatsSnapshot]:
    """Snapshot stream for the per-query stage, honoring a stop signal.

    The stop signal is checked between detections; the initial derived
    snapshot is always produced.
    """
    plan = online_detection_plan(query, initial, perm_hint, probe, timing, **kwargs)
    for _cost, snapshot, _source in plan:
        yield snapshot
        if stop():
            return
