"""Membership lattice and versioned statistics snapshots.

A lattice cell counts the tuples that live in one exact subset of sources
and in no other source.  Cells are keyed by an integer bitmask (bit ``i``
set means "tuple is in source ``i``"), which makes the representation
canonical: two descriptions of the same membership pattern are the same
key.  A :class:`StatsSnapshot` bundles per-source timing, per-source
cardinalities and the current cell estimates into an immutable value that
planners can read without locking.

Planners read cells by position, not by mask.  A snapshot owns a
:class:`CellIndex` of its live masks (ascending), each mask's member
sources, each source's cell positions and each source pair's, plus one
list of values in that order.  The query-level snapshots of one plan all
hold the offline snapshot's live masks, so they share its index and
carry only their values (:class:`IndexedCells`); their ``LatticeCell``
dict is built only when a reader asks for cells by mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Container, Iterable, Iterator, Mapping

DETECTED = "detected"
ESTIMATED = "estimated"
PRUNED = "pruned"
PROVENANCES = (DETECTED, ESTIMATED, PRUNED)

STAGE_INITIAL = "initial"
STAGE_ONLINE_1 = "online-substage-1"
STAGE_ONLINE_2 = "online-substage-2"
STAGE_FINAL = "final"
STAGES = (STAGE_INITIAL, STAGE_ONLINE_1, STAGE_ONLINE_2, STAGE_FINAL)


def level(mask: int) -> int:
    """Number of sources a cell's tuples belong to."""
    return mask.bit_count()


def member_sources(mask: int) -> tuple[int, ...]:
    """Source ids whose bit is set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def parents(mask: int) -> frozenset[int]:
    """Cells one membership bit shallower: each set bit cleared in turn.

    A single-source cell has no parent.
    """
    if level(mask) < 2:
        return frozenset()
    return frozenset(mask & ~(1 << s) for s in member_sources(mask))


def children(mask: int, n_sources: int) -> Iterator[int]:
    """Cells one membership bit deeper, within an ``n_sources`` universe."""
    for s in range(n_sources):
        bit = 1 << s
        if not mask & bit:
            yield mask | bit


def all_masks_at_level(n_sources: int, lvl: int) -> Iterator[int]:
    """Every membership mask with exactly ``lvl`` bits set (Gosper's hack)."""
    if lvl <= 0 or lvl > n_sources:
        return
    mask = (1 << lvl) - 1
    limit = 1 << n_sources
    while mask < limit:
        yield mask
        lsb = mask & -mask
        ripple = mask + lsb
        mask = ripple | (((mask ^ ripple) >> 2) // lsb)


@dataclass(frozen=True)
class LatticeCell:
    """One membership-signature cell with its current count estimate."""

    mask: int
    value: float
    provenance: str

    def __post_init__(self) -> None:
        if self.mask <= 0:
            raise ValueError("cell mask must have at least one source bit set")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance != PRUNED and self.value < 0:
            raise ValueError("cell value must be nonnegative")


class CellIndex:
    """The mask side of a set of live cells, read by position.

    ``masks`` ascend; ``members[i]`` are the sources of ``masks[i]``;
    ``by_source[s]`` holds the positions of source ``s``'s cells and
    ``pairs[(a, b)]``, for ``a < b``, those of the cells holding both, each
    ascending.  Cell values live beside it, one list per snapshot in the
    same order.
    """

    __slots__ = ("masks", "members", "by_source", "pairs")

    def __init__(self, masks: Iterable[int], n_sources: int):
        self.masks = tuple(masks)
        self.members = tuple(member_sources(m) for m in self.masks)
        by_source: list[list[int]] = [[] for _ in range(n_sources)]
        pairs: dict[tuple[int, int], list[int]] = {}
        for i, srcs in enumerate(self.members):
            for a, s in enumerate(srcs):
                by_source[s].append(i)
                for t in srcs[a + 1 :]:
                    pairs.setdefault((s, t), []).append(i)
        self.by_source = tuple(tuple(r) for r in by_source)
        self.pairs = {key: tuple(r) for key, r in pairs.items()}


class IndexedCells(Mapping[int, LatticeCell]):
    """Live cells as a value list in a shared :class:`CellIndex`'s order.

    ``values`` gives that list on first need (a query-level refresh is
    solved then) and it is kept; the ``LatticeCell`` dict is built only
    when a reader asks for cells by mask.  Masks in ``detected`` were
    counted, the others are estimates.
    """

    __slots__ = ("index", "_values", "_detected", "_ordered", "_cells")

    def __init__(
        self,
        index: CellIndex,
        values: Callable[[], list[float]],
        detected: Container[int] = frozenset(),
    ):
        self.index = index
        self._values: Callable[[], list[float]] | None = values
        self._detected = detected
        self._ordered: list[float] | None = None
        self._cells: dict[int, LatticeCell] | None = None

    def ordered_values(self) -> list[float]:
        """Cell values in the index's mask order."""
        if self._ordered is None:
            self._ordered = self._values()
            self._values = None  # drop what the solve needed
        return self._ordered

    def _by_mask(self) -> dict[int, LatticeCell]:
        if self._cells is None:
            detected = self._detected
            self._cells = {
                m: LatticeCell(m, v, DETECTED if m in detected else ESTIMATED)
                for m, v in zip(self.index.masks, self.ordered_values())
            }
        return self._cells

    def __getitem__(self, mask: int) -> LatticeCell:
        return self._by_mask()[mask]

    def __iter__(self) -> Iterator[int]:
        return iter(self._by_mask())

    def __len__(self) -> int:
        return len(self._by_mask())


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable, versioned view of per-source stats and cell estimates.

    ``cardinalities[i]`` is the (detected or estimated) number of result
    tuples of source ``i`` for the query context the snapshot describes;
    ``cells`` maps membership masks to their estimates.  An offline
    snapshot carries its pruned cells with value 0 so that readers can
    distinguish "pruned" from "never materialized"; both contribute
    nothing to sums, and query-level snapshots leave them out.
    """

    version: int
    stage: str
    access_ms: tuple[float, ...]
    per_tuple_ms: tuple[float, ...]
    cardinalities: tuple[float, ...]
    cells: Mapping[int, LatticeCell]
    prune_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        if not (len(self.access_ms) == len(self.per_tuple_ms) == len(self.cardinalities)):
            raise ValueError("per-source arrays must have equal length")

    @property
    def n_sources(self) -> int:
        return len(self.cardinalities)

    @cached_property
    def _index(self) -> CellIndex:
        """The mask side of the live cells; query-level snapshots share their plan's."""
        if isinstance(self.cells, IndexedCells):
            return self.cells.index
        live = sorted(m for m, c in self.cells.items() if c.provenance != PRUNED)
        return CellIndex(live, self.n_sources)

    @cached_property
    def _live_values(self) -> list[float]:
        """Live cell values in :attr:`_index` mask order."""
        if isinstance(self.cells, IndexedCells):
            return self.cells.ordered_values()
        cells = self.cells
        return [cells[m].value for m in self._index.masks]

    @cached_property
    def _rate_heap(self) -> list[tuple[float, int]]:
        """``(-rate, source)`` with nothing covered, ascending: a heap of rate bounds.

        A source's rate only falls as cells are covered, so each entry
        bounds that source's rate after any prefix.
        """
        from .cost import rate_from_parts  # cost reads snapshots: import on first use

        parts = zip(self.access_ms, self.per_tuple_ms, self.cardinalities)
        return sorted((-rate_from_parts(a, t, c, 0.0), s) for s, (a, t, c) in enumerate(parts))

    @cached_property
    def _detection_hint(self) -> list[tuple[int, ...]]:
        """The scheduler's detection order over this snapshot, once computed: at most one entry."""
        return []

    @cached_property
    def _neighbours(self) -> tuple[dict[int, float], ...]:
        """Per source, each other source it shares estimated tuples with, mapped to that count."""
        values = self._live_values
        rows: list[dict[int, float]] = [{} for _ in range(self.n_sources)]
        for (a, b), positions in self._index.pairs.items():
            total = None
            for i in positions:
                v = values[i]
                if v != 0.0:
                    total = v if total is None else total + v
            if total is not None:
                rows[a][b] = rows[b][a] = total
        return tuple(rows)

    def scan_cost_ms(self, source: int) -> float:
        """Full access-plus-transfer time for one source."""
        return self.access_ms[source] + self.per_tuple_ms[source] * self.cardinalities[source]


def snapshot_from_cells(
    access_ms: Iterable[float],
    per_tuple_ms: Iterable[float],
    cell_values: Mapping[int, float],
    *,
    cardinalities: Iterable[float] | None = None,
    version: int = 0,
    stage: str = STAGE_INITIAL,
    prune_threshold: float = 0.0,
) -> StatsSnapshot:
    """Build a snapshot from raw, detected cell values.

    When ``cardinalities`` is omitted they are derived as the per-source
    ancestor-cell sums, which is the exact-lattice case.
    """
    access = tuple(float(a) for a in access_ms)
    per_tuple = tuple(float(t) for t in per_tuple_ms)
    cells = {int(m): LatticeCell(int(m), float(v), DETECTED) for m, v in cell_values.items()}
    if cardinalities is None:
        cards = [0.0] * len(access)
        for m, c in cells.items():
            for s in member_sources(m):
                cards[s] += c.value
    else:
        cards = [float(c) for c in cardinalities]
    return StatsSnapshot(
        version=version,
        stage=stage,
        access_ms=access,
        per_tuple_ms=per_tuple,
        cardinalities=tuple(cards),
        cells=cells,
        prune_threshold=prune_threshold,
    )


def dump_snapshot(snapshot: StatsSnapshot) -> str:
    """Serialize a snapshot to the line-oriented text format.

    Header line carries version, stage, source count and prune threshold;
    each following line is ``<mask-hex> <value> <provenance>`` in
    ascending mask order.
    """
    lines = [
        "snapshot version=%d stage=%s sources=%d threshold=%.9g"
        % (snapshot.version, snapshot.stage, snapshot.n_sources, snapshot.prune_threshold)
    ]
    lines.append("access " + " ".join("%.9g" % a for a in snapshot.access_ms))
    lines.append("transfer " + " ".join("%.9g" % t for t in snapshot.per_tuple_ms))
    lines.append("cardinality " + " ".join("%.9g" % c for c in snapshot.cardinalities))
    for mask in sorted(snapshot.cells):
        cell = snapshot.cells[mask]
        lines.append("%x %.9g %s" % (mask, cell.value, cell.provenance))
    return "\n".join(lines) + "\n"
