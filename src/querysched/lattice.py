"""Membership lattice and versioned statistics snapshots.

A lattice cell counts the tuples that live in one exact subset of sources
and in no other source.  Cells are keyed by an integer bitmask (bit ``i``
set means "tuple is in source ``i``"), which makes the representation
canonical: two descriptions of the same membership pattern are the same
key.  A :class:`StatsSnapshot` bundles per-source timing, per-source
cardinalities and the current cell estimates into an immutable value that
planners can read without locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

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
    def _live_cells(self) -> tuple[tuple[int, float], ...]:
        """(mask, value) for non-pruned cells, mask-ascending."""
        return tuple(
            (m, c.value) for m, c in sorted(self.cells.items()) if c.provenance != PRUNED
        )

    @cached_property
    def _live_members(self) -> tuple[tuple[int, float, tuple[int, ...]], ...]:
        """(mask, value, member sources) for non-pruned cells, mask-ascending."""
        return tuple((m, v, member_sources(m)) for m, v in self._live_cells)

    @cached_property
    def _cells_by_source(self) -> tuple[tuple[tuple[int, float, tuple[int, ...]], ...], ...]:
        """Each source's live cells as (mask, value, member sources), mask-ascending."""
        rows: list[list[tuple[int, float, tuple[int, ...]]]] = [[] for _ in range(self.n_sources)]
        for cell in self._live_members:
            for s in cell[2]:
                rows[s].append(cell)
        return tuple(tuple(r) for r in rows)

    @cached_property
    def _pair_overlap(self) -> dict[tuple[int, int], float]:
        acc: dict[tuple[int, int], float] = {}
        for _m, v, srcs in self._live_members:
            if v == 0.0:
                continue
            for a in range(len(srcs)):
                for b in range(a + 1, len(srcs)):
                    key = (srcs[a], srcs[b])
                    acc[key] = acc.get(key, 0.0) + v
        return acc

    @cached_property
    def _neighbours(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per source, (other source, shared tuples) for every positive overlap, id-ascending."""
        rows: list[list[tuple[int, float]]] = [[] for _ in range(self.n_sources)]
        for (a, b), v in self._pair_overlap.items():
            rows[a].append((b, v))
            rows[b].append((a, v))
        return tuple(tuple(sorted(r)) for r in rows)

    def pair_overlap(self, i: int, j: int) -> float:
        """Estimated number of tuples shared by sources ``i`` and ``j``."""
        if i == j:
            return self.cardinalities[i]
        key = (i, j) if i < j else (j, i)
        return self._pair_overlap.get(key, 0.0)

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


def parse_snapshot(text: str) -> StatsSnapshot:
    """Inverse of :func:`dump_snapshot`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("snapshot "):
        raise ValueError("missing snapshot header")
    header = dict(part.split("=", 1) for part in lines[0].split()[1:])
    arrays: dict[str, tuple[float, ...]] = {}
    cells: dict[int, LatticeCell] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] in ("access", "transfer", "cardinality"):
            arrays[parts[0]] = tuple(float(x) for x in parts[1:])
        else:
            mask = int(parts[0], 16)
            cells[mask] = LatticeCell(mask, float(parts[1]), parts[2])
    return StatsSnapshot(
        version=int(header["version"]),
        stage=header["stage"],
        access_ms=arrays["access"],
        per_tuple_ms=arrays["transfer"],
        cardinalities=arrays["cardinality"],
        cells=cells,
        prune_threshold=float(header["threshold"]),
    )
