"""Membership lattice and statistics snapshots.

A lattice cell counts the tuples that live in one exact subset of sources
and in no other source.  Cells are keyed by an integer bitmask (bit ``i``
set means "tuple is in source ``i``"), which makes the representation
canonical: two descriptions of the same membership pattern are the same
key.  A :class:`StatsSnapshot` bundles per-source timing, per-source
cardinalities and the current cell estimates into an immutable value that
planners can read without locking.

Planners and the entropy solver read cells by position, not by mask.  A
snapshot holds a :class:`CellIndex` of its cells' masks (ascending), each
mask's member sources, each source's cell positions and, built on first
read, the source-by-cell 0/1 matrix, plus one list of values in that
order.  The query-level snapshots of one plan all hold the offline
snapshot's masks, so they share its index and carry only their values.

The planners read each snapshot's scan times and its heap of rate
bounds, both from one numpy pass on first read over the snapshot's
float arrays.  A query-level snapshot is handed the offline snapshot's
timing arrays and its plan's cardinality array, so it converts none.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np


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


def children(mask: int, n_sources: int) -> Iterator[int]:
    """Cells one membership bit deeper, within an ``n_sources`` universe."""
    for s in range(n_sources):
        bit = 1 << s
        if not mask & bit:
            yield mask | bit


class CellIndex:
    """The mask side of a snapshot's cells, read by position.

    ``masks`` keep their order (a snapshot's ascend); ``members[i]`` are
    the sources of ``masks[i]``; ``by_source[s]`` holds the positions of
    source ``s``'s cells, ascending.  :attr:`incidence` is built on first
    read, for the entropy solver.
    Cell values live beside the index, one list per snapshot in the same
    order.
    """

    def __init__(self, masks: Iterable[int], n_sources: int):
        self.masks = tuple(masks)
        self.members = tuple(member_sources(m) for m in self.masks)
        by_source: list[list[int]] = [[] for _ in range(n_sources)]
        for i, srcs in enumerate(self.members):
            for s in srcs:
                by_source[s].append(i)
        self.by_source = tuple(tuple(r) for r in by_source)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Source-by-cell 0/1 matrix, row ``s`` true at ``s``'s cells.

        Read-only, as every solve over the index shares it.
        """
        incidence = np.zeros((len(self.by_source), len(self.masks)), dtype=bool)
        for s, positions in enumerate(self.by_source):
            incidence[s, list(positions)] = True
        incidence.flags.writeable = False
        return incidence


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable view of per-source stats and cell estimates.

    ``cardinalities[i]`` is the (detected or estimated) number of result
    tuples of source ``i`` for the query context the snapshot describes;
    ``values[i]`` is the estimate of cell ``index.masks[i]``.  A cell
    that is not in the index (pruned offline, or never materialized)
    contributes nothing.

    ``_arrays`` holds ``access_ms``, ``per_tuple_ms`` and ``cardinalities``
    as float arrays, for the pricing pass.  They are converted here unless
    ``_given_arrays`` holds them: :meth:`_refitted` hands its snapshots
    the timing arrays of the one they are refitted from.  ``replace()``
    converts them anew.
    """

    access_ms: tuple[float, ...]
    per_tuple_ms: tuple[float, ...]
    cardinalities: tuple[float, ...]
    index: CellIndex
    values: list[float]
    _given_arrays: InitVar[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = None
    _arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self, _given_arrays) -> None:
        if not (len(self.access_ms) == len(self.per_tuple_ms) == len(self.cardinalities)):
            raise ValueError("per-source arrays must have equal length")
        arrays = _given_arrays
        if arrays is None:
            columns = (self.access_ms, self.per_tuple_ms, self.cardinalities)
            arrays = tuple(np.array(c, dtype=float) for c in columns)
        object.__setattr__(self, "_arrays", arrays)

    @property
    def n_sources(self) -> int:
        return len(self.cardinalities)

    @cached_property
    def _priced(self) -> tuple[list[float], list[tuple[float, int]]]:
        """Each source's full scan time, and the rate heap, from one numpy pass.

        The scan times are ``access + per_tuple * card`` as Python floats:
        numpy's elementwise ``*`` and ``+`` round as Python's do.  The
        heap holds ``(-rate, source)`` with nothing covered, ascending.  A
        source's rate only falls as cells are covered, so each entry
        bounds that source's rate after any prefix.  The rates are
        :func:`cost.rate_from_parts` with nothing covered, taken over all
        sources at once: a source with no tuples or no scan time rates 0,
        and equal keys (``-0.0`` among them) keep ascending source order.
        """
        access, per_tuple, cards = self._arrays
        rates = np.zeros(len(cards))
        with np.errstate(over="ignore", invalid="ignore"):  # IEEE results, as in Python
            scan = access + per_tuple * cards
            np.divide(cards, scan, out=rates, where=~((scan <= 0.0) | (cards <= 0.0)))
        keys = -rates
        order = keys.argsort(kind="stable")
        return scan.tolist(), list(zip(keys[order].tolist(), order.tolist()))

    @property
    def _scan_ms(self) -> list[float]:
        """Each source's full scan time, indexed by source (see :attr:`_priced`)."""
        return self._priced[0]

    @property
    def _rate_heap(self) -> list[tuple[float, int]]:
        """A heap of rate bounds: ``(-rate, source)`` with nothing covered (see :attr:`_priced`)."""
        return self._priced[1]

    @cached_property
    def _detection_hint(self) -> list[tuple[int, ...]]:
        """The scheduler's detection hint over this snapshot, once computed: at most one entry.

        It is the offline sweep's order; detection probes the sources it
        leaves out after it, in id order.
        """
        return []

    def scan_cost_ms(self, source: int) -> float:
        """Full access-plus-transfer time for one source."""
        return self._priced[0][source]

    def _refitted(self, cards: np.ndarray, values: list[float]) -> StatsSnapshot:
        """This snapshot's sources and cells with other cardinalities and cell values.

        The new snapshot shares this one's timing, timing arrays and cell
        index, and keeps ``cards``, a float array the caller no longer
        changes, as its cardinality array.
        """
        access, per_tuple, _ = self._arrays
        return StatsSnapshot(
            self.access_ms,
            self.per_tuple_ms,
            tuple(cards.tolist()),
            self.index,
            values,
            (access, per_tuple, cards),
        )


def snapshot_from_cells(
    access_ms: Iterable[float],
    per_tuple_ms: Iterable[float],
    cell_values: Mapping[int, float],
    *,
    cardinalities: Iterable[float] | None = None,
) -> StatsSnapshot:
    """Build a snapshot from raw, detected cell values.

    When ``cardinalities`` is omitted they are derived as the per-source
    ancestor-cell sums, which is the exact-lattice case.  Raises
    ValueError for a mask with no source bit set or a negative value.
    """
    access = tuple(float(a) for a in access_ms)
    per_tuple = tuple(float(t) for t in per_tuple_ms)
    cells = {int(m): float(v) for m, v in cell_values.items()}
    if cells and min(cells) <= 0:
        raise ValueError("cell mask must have at least one source bit set")
    if any(v < 0 for v in cells.values()):
        raise ValueError("cell value must be nonnegative")
    if cardinalities is None:
        cards = [0.0] * len(access)
        for m, v in cells.items():
            for s in member_sources(m):
                cards[s] += v
    else:
        cards = [float(c) for c in cardinalities]
    index = CellIndex(sorted(cells), len(access))
    values = [cells[m] for m in index.masks]
    return StatsSnapshot(access, per_tuple, tuple(cards), index, values)
