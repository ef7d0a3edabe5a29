"""Membership-lattice primitives and snapshot behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched.cost import rate_from_parts, walk_residuals
from querysched.lattice import (
    DETECTED,
    ESTIMATED,
    PRUNED,
    CellIndex,
    LatticeCell,
    StatsSnapshot,
    all_masks_at_level,
    dump_snapshot,
    level,
    member_sources,
    parents,
    snapshot_from_cells,
)
from querysched.permutation import overlap_ranked

# The three-source reference lattice: exclusive counts per membership mask.
REF_CELLS = {0b001: 10, 0b010: 80, 0b100: 60, 0b011: 35, 0b101: 5, 0b110: 10, 0b111: 0}
REF_ACCESS = (0.0, 0.0, 0.0)
REF_TRANSFER = (0.7, 1.1, 1.5)


def ref_snapshot():
    return snapshot_from_cells(REF_ACCESS, REF_TRANSFER, REF_CELLS)


def shared_tuples(snap, i, j):
    """Tuples of ``i`` also in ``j``, as the planner reads them: a ratio of ``i``'s cardinality.

    A ratio below the planner's floor reads as no overlap.
    """
    ranked = overlap_ranked(i, {j}, snap)
    return ranked[0][1] * snap.cardinalities[i] if ranked else 0.0


class TestShapeOps:
    def test_parents_of_pair(self):
        assert parents(0b011) == frozenset({0b001, 0b010})

    def test_parents_of_singleton_empty(self):
        assert parents(0b001) == frozenset()

    def test_parents_of_triple(self):
        got = parents(0b111)
        assert got == frozenset({0b011, 0b101, 0b110})
        assert all(level(m) == 2 for m in got)

    def test_member_sources(self):
        assert member_sources(0b101) == (0, 2)

    def test_level_masks_enumeration(self):
        masks = list(all_masks_at_level(4, 2))
        assert len(masks) == 6
        assert all(level(m) == 2 for m in masks)
        assert len(set(masks)) == 6


class TestCellIndex:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_incidence_marks_each_source_s_cells(self, data):
        # Masks in any order: the index keeps the order it is given.
        n = data.draw(st.integers(1, 8))
        masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), unique=True))
        index = CellIndex(masks, n)
        incidence = index.incidence
        assert incidence.shape == (n, len(masks))
        for s in range(n):
            assert incidence[s].tolist() == [bool(m >> s & 1) for m in index.masks]
        assert not incidence.flags.writeable
        with pytest.raises(ValueError):
            incidence[0, :] = True
        assert index.incidence is incidence  # built once


def rate_heap_keys(heap):
    """``(-rate, source)`` entries with each key as ``float.hex``, which tells -0.0 from 0.0."""
    return [(key.hex(), source) for key, source in heap]


class TestRateHeap:
    """``StatsSnapshot._rate_heap`` against the scalar rule it vectorizes."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_equals_the_scalar_rule_ordering(self, data):
        n = data.draw(st.integers(0, 30), label="n")
        # A small pool makes zeros and tied rates common; the rest may be
        # subnormal or so large that a scan time overflows.
        value = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 1e300)
        access, per_tuple, cards = (
            tuple(data.draw(st.lists(value, min_size=n, max_size=n), label=name))
            for name in ("access", "per_tuple", "cards")
        )
        snap = StatsSnapshot(0, "initial", access, per_tuple, cards, {})
        parts = zip(access, per_tuple, cards)
        expected = sorted((-rate_from_parts(a, t, c, 0.0), s) for s, (a, t, c) in enumerate(parts))
        assert rate_heap_keys(snap._rate_heap) == rate_heap_keys(expected)
        assert all(type(s) is int and type(k) is float for k, s in snap._rate_heap)

    def test_idle_sources_tie_at_negative_zero_in_id_order(self):
        # Source 0 scans in no time, 1 has no tuples, 2 neither; 3 rates 5.
        snap = StatsSnapshot(
            0, "initial", (0.0, 1.0, 0.0, 2.0), (0.0, 0.1, 0.0, 0.0), (5.0, 0.0, 0.0, 10.0), {}
        )
        negative_zero = (-0.0).hex()
        assert rate_heap_keys(snap._rate_heap) == [
            ((-5.0).hex(), 3),
            (negative_zero, 0),
            (negative_zero, 1),
            (negative_zero, 2),
        ]


class TestSnapshot:
    def test_cardinalities_derived_from_cells(self):
        snap = ref_snapshot()
        assert snap.cardinalities == (50.0, 125.0, 75.0)

    def test_ancestor_cells_full_lattice(self):
        # Walking source 0 covers every live cell containing it, the
        # three-way cell included; only its private cell is left after
        # walking the other two.
        snap = snapshot_from_cells(REF_ACCESS, REF_TRANSFER, {**REF_CELLS, 0b111: 4})
        assert walk_residuals((0, 1), snap) == pytest.approx([54, 129 - 35 - 4])
        assert walk_residuals((0, 2), snap) == pytest.approx([54, 79 - 5 - 4])
        assert walk_residuals((1, 2, 0), snap)[2] == pytest.approx(10)

    def test_ancestor_cells_after_pruning_top(self):
        # The pruned top cell keeps a nonzero value here, so the walk
        # must leave it out, not merely add zero.
        cells = dict(snapshot_from_cells(REF_ACCESS, REF_TRANSFER, {**REF_CELLS, 0b111: 4}).cells)
        cells[0b111] = LatticeCell(0b111, 4.0, PRUNED)
        snap = StatsSnapshot(0, "initial", REF_ACCESS, REF_TRANSFER, (54.0, 129.0, 79.0), cells)
        assert walk_residuals((1, 2, 0), snap)[2] == pytest.approx(54 - 35 - 5)

    def test_ancestor_cells_empty(self):
        snap = snapshot_from_cells(REF_ACCESS, REF_TRANSFER, {}, cardinalities=(4, 0, 0))
        assert walk_residuals((1, 2, 0), snap) == [0.0, 0.0, 4.0]

    def test_intersect_count_prefix_pair(self):
        # Tuples of the third source already covered by the first two.
        snap = ref_snapshot()
        assert walk_residuals((0, 1, 2), snap)[2] == pytest.approx(75 - (5 + 10 + 0))

    def test_intersect_count_empty_prefix(self):
        assert walk_residuals((2,), ref_snapshot()) == [75.0]

    def test_intersect_count_full_containment(self):
        # A source entirely inside the union of the others.
        cells = {0b011: 20, 0b101: 30, 0b010: 5, 0b100: 7}
        snap = snapshot_from_cells((0, 0, 0), (1, 1, 1), cells)
        assert snap.cardinalities[0] == pytest.approx(50)
        assert walk_residuals((1, 2, 0), snap)[2] == pytest.approx(0.0)

    def test_pair_overlap(self):
        snap = ref_snapshot()
        assert shared_tuples(snap, 0, 1) == pytest.approx(35.0)
        assert shared_tuples(snap, 1, 2) == pytest.approx(10.0)

    def test_pruned_cells_contribute_nothing(self):
        cells = dict(ref_snapshot().cells)
        cells[0b011] = LatticeCell(0b011, 0.0, PRUNED)
        snap = StatsSnapshot(0, "initial", REF_ACCESS, REF_TRANSFER, (50.0, 125.0, 75.0), cells)
        assert walk_residuals((0, 1), snap)[1] == pytest.approx(125.0)
        assert shared_tuples(snap, 0, 1) == pytest.approx(0.0)

    def test_canonical_duplicate_patterns_share_one_cell(self):
        # At three sources, the level-2 constraint system has exactly three
        # distinct cells, each feeding exactly two per-source rows.
        snap = ref_snapshot()
        pair_cells = [m for m in snap.cells if level(m) == 2]
        assert len(pair_cells) == 3
        for m in pair_cells:
            alone = snapshot_from_cells(REF_ACCESS, REF_TRANSFER, {m: 1.0})
            rows = [s for s in range(3) if alone.cardinalities[s] > 0]
            assert len(rows) == 2

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            StatsSnapshot(0, "bogus", (0,), (1,), (1,), {})

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            LatticeCell(0, 1.0, DETECTED)
        with pytest.raises(ValueError):
            LatticeCell(1, -1.0, ESTIMATED)
        with pytest.raises(ValueError):
            LatticeCell(1, 1.0, "wild")


class TestDumpFormat:
    def test_format_is_line_oriented_and_sorted(self):
        text = dump_snapshot(ref_snapshot())
        lines = text.strip().splitlines()
        assert lines[0].startswith("snapshot version=0 stage=initial sources=3")
        cell_lines = lines[4:]
        masks = [int(ln.split()[0], 16) for ln in cell_lines]
        assert masks == sorted(masks)
