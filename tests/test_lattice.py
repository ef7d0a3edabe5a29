"""Membership-lattice primitives and snapshot behavior."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched.cost import rate_from_parts, walk_residuals
from querysched.detection import PRUNED, dump_snapshot, initial_detection
from querysched.lattice import (
    CellIndex,
    StatsSnapshot,
    children,
    level,
    member_sources,
    snapshot_from_cells,
)
from querysched.permutation import overlap_ranked
from querysched.simulator import SCOPE_ALL, ScopedProbe, demo_universe

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
    def test_children_of_a_pair(self):
        got = list(children(0b0101, 4))
        assert got == [0b0111, 0b1101]
        assert all(level(m) == 3 for m in got)

    def test_member_sources(self):
        assert member_sources(0b101) == (0, 2)


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
        snap = StatsSnapshot(access, per_tuple, cards, CellIndex((), n), [])
        parts = zip(access, per_tuple, cards)
        expected = sorted((-rate_from_parts(a, t, c, 0.0), s) for s, (a, t, c) in enumerate(parts))
        assert rate_heap_keys(snap._rate_heap) == rate_heap_keys(expected)
        assert all(type(s) is int and type(k) is float for k, s in snap._rate_heap)

    def test_idle_sources_tie_at_negative_zero_in_id_order(self):
        # Source 0 scans in no time, 1 has no tuples, 2 neither; 3 rates 5.
        snap = StatsSnapshot(
            (0.0, 1.0, 0.0, 2.0), (0.0, 0.1, 0.0, 0.0), (5.0, 0.0, 0.0, 10.0), CellIndex((), 4), []
        )
        negative_zero = (-0.0).hex()
        assert rate_heap_keys(snap._rate_heap) == [
            ((-5.0).hex(), 3),
            (negative_zero, 0),
            (negative_zero, 1),
            (negative_zero, 2),
        ]


def float_bits(x):
    """The IEEE bits of ``x``, which tell signed zeros apart, or "nan" for any NaN.

    IEEE 754 leaves open which NaN a sum of two NaNs returns, and numpy's
    vector loops may return the other operand's than Python does: with
    ``a`` NaN and ``t * c`` a NaN of the other sign, the bits differ.
    """
    return "nan" if math.isnan(x) else struct.pack("<d", x)


class TestScanCosts:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_the_scalar_expression_bit_for_bit(self, data):
        # The pass computes access + per_tuple * card in numpy; a product
        # of 0 and inf is NaN, and a large one overflows to inf.
        n = data.draw(st.integers(0, 12), label="n")
        value = st.sampled_from([0.0, 0.5, 3.0, math.inf, math.nan]) | st.floats(0.0, 1e300)
        access, per_tuple, cards = (
            tuple(data.draw(st.lists(value, min_size=n, max_size=n), label=name))
            for name in ("access", "per_tuple", "cards")
        )
        snap = StatsSnapshot(access, per_tuple, cards, CellIndex((), n), [])
        expected = [float_bits(a + t * c) for a, t, c in zip(access, per_tuple, cards)]
        assert [float_bits(snap.scan_cost_ms(s)) for s in range(n)] == expected
        assert all(type(snap.scan_cost_ms(s)) is float for s in range(n))

    def test_special_entries(self):
        inf, nan = math.inf, math.nan
        access, per_tuple = (0.0, 1.0, inf, 2.0, 0.0), (0.0, inf, 0.5, 1.0, 2.0)
        cards = (4.0, 0.0, 2.0, nan, 1e308)
        snap = StatsSnapshot(access, per_tuple, cards, CellIndex((), 5), [])
        scans = [snap.scan_cost_ms(s) for s in range(5)]
        assert scans[0] == 0.0 and scans[2] == scans[4] == inf
        assert math.isnan(scans[1]) and math.isnan(scans[3])
        expected = [float_bits(a + t * c) for a, t, c in zip(access, per_tuple, cards)]
        assert [float_bits(x) for x in scans] == expected

    def test_refitted_snapshot_prices_its_own_cardinalities(self):
        snap = ref_snapshot()
        cards = np.array([10.0, 0.0, 40.0])
        refit = snap._refitted(cards, [0.0] * len(snap.values))
        assert refit.cardinalities == (10.0, 0.0, 40.0)
        assert refit.index is snap.index
        assert all(x is y for x, y in zip(refit._arrays, (*snap._arrays[:2], cards)))
        fresh = StatsSnapshot(
            snap.access_ms, snap.per_tuple_ms, refit.cardinalities, snap.index, refit.values
        )
        assert refit._scan_ms == fresh._scan_ms
        assert refit._rate_heap == fresh._rate_heap

    def test_replaced_timing_is_priced_anew(self):
        snap = ref_snapshot()
        slower = replace(snap, per_tuple_ms=(0.7, 2.2, 1.5))
        assert slower._scan_ms == [
            a + t * c for a, t, c in zip(snap.access_ms, (0.7, 2.2, 1.5), snap.cardinalities)
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
        # The totals still count 4 tuples in the pruned top cell; the walk
        # covers only the cells the snapshot holds.
        cells = {m: v for m, v in REF_CELLS.items() if m != 0b111}
        snap = snapshot_from_cells(REF_ACCESS, REF_TRANSFER, cells, cardinalities=(54, 129, 79))
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
        cells = {m: v for m, v in REF_CELLS.items() if m != 0b011}
        snap = snapshot_from_cells(REF_ACCESS, REF_TRANSFER, cells, cardinalities=(50, 125, 75))
        assert walk_residuals((0, 1), snap)[1] == pytest.approx(125.0)
        assert shared_tuples(snap, 0, 1) == pytest.approx(0.0)

    def test_canonical_duplicate_patterns_share_one_cell(self):
        # At three sources, the level-2 constraint system has exactly three
        # distinct cells, each feeding exactly two per-source rows.
        snap = ref_snapshot()
        pair_cells = [m for m in snap.index.masks if level(m) == 2]
        assert len(pair_cells) == 3
        for m in pair_cells:
            alone = snapshot_from_cells(REF_ACCESS, REF_TRANSFER, {m: 1.0})
            rows = [s for s in range(3) if alone.cardinalities[s] > 0]
            assert len(rows) == 2

    @pytest.mark.parametrize(
        "cells, message",
        [
            ({0: 1.0}, "at least one source bit"),
            ({-3: 1.0}, "at least one source bit"),
            ({0b001: 1.0, 0b010: -1.0}, "nonnegative"),
        ],
        ids=["empty-mask", "negative-mask", "negative-value"],
    )
    def test_cell_validation(self, cells, message):
        with pytest.raises(ValueError, match=message):
            snapshot_from_cells(REF_ACCESS, REF_TRANSFER, cells)


class TestDumpFormat:
    def test_format_is_line_oriented_and_sorted(self):
        # At a 20% threshold the smallest source and every pair are pruned.
        outcome = initial_detection(ScopedProbe(demo_universe(), SCOPE_ALL), 0.2)
        text = dump_snapshot(outcome, 0.2)
        lines = text.strip().splitlines()
        assert lines[0] == "snapshot version=0 stage=initial sources=3 threshold=0.2"
        cell_lines = [ln.split() for ln in lines[4:]]
        masks = [int(mask, 16) for mask, _value, _provenance in cell_lines]
        assert masks == sorted(outcome.provenance)
        pruned = [(value, provenance) for _mask, value, provenance in cell_lines if provenance == PRUNED]
        assert pruned == [("0", PRUNED)] * 4
