"""Two-stage statistics collection against simulator ground truth."""

import hashlib
import itertools
import json
import math
import statistics
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched import detection, lattice, maxent, scheduler
from querysched.cost import QuerySpec
from querysched.detection import (
    DETECTED,
    PRUNED,
    initial_detection,
    online_detection_plan,
)
from querysched.grid import desk_universe_config, offline_stats, scaled_universe
from querysched.lattice import member_sources, snapshot_from_cells
from querysched.permutation import TABLE_ALGO_ORDER
from querysched.scheduler import RunConfig, run_query
from querysched.simulator import (
    SCOPE_ALL,
    SCOPE_FOCUS,
    ReplicationModel,
    ScopedProbe,
    UniverseConfig,
    demo_universe,
    generate,
)

DEMO_EXACT = {0b001: 10, 0b010: 80, 0b100: 60, 0b011: 35, 0b101: 5, 0b110: 10, 0b111: 0}


def snapshots(initial, hint, probe):
    """Every step's snapshot of a query-level detection run to its end."""
    return [read() for read, _src in online_detection_plan(initial, hint, probe)]


def cells(snapshot):
    """A snapshot's cell values by mask."""
    return dict(zip(snapshot.index.masks, snapshot.values))


class FailingCells:
    """A probe that records the cells it is asked to count and fails on chosen masks.

    ``counted`` holds each asked mask with the count it answered (0 for
    a failed one), in order.
    """

    def __init__(self, probe, failing=()):
        self.probe = probe
        self.failing = frozenset(failing)
        self.counted = []

    def __getattr__(self, name):
        return getattr(self.probe, name)

    def cell_count(self, mask):
        self.counted.append((mask, 0.0))
        if mask in self.failing:
            raise RuntimeError(f"cell {mask:#x} cannot be counted")
        self.counted[-1] = (mask, float(self.probe.cell_count(mask)))
        return self.counted[-1][1]


class FixedCounts:
    """A probe that answers from fixed source totals and cell counts, 0 for a cell not given."""

    def __init__(self, totals, cells):
        self.totals = totals
        self.cells = cells
        self.n_sources = len(totals)

    def access_ms(self, source):
        return 1.0

    def per_tuple_ms(self, source):
        return 0.1

    def cardinality(self, source):
        return self.totals[source]

    def cell_count(self, mask):
        return self.cells.get(mask, 0.0)


def known_cells(initial, counted):
    """Counted cells by position in ``initial``'s index."""
    position = {m: i for i, m in enumerate(initial.index.masks)}
    return {position[m]: count for m, count in counted}


def counted_rows(cards, hint, step):
    """``cards`` with NaN for the sources step ``step`` of a plan over ``hint`` has not counted.

    The plan counts one source total a step, in ``hint`` order, then cells.
    """
    counted = set(hint[:step])
    return [c if s in counted else math.nan for s, c in enumerate(cards)]


def assert_uncounted_rows_publish_their_sums(snap, hint, step):
    """Each source not counted by ``step`` publishes its cells' sum when that is positive."""
    counted = set(hint[:step])
    for s, positions in enumerate(snap.index.by_source):
        total = sum(snap.values[i] for i in positions)
        if s not in counted and total > 0.0:
            assert snap.cardinalities[s] == total, (step, s)


def residuals_ok(snapshot, rel=1e-6):
    for s in range(snapshot.n_sources):
        total = sum(snapshot.values[i] for i in snapshot.index.by_source[s])
        target = snapshot.cardinalities[s]
        if abs(total - target) > rel * max(target, 1.0):
            return False, s, total, target
    return True, None, None, None


class TestInitialDetection:
    def test_zero_threshold_reproduces_reference_lattice(self):
        probe = ScopedProbe(demo_universe(), SCOPE_ALL)
        out = initial_detection(probe, 0.0)
        assert cells(out.snapshot) == DEMO_EXACT
        # Every cell is counted, the deepest one included.
        assert out.provenance == dict.fromkeys(DEMO_EXACT, DETECTED)
        assert (out.count_queries, out.clamped_rows) == (3 + len(DEMO_EXACT), 0)

    def test_single_source_needs_no_solver(self):
        config = UniverseConfig(
            n_sources=1,
            n_distinct=30,
            total_tuples=30,
            overlap=ReplicationModel(style="uniform", mean_depth=1.0, max_depth=1),
        )
        u = generate(config, 2)
        out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0)
        assert cells(out.snapshot) == {0b1: 30.0}

    def test_pruning_marks_cells_and_keeps_detected_values(self):
        # Threshold at 20% of the universe (50 tuples): the smallest
        # source's singleton estimate is pruned before detection, the two
        # larger ones are detected, and no pair survives the next round.
        u = demo_universe()
        out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.2)
        assert out.provenance == {
            0b001: PRUNED,
            0b010: DETECTED,
            0b100: DETECTED,
            0b011: PRUNED,
            0b101: PRUNED,
            0b110: PRUNED,
        }
        # Pruned cells are left out of the snapshot.
        assert cells(out.snapshot) == {0b010: 80.0, 0b100: 60.0}

    @pytest.mark.parametrize("threshold", [-0.1, float("nan")])
    def test_threshold_that_is_no_share_rejected(self, threshold):
        # A NaN threshold fails ``threshold > 0.0`` and would admit every
        # mask of every level, which the 2^n guard does not catch.
        with pytest.raises(ValueError, match="nonnegative"):
            initial_detection(ScopedProbe(demo_universe(), SCOPE_ALL), threshold)

    def test_detected_value_below_threshold_is_kept(self):
        # The exclusive mass of the first source (10) sits below the 12.5
        # threshold, but its pre-detection estimate (the cardinality) does
        # not, so it is detected and the exact value is never re-pruned.
        u = demo_universe()
        out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.05)
        assert out.provenance[0b001] == DETECTED
        assert cells(out.snapshot)[0b001] == 10.0

    @pytest.mark.parametrize("row_2_total, converges", [(30.0, True), (40.0, False)])
    def test_overshooting_cells_count_as_clamped_rows(self, caplog, row_2_total, converges):
        # Cell 0b001 overshoots source 0's total, so level 2's fill clamps
        # row 0, which forces 0b011 and 0b101 to zero.  That leaves 0b110
        # to rows 1 and 2: it meets their residuals of 20 and 20, and
        # cannot meet 20 and 30.  It counts 0, so no level 3 follows.
        probe = FixedCounts((10.0, 30.0, row_2_total), {0b001: 15.0, 0b010: 10.0, 0b100: 10.0})
        out = initial_detection(probe, 1.0, relative=False)
        assert out.clamped_rows == 1
        assert out.provenance == {
            **dict.fromkeys((0b001, 0b010, 0b100, 0b110), DETECTED),
            **dict.fromkeys((0b011, 0b101), PRUNED),
        }
        clamps = [r.getMessage() for r in caplog.records if r.name == "querysched.maxent"]
        assert clamps == ["known cells overshoot source 0 by 5; clamping"]
        imprecise = [m for m in caplog.messages if m.startswith("lattice fill-in imprecise")]
        assert len(imprecise) == (0 if converges else 1)

    def test_unavailable_cells_warn_once_each(self, caplog):
        u = replace(demo_universe(), unavailable=frozenset([1]))
        initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0)
        assert [m for m in caplog.messages if m.startswith("cell")] == [
            f"cell {m:#x} unavailable during initial detection" for m in (0b010, 0b011, 0b110, 0b111)
        ]

    def test_unavailable_source_zeroed_not_fatal(self, caplog):
        u = replace(demo_universe(), unavailable=frozenset([1]))
        out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0)
        assert "source 1 unavailable during initial detection" in caplog.messages
        assert out.snapshot.cardinalities == (50.0, 0.0, 75.0)
        # Every cell touching the dead source reads zero; its row stays
        # consistent even though its partners' rows degrade.
        for m, v in cells(out.snapshot).items():
            if (m >> 1) & 1:
                assert v == 0.0
        assert cells(out.snapshot)[0b100] == 60.0

    def test_sampling_scales_counts(self):
        config = UniverseConfig(
            n_sources=4,
            n_distinct=400,
            total_tuples=800,
            overlap=ReplicationModel(style="uniform", mean_depth=2.0, max_depth=3),
        )
        u = generate(config, 8)
        probe = ScopedProbe(u, SCOPE_ALL, sample_rate=0.5, sample_seed=8)
        out = initial_detection(probe, 0.0)
        truth_cards = [ScopedProbe(u, SCOPE_ALL).cardinality(s) for s in range(4)]
        for s in range(4):
            assert out.snapshot.cardinalities[s] == pytest.approx(truth_cards[s], rel=0.25)

    @pytest.mark.parametrize(
        "n_sources, seed",
        [(3, 0), (4, 1), (5, 1), (6, 3), (7, 2), (9, 3), ("demo", 7)],
    )
    def test_zero_threshold_is_exact_and_runs_no_solver(self, n_sources, seed):
        # With no threshold nothing reads an estimate, so no fill runs;
        # every cell is counted and the snapshot is the exact lattice.
        if n_sources == "demo":
            u = demo_universe(seed=seed)
        else:
            config = UniverseConfig(
                n_sources=n_sources,
                n_distinct=70,
                total_tuples=210,
                overlap=ReplicationModel(
                    style="uniform", mean_depth=3.0, max_depth=min(5, n_sources)
                ),
            )
            u = generate(config, seed)
        unsolved = AssertionError("threshold-0 detection called the solver")
        with mock.patch.object(maxent, "solve", side_effect=unsolved):
            out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0)
        got = {m: v for m, v in cells(out.snapshot).items() if v != 0.0}
        assert got == u.truth.cells(SCOPE_ALL)
        assert set(out.provenance.values()) <= {DETECTED, PRUNED}
        assert out.clamped_rows == 0

    def test_zero_threshold_refuses_large_universe(self):
        config = UniverseConfig(
            n_sources=20,
            n_distinct=40,
            total_tuples=60,
            overlap=ReplicationModel(style="uniform", mean_depth=1.5, max_depth=2),
        )
        u = generate(config, 1)
        with pytest.raises(ValueError, match="2\\^"):
            initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_all_sources_down_detects_nothing_and_runs_short(self, threads):
        # A relative threshold of a zero total is zero; detection must not
        # take that for the exhaustive mode and refuse the universe.
        u = replace(generate(desk_universe_config(), 101), unavailable=frozenset(range(50)))
        out = initial_detection(ScopedProbe(u, SCOPE_ALL))
        assert out.snapshot.cardinalities == (0.0,) * 50
        assert out.provenance == {} and out.snapshot.values == []
        query = QuerySpec(SCOPE_FOCUS, 100)
        for algo in TABLE_ALGO_ORDER:
            result = run_query(algo, query, u, out.snapshot, RunConfig(query_threads=threads), seed=1)
            assert result.shortfall, algo
            assert result.distinct_tuples == 0, algo
            assert len(result.per_source_trace) == 50, algo

    @pytest.mark.parametrize("sample_rate", [1.0, 0.5])
    @pytest.mark.parametrize(
        "case", ["desk-101", "desk-102", "desk-103", "ten-sources", "demo", "demo-source-1-down"]
    )
    def test_one_count_query_per_source_and_per_detected_cell(self, case, sample_rate):
        # Offline detection asks each source's total once, then counts
        # each cell it keeps as detected, a cell over a source that is
        # down included, and asks nothing else.
        if case.startswith("desk"):
            u, threshold = generate(desk_universe_config(), int(case[5:])), 0.005
        elif case == "ten-sources":
            u, threshold = generate(scaled_universe(desk_universe_config(), 10), 101), 0.0
        else:
            u, threshold = demo_universe(), 0.0
            if case == "demo-source-1-down":
                u = replace(u, unavailable=frozenset([1]))
        probe = ScopedProbe(u, SCOPE_ALL, sample_rate=sample_rate, sample_seed=u.seed)
        out = initial_detection(probe, threshold)
        detected = sum(p == DETECTED for p in out.provenance.values())
        assert out.count_queries == u.n_sources + detected
        if (case, sample_rate) == ("desk-101", 1.0):
            assert (out.count_queries, detected) == (127, 77)


class TestFailingCellQueries:
    @pytest.mark.parametrize("failing", [{0b011}, {0b011, 0b101, 0b110}, {0b111}])
    def test_failed_cells_read_zero_and_detection_finishes(self, failing):
        u = demo_universe(seed=11, query_split=0.5)
        out = initial_detection(FailingCells(ScopedProbe(u, SCOPE_ALL), failing), 0.0)
        for m in failing:
            assert (cells(out.snapshot)[m], out.provenance[m]) == (0.0, DETECTED)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        probe = FailingCells(ScopedProbe(u, SCOPE_FOCUS), failing)
        final = snapshots(initial, (0, 1, 2), probe)[-1]
        # The last step has counted every cell; the failed ones read zero.
        assert sorted(m for m, _count in probe.counted) == list(initial.index.masks)
        assert cells(final) == dict(probe.counted)
        assert all(cells(final)[m] == 0.0 for m in failing)


class FixedTotals:
    """A probe that answers per-source counting queries from a table."""

    def __init__(self, totals):
        self.totals = totals
        self.asked = []

    def cardinality(self, source):
        self.asked.append(source)
        return self.totals[source]


def cards_after(detected, offline_cards):
    """Per-source totals of the plan's snapshot once ``detected`` is probed in order."""
    n = len(offline_cards)
    initial = snapshot_from_cells([1.0] * n, [0.1] * n, {}, cardinalities=offline_cards)
    plan = online_detection_plan(initial, tuple(detected), FixedTotals(detected))
    for _ in detected:
        read, _source = next(plan)
    return list(read().cardinalities)


class TestCardinalityScaling:
    def test_single_ratio(self):
        got = cards_after({0: 50.0}, [100.0, 200.0])
        assert got[1] == pytest.approx(100.0)

    def test_identity_ratios(self):
        initial = [40.0, 60.0, 80.0]
        got = cards_after({0: 40.0, 1: 60.0}, initial)
        assert got == pytest.approx(initial)

    def test_two_ratio_average(self):
        got = cards_after({0: 40.0, 1: 60.0}, [100.0, 100.0, 100.0])
        assert got[2] == pytest.approx(50.0)

    def test_zero_initial_detected_is_skipped(self):
        got = cards_after({0: 10.0, 1: 30.0}, [0.0, 100.0, 100.0])
        assert got[2] == pytest.approx(30.0)

    def test_fallback_when_no_usable_ratio(self):
        got = cards_after({0: 5.0}, [0.0, 80.0])
        assert got == pytest.approx([5.0, 80.0])

    def test_ratios_sum_in_detection_order(self):
        # 1e16 + 1 + 1 rounds back to 1e16 left to right; other orders differ.
        detected = {0: 1e16, 1: 1.0, 2: 1.0}
        got = cards_after(detected, [1.0, 1.0, 1.0, 3.0])
        assert got[3] == 3.0 * ((1e16 + 1.0 + 1.0) / 3)
        assert got[:3] == [1e16, 1.0, 1.0]

    def test_repeated_hint_source_is_probed_once(self):
        initial = snapshot_from_cells([1.0] * 3, [0.1] * 3, {}, cardinalities=[10.0] * 3)
        probe = FixedTotals({0: 5.0, 1: 20.0, 2: 10.0})
        steps = list(online_detection_plan(initial, (1, 0, 1), probe))
        assert probe.asked == [1, 0, 2]
        assert [source for _read, source in steps] == [1, 0, 2]


class TestOnlineDetection:
    def make_universe(self, split=1.0, seed=7):
        return demo_universe(seed=seed, query_split=split)

    def test_plan_probes_nothing_before_its_first_step(self):
        # Until the first step, the offline snapshot itself is the
        # query-level estimate: the plan has asked nothing.
        u = self.make_universe()
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        probe = FixedTotals({0: 5.0, 1: 20.0, 2: 10.0})
        plan = online_detection_plan(initial, (2, 0, 1), probe)
        assert probe.asked == []
        read, source = next(plan)
        assert (probe.asked, source) == ([2], 2)
        assert read().cardinalities[2] == 10.0

    def test_query_matching_everything_converges_to_initial(self):
        u = self.make_universe(split=1.0)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        snaps = snapshots(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
        # Every source-total step, before any cell is counted.
        for snap in snaps[: initial.n_sources]:
            assert snap.values == pytest.approx(initial.values, rel=1e-6, abs=1e-6)

    def test_half_split_final_snapshot_matches_focus_truth(self):
        u = self.make_universe(split=0.5, seed=11)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        snaps = snapshots(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
        assert len(snaps) == initial.n_sources + len(initial.values)
        truth = u.truth.cells(SCOPE_FOCUS)
        for m, v in cells(snaps[-1]).items():
            assert v == pytest.approx(truth.get(m, 0.0), abs=1e-9)

    def test_residuals_within_tolerance_on_every_snapshot(self):
        u = self.make_universe(split=0.5, seed=13)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        for step, snap in enumerate(snapshots(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))):
            ok, s, total, target = residuals_ok(snap)
            assert ok, (step, s, total, target)

    def test_substage2_detects_in_descending_gap_order(self):
        u = self.make_universe(split=0.5, seed=17)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        probe = FailingCells(ScopedProbe(u, SCOPE_FOCUS))
        snaps = snapshots(initial, (0, 1, 2), probe)
        # The entry gaps: estimates right after the last cardinality
        # detection vs the offline values.
        entry, offline = cells(snaps[initial.n_sources - 1]), cells(initial)
        seen_gaps = [abs(entry[m] - offline[m]) for m, _count in probe.counted]
        assert len(seen_gaps) == len(offline)
        assert all(a >= b - 1e-9 for a, b in zip(seen_gaps, seen_gaps[1:]))

    def test_detection_plan_reports_probed_sources(self):
        u = self.make_universe()
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        steps = list(online_detection_plan(initial, (2, 0, 1), ScopedProbe(u, SCOPE_FOCUS)))
        # Cardinality probes follow the hinted order.
        assert [s for _read, s in steps[:3]] == [2, 0, 1]
        # Cell probes name a member source of the probed cell.
        for _read, src in steps[3:]:
            assert src in range(3)

    def test_each_cell_query_is_one_step(self):
        # Each live cell is counted in a step of its own, asked of its
        # first member source.
        u = self.make_universe(split=0.5, seed=19)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        probe = FailingCells(ScopedProbe(u, SCOPE_FOCUS))
        plan = online_detection_plan(initial, (0, 1, 2), probe)
        cell_steps = list(plan)[initial.n_sources :]
        assert len(cell_steps) == len(probe.counted) == len(initial.values)
        for (read, source), (new, count) in zip(cell_steps, probe.counted):
            assert source == member_sources(new)[0]
            assert cells(read())[new] == count
        assert sorted(m for m, _count in probe.counted) == list(initial.index.masks)


class CountingProbe:
    """A probe that counts the counting queries it answers."""

    def __init__(self, probe):
        self.probe = probe
        self.queries = 0

    def cardinality(self, source):
        self.queries += 1
        return self.probe.cardinality(source)

    def cell_count(self, mask):
        self.queries += 1
        return self.probe.cell_count(mask)


class TestPlanSteps:
    """A detection plan yields one step per counting query."""

    def test_each_step_is_one_counting_query(self):
        u, initial = TestSharedIndex.desk_initial()
        probe = CountingProbe(ScopedProbe(u, SCOPE_FOCUS))
        plan = online_detection_plan(initial, range(initial.n_sources), probe)
        steps = 0
        for _step in plan:
            steps += 1
            assert probe.queries == steps
        assert steps == initial.n_sources + len(initial.values)

    @pytest.mark.parametrize("offset", [-51, 0, 49], ids=["-1", "n", "n+49"])
    def test_hint_outside_the_universe_rejected_before_any_probe(self, offset):
        u, initial = TestSharedIndex.desk_initial()
        n = initial.n_sources
        bad = n + offset if offset >= 0 else -1
        probe = CountingProbe(ScopedProbe(u, SCOPE_FOCUS))
        plan = online_detection_plan(initial, (3, bad, 5), probe)
        with pytest.raises(ValueError, match=f"source {bad}\\b"):
            next(plan)
        assert probe.queries == 0

    def test_last_step_holds_exactly_the_counted_cells(self):
        # With every cell counted, the solve has no free cell and returns
        # the counts as given, float for float.
        u, initial = TestSharedIndex.desk_initial()
        probe = FailingCells(ScopedProbe(u, SCOPE_FOCUS))
        *_, (read, _source) = online_detection_plan(initial, range(initial.n_sources), probe)
        assert len(probe.counted) == len(initial.values)
        last = cells(read())
        assert [last[m].hex() for m, _count in probe.counted] == [
            count.hex() for _m, count in probe.counted
        ]


class TestLazyRefresh:
    """Query-level snapshots are fitted to the counted rows when first read."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_read_order_does_not_change_a_snapshot(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        distinct = data.draw(st.integers(20, 80), label="distinct")
        max_depth = data.draw(st.integers(1, n), label="max_depth")
        mean_depth = data.draw(st.floats(1.0, max_depth), label="mean_depth")
        config = UniverseConfig(
            n_sources=n,
            n_distinct=distinct,
            total_tuples=round(mean_depth * distinct),
            overlap=ReplicationModel(
                style=data.draw(st.sampled_from(["chained", "uniform"]), label="style"),
                mean_depth=mean_depth,
                max_depth=max_depth,
                chains=data.draw(st.integers(1, 4), label="chains"),
            ),
            query_split=data.draw(st.floats(0.2, 1.0), label="split"),
        )
        u = generate(config, data.draw(st.integers(0, 1000), label="seed"))
        threshold = data.draw(st.sampled_from([0.0, 0.005, 0.05]), label="threshold")
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), threshold).snapshot
        hint = tuple(data.draw(st.permutations(range(n)), label="hint"))
        probe = FailingCells(ScopedProbe(u, SCOPE_FOCUS))
        in_order = snapshots(initial, hint, probe)
        plan = online_detection_plan(initial, hint, ScopedProbe(u, SCOPE_FOCUS))
        reads = [read for read, _src in plan]
        shuffled = {}
        for i in data.draw(st.permutations(range(len(reads))), label="read order"):
            snap = reads[i]()
            shuffled[i] = snap.cardinalities, snap.values
        assert [shuffled[i] for i in range(len(reads))] == [
            (snap.cardinalities, snap.values) for snap in in_order
        ]

        # Each step holds the cells counted by then and fits the others to
        # the rows counted by then.
        index = initial.index
        for step, snap in enumerate(in_order, 1):
            known = known_cells(initial, probe.counted[: max(0, step - n)])
            totals = counted_rows(snap.cardinalities, hint, step)
            solved, _ = maxent.solve(totals, index, known, prior=initial.values)
            assert snap.values == solved.tolist()
            assert_uncounted_rows_publish_their_sums(snap, hint, step)

    @pytest.mark.parametrize("n_sources", [50, 200])
    def test_every_step_equals_a_fresh_solve(self, n_sources):
        # Seed 101.  A plan reuses the last refresh it solved for a step
        # with the same counted support totals and cells counted; read in
        # order, backwards or alone, every step's values are those of a
        # fresh solve over the counted rows and a fresh index, float for
        # float.
        config = desk_universe_config()
        if n_sources != 50:
            config = scaled_universe(config, n_sources)
        u = generate(config, 101)
        initial = offline_stats(u, RunConfig()).snapshot
        index = initial.index
        hint = tuple(reversed(range(n_sources)))
        probe = FailingCells(ScopedProbe(u, SCOPE_FOCUS))

        def steps():
            return online_detection_plan(initial, hint, ScopedProbe(u, SCOPE_FOCUS))

        def hexed(values):
            return [v.hex() for v in values]

        def fresh(step, snap):
            known = known_cells(initial, probe.counted[: max(0, step - n_sources)])
            values, _ = maxent.solve(
                counted_rows(snap.cardinalities, hint, step),
                lattice.CellIndex(index.masks, n_sources),
                known,
                prior=initial.values,
            )
            return hexed(values.tolist())

        solve = maxent.solve
        solved = []

        def counted(*args, **kwargs):
            solved.append(args)
            return solve(*args, **kwargs)

        in_order = []
        with mock.patch.object(maxent, "solve", counted):
            for read, _src in online_detection_plan(initial, hint, probe):
                in_order.append(read())  # solved as the plan yields it
        reads = [read for read, _src in steps()]
        backwards = {i: reads[i]() for i in reversed(range(len(reads)))}
        assert len(in_order) == len(backwards) == n_sources + len(index.masks)
        # Some refreshes repeat the one before: fewer solves than steps.
        assert len(solved) < len(in_order) - 1
        for i, snap in enumerate(in_order):
            alone = next(itertools.islice(steps(), i, None))[0]()
            want = fresh(i + 1, snap)
            assert hexed(snap.values) == want
            assert hexed(backwards[i].values) == want
            assert hexed(alone.values) == want
            assert snap.cardinalities == backwards[i].cardinalities == alone.cardinalities

    def test_online_desk_run_solves_only_what_it_reads(self):
        u = generate(desk_universe_config(), 101)
        initial = offline_stats(u, RunConfig()).snapshot  # the offline solves run here
        k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
        solve = maxent.solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        with mock.patch.object(maxent, "solve", counted):
            result = run_query("online", QuerySpec(SCOPE_FOCUS, k), u, initial)
        # Each replan reads one refresh, and the plan reads the last
        # cardinality refresh for its cell order; the rest go unsolved.
        assert 0 < len(calls) <= result.perm_versions + 1 < result.detections

    def test_steps_read_late_or_skipped_equal_steps_read_in_order(self):
        u, initial = TestSharedIndex.desk_initial()
        hint = range(initial.n_sources)

        def steps():
            return online_detection_plan(initial, hint, ScopedProbe(u, SCOPE_FOCUS))

        def seen(snap):
            return snap.cardinalities, snap.values

        in_order = [seen(read()) for read, _src in steps()]
        reads = [read for read, _src in steps()]
        assert len(reads) == len(in_order) > initial.n_sources
        # Every step read after the plan ended, the last one first.
        backwards = {i: seen(reads[i]()) for i in reversed(range(len(reads)))}
        assert [backwards[i] for i in range(len(reads))] == in_order
        # A step read again builds a new snapshot of the same statistics.
        assert all(read() is not read() and seen(read()) == seen(read()) for read in reads[::7])
        # Only every third step read, each as the plan yields it.
        thirds = [seen(read()) for i, (read, _s) in enumerate(steps()) if i % 3 == 0]
        assert thirds == in_order[::3]

    def test_sequential_run_builds_only_the_snapshots_it_reads(self):
        # 200 sources, seed 101, k = 0.8: before steps were read lazily,
        # this run built 224 query-level snapshots for 21 plan versions.
        u = generate(scaled_universe(desk_universe_config(), 200), 101)
        initial = offline_stats(u, RunConfig()).snapshot
        k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
        refit = detection.StatsSnapshot._refitted  # builds every query-level snapshot
        built = []

        def counted(*args):
            built.append(args)
            return refit(*args)

        with mock.patch.object(detection.StatsSnapshot, "_refitted", counted):
            result = run_query("sequential", QuerySpec(SCOPE_FOCUS, k), u, initial)
        assert result.detections > 10 * result.perm_versions
        # The worker builds a version once, on its first read, and a replan
        # reads one version; the plan builds the refresh that orders the
        # cell queries itself.
        assert 0 < len(built) <= result.perm_versions + 1

    def test_abandoned_plan_solves_nothing(self):
        u = demo_universe(seed=7, query_split=0.5)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        unread = AssertionError("solved a snapshot nobody read")
        with mock.patch.object(maxent, "solve", side_effect=unread):
            # Two cardinality refreshes taken but never read.
            plan = online_detection_plan(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
            steps = [next(plan) for _ in range(2)]
            plan.close()
        assert [source for _read, source in steps] == [0, 1]


class TestTrueCellRefresh:
    """Query refreshes over the true offline cells, ``truth_snapshot(SCOPE_ALL)``.

    The focus scope's cells are a nonnegative answer on those cells, so
    every counted row can be met.  Pruned lattices are out of scope: there
    the rows also carry the pruned cells' mass, which no snapshot cell
    can hold.
    """

    @staticmethod
    def universe(n_sources, seed):
        config = desk_universe_config()
        if n_sources != 50:
            config = scaled_universe(config, n_sources)
        return generate(config, seed)

    @pytest.mark.parametrize(
        "n_sources, seed", [(50, 101), (50, 102), (50, 103), (200, 101)]
    )
    def test_every_read_step_meets_its_live_rows(self, n_sources, seed):
        # A live row holds a cell of the snapshot; its cells add up to its
        # published total within 1e-6 relative, as criterion 4 asks of
        # exact lattices.  The plan probes in the order runs use.
        u = self.universe(n_sources, seed)
        initial = u.truth_snapshot(SCOPE_ALL)
        hint = scheduler._all_source_hint(initial)
        plan = online_detection_plan(initial, hint, ScopedProbe(u, SCOPE_FOCUS))
        misses = []
        steps = 0
        for step, (read, _src) in enumerate(plan):
            snap = read()
            steps += 1
            for s, positions in enumerate(snap.index.by_source):
                total = sum(snap.values[i] for i in positions)
                card = snap.cardinalities[s]
                if positions and abs(total - card) > 1e-6 * max(card, 1.0):
                    misses.append((step, s, total, card))
        assert steps == n_sources + len(initial.values)
        assert misses == []

    def test_online_desk_runs_reach_full_knowledge(self):
        # Desk seeds 101-110 at k = 0.8: `online` averaged 75.12 ms over
        # true cells while refreshes fitted every row, scaled guesses for
        # the uncounted sources included; `full_knowledge` takes 70.82 ms.
        times = []
        for seed in range(101, 111):
            u = self.universe(50, seed)
            k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
            initial = u.truth_snapshot(SCOPE_ALL)
            result = run_query("online", QuerySpec(SCOPE_FOCUS, k), u, initial)
            times.append(result.simulated_time_ms)
        assert statistics.fmean(times) <= 72.0


def plan_digest(initial, hint, probe):
    """SHA-256 over the offline snapshot, as probed source -1, then every step of a detection plan.

    Each record is the probed source, then the totals and cells as ``float.hex``.
    """
    digest = hashlib.sha256()
    steps = online_detection_plan(initial, hint, probe)
    for read, source in itertools.chain([(lambda: initial, -1)], steps):
        snap = read()
        cards = " ".join(c.hex() for c in snap.cardinalities)
        digest.update(f"{source} {cards}\n".encode())
        for m, v in zip(snap.index.masks, snap.values):
            digest.update(f"{m:x} {v.hex()}\n".encode())
    return digest.hexdigest()


class TestSharedIndex:
    """Every query-level snapshot of a plan reads the offline snapshot's cell index."""

    @staticmethod
    def desk_initial():
        u = generate(desk_universe_config(), 101)
        probe = ScopedProbe(u, SCOPE_ALL)
        return u, initial_detection(probe, RunConfig().prune_threshold).snapshot

    def test_every_snapshot_of_a_plan_shares_the_offline_index(self):
        u, initial = self.desk_initial()
        snaps = snapshots(initial, range(initial.n_sources), ScopedProbe(u, SCOPE_FOCUS))
        assert len(snaps) > initial.n_sources
        assert all(snap.index is initial.index for snap in snaps)
        provenance = initial_detection(ScopedProbe(u, SCOPE_ALL)).provenance
        live = sorted(m for m, p in provenance.items() if p != PRUNED)
        assert list(initial.index.masks) == live

    def test_online_desk_run_builds_only_the_offline_index(self):
        u, initial = self.desk_initial()
        k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
        build = lattice.CellIndex.__init__
        built = []

        solve = maxent.solve
        solved_over = []

        def counted(index, *args, **kwargs):
            built.append(index)
            build(index, *args, **kwargs)

        def recorded(totals, index, known, **kwargs):
            solved_over.append(index)
            return solve(totals, index, known, **kwargs)

        with (
            mock.patch.object(lattice.CellIndex, "__init__", counted),
            mock.patch.object(maxent, "solve", recorded),
        ):
            result = run_query("online", QuerySpec(SCOPE_FOCUS, k), u, initial)
        assert result.perm_versions > 2 and result.detections > initial.n_sources
        assert built == []  # the offline index is built with the offline snapshot
        # Every refresh solves over that index, so they share its matrix.
        assert solved_over and all(index is initial.index for index in solved_over)

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("desk", "f0e6385194c683c297afa261ac76c7350e47453923d64e1c5c36a5bfa0f147e1"),
            ("desk-ascending-hint", "9ca0a747fe904c7282a68273a797a250611e8a3c3c8bec4ba152e49ca175622e"),
            ("demo-exact", "618feb0e73713b53c62702703627b2623d1cf86f3a232151679d19fec30ca730"),
        ],
        ids=["desk", "desk-ascending-hint", "demo-exact"],
    )
    def test_snapshot_cells_are_unchanged(self, case, expected):
        # Digests of every snapshot's floats: a change that moves one
        # re-records them and says so.
        if case == "demo-exact":
            u = demo_universe(seed=7, query_split=0.5)
            initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
            hint = (2, 0, 1)
        else:
            u, initial = self.desk_initial()
            n = initial.n_sources
            hint = tuple(reversed(range(n))) if case == "desk" else range(n)
        assert plan_digest(initial, hint, ScopedProbe(u, SCOPE_FOCUS)) == expected


#: ``offline_fill()`` as JSON, one-space indent.
GOLDEN_OFFLINE_FILL = Path(__file__).parent / "data" / "golden_offline_fill.json"


def offline_fill() -> dict[str, list[dict]]:
    """Every offline solve's values, level by level, as ``float.hex``.

    The universes are the desk one and perfbench's ``bulk-scan`` one
    (20,000 distinct tuples, 100,000 in all), both at seed 101.  These
    solves all fail, so the values are the last iterate that their
    ``MaxEntError`` carries; the offline snapshot keeps none of them
    (only detected and pruned cells), yet they decide which cells are
    probed or pruned next.
    """
    configs = {
        "desk-101": desk_universe_config(),
        "bulk-101": desk_universe_config(n_distinct=20_000, total_tuples=100_000),
    }
    return {
        name: offline_solves(ScopedProbe(generate(config, 101), SCOPE_ALL))
        for name, config in configs.items()
    }


def offline_solves(probe) -> list[dict]:
    """Each ``maxent.solve`` of one offline detection: level, outcome, values."""
    solve = maxent.solve
    solves = []

    def record(totals, index, known, **kwargs):
        error = None
        try:
            values, report = solve(totals, index, known, **kwargs)
        except maxent.MaxEntError as exc:
            error, values = exc, exc.values
        free = [(index.masks[i], v) for i, v in enumerate(values.tolist()) if i not in known]
        solves.append(
            {
                "level": bin(free[0][0]).count("1"),
                "failed": error is not None,
                "values": {f"{m:#x}": v.hex() for m, v in sorted(free)},
            }
        )
        if error is not None:
            raise error
        return values, report

    with mock.patch.object(maxent, "solve", record):
        initial_detection(probe, RunConfig().prune_threshold)
    return solves


def test_offline_fill_matches_golden_floats():
    text = json.dumps(offline_fill(), indent=1) + "\n"
    assert text == GOLDEN_OFFLINE_FILL.read_text()


@pytest.mark.parametrize("n_sources", [10, 25, 50, 100])
def test_no_offline_cell_exceeds_its_smallest_member_total(n_sources):
    # On rows no nonnegative cells meet, an offline solve's Newton steps
    # can diverge: 21 of these 40 detections have an intermediate
    # estimate above the largest row total, up to 1.4e6 times it.  Those
    # estimates only decide which cells the next level probes; no cell
    # the snapshot publishes exceeds the smallest total of its sources.
    config = scaled_universe(desk_universe_config(), n_sources)
    for seed in range(101, 111):
        probe = ScopedProbe(generate(config, seed), SCOPE_ALL)
        snapshot = initial_detection(probe, RunConfig().prune_threshold).snapshot
        for mask, members, value in zip(
            snapshot.index.masks, snapshot.index.members, snapshot.values
        ):
            smallest = min(snapshot.cardinalities[s] for s in members)
            assert value <= smallest, (seed, hex(mask), value, smallest)
