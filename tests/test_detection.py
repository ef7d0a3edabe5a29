"""Two-stage statistics collection against simulator ground truth."""

import hashlib
import itertools
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched import detection, lattice, maxent
from querysched.cost import QuerySpec
from querysched.detection import (
    initial_detection,
    online_detection_plan,
    prior_query_snapshot,
)
from querysched.grid import desk_universe_config, offline_stats, scaled_universe
from querysched.lattice import (
    DETECTED,
    ESTIMATED,
    PRUNED,
    STAGE_FINAL,
    member_sources,
    snapshot_from_cells,
)
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
    """Every snapshot of a query-level detection run to its end."""
    return [read() for _cost, read, _src in online_detection_plan(initial, hint, probe)]


class FailingCells:
    """A probe whose cell counting query fails on chosen masks."""

    def __init__(self, probe, failing):
        self.probe = probe
        self.failing = frozenset(failing)

    def __getattr__(self, name):
        return getattr(self.probe, name)

    def cell_count(self, mask):
        if mask in self.failing:
            raise RuntimeError(f"cell {mask:#x} cannot be counted")
        return self.probe.cell_count(mask)


def residuals_ok(snapshot, rel=1e-6):
    for s in range(snapshot.n_sources):
        total = sum(
            c.value
            for m, c in snapshot.cells.items()
            if c.provenance != PRUNED and (m >> s) & 1
        )
        target = snapshot.cardinalities[s]
        if abs(total - target) > rel * max(target, 1.0):
            return False, s, total, target
    return True, None, None, None


class TestInitialDetection:
    def test_zero_threshold_reproduces_reference_lattice(self):
        probe = ScopedProbe(demo_universe(), SCOPE_ALL)
        out = initial_detection(probe, 0.0)
        got = {m: c.value for m, c in out.snapshot.cells.items()}
        assert got == pytest.approx(DEMO_EXACT)
        # Everything except the deepest cell is detected outright.
        assert out.snapshot.cells[0b011].provenance == DETECTED
        assert out.snapshot.cells[0b111].provenance == ESTIMATED

    def test_single_source_needs_no_solver(self):
        config = UniverseConfig(
            n_sources=1,
            n_distinct=30,
            total_tuples=30,
            overlap=ReplicationModel(style="uniform", mean_depth=1.0, max_depth=1),
        )
        u = generate(config, 2)
        out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0)
        assert {m: c.value for m, c in out.snapshot.cells.items()} == {0b1: 30.0}

    def test_zero_threshold_matches_truth_on_random_universes(self):
        for seed, n in [(0, 3), (1, 5), (2, 7), (3, 9)]:
            config = UniverseConfig(
                n_sources=n,
                n_distinct=70,
                total_tuples=210,
                overlap=ReplicationModel(style="uniform", mean_depth=3.0, max_depth=min(5, n)),
            )
            u = generate(config, seed)
            out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0)
            truth = u.truth.cells(SCOPE_ALL)
            got = {m: c.value for m, c in out.snapshot.cells.items() if c.value > 0}
            assert got == pytest.approx(truth)

    def test_pruning_marks_cells_and_keeps_detected_values(self):
        # Threshold at 20% of the universe (50 tuples): the smallest
        # source's singleton estimate is pruned before detection, the two
        # larger ones are detected, and no pair survives the next round.
        u = demo_universe()
        out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.2)
        cells = out.snapshot.cells
        assert cells[0b001].provenance == PRUNED
        assert cells[0b001].value == 0.0
        assert cells[0b010].provenance == DETECTED
        assert cells[0b010].value == 80.0
        assert cells[0b100].value == 60.0
        assert all(c.provenance == PRUNED for m, c in cells.items() if bin(m).count("1") == 2)
        assert out.snapshot.prune_threshold == 0.2

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
        cells = out.snapshot.cells
        assert cells[0b001].provenance == DETECTED
        assert cells[0b001].value == 10.0

    def test_unavailable_source_zeroed_not_fatal(self):
        u = replace(demo_universe(), unavailable=frozenset([1]))
        out = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0)
        assert out.unavailable == (1,)
        assert out.snapshot.cardinalities[1] == 0.0
        # Every cell touching the dead source reads zero; its row stays
        # consistent even though its partners' rows degrade.
        for m, c in out.snapshot.cells.items():
            if (m >> 1) & 1:
                assert c.value == 0.0
        assert out.snapshot.cells[0b100].value == 60.0

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
        assert out.unavailable == tuple(range(50))
        assert out.snapshot.cardinalities == (0.0,) * 50
        assert all(c.provenance == PRUNED for c in out.snapshot.cells.values())
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
        detected = sum(c.provenance == DETECTED for c in out.snapshot.cells.values())
        assert out.count_queries == u.n_sources + detected
        if (case, sample_rate) == ("desk-101", 1.0):
            assert (out.count_queries, detected) == (123, 73)


class TestFailingCellQueries:
    @pytest.mark.parametrize("failing", [{0b011}, {0b011, 0b101, 0b110}, {0b111}])
    def test_failed_cells_read_zero_and_detection_finishes(self, failing):
        u = demo_universe(seed=11, query_split=0.5)
        out = initial_detection(FailingCells(ScopedProbe(u, SCOPE_ALL), failing), 0.0)
        for m in failing - {0b111}:  # the deepest cell is never probed offline
            cell = out.snapshot.cells[m]
            assert (cell.value, cell.provenance) == (0.0, DETECTED)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        probe = FailingCells(ScopedProbe(u, SCOPE_FOCUS), failing)
        final = snapshots(initial, (0, 1, 2), probe)[-1]
        assert final.stage == STAGE_FINAL
        for m in failing:
            cell = final.cells[m]
            assert (cell.value, cell.provenance) == (0.0, DETECTED)


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
    next(plan)  # the prior snapshot probes nothing
    for _ in detected:
        _cost, read, _source = next(plan)
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
        assert [source for _cost, _snap, source in steps] == [-1, 1, 0, 2]


class TestOnlineDetection:
    def make_universe(self, split=1.0, seed=7):
        return demo_universe(seed=seed, query_split=split)

    def test_stop_before_any_detection_yields_prior_only(self):
        u = self.make_universe()
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        plan = online_detection_plan(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
        prior = prior_query_snapshot(initial)
        cost, read, source = next(plan)
        assert (cost, read(), source) == (0.0, prior, -1)

    def test_query_matching_everything_converges_to_initial(self):
        u = self.make_universe(split=1.0)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        snaps = snapshots(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
        live = {m: c.value for m, c in initial.cells.items() if c.provenance != PRUNED}
        for snap in snaps:
            if snap.stage == "online-substage-1":
                got = {m: c.value for m, c in snap.cells.items() if c.provenance != PRUNED}
                for m, v in live.items():
                    assert got[m] == pytest.approx(v, rel=1e-6, abs=1e-6)

    def test_half_split_final_snapshot_matches_focus_truth(self):
        u = self.make_universe(split=0.5, seed=11)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        snaps = snapshots(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
        final = snaps[-1]
        assert final.stage == "final"
        truth = u.truth.cells(SCOPE_FOCUS)
        for m, c in final.cells.items():
            if c.provenance == PRUNED:
                continue
            assert c.value == pytest.approx(truth.get(m, 0.0), abs=1e-9)

    def test_residuals_within_tolerance_on_every_snapshot(self):
        u = self.make_universe(split=0.5, seed=13)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        for snap in snapshots(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS)):
            ok, s, total, target = residuals_ok(snap)
            assert ok, (snap.stage, s, total, target)

    def test_substage2_detects_in_descending_gap_order(self):
        u = self.make_universe(split=0.5, seed=17)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        plan = online_detection_plan(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
        entry_estimates = None
        detected_order = []
        prev_known = set()
        for _cost, read, _src in plan:
            snap = read()
            if snap.stage in ("online-substage-2", "final"):
                if entry_estimates is None and snap.stage == "online-substage-2":
                    pass
                known = {m for m, c in snap.cells.items() if c.provenance == DETECTED}
                new = known - prev_known
                detected_order.extend(sorted(new))
                prev_known = known
        # Recompute the entry gaps: estimates right after the last
        # cardinality detection vs the offline values.
        sub1 = []
        plan2 = online_detection_plan(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
        for _cost, read, _src in plan2:
            sub1.append(read())
            if len(sub1) == 1 + initial.n_sources:
                break
        entry = sub1[-1]
        live = {m: c.value for m, c in initial.cells.items() if c.provenance != PRUNED}
        gaps = {
            m: abs(entry.cells[m].value - live[m]) for m in live
        }
        seen_gaps = [gaps[m] for m in detected_order if m in gaps]
        assert all(a >= b - 1e-9 for a, b in zip(seen_gaps, seen_gaps[1:]))

    def test_detection_plan_reports_probed_sources(self):
        u = self.make_universe()
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        plan = online_detection_plan(
            initial, (2, 0, 1), ScopedProbe(u, SCOPE_FOCUS), per_query_ms=4.0 * 1.5
        )
        steps = list(plan)
        assert steps[0][0] == 0.0 and steps[0][2] == -1
        # Cardinality probes follow the hinted order at the stretched cost.
        assert [s for _c, _snap, s in steps[1:4]] == [2, 0, 1]
        assert steps[1][0] == pytest.approx(6.0)
        # Cell probes name a member source of the probed cell.
        for cost, _read, src in steps[4:]:
            assert src in range(3)

    def test_each_cell_query_is_one_step(self):
        # Each live cell is counted in a step of its own, at one query's
        # cost, asked of its first member source.
        u = self.make_universe(split=0.5, seed=19)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        steps = list(
            online_detection_plan(
                initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS), per_query_ms=2.0
            )
        )
        assert steps[-1][1]().stage == STAGE_FINAL
        live = {m for m, c in initial.cells.items() if c.provenance != PRUNED}
        cell_steps = steps[1 + initial.n_sources :]
        assert len(cell_steps) == len(live)
        counted = set()
        for cost, read, source in cell_steps:
            detected = {m for m, c in read().cells.items() if c.provenance == DETECTED}
            (new,) = detected - counted
            assert cost == 2.0 and source == member_sources(new)[0]
            counted = detected
        assert counted == live


class TestLazyRefresh:
    """Query-level snapshots are projected from the prior when first read."""

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

        def plan():
            return snapshots(initial, hint, ScopedProbe(u, SCOPE_FOCUS))

        in_order = [dict(snap.cells) for snap in plan()]
        snaps = plan()
        shuffled = {}
        for i in data.draw(st.permutations(range(len(snaps))), label="read order"):
            shuffled[i] = dict(snaps[i].cells)
        assert [shuffled[i] for i in range(len(snaps))] == in_order

        index = initial._index
        for snap, cells in zip(snaps[1:], in_order[1:]):
            known = {
                i: cells[m].value
                for i, m in enumerate(index.masks)
                if cells[m].provenance == DETECTED
            }
            expected = {}
            if len(known) < len(index.masks):
                values, _ = maxent.solve(
                    snap.cardinalities, index, known, prior=initial._live_values
                )
                solved = enumerate(zip(index.masks, values.tolist()))
                expected = {m: v for i, (m, v) in solved if i not in known}
            estimated = {m: c.value for m, c in cells.items() if c.provenance == ESTIMATED}
            assert estimated == expected

    @pytest.mark.parametrize("n_sources", [50, 200])
    def test_every_step_equals_a_fresh_solve(self, n_sources):
        # Seed 101.  A plan reuses the last refresh it solved for a step
        # with the same support totals and cells counted; read in order,
        # backwards or alone, every step's values are those of a fresh
        # solve over a fresh index, float for float.
        config = desk_universe_config()
        if n_sources != 50:
            config = scaled_universe(config, n_sources)
        u = generate(config, 101)
        initial = offline_stats(u, RunConfig()).snapshot
        index = initial._index
        hint = tuple(reversed(range(n_sources)))

        def steps():
            return online_detection_plan(initial, hint, ScopedProbe(u, SCOPE_FOCUS))

        def hexed(values):
            return [v.hex() for v in values]

        def fresh(snap):
            known = {
                i: snap.cells[m].value
                for i, m in enumerate(index.masks)
                if snap.cells[m].provenance == DETECTED
            }
            if len(known) == len(index.masks):
                return hexed(known[i] for i in range(len(known)))
            values, _ = maxent.solve(
                snap.cardinalities,
                lattice.CellIndex(index.masks, n_sources),
                known,
                prior=initial._live_values,
            )
            return hexed(values.tolist())

        solve = maxent.solve
        solved = []

        def counted(*args, **kwargs):
            solved.append(args)
            return solve(*args, **kwargs)

        in_order = []
        with mock.patch.object(maxent, "solve", counted):
            for _cost, read, _src in steps():
                in_order.append(read())
                in_order[-1]._live_values  # solved as the plan yields it
        reads = [read for _cost, read, _src in steps()]
        backwards = {i: reads[i]() for i in reversed(range(len(reads)))}
        assert len(in_order) == len(backwards) > n_sources + len(index.masks)
        # Some refreshes repeat the one before: fewer solves than steps,
        # less the prior and the last step, whose every cell was counted.
        assert len(solved) < len(in_order) - 2
        assert in_order[0]._live_values is initial._live_values  # the prior, not a refresh
        for i, snap in enumerate(in_order[1:], 1):
            alone = next(itertools.islice(steps(), i, None))[1]()
            want = fresh(snap)
            assert hexed(snap._live_values) == want
            assert hexed(backwards[i]._live_values) == want
            assert hexed(alone._live_values) == want

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
            return snap.version, snap.stage, snap.cardinalities, snap._live_values

        in_order = [seen(read()) for _cost, read, _src in steps()]
        reads = [read for _cost, read, _src in steps()]
        assert len(reads) == len(in_order) > initial.n_sources + 1
        # Every step read after the plan ended, the last one first.
        backwards = {i: seen(reads[i]()) for i in reversed(range(len(reads)))}
        assert [backwards[i] for i in range(len(reads))] == in_order
        assert all(read() is read() for read in reads)
        # Only every third step read, each as the plan yields it.
        thirds = [seen(read()) for i, (_c, read, _s) in enumerate(steps()) if i % 3 == 0]
        assert thirds == in_order[::3]

    def test_sequential_run_builds_only_the_snapshots_it_reads(self):
        # 200 sources, seed 101, k = 0.8: before steps were read lazily,
        # this run built 224 query-level snapshots for 21 plan versions.
        u = generate(scaled_universe(desk_universe_config(), 200), 101)
        initial = offline_stats(u, RunConfig()).snapshot
        k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
        make = detection._query_snapshot
        built = []

        def counted(initial, version, *args):
            built.append(version)
            return make(initial, version, *args)

        with mock.patch.object(detection, "_query_snapshot", counted):
            result = run_query("sequential", QuerySpec(SCOPE_FOCUS, k), u, initial)
        assert result.detections > 10 * result.perm_versions
        # One per replan at most, and the refresh that orders the cell queries.
        assert len(built) <= result.perm_versions + 1
        assert len(set(built)) == len(built)

    def test_abandoned_plan_solves_nothing(self):
        u = demo_universe(seed=7, query_split=0.5)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
        unread = AssertionError("solved a snapshot nobody read")
        with mock.patch.object(maxent, "solve", side_effect=unread):
            plan = online_detection_plan(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
            next(plan)  # the prior
            plan.close()
            # Two cardinality refreshes taken but never read.
            plan = online_detection_plan(initial, (0, 1, 2), ScopedProbe(u, SCOPE_FOCUS))
            steps = [next(plan) for _ in range(3)]
            plan.close()
        assert [source for _cost, _snap, source in steps] == [-1, 0, 1]


def plan_digest(initial, hint, probe):
    """SHA-256 over every snapshot of a detection plan: totals and cells as ``float.hex``."""
    digest = hashlib.sha256()
    for _cost, read, source in online_detection_plan(initial, hint, probe):
        snap = read()
        cards = " ".join(c.hex() for c in snap.cardinalities)
        digest.update(f"{snap.version} {snap.stage} {source} {cards}\n".encode())
        for m in sorted(snap.cells):
            cell = snap.cells[m]
            digest.update(f"{m:x} {cell.value.hex()} {cell.provenance}\n".encode())
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
        assert all(snap._index is initial._index for snap in snaps)
        live = [m for m, c in sorted(initial.cells.items()) if c.provenance != PRUNED]
        assert list(initial._index.masks) == live

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
        assert built == [initial._index]
        # Every refresh solves over that index, so they share its matrix.
        assert solved_over and all(index is initial._index for index in solved_over)

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("desk", "03f2e69be1143be002ebc06cfeeaad39bcfca65f3739fe6ef35075df8ec8bab8"),
            ("desk-ascending-hint", "afcdafd1f3f4be52c9a25d60eaa37a20d281d2ff61ed1fc805aae5ef844595ed"),
            ("demo-exact", "c04c1c55c5186c6f603c3be36b632d8d649c59c97bf864181c044e87d6518839"),
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
