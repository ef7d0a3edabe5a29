"""Planner operations: greedy, swaps, sweep, baselines, exhaustive oracle."""

import heapq
import math
import re

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from querysched import permutation
from querysched.cost import PREFIX_AVERAGE, SEQUENTIAL, CoverageWalk, permutation_time_cost
from querysched.lattice import snapshot_from_cells
from querysched.permutation import (
    ALGO_MAX_RESIDUAL,
    ALGO_MAX_TUPLES,
    ALGO_MIN_RESIDUAL_COST,
    ALGO_MIN_UNIT_COST,
    ALGO_RANDOM,
    ORACLE_SOURCE_BOUND,
    OracleSizeError,
    PermCandidate,
    PinnedSwapError,
    WorkMeter,
    approx_bound,
    baseline_order,
    brute_force_opt,
    covered_total,
    format_order,
    greedy_by_rate,
    improve_position,
    next_source,
    overlap_ranked,
    refine_order,
    swap_source,
)
from querysched.testing import random_instance

from test_cost import lattice_snapshots
from test_lattice import REF_ACCESS, REF_TRANSFER, ref_snapshot


def eager_greedy(k, order, snapshot, pinned, meter):
    """Reference for ``greedy_by_rate``: rates every source left out of the order each round."""
    walk = CoverageWalk(snapshot)
    res_sum = 0.0
    scan_sum = 0.0
    keep = len(order)
    for pos, s in enumerate(order):
        if res_sum >= k and pos >= pinned:
            keep = pos
            break
        res_sum += walk.residual(s)
        scan_sum += snapshot.scan_cost_ms(s)
        walk.append(s)
    new_order = list(order[:keep])
    pool = sorted(set(range(snapshot.n_sources)) - set(new_order))
    while res_sum < k and pool:
        best = -1
        best_rate = 0.0
        for s in pool:
            meter.add()
            rate = walk.rate(s)
            if rate > best_rate:
                best_rate = rate
                best = s
        if best < 0:
            break
        res_sum += walk.residual(best)
        scan_sum += snapshot.scan_cost_ms(best)
        walk.append(best)
        new_order.append(best)
        pool.remove(best)
    avg = res_sum / scan_sum if scan_sum > 0 else 0.0
    return PermCandidate(tuple(new_order), res_sum, avg)


def eager_baseline(kind, snapshot):
    """Reference for the scored ``baseline_order`` kinds: a full rescan each round."""
    walk = CoverageWalk(snapshot)

    def time_per_tuple(s, tuples):
        return snapshot.scan_cost_ms(s) / tuples if tuples > 0 else math.inf

    key = {
        ALGO_MAX_TUPLES: lambda s: (-snapshot.cardinalities[s], s),
        ALGO_MIN_UNIT_COST: lambda s: (time_per_tuple(s, snapshot.cardinalities[s]), s),
        ALGO_MAX_RESIDUAL: lambda s: (-walk.residual(s), s),
        ALGO_MIN_RESIDUAL_COST: lambda s: (time_per_tuple(s, walk.residual(s)), s),
    }[kind]
    remaining = list(range(snapshot.n_sources))
    out = []
    while remaining:
        pick = min(remaining, key=key)
        out.append(pick)
        remaining.remove(pick)
        walk.append(pick)
    return tuple(out)


def scratch_improve(k, order, pos, snapshot, pinned, meter):
    """Reference for ``improve_position``: each rebuild through :func:`eager_greedy`."""
    anchor = order[pos]
    pool = set(range(snapshot.n_sources)) - set(order[: pos + 1])
    best = None
    for j, _ratio in overlap_ranked(anchor, pool, snapshot, meter):
        if snapshot.cardinalities[anchor] >= snapshot.cardinalities[j]:
            continue
        swapped_order = swap_source(order, pos, j, pinned)
        cand = eager_greedy(k, swapped_order, snapshot, pinned, meter)
        if best is None or cand.avg_rate > best.avg_rate:
            best = cand
    return best if best is not None and best.avg_rate > 0.0 else None


@st.composite
def tied_instances(draw):
    """Small snapshots with integer cells and latencies, so rates often tie."""
    n = draw(st.integers(1, 7), label="n")
    masks = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=12), label="masks")
    cells = {m: draw(st.integers(0, 6)) for m in sorted(masks)}
    access = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n), label="access")
    per_tuple = draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=n, max_size=n))
    return snapshot_from_cells(access, per_tuple, cells), sum(cells.values())


def random_snapshots():
    """``random_instance`` snapshots of 2-9 sources, uniform or chained."""
    return st.builds(
        lambda n, seed, style: random_instance(n, seed, style=style)[0],
        st.integers(2, 9),
        st.integers(0, 10_000),
        st.sampled_from(["uniform", "chained"]),
    )


class TestHelperOps:
    def test_covered_total(self):
        assert covered_total((0, 1, 2), ref_snapshot()) == pytest.approx(50 + 90 + 60)

    def test_trim_keeps_minimal_covering_prefix(self):
        cand = greedy_by_rate(125, (1, 2, 0), ref_snapshot())
        assert cand.order == (1,)
        assert cand.covered == pytest.approx(125)
        assert cand.avg_rate == pytest.approx(125 / 137.5)

    def test_trim_never_cuts_pinned(self):
        cand = greedy_by_rate(125, (1, 2, 0), ref_snapshot(), pinned=2)
        assert cand.order == (1, 2)

    def test_overlap_ranked(self):
        got = overlap_ranked(0, {1, 2}, ref_snapshot())
        assert got == [(1, pytest.approx(0.7)), (2, pytest.approx(0.1))]

    @settings(max_examples=300, deadline=None)
    @given(random_snapshots() | lattice_snapshots(), st.data())
    def test_overlap_ranked_equals_a_full_scan(self, snap, data):
        # Only the anchor's cells are walked; the reference scans every
        # candidate and sums its cells shared with the anchor in
        # ascending mask order, so the floats are equal, not just close.
        # The drawn snapshots hold zero cells, and ``lattice_snapshots``
        # draw their totals apart from their cells.
        n = snap.n_sources
        anchor = data.draw(st.integers(0, n - 1), label="anchor")
        candidates = frozenset(data.draw(st.sets(st.integers(0, n - 1)), label="candidates"))
        meter, scan_meter = WorkMeter(), WorkMeter()
        scanned = []
        if snap.cardinalities[anchor] > 0:
            for j in sorted(candidates - {anchor}):
                scan_meter.add()
                both = (1 << anchor) | (1 << j)
                cells = sorted(zip(snap.index.masks, snap.values))
                shared = sum(v for m, v in cells if m & both == both)
                ratio = shared / snap.cardinalities[anchor]
                if ratio >= permutation.OVERLAP_FLOOR:
                    scanned.append((j, ratio))
        scanned.sort(key=lambda item: (-item[1], item[0]))
        assert overlap_ranked(anchor, candidates, snap, meter) == scanned
        assert meter.ops == scan_meter.ops

    def test_overlap_ranked_adds_shared_cells_in_ascending_mask_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in their last bit,
        # and plans, traces and the grid CSV depend on the first.
        cells = {0b1011: 0.3, 0b0011: 0.1, 0b0111: 0.2}
        snap = snapshot_from_cells((0.0,) * 4, (1.0,) * 4, cells, cardinalities=(1.0,) * 4)
        assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        assert overlap_ranked(0, {1}, snap) == [(1, (0.1 + 0.2) + 0.3)]

    def test_overlap_ranked_floor_discards(self):
        # Source 0 shares 2.5 of its 50 tuples with source 1, exactly the
        # floor, and 2 with source 2, just under it.
        cells = {0b001: 45.5, 0b011: 2.5, 0b101: 2, 0b010: 87.5, 0b100: 58}
        snap = snapshot_from_cells((0.0,) * 3, (1.0,) * 3, cells)
        assert permutation.OVERLAP_FLOOR == 0.05
        assert overlap_ranked(0, {1, 2}, snap) == [(1, 2.5 / 50)]

    def test_overlap_ranked_zero_cardinality_anchor(self):
        snap = snapshot_from_cells((0, 0, 0), (1, 1, 1), {0b010: 5, 0b100: 5}, cardinalities=(0, 5, 5))
        assert overlap_ranked(0, {1, 2}, snap) == []

    def test_swap_source_pulls_from_unselected(self):
        assert swap_source((0, 1), 0, 2) == (2,)

    def test_swap_source_pulls_from_tail(self):
        assert swap_source((0, 1), 0, 1) == (1,)

    @pytest.mark.parametrize("pos, incoming", [(0, 0), (1, 0), (1, 1)])
    def test_swap_source_rejects_a_source_at_or_before_pos(self, pos, incoming):
        with pytest.raises(ValueError, match=f"source {incoming} not available"):
            swap_source((0, 1), pos, incoming)

    def test_swap_source_respects_pin(self):
        with pytest.raises(PinnedSwapError, match="pinned"):
            swap_source((0, 1), 0, 2, pinned=1)

    @pytest.mark.parametrize(
        "plan, source",
        [
            (lambda snap: greedy_by_rate(125, (0, 0), snap), 0),
            (lambda snap: greedy_by_rate(125, (1, 3), snap), 3),
            (lambda snap: greedy_by_rate(125, (1.5,), snap), 1.5),
            (lambda snap: refine_order(125, snap, pinned_order=(-1,)), -1),
            (lambda snap: refine_order(125, snap, pinned_order=(9,)), 9),
            (lambda snap: refine_order(125, snap, pinned_order=(2, 1, 2)), 2),
        ],
        ids=[
            "greedy_repeat",
            "greedy_past_n",
            "greedy_fraction",
            "refine_negative",
            "refine_past_n",
            "refine_repeat",
        ],
    )
    def test_malformed_order_rejected(self, plan, source):
        # A repeated id would charge its scan twice; a negative one would
        # read another source through negative indexing.
        with pytest.raises(ValueError, match=re.escape(f"source {source} ")):
            plan(ref_snapshot())


class TestGreedy:
    def test_reference_selection_order(self):
        cand = greedy_by_rate(200, (), ref_snapshot())
        assert cand.order == (0, 1, 2)
        assert cand.covered == pytest.approx(200)

    def test_selection_rates_match_reference(self):
        snap = ref_snapshot()
        from querysched.cost import CoverageWalk

        walk = CoverageWalk(snap)
        rates = []
        for s in (0, 1, 2):
            rates.append(walk.rate(s))
            walk.append(s)
        assert rates[0] == pytest.approx(1.43, abs=0.005)
        assert rates[1] == pytest.approx(0.65, abs=0.005)
        assert rates[2] == pytest.approx(0.53, abs=0.005)

    def test_small_k_single_source(self):
        cand = greedy_by_rate(40, (), ref_snapshot())
        assert cand.order == (0,)

    def test_tie_breaks_by_lowest_id(self):
        snap = snapshot_from_cells((1.0, 1.0), (1.0, 1.0), {0b01: 30, 0b10: 30})
        cand = greedy_by_rate(60, (), snap)
        assert cand.order == (0, 1)

    def test_selection_rate_monotone_along_output(self):
        # The rate at selection time never increases down the order.
        from querysched.cost import CoverageWalk

        for seed in range(10):
            snap, distinct = random_instance(6, seed)
            cand = greedy_by_rate(0.9 * distinct, (), snap)
            walk = CoverageWalk(snap)
            rates = []
            for s in cand.order:
                rates.append(walk.rate(s))
                walk.append(s)
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_zero_rate_universe_yields_empty_and_shortfall(self):
        snap = snapshot_from_cells((0.0, 0.0), (1.0, 1.0), {}, cardinalities=(0, 0))
        cand = greedy_by_rate(5, (), snap)
        assert cand.order == ()
        assert cand.covered == 0.0

    def test_overcovering_input_gets_trimmed(self):
        cand = greedy_by_rate(40, (0, 1, 2), ref_snapshot())
        assert cand.order == (0,)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_trim_or_extend_properties(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        snap, distinct = random_instance(n, data.draw(st.integers(0, 40), label="seed"))
        perm = data.draw(st.permutations(range(n)), label="perm")
        order = tuple(perm[: data.draw(st.integers(0, n), label="length")])
        pinned = data.draw(st.integers(0, len(order)), label="pinned")
        k = data.draw(st.floats(-1.0, 1.5 * distinct) | st.just(math.inf), label="k")
        cand = greedy_by_rate(k, order, snap, pinned)
        assert cand.order[:pinned] == order[:pinned]
        assert len(set(cand.order)) == len(cand.order)
        assert set(cand.order) <= set(range(n))
        assert cand.covered == covered_total(cand.order, snap)
        if cand.covered >= k and len(cand.order) > pinned:
            assert covered_total(cand.order[:-1], snap) < k


    @settings(max_examples=300, deadline=None)
    @given(tied_instances(), st.data())
    def test_lazy_extension_equals_eager_scan(self, instance, data):
        snap, distinct = instance
        n = snap.n_sources
        perm = data.draw(st.permutations(range(n)), label="perm")
        order = tuple(perm[: data.draw(st.integers(0, n), label="length")])
        pinned = data.draw(st.integers(0, len(order)), label="pinned")
        k = data.draw(
            st.integers(-1, int(1.5 * distinct))
            | st.floats(-1.0, 1.5 * distinct)
            | st.just(math.inf),
            label="k",
        )
        lazy_meter, eager_meter = WorkMeter(), WorkMeter()
        lazy = greedy_by_rate(k, order, snap, pinned, lazy_meter)
        eager = eager_greedy(k, order, snap, pinned, eager_meter)
        assert lazy.order == eager.order
        assert lazy.covered == eager.covered
        assert lazy.avg_rate == eager.avg_rate
        assert lazy_meter.ops == eager_meter.ops


def heap_picks(walk, heap, score, meter):
    """Reference for ``permutation._picks``: the lazy greedy over one heap of the sources left.

    ``heap`` is consumed; each round charges ``meter`` the sources left.
    """
    while heap:
        if meter is not None:
            meter.add(len(heap))
        bound, best = heap[0]
        current = score(best)
        while current < -bound:
            heapq.heapreplace(heap, (-current, best))
            bound, best = heap[0]
            current = score(best)
        heapq.heappop(heap)
        yield current, best
        walk.append(best)


class TestPicks:
    @settings(max_examples=300, deadline=None)
    @given(tied_instances().map(lambda instance: instance[0]) | lattice_snapshots(), st.data())
    def test_rate_bounds_pick_like_exact_scores(self, snap, data):
        # Seeded from the snapshot's rates with nothing covered, the loop
        # picks what a heap of exact scores picks, ties and zero rates
        # included, and charges the same rounds.  Walking the shared
        # bounds past the taken sources, with re-rated ones in a side
        # heap, picks as one heap of the sources left does.
        n = snap.n_sources
        perm = data.draw(st.permutations(range(n)), label="perm")
        head = perm[: data.draw(st.integers(0, n), label="head")]
        rest = perm[len(head) :]
        pool = set(rest[: data.draw(st.integers(0, len(rest)), label="pool")])
        taken = set(range(n)) - pool

        def picks(seed, loop=permutation._picks):
            walk = CoverageWalk(snap)
            for s in head:
                walk.append(s)
            meter = WorkMeter()
            got = loop(walk, *seed(walk), walk.rate, meter)
            return [(score.hex(), s) for score, s in got], meter.ops

        def exact(walk):
            return sorted((-walk.rate(s), s) for s in pool), ()

        def filtered(walk):
            return ([entry for entry in snap._rate_heap if entry[1] not in taken],)

        before = list(snap._rate_heap)
        lazy = picks(lambda walk: (snap._rate_heap, taken))
        assert lazy == picks(exact) == picks(filtered, heap_picks)
        assert snap._rate_heap == before  # read, not changed


class TestImprovePosition:
    @settings(max_examples=300, deadline=None)
    @given(
        tied_instances()
        | lattice_snapshots().map(lambda snap: (snap, sum(snap.cardinalities))),
        st.data(),
    )
    def test_lazy_rebuild_equals_eager_reference(self, instance, data):
        snap, total = instance
        n = snap.n_sources
        perm = data.draw(st.permutations(range(n)), label="perm")
        order = tuple(perm[: data.draw(st.integers(1, n), label="length")])
        pos = data.draw(st.integers(0, len(order) - 1), label="pos")
        pinned = data.draw(st.integers(0, pos), label="pinned")
        # Targets the pinned prefix or the whole head before ``pos`` already covers.
        covered = [covered_total(order[:pinned], snap), covered_total(order[:pos], snap)]
        k = data.draw(
            st.sampled_from(covered)
            | st.integers(-1, int(1.5 * total))
            | st.floats(-1.0, 1.5 * total + 1.0)
            | st.just(math.inf),
            label="k",
        )
        lazy_meter, scratch_meter = WorkMeter(), WorkMeter()
        lazy = improve_position(k, order, pos, snap, pinned, lazy_meter)
        scratch = scratch_improve(k, order, pos, snap, pinned, scratch_meter)
        assert lazy == scratch
        assert lazy_meter.ops == scratch_meter.ops

    def test_reference_swap_finds_single_source_plan(self):
        # Where the greedy start over-commits to a fast small source, the
        # swap at its position discovers that the big overlapping source
        # alone covers the target more profitably.
        cand = improve_position(125, (0, 1), 0, ref_snapshot())
        assert cand is not None
        assert cand.order == (1,)
        assert cand.avg_rate == pytest.approx(125 / 137.5)
        seq = permutation_time_cost(cand.order, ref_snapshot(), 125, SEQUENTIAL)
        assert seq.time_ms == pytest.approx(137.5)

    def test_impossible_floor_returns_none(self):
        # Both sources are bigger than the anchor and share tuples with
        # it, but each shares fewer than the floor's 5% of them.
        cells = {0b001: 46, 0b011: 2, 0b101: 2, 0b010: 88, 0b100: 58}
        snap = snapshot_from_cells(REF_ACCESS, REF_TRANSFER, cells)
        assert snap.cardinalities == (50, 90, 60)
        assert overlap_ranked(0, {1, 2}, snap) == []
        assert improve_position(125, (0, 1), 0, snap) is None

    def test_max_cardinality_anchor_returns_none(self):
        # No candidate can out-size the biggest source.
        assert improve_position(125, (1, 0), 0, ref_snapshot()) is None


class TestRefineOrder:
    def test_reference_k125_lands_on_optimal_head(self):
        cand = refine_order(125, ref_snapshot())
        assert cand.order[0] == 1
        assert cand.order == (1,)

    def test_disjoint_sources_keep_greedy_order(self):
        snap = snapshot_from_cells(
            (0.0, 0.0, 0.0), (0.5, 1.0, 2.0), {0b001: 50, 0b010: 50, 0b100: 50}
        )
        greedy = greedy_by_rate(150, (), snap)
        refined = refine_order(150, snap)
        assert refined.order == greedy.order

    def test_never_worse_than_greedy(self):
        for seed in range(25):
            snap, distinct = random_instance(6, seed)
            k = max(1.0, 0.6 * distinct)
            greedy = greedy_by_rate(k, (), snap)
            refined = refine_order(k, snap)
            assert refined.avg_rate >= greedy.avg_rate - 1e-12

    def test_partition_and_pin_preserved(self):
        for seed in range(10):
            snap, distinct = random_instance(7, seed)
            pinned = (3, 0)
            cand = refine_order(0.7 * distinct, snap, pinned_order=pinned)
            assert cand.order[:2] == pinned
            assert len(set(cand.order)) == len(cand.order)
            assert set(cand.order) <= set(range(7))


def full_plan_next(k, snapshot, pinned_order):
    """Reference for ``next_source``: the first unpinned source of the full plan.

    The full plan is the whole sweep, extended by the greedy without a
    target, then every remaining source in id order.
    """
    refined = refine_order(k, snapshot, pinned_order=pinned_order)
    full = greedy_by_rate(math.inf, refined.order, snapshot)
    order = full.order + tuple(sorted(set(range(snapshot.n_sources)) - set(full.order)))
    return next((s for s in order if s not in pinned_order), None)


def exact(value):
    """``value`` with every float as ``float.hex``, so candidates compare bit for bit."""
    if isinstance(value, PermCandidate):
        return value.order, value.covered.hex(), value.avg_rate.hex()
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    return value


class TestNextSource:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_first_undispatched_source_of_the_full_plan(self, data):
        if data.draw(st.booleans(), label="tied"):
            snap, distinct = data.draw(tied_instances(), label="instance")
        else:
            n = data.draw(st.integers(1, 8), label="n")
            style = data.draw(st.sampled_from(["uniform", "chained"]), label="style")
            snap, distinct = random_instance(n, data.draw(st.integers(0, 500), label="seed"), style=style)
        n = snap.n_sources
        perm = data.draw(st.permutations(range(n)), label="perm")
        pinned = tuple(perm[: data.draw(st.integers(0, n), label="pinned")])
        k = data.draw(
            st.integers(-1, int(1.5 * distinct)) | st.floats(-1.0, 1.5 * distinct) | st.just(math.inf),
            label="k",
        )
        assert next_source(k, snap, pinned)[0] == full_plan_next(k, snap, pinned)

    @settings(max_examples=200, deadline=None)
    @given(
        random_snapshots().map(lambda snap: (snap, covered_total(range(snap.n_sources), snap)))
        | tied_instances(),
        st.data(),
    )
    def test_reused_start_equals_a_start_from_scratch(self, instance, data):
        # A fixed-snapshot run: each replan hands in the last head when the
        # dispatched prefix begins it, as the scheduler's planner does.
        snap, distinct = instance
        k = data.draw(st.floats(-1.0, 1.5 * distinct) | st.just(math.inf), label="k")
        dispatched, head, reused = (), None, 0
        while True:
            begins = head is not None and head.order[: len(dispatched)] == dispatched
            start = head if begins else None
            source, new_head = next_source(k, snap, dispatched, start)
            assert exact(next_source(k, snap, dispatched)) == exact((source, new_head))
            reused += start is not None
            # The head is the greedy start of every longer prefix it begins with.
            p = len(dispatched)
            for q in range(p + 1, len(new_head.order) + 1):
                rebuilt = permutation._greedy(k, new_head.order[:q], q, None, snap)
                assert exact(rebuilt) == exact(new_head)
            if source is None:
                break
            dispatched, head = dispatched + (source,), new_head
        event(f"starts reused: {'3 or more' if reused >= 3 else reused}")

    def test_pinned_prefix_covering_the_target_takes_the_best_rate(self):
        # Source 1 alone covers k = 125, so the refined order ends at the
        # pinned prefix and the greedy's next pick decides.
        snap = ref_snapshot()
        assert refine_order(125, snap, pinned_order=(1,)).order == (1,)
        walk = CoverageWalk(snap)
        walk.append(1)
        best = max((0, 2), key=lambda s: (walk.rate(s), -s))
        assert walk.rate(best) > 0.0
        assert next_source(125, snap, (1,))[0] == best == full_plan_next(125, snap, (1,))

    def test_no_positive_rate_left_takes_the_lowest_id(self):
        # Source 0 holds every tuple: sources 1 and 2 add nothing after it.
        snap = snapshot_from_cells((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), {0b001: 10, 0b011: 5})
        assert refine_order(10, snap, pinned_order=(0,)).order == (0,)
        assert next_source(10, snap, (0,))[0] == 1 == full_plan_next(10, snap, (0,))
        assert next_source(10, snap, (0, 2))[0] == 1
        assert next_source(10, snap, (0, 2, 1))[0] is None


class TestStatsQualityEffect:
    def test_truth_fed_refinement_beats_estimates_in_expectation(self):
        # The sweep maximizes the covering prefix's average rate, so the
        # comparison runs under that objective: plans built from exact
        # statistics cost no more, averaged over many instances, than
        # plans built from threshold-pruned estimates -- both priced
        # against the exact statistics.
        from querysched.detection import initial_detection
        from querysched.simulator import (
            SCOPE_ALL,
            ReplicationModel,
            ScopedProbe,
            UniverseConfig,
            generate,
        )

        truth_total = 0.0
        estimated_total = 0.0
        for i in range(100):
            config = UniverseConfig(
                n_sources=6,
                n_distinct=60 + (i % 5) * 10,
                total_tuples=(60 + (i % 5) * 10) * 3,
                overlap=ReplicationModel(style="chained", mean_depth=3.0, max_depth=5, chains=3),
                access_ms=(0.0, 10.0),
                per_tuple_ms=(0.1, 1.0),
                query_split=1.0,
            )
            universe = generate(config, 4000 + i)
            truth = universe.truth_snapshot(SCOPE_ALL)
            estimated = initial_detection(
                ScopedProbe(universe, SCOPE_ALL), 0.04
            ).snapshot
            k = 0.7 * universe.truth.distinct_in_scope(SCOPE_ALL)
            plan_truth = refine_order(k, truth)
            plan_est = refine_order(k, estimated)
            truth_total += permutation_time_cost(
                plan_truth.order, truth, k, PREFIX_AVERAGE
            ).time_ms
            estimated_total += permutation_time_cost(
                plan_est.order, truth, k, PREFIX_AVERAGE
            ).time_ms
        assert truth_total <= estimated_total + 1e-9


class TestBaselines:
    def test_max_residual_reference_walk(self):
        order = baseline_order(ALGO_MAX_RESIDUAL, ref_snapshot())
        assert order == (1, 2, 0)

    def test_max_tuples_reference(self):
        order = baseline_order(ALGO_MAX_TUPLES, ref_snapshot())
        assert order == (1, 2, 0)

    def test_residual_walk_differs_from_blind_on_nested_overlap(self):
        # A source fully inside an already-taken one must sink in the
        # residual-aware ranking.
        cells = {0b01: 0, 0b11: 40, 0b10: 30}
        snap = snapshot_from_cells((0.0, 0.0), (1.0, 1.0), cells)
        assert baseline_order(ALGO_MAX_TUPLES, snap) == (1, 0)
        assert baseline_order(ALGO_MAX_RESIDUAL, snap) == (1, 0)
        cells3 = {0b011: 40, 0b100: 35, 0b010: 2}
        snap3 = snapshot_from_cells((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), cells3)
        assert baseline_order(ALGO_MAX_TUPLES, snap3) == (1, 0, 2)
        assert baseline_order(ALGO_MAX_RESIDUAL, snap3) == (1, 2, 0)

    def test_min_variants_agree_without_overlap(self):
        snap = snapshot_from_cells(
            (5.0, 5.0, 5.0), (0.3, 0.6, 0.9), {0b001: 30, 0b010: 30, 0b100: 30}
        )
        assert baseline_order(ALGO_MIN_UNIT_COST, snap) == baseline_order(
            ALGO_MIN_RESIDUAL_COST, snap
        )

    def test_random_is_seeded_and_reproducible(self):
        snap = ref_snapshot()
        a = baseline_order(ALGO_RANDOM, snap, seed=42)
        b = baseline_order(ALGO_RANDOM, snap, seed=42)
        c = baseline_order(ALGO_RANDOM, snap, seed=43)
        assert a == b
        assert sorted(a) == [0, 1, 2]
        assert a != c or len(a) <= 2

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            baseline_order(ALGO_RANDOM, ref_snapshot())

    @settings(max_examples=300, deadline=None)
    @given(tied_instances())
    def test_lazy_orders_equal_eager_scan(self, instance):
        snap, _ = instance
        for kind in (ALGO_MAX_TUPLES, ALGO_MIN_UNIT_COST, ALGO_MAX_RESIDUAL, ALGO_MIN_RESIDUAL_COST):
            assert baseline_order(kind, snap) == eager_baseline(kind, snap), kind


class TestBruteForce:
    def test_reference_k125(self):
        order, cost, shortfall = brute_force_opt(125, ref_snapshot())
        assert order == (1,)
        assert cost == pytest.approx(137.5)
        assert not shortfall

    def test_reference_k30(self):
        order, cost, _ = brute_force_opt(30, ref_snapshot())
        assert order == (0,)
        assert cost == pytest.approx(0.7 * 30)

    def test_single_source_universe(self):
        snap = snapshot_from_cells((2.0,), (0.5,), {0b1: 20})
        order, cost, shortfall = brute_force_opt(10, snap)
        assert order == (0,)
        assert not shortfall

    def test_shortfall_returns_full_coverage(self):
        order, cost, shortfall = brute_force_opt(1000, ref_snapshot())
        assert shortfall
        assert sorted(order) == [0, 1, 2]
        assert cost == pytest.approx(285.0)

    def test_unknown_model_rejected(self):
        # Any other string used to score as prefix-average.
        with pytest.raises(ValueError, match="unknown cost model 'bogus'"):
            brute_force_opt(30, ref_snapshot(), "bogus")

    def test_size_bound(self):
        snap, _ = random_instance(ORACLE_SOURCE_BOUND + 1, 0)
        with pytest.raises(OracleSizeError, match="oracle size bound"):
            brute_force_opt(5, snap)

    def test_dominates_refined_plans(self):
        for seed in range(30):
            n = 3 + seed % 6
            snap, distinct = random_instance(n, seed)
            k = max(1.0, (0.3 + 0.07 * (seed % 8)) * distinct)
            _, best, shortfall = brute_force_opt(k, snap, SEQUENTIAL)
            if shortfall:
                continue
            refined = refine_order(k, snap)
            got = permutation_time_cost(refined.order, snap, k, SEQUENTIAL)
            assert got.time_ms >= best - 1e-9

    def test_prefix_average_model_supported(self):
        order, cost, _ = brute_force_opt(125, ref_snapshot(), PREFIX_AVERAGE)
        assert order == (1,)
        assert cost == pytest.approx(137.5)


class TestApproxBound:
    def test_identical_sources_bound_is_one(self):
        snap = snapshot_from_cells(
            (2.0, 2.0, 2.0), (0.5, 0.5, 0.5), {0b001: 40, 0b010: 40, 0b100: 40}
        )
        assert approx_bound(40, snap) == pytest.approx(1.0)

    def test_single_source_clamps_to_one(self):
        snap = snapshot_from_cells((2.0,), (0.5,), {0b1: 20})
        assert approx_bound(10, snap) == pytest.approx(1.0)

    def test_reference_direct_evaluation(self):
        # k * total scan / (total tuples * covering-prefix scan), clamped.
        snap = ref_snapshot()
        raw = 125 * 285.0 / (250.0 * 172.5)
        assert raw < 1.0
        assert approx_bound(125, snap) == pytest.approx(1.0)
        raw_small = 40 * 285.0 / (250.0 * 35.0)
        assert approx_bound(40, snap) == pytest.approx(raw_small)

    def test_k_beyond_total_uses_whole_universe(self):
        snap = ref_snapshot()
        assert approx_bound(400, snap) == pytest.approx(max(1.0, 400 * 285.0 / (250.0 * 285.0)))


class TestSerialization:
    def test_roundtrip_with_pin(self):
        text = format_order((2, 0, 1, 3), pinned=2)
        assert text == "2,0|1,3"
