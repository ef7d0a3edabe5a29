"""Cost model: rates and the two time accountings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched.cost import (
    PREFIX_AVERAGE,
    SEQUENTIAL,
    CoverageWalk,
    QuerySpec,
    permutation_time_cost,
    rate_from_parts,
)
from querysched.detection import prior_query_snapshot
from querysched.lattice import (
    PROVENANCES,
    PRUNED,
    STAGE_INITIAL,
    LatticeCell,
    StatsSnapshot,
    member_sources,
)

from test_lattice import ref_snapshot


@st.composite
def lattice_snapshots(draw):
    """Snapshots with zero-valued and pruned cells and sources without cells.

    Half are the query-level view of such a snapshot, which reads its
    values through the offline snapshot's cell index.
    """
    n = draw(st.integers(1, 7), label="n")
    masks = draw(st.sets(st.integers(1, (1 << n) - 1), max_size=14), label="masks")
    cells = {}
    for m in sorted(masks):
        provenance = draw(st.sampled_from(PROVENANCES), label="provenance")
        value = 0.0
        if provenance != PRUNED:
            value = float(draw(st.integers(0, 6) | st.floats(0.0, 60.0), label="value"))
        cells[m] = LatticeCell(m, value, provenance)

    def per_source(top):
        values = st.lists(st.integers(0, top) | st.floats(0.0, top), min_size=n, max_size=n)
        return tuple(float(v) for v in draw(values))

    snap = StatsSnapshot(0, STAGE_INITIAL, per_source(3), per_source(2), per_source(80), cells)
    return prior_query_snapshot(snap) if draw(st.booleans(), label="query-level") else snap


class MaskWalk:
    """Reference for ``CoverageWalk``: covered cells as a set of masks, read from ``cells``."""

    def __init__(self, snapshot):
        self.snapshot = snapshot
        self.rows = [[] for _ in range(snapshot.n_sources)]
        for m, cell in sorted(snapshot.cells.items()):
            if cell.provenance != PRUNED:
                members = member_sources(m)
                for s in members:
                    self.rows[s].append((m, cell.value, members))
        self.covered = set()
        self.amount = [0.0] * snapshot.n_sources

    def residual(self, s):
        return max(0.0, self.snapshot.cardinalities[s] - self.amount[s])

    def rate(self, s):
        snap = self.snapshot
        return rate_from_parts(
            snap.access_ms[s], snap.per_tuple_ms[s], snap.cardinalities[s], self.amount[s]
        )

    def append(self, s):
        for m, value, members in self.rows[s]:
            if m not in self.covered:
                self.covered.add(m)
                for t in members:
                    self.amount[t] += value


def readings(walk, n):
    """Every source's residual and rate, as ``float.hex``."""
    return [(walk.residual(s).hex(), walk.rate(s).hex()) for s in range(n)]


class TestCoverageWalk:
    @settings(max_examples=300, deadline=None)
    @given(lattice_snapshots(), st.data())
    def test_positional_walk_equals_mask_keyed_walk(self, snap, data):
        n = snap.n_sources
        walk, ref = CoverageWalk(snap), MaskWalk(snap)
        assert readings(walk, n) == readings(ref, n)
        for s in data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="appends"):
            walk.append(s)
            ref.append(s)
            assert readings(walk, n) == readings(ref, n)
        # A copy walks on alone.
        before = readings(walk, n)
        twin = walk.copy()
        extra = data.draw(st.integers(0, n - 1), label="extra")
        twin.append(extra)
        ref.append(extra)
        assert readings(twin, n) == readings(ref, n)
        assert readings(walk, n) == before


class TestQueryRate:
    def test_reference_rates(self):
        assert rate_from_parts(0.0, 0.7, 50, 0) == pytest.approx(50 / 35)
        assert rate_from_parts(0.0, 1.1, 125, 35) == pytest.approx(90 / 137.5)

    def test_fully_covered_source_rates_zero(self):
        assert rate_from_parts(5.0, 1.0, 10, 10) == 0.0

    def test_degenerate_empty_free_source_rates_zero(self):
        assert rate_from_parts(0.0, 1.0, 0, 0) == 0.0

    def test_monotone_nonincreasing_in_overlap(self):
        rates = [rate_from_parts(3.0, 0.4, 80, c) for c in range(0, 81, 5)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestTimeCost:
    def test_single_source_exact(self):
        got = permutation_time_cost((1,), ref_snapshot(), 125, SEQUENTIAL)
        assert got.time_ms == pytest.approx(137.5)
        assert not got.shortfall

    def test_two_source_sequential(self):
        got = permutation_time_cost((0, 1), ref_snapshot(), 125, SEQUENTIAL)
        assert got.time_ms == pytest.approx(35 + 75 * (137.5 / 90))

    def test_two_source_prefix_average(self):
        got = permutation_time_cost((0, 1), ref_snapshot(), 125, PREFIX_AVERAGE)
        assert got.time_ms == pytest.approx(125 * 172.5 / 140)

    def test_k_equal_first_source_residual(self):
        # Exactly draining the first source costs its whole scan.
        got = permutation_time_cost((2, 0, 1), ref_snapshot(), 75, SEQUENTIAL)
        assert got.time_ms == pytest.approx(0.0 + 1.5 * 75)
        assert got.prefix_len == 1

    def test_shortfall_costs_full_scan(self):
        for model in (SEQUENTIAL, PREFIX_AVERAGE):
            got = permutation_time_cost((0, 1, 2), ref_snapshot(), 500, model)
            assert got.shortfall
            assert got.time_ms == pytest.approx(35 + 137.5 + 112.5)
            assert got.covered == pytest.approx(200)

    def test_nondecreasing_in_k(self):
        snap = ref_snapshot()
        for model in (SEQUENTIAL, PREFIX_AVERAGE):
            costs = [permutation_time_cost((1, 2, 0), snap, k, model).time_ms for k in range(1, 201)]
            assert all(a <= b + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_invariant_under_tail_reordering(self):
        # Sources after the covering prefix cannot change the cost.
        snap = ref_snapshot()
        a = permutation_time_cost((1, 0, 2), snap, 100, SEQUENTIAL)
        b = permutation_time_cost((1, 2, 0), snap, 100, SEQUENTIAL)
        assert a.prefix_len == b.prefix_len == 1
        assert a.time_ms == pytest.approx(b.time_ms)

    def test_invariant_under_tail_reordering_random_instances(self):
        from querysched.testing import random_instance

        rng = random.Random(5)
        for seed in range(8):
            snap, distinct = random_instance(5, seed)
            k = max(1.0, 0.4 * distinct)
            base = permutation_time_cost((0, 1, 2, 3, 4), snap, k)
            cut = base.prefix_len
            tail = list(range(5))[cut:]
            rng.shuffle(tail)
            other = permutation_time_cost(tuple(range(5))[:cut] + tuple(tail), snap, k)
            assert other.time_ms == pytest.approx(base.time_ms)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            permutation_time_cost((0,), ref_snapshot(), 0)
        with pytest.raises(ValueError):
            permutation_time_cost((0,), ref_snapshot(), 10, "bogus")


class TestDomainTypes:
    def test_query_spec_requires_positive_k(self):
        with pytest.raises(ValueError):
            QuerySpec("focus", 0)

    @pytest.mark.parametrize("k", [float("nan"), 1.5, float("inf"), 0.5])
    def test_query_spec_rejects_a_k_that_is_not_a_count(self, k):
        # NaN passes ``k < 1`` and a run over it scans every focus tuple;
        # a fractional k would be asked for as such.
        with pytest.raises(ValueError, match="k must be an integer"):
            QuerySpec("focus", k)

    def test_query_spec_accepts_whole_k(self):
        # A whole float is kept as an int, so a run's JSON reports k = 3.
        for k in (3, 3.0):
            spec = QuerySpec("focus", k)
            assert spec.k == 3 and type(spec.k) is int
