"""Cost model: rates and the two time accountings."""

import random

import pytest

from querysched.cost import (
    PREFIX_AVERAGE,
    SEQUENTIAL,
    PermState,
    QuerySpec,
    permutation_time_cost,
    rate_from_parts,
)

from test_lattice import ref_snapshot


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

    def test_perm_state_partition_rules(self):
        state = PermState((1, 0), frozenset({2}), pinned=1)
        assert set(state.order) | state.unselected == {0, 1, 2}
        with pytest.raises(ValueError):
            PermState((0, 0), frozenset())
        with pytest.raises(ValueError):
            PermState((0,), frozenset({0}))
        with pytest.raises(ValueError):
            PermState((0,), frozenset(), pinned=2)
