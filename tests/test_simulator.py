"""Universe generation: determinism, ground truth, timing semantics."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched.cost import QuerySpec
from querysched.grid import desk_universe_config, scaled_universe
from querysched.lattice import snapshot_from_cells
from querysched.scheduler import RunConfig, run_query
from querysched.simulator import (
    DEMO_CELLS,
    SCOPE_ALL,
    SCOPE_FOCUS,
    ReplicationModel,
    ScopedProbe,
    SourceUnavailable,
    UniverseConfig,
    VennModel,
    _weighted_draw,
    demo_universe,
    generate,
)


class TestVennPlacement:
    def test_reference_cardinalities(self):
        probe = ScopedProbe(demo_universe(), SCOPE_ALL)
        assert probe.cardinality(0) == 50
        assert probe.cardinality(1) == 125
        assert probe.cardinality(2) == 75

    def test_cells_match_the_map_exactly(self):
        u = demo_universe()
        truth = u.truth.cells(SCOPE_ALL)
        expected = {m: c for m, c in DEMO_CELLS.items() if c > 0}
        assert truth == expected

    def test_infeasible_cell_map_rejected(self):
        config = UniverseConfig(
            n_sources=2,
            n_distinct=5,
            total_tuples=10,
            overlap=VennModel.from_mapping({0b01: 4, 0b10: 4}),
        )
        with pytest.raises(ValueError, match="exceed"):
            generate(config, 1)

    def test_count_queries(self):
        probe = ScopedProbe(demo_universe(), SCOPE_ALL)
        assert probe.cell_count(0b011) == 35
        assert probe.cell_count(0b111) == 0


_DESK = desk_universe_config()
#: The benchmark's universes: desk, the 200-source axis value, and bulk.
BENCH_UNIVERSES = {
    "desk": _DESK,
    "wide": scaled_universe(_DESK, 200),
    "bulk": desk_universe_config(n_distinct=20_000, total_tuples=100_000),
}
#: SHA-256 of ``repr(generate(BENCH_UNIVERSES[name], seed))``.
RECORDED_DIGESTS = [
    ("desk", 101, "e4974cec95f2e0b5598000f829ad16f7da02029d3627b5a4611e6ad90102d9b8"),
    ("desk", 102, "9d7f04ccdb3d1c124afbc53dcb9b627d4657e54c0f82b98405c88af5c7f4ff38"),
    ("desk", 103, "16f6f5041759eec7cfebe53dfccc0c6365419c9495fbe16d3eb32be0f7e40f51"),
    ("wide", 101, "9b581c13fa692d9dbb44de6aa7344a69ff4042654bb08d89e069aab75eeb125a"),
    ("wide", 102, "61f41405fd342e19f6af0c086c4752e41b5fbce29688cb9f9c6f3f45884e79bd"),
    ("wide", 103, "a4c460b0c71a42dc5c2187d8c48bb6675c1f58fdf6123063a79eb5e6edfbea00"),
    ("bulk", 101, "3c63edd6cec3a9db8f04d5e1e163fa1d9ebbd43a25736ac7ed65c1186e087f36"),
    ("bulk", 102, "848b69b3564623d9c12d65cb12b9a15a58bcbdd988b9351b0299cde50a42a22e"),
    ("bulk", 103, "c9a26743adf7a5e2b9ac02aa70fb321b22609d44ecf6ea37ccae41657b14b269"),
]


class TestReplication:
    def cfg(self, style, **kw):
        return UniverseConfig(
            n_sources=8,
            n_distinct=80,
            total_tuples=240,
            overlap=ReplicationModel(style=style, mean_depth=3.0, max_depth=6, **kw),
        )

    def test_determinism(self):
        for style in ("uniform", "chained"):
            a = generate(self.cfg(style), 11)
            b = generate(self.cfg(style), 11)
            assert a.truth == b.truth
            assert a.sources == b.sources
            c = generate(self.cfg(style), 12)
            assert c.truth != a.truth

    def test_total_tuples_exact(self):
        for style in ("uniform", "chained"):
            probe = ScopedProbe(generate(self.cfg(style), 5), SCOPE_ALL)
            assert sum(probe.cardinality(s) for s in range(8)) == 240

    def test_cells_sum_to_distinct(self):
        u = generate(self.cfg("chained"), 5)
        assert sum(u.truth.cells(SCOPE_ALL).values()) == u.truth.distinct_in_scope(SCOPE_ALL)

    def test_constant_depth_one_is_pairwise_disjoint(self):
        config = UniverseConfig(
            n_sources=6,
            n_distinct=60,
            total_tuples=60,
            overlap=ReplicationModel(style="uniform", mean_depth=1.0, max_depth=1),
        )
        u = generate(config, 3)
        cells = u.truth.cells(SCOPE_ALL)
        assert all(bin(m).count("1") == 1 for m in cells)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.one_of(st.integers(0, 5), st.floats(0.0, 1e6), st.floats(1e-300, 1e-290)),
            min_size=1,
            max_size=12,
        ).filter(lambda w: sum(w) > 0),
        st.integers(0, 2**32 - 1),
    )
    def test_weighted_draw_is_choices(self, weights, seed):
        # The same picks from the same ``random()`` calls: generated
        # universes must not move with the way a draw is made.
        population = range(100, 100 + len(weights))
        ours, theirs = random.Random(seed), random.Random(seed)
        draw = _weighted_draw(population, weights, ours)
        assert [draw() for _ in range(40)] == [
            theirs.choices(population, weights)[0] for _ in range(40)
        ]
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize(
        "name, seed, digest", RECORDED_DIGESTS, ids=[f"{n}-{s}" for n, s, _ in RECORDED_DIGESTS]
    )
    def test_universes_match_recorded_digests(self, name, seed, digest):
        # Recorded before a universe kept one int per distinct mask and
        # per tuple id; sharing them must not change it, down to the
        # iteration order of its focus set.
        u = generate(BENCH_UNIVERSES[name], seed)
        assert hashlib.sha256(repr(u).encode()).hexdigest() == digest
        if name == "bulk":
            membership = u.truth.membership
            assert len({id(m) for m in membership}) == len(set(membership))
            ints = {id(t) for src in u.sources for t in src.tuples}
            assert len(ints | {id(t) for t in u.truth.focus}) == u.truth.n_distinct

    def test_focus_partition(self):
        u = generate(self.cfg("chained", split_skew=0.3), 7)
        for s in range(8):
            total = ScopedProbe(u, SCOPE_ALL).cardinality(s)
            focus = ScopedProbe(u, SCOPE_FOCUS).cardinality(s)
            other = sum(
                1 for t in u.sources[s].tuples if t not in u.truth.focus
            )
            assert focus + other == total


class TestScopedView:
    """Streams, counting queries and ground truth read one table per scope."""

    def universe(self, style):
        config = UniverseConfig(
            n_sources=8,
            n_distinct=80,
            total_tuples=240,
            overlap=ReplicationModel(style=style, mean_depth=3.0, max_depth=6, split_skew=0.3),
        )
        return generate(config, 7)

    @pytest.mark.parametrize("style", ["chained", "uniform"])
    @pytest.mark.parametrize("scope", [SCOPE_ALL, SCOPE_FOCUS])
    def test_readers_agree(self, style, scope):
        u = self.universe(style)
        truth = u.truth

        def in_scope(tid):
            return scope == SCOPE_ALL or tid in truth.focus

        probe = ScopedProbe(u, scope)
        sampled = ScopedProbe(u, scope, sample_rate=1.0)
        for s in range(u.n_sources):
            brute = sum(1 for t, m in enumerate(truth.membership) if (m >> s) & 1 and in_scope(t))
            assert len(u.tuple_stream(s, scope)) == probe.cardinality(s) == brute
            assert sampled.cardinality(s) == probe.cardinality(s)
        cells = truth.cells(scope)
        for mask, count in cells.items():
            brute = sum(1 for t, m in enumerate(truth.membership) if m == mask and in_scope(t))
            assert count == probe.cell_count(mask) == sampled.cell_count(mask) == brute
        assert sum(cells.values()) == truth.distinct_in_scope(scope)

    @pytest.mark.parametrize("scope", [SCOPE_ALL, SCOPE_FOCUS])
    def test_returned_cells_are_a_copy(self, scope):
        u = self.universe("chained")
        before = dict(u.truth.cells(scope))
        got = u.truth.cells(scope)
        got.clear()
        got[0b1] = 10**6
        assert u.truth.cells(scope) == before

    def test_streams_keep_source_order(self):
        u = self.universe("uniform")
        for src in u.sources:
            assert u.tuple_stream(src.id, SCOPE_ALL) is src.tuples
            focus = tuple(t for t in src.tuples if t in u.truth.focus)
            assert u.tuple_stream(src.id, SCOPE_FOCUS) == focus


class TestLatencySemantics:
    def one_source_universe(self, n_tuples, ta, tr):
        config = UniverseConfig(
            n_sources=1,
            n_distinct=n_tuples,
            total_tuples=n_tuples,
            overlap=VennModel.from_mapping({0b1: n_tuples}),
            access_override=(ta,),
            per_tuple_override=(tr,),
            query_split=1.0,
        )
        return generate(config, 1)

    def test_scan_completes_at_access_plus_transfer(self):
        # 1000 tuples in 850 ms total: access picks up the remainder.
        tr = 0.5
        ta = 850.0 - 1000 * tr
        u = self.one_source_universe(1000, ta, tr)
        init = u.truth_snapshot(SCOPE_ALL)
        result = run_query("max_tuples", QuerySpec(SCOPE_FOCUS, 1000), u, init, RunConfig())
        assert result.simulated_time_ms == pytest.approx(850.0)

    def test_zero_matching_tuples_completes_at_access(self):
        u = self.one_source_universe(10, 7.0, 1.0)
        u = generate(
            UniverseConfig(
                n_sources=1,
                n_distinct=10,
                total_tuples=10,
                overlap=VennModel.from_mapping({0b1: 10}),
                access_override=(7.0,),
                per_tuple_override=(1.0,),
                query_split=1e-9,
            ),
            99,
        )
        if u.truth.distinct_in_scope(SCOPE_FOCUS) != 0:
            pytest.skip("seed produced a focus tuple")
        init = u.truth_snapshot(SCOPE_ALL)
        result = run_query("max_tuples", QuerySpec(SCOPE_FOCUS, 1), u, init, RunConfig())
        assert result.shortfall
        assert result.simulated_time_ms == pytest.approx(7.0)

    def test_early_cancellation_charges_transferred_tuples_only(self):
        u = self.one_source_universe(100, 4.0, 2.0)
        init = u.truth_snapshot(SCOPE_ALL)
        result = run_query("max_tuples", QuerySpec(SCOPE_FOCUS, 30), u, init, RunConfig())
        assert result.simulated_time_ms == pytest.approx(4.0 + 30 * 2.0)
        assert result.tuples_retrieved == 30

    def test_unavailable_source_fails_after_access(self):
        u = replace(self.one_source_universe(10, 3.0, 1.0), unavailable=frozenset([0]))
        with pytest.raises(SourceUnavailable):
            u.tuple_stream(0, SCOPE_ALL)
        init = snapshot_from_cells((3.0,), (1.0,), {0b1: 10})
        result = run_query("max_tuples", QuerySpec(SCOPE_FOCUS, 5), u, init, RunConfig())
        assert result.shortfall
        assert result.simulated_time_ms == pytest.approx(3.0)


class TestSampledProbe:
    def test_counts_shrink_and_are_deterministic(self):
        config = UniverseConfig(
            n_sources=5,
            n_distinct=200,
            total_tuples=600,
            overlap=ReplicationModel(style="uniform", mean_depth=3.0, max_depth=5),
        )
        u = generate(config, 21)
        full = ScopedProbe(u, SCOPE_ALL)
        half = ScopedProbe(u, SCOPE_ALL, sample_rate=0.5, sample_seed=21)
        again = ScopedProbe(u, SCOPE_ALL, sample_rate=0.5, sample_seed=21)
        for s in range(5):
            assert half.cardinality(s) * 0.5 <= full.cardinality(s)
            assert half.cardinality(s) == again.cardinality(s)

    def test_bad_rate_rejected(self):
        u = demo_universe()
        with pytest.raises(ValueError):
            ScopedProbe(u, SCOPE_ALL, sample_rate=0.0)
