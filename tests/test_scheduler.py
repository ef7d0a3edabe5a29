"""Event-driven execution: determinism, pinning, termination, threading."""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched.cost import QuerySpec
from querysched.detection import DETECTION_QUERY_MS, initial_detection, prior_query_snapshot
from querysched.grid import desk_universe_config, grid_from_json, offline_stats
from querysched.permutation import BASELINE_ALGOS, TABLE_ALGO_ORDER, baseline_order
from querysched.scheduler import RunConfig, _Planner, run_query
from querysched.simulator import (
    SCOPE_ALL,
    SCOPE_FOCUS,
    ReplicationModel,
    ScopedProbe,
    UniverseConfig,
    demo_universe,
    generate,
)


def demo_setup(split=1.0, seed=7):
    u = demo_universe(seed=seed, query_split=split)
    init = initial_detection(ScopedProbe(u, SCOPE_ALL), 0.0).snapshot
    return u, init


def desk_setup(seed=101):
    u = generate(desk_universe_config(), seed)
    stats = offline_stats(u, RunConfig())
    return u, stats.snapshot


def desk_outage_setup():
    """Desk universe whose largest focus source goes down after detection.

    The offline statistics still count source 11's tuples, so strategies
    that trust them dispatch it and find it unavailable.
    """
    u, init = desk_setup()
    return replace(u, unavailable=frozenset({11})), init


#: Every strategy with one and with three query threads; the one-thread
#: cases keep the bare algorithm name as their id.
ALGOS_BY_THREADS = [pytest.param(a, 1, id=a) for a in TABLE_ALGO_ORDER] + [
    pytest.param(a, 3, id=f"{a}-threads3") for a in TABLE_ALGO_ORDER
]


class TestReferenceRuns:
    def test_full_knowledge_reference_time(self):
        u, init = demo_setup()
        result = run_query("full_knowledge", QuerySpec(SCOPE_FOCUS, 125), u, init, RunConfig())
        assert result.simulated_time_ms == pytest.approx(137.5)
        assert [t.source for t in result.per_source_trace] == [1]
        assert result.distinct_tuples == 125
        assert not result.shortfall

    def test_max_residual_reference_dispatch_order(self):
        u, init = demo_setup()
        result = run_query("max_residual", QuerySpec(SCOPE_FOCUS, 200), u, init, RunConfig())
        assert [t.source for t in result.per_source_trace] == [1, 2, 0]
        assert result.distinct_tuples == 200

    def test_online_and_sequential_same_final_head(self):
        u, init = demo_setup()
        for algo in ("online", "sequential"):
            result = run_query(algo, QuerySpec(SCOPE_FOCUS, 125), u, init, RunConfig())
            assert result.per_source_trace[0].source == 1
            assert result.distinct_tuples == 125

    def test_sequential_charges_planner_time(self):
        u, init = desk_setup()
        k = 200
        cfg = RunConfig()
        seqr = run_query("sequential", QuerySpec(SCOPE_FOCUS, k), u, init, cfg)
        onl = run_query("online", QuerySpec(SCOPE_FOCUS, k), u, init, cfg)
        assert seqr.planner_time_ms > 0
        assert onl.planner_time_ms == 0.0
        # The sequential strategy starts retrieving only after the sweep;
        # the online one at most waits out one in-flight counting query.
        assert seqr.per_source_trace[0].dispatch_ms >= seqr.planner_time_ms - 1e-9
        assert onl.per_source_trace[0].dispatch_ms <= (
            DETECTION_QUERY_MS * cfg.detection_overhead + 1e-9
        )


class TestInvariants:
    @pytest.mark.parametrize("algo, threads", ALGOS_BY_THREADS)
    def test_no_source_dispatched_twice(self, algo, threads):
        u, init = desk_outage_setup()
        cfg = RunConfig(query_threads=threads)
        result = run_query(algo, QuerySpec(SCOPE_FOCUS, 250), u, init, cfg, seed=5)
        sources = [t.source for t in result.per_source_trace]
        assert len(sources) == len(set(sources))

    @pytest.mark.parametrize("algo", TABLE_ALGO_ORDER)
    def test_distinct_reaches_target_regardless_of_algorithm(self, algo):
        u, init = demo_setup()
        result = run_query(algo, QuerySpec(SCOPE_FOCUS, 180), u, init, RunConfig(), seed=9)
        assert result.distinct_tuples == 180
        assert not result.shortfall

    @pytest.mark.parametrize("algo", ["online", "max_tuples", "random"])
    def test_shortfall_scans_whole_universe(self, algo):
        u, init = demo_setup()
        result = run_query(algo, QuerySpec(SCOPE_FOCUS, 500), u, init, RunConfig(), seed=2)
        assert result.shortfall
        assert result.distinct_tuples == 200  # everything there is
        assert sorted(t.source for t in result.per_source_trace) == [0, 1, 2]
        # Full-universe scan time, plus at most a little counting-query
        # contention for the strategies that probe while retrieving.
        assert 285.0 - 1e-6 <= result.simulated_time_ms <= 285.0 + 15.0

    def test_deterministic_replay(self):
        u, init = desk_setup()
        q = QuerySpec(SCOPE_FOCUS, 260)
        for algo in ("online", "sequential", "full_knowledge", "min_residual_cost", "random"):
            a = run_query(algo, q, u, init, RunConfig(), seed=3)
            b = run_query(algo, q, u, init, RunConfig(), seed=3)
            assert a == b

    def test_trace_times_are_ordered(self):
        u, init = desk_setup()
        result = run_query("online", QuerySpec(SCOPE_FOCUS, 260), u, init, RunConfig())
        for t in result.per_source_trace:
            assert t.arrival_ms >= t.dispatch_ms
        dispatches = [t.dispatch_ms for t in sorted(result.per_source_trace, key=lambda x: x.dispatch_ms)]
        assert dispatches == sorted(dispatches)

    @pytest.mark.parametrize("algo, threads", ALGOS_BY_THREADS)
    def test_tuples_accounting(self, algo, threads):
        u, init = desk_outage_setup()
        cfg = RunConfig(query_threads=threads)
        result = run_query(algo, QuerySpec(SCOPE_FOCUS, 260), u, init, cfg, seed=5)
        trace_new = sum(t.new_tuples for t in result.per_source_trace)
        trace_dup = sum(t.duplicate_tuples for t in result.per_source_trace)
        assert trace_new == result.distinct_tuples == 260
        assert trace_new + trace_dup == result.tuples_retrieved


class TestRunProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_run_accounts_for_its_tuples(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        distinct = data.draw(st.integers(20, 80), label="distinct")
        max_depth = data.draw(st.integers(1, n), label="max_depth")
        mean_depth = data.draw(st.floats(1.0, max_depth), label="mean_depth")
        latency = {}
        if data.draw(st.booleans(), label="zero_latency"):
            latency = {"access_ms": (0.0, 0.0), "per_tuple_ms": (0.0, 0.0)}
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
            **latency,
        )
        u = generate(config, data.draw(st.integers(0, 1000), label="seed"))
        init = initial_detection(ScopedProbe(u, SCOPE_ALL)).snapshot
        down = data.draw(st.sets(st.integers(0, n - 1)), label="down")
        u = replace(u, unavailable=frozenset(down))
        focus = u.truth.distinct_in_scope(SCOPE_FOCUS)
        k = data.draw(st.integers(1, max(1, int(1.2 * focus))), label="k")
        algo = data.draw(st.sampled_from(TABLE_ALGO_ORDER), label="algo")
        cfg = RunConfig(query_threads=data.draw(st.integers(1, 3), label="threads"))

        plans = []
        current = _Planner.current

        def record(planner, stats, version, dispatched):
            plan, work = current(planner, stats, version, dispatched)
            plans.append((plan, dispatched))
            return plan, work

        with mock.patch.object(_Planner, "current", record):
            result = run_query(algo, QuerySpec(SCOPE_FOCUS, k), u, init, cfg, seed=7)
        # Every plan extends the prefix already dispatched, so no pinned
        # prefix ever changes.
        for plan, dispatched in plans:
            assert plan.order[: len(dispatched)] == dispatched
        for (earlier, _), (later, _) in zip(plans, plans[1:]):
            assert later.order[: earlier.pinned] == earlier.order[: earlier.pinned]
        sources = [t.source for t in result.per_source_trace]
        assert len(sources) == len(set(sources))
        new = sum(t.new_tuples for t in result.per_source_trace)
        dup = sum(t.duplicate_tuples for t in result.per_source_trace)
        assert result.tuples_retrieved == new + dup
        assert result.distinct_tuples == new
        assert result.shortfall == (result.distinct_tuples < k)
        again = run_query(algo, QuerySpec(SCOPE_FOCUS, k), u, init, cfg, seed=7)
        assert again.to_json() == result.to_json()


class TestRunConfig:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: RunConfig(detection_overhead=-1.0), "detection_overhead"),
            (lambda: RunConfig(planner_unit_ms=-1.0), "planner_unit_ms"),
            (lambda: RunConfig(detection_batch=0), "detection_batch"),
            (lambda: grid_from_json({"run": {"detection_overhead": -1.0}}), "detection_overhead"),
        ],
        ids=["detection_overhead", "planner_unit_ms", "detection_batch", "grid_json"],
    )
    def test_work_scheduled_in_the_past_rejected(self, build, field):
        # A negative charge would start counting queries or dispatches
        # before time zero; a zero batch used to be run as one.
        with pytest.raises(ValueError, match=field):
            build()


class TestThreads:
    def test_two_threads_overlap_in_time(self):
        u, init = desk_setup()
        result = run_query(
            "sequential", QuerySpec(SCOPE_FOCUS, 260), u, init, RunConfig(query_threads=2)
        )
        by_dispatch = sorted(result.per_source_trace, key=lambda t: t.dispatch_ms)
        t0, t1 = by_dispatch[0], by_dispatch[1]
        assert t1.dispatch_ms < t0.arrival_ms  # both in flight at once
        assert result.distinct_tuples == 260

    def test_more_threads_never_slower_on_average(self):
        total = {1: 0.0, 3: 0.0}
        for seed in range(101, 106):
            u = generate(desk_universe_config(), seed)
            init = offline_stats(u, RunConfig()).snapshot
            for threads in (1, 3):
                r = run_query(
                    "online",
                    QuerySpec(SCOPE_FOCUS, 260),
                    u,
                    init,
                    RunConfig(query_threads=threads),
                    seed=seed,
                )
                total[threads] += r.simulated_time_ms
        assert total[3] < total[1]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_baselines_dispatch_in_their_own_order(self, threads):
        # A thread that meets an empty or unavailable source redispatches
        # at its contact time, after threads that free up earlier.
        cfg = RunConfig(query_threads=threads)
        for seed in (101, 102):
            u, init = desk_setup(seed)
            prior = prior_query_snapshot(init)
            for algo in BASELINE_ALGOS:
                order = baseline_order(algo, prior, seed=seed)
                result = run_query(algo, QuerySpec(SCOPE_FOCUS, 260), u, init, cfg, seed=seed)
                dispatch_ms = {t.source: t.dispatch_ms for t in result.per_source_trace}
                head = order[: len(dispatch_ms)]
                assert set(head) == set(dispatch_ms), (algo, seed)
                times = [dispatch_ms[s] for s in head]
                assert times == sorted(times), (algo, seed)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_fewer_than_one_thread_rejected(self, threads):
        # With no thread nothing is dispatched: the run would report a
        # silent shortfall rather than fail.
        with pytest.raises(ValueError, match="query_threads"):
            RunConfig(query_threads=threads)
        with pytest.raises(ValueError, match="query_threads"):
            replace(RunConfig(), query_threads=threads)

    def test_early_stop_halts_other_threads(self):
        u, init = demo_setup()
        result = run_query(
            "max_tuples", QuerySpec(SCOPE_FOCUS, 100), u, init, RunConfig(query_threads=3)
        )
        assert result.distinct_tuples == 100
        end = result.simulated_time_ms
        for t in result.per_source_trace:
            assert t.arrival_ms <= end + 1e-9


class TestPlannerPublication:
    def test_pinned_prefix_is_prefix_of_every_later_version(self):
        from querysched.scheduler import _Planner

        u, init = desk_setup()
        planner = _Planner(200, RunConfig())
        dispatched: list[int] = []
        published = []
        for _ in range(6):
            state, _work = planner.current(init, 1, tuple(dispatched))
            published.append(state)
            assert state.order[: len(dispatched)] == tuple(dispatched)
            dispatched.append(state.order[len(dispatched)])
        for earlier, later in zip(published, published[1:]):
            assert later.order[: earlier.pinned] == earlier.order[: earlier.pinned]


class TestPlannerCharging:
    def test_json_trace_roundtrip(self):
        import json

        u, init = demo_setup()
        result = run_query("online", QuerySpec(SCOPE_FOCUS, 125), u, init, RunConfig())
        payload = json.loads(result.to_json())
        assert payload["algo"] == "online"
        assert payload["distinct_tuples"] == 125
        assert payload["trace"][0]["source"] == 1
