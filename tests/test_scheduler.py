"""Event-driven execution: determinism, pinning, termination, threading."""

import heapq
import json
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched import permutation, scheduler
from querysched.cost import QuerySpec
from querysched.detection import DETECTION_QUERY_MS, initial_detection, prior_query_snapshot
from querysched.grid import (
    desk_universe_config,
    grid_from_json,
    offline_stats,
    run_condition,
    scaled_universe,
)
from querysched.permutation import BASELINE_ALGOS, TABLE_ALGO_ORDER, baseline_order, refine_order
from querysched.scheduler import (
    PLANNER_OP_MS,
    RunConfig,
    RunResult,
    SourceTrace,
    SourceTraces,
    _Planner,
    run_query,
)
from querysched.simulator import (
    SCOPE_ALL,
    SCOPE_FOCUS,
    ReplicationModel,
    ScopedProbe,
    SourceUnavailable,
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


# -- oracle: the event loop with one heap event per tuple arrival ---------
#
# The scheduler consumes arrivals a window at a time.  This copy of the
# loop it replaced pushes and pops every arrival, so a run through it is
# the reference the windowed loop must reproduce exactly.


@dataclass
class _TupleThread:
    source: int = -1
    stream: tuple = ()
    cursor: int = 0
    dispatch_ms: float = 0.0
    new_tuples: int = 0
    dup_tuples: int = 0
    last_event_ms: float = 0.0
    done: bool = False


class _TupleExecutor:
    def __init__(self, query, universe, config):
        self.query = query
        self.universe = universe
        self.scope = query.predicate_id
        self.threads = [_TupleThread() for _ in range(config.query_threads)]
        self.dispatched = []
        self.seen = set()
        self.distinct = 0
        self.transferred = 0
        self.traces = []
        self.end_ms = 0.0
        self.reached_target = False

    def scanning(self, source):
        return any(t.source == source for t in self.threads)

    def dispatch(self, tid, source, now_ms, probe_busy_until):
        state = self.threads[tid]
        self.dispatched.append(source)
        start_ms = max(now_ms, probe_busy_until.get(source, 0.0))
        state.source, state.cursor, state.dispatch_ms = source, 0, start_ms
        state.new_tuples = state.dup_tuples = 0
        src = self.universe.sources[source]
        try:
            state.stream = self.universe.tuple_stream(source, self.scope)
        except SourceUnavailable:
            state.stream = ()
        contact_done = start_ms + src.access_ms
        state.last_event_ms = contact_done
        if not state.stream:
            self.finish(tid, contact_done)
            return contact_done
        return contact_done + src.per_tuple_ms

    def on_tuple(self, tid, now_ms):
        state = self.threads[tid]
        tuple_id = state.stream[state.cursor]
        state.cursor += 1
        state.last_event_ms = now_ms
        self.transferred += 1
        if tuple_id in self.seen:
            state.dup_tuples += 1
        else:
            self.seen.add(tuple_id)
            state.new_tuples += 1
            self.distinct += 1
            if self.distinct >= self.query.k:
                self.reached_target = True
                self.end_ms = now_ms
                self.finish(tid, now_ms)
                for other, st in enumerate(self.threads):
                    if other != tid and st.source >= 0:
                        self.finish(other, min(st.last_event_ms, now_ms))
                return True
        if state.cursor >= len(state.stream):
            self.finish(tid, now_ms)
            return True
        return False

    def finish(self, tid, arrival_ms):
        state = self.threads[tid]
        self.traces.append(
            SourceTrace(state.source, state.dispatch_ms, arrival_ms, state.new_tuples, state.dup_tuples)
        )
        state.source, state.stream, state.last_event_ms = -1, (), arrival_ms


def _per_tuple_run(algo, query, universe, config, planner, stats, detection=None, *,
                   charge_first_sweep=False):
    stats_versions, detections, planner_charge = 1, 0, 0.0
    if charge_first_sweep:
        planner_charge = planner.sweep_work(stats) * PLANNER_OP_MS
    executor = _TupleExecutor(query, universe, config)
    events = []
    seq = 0

    def push(time_ms, prio, tid):
        nonlocal seq
        heapq.heappush(events, (time_ms, prio, tid, seq))
        seq += 1

    probe_busy_until = {}
    pending = None
    sc_in_flight = False

    def pull_next_detection():
        nonlocal pending
        pending = None if detection is None else next(detection, None)

    def try_start_detection(now_ms):
        nonlocal sc_in_flight
        if sc_in_flight or pending is None or executor.reached_target:
            return
        cost, _snapshot, target = pending
        if target >= 0 and executor.scanning(target):
            return
        sc_in_flight = True
        if target >= 0:
            probe_busy_until[target] = now_ms + cost
        push(now_ms + cost, scheduler._PRIO_STATS, -1)

    pull_next_detection()
    try_start_detection(0.0)
    for tid in range(config.query_threads):
        push(planner_charge, scheduler._PRIO_QUERY, tid)

    while events and not executor.reached_target:
        time_ms, prio, tid, _ = heapq.heappop(events)
        if prio == scheduler._PRIO_STATS:
            sc_in_flight = False
            if pending is not None:
                stats = pending[1]
                stats_versions += 1
                detections += 1
            pull_next_detection()
            try_start_detection(time_ms)
            continue
        state = executor.threads[tid]
        if state.source < 0:
            source = planner.next(stats, stats_versions, tuple(executor.dispatched))
            if source is None:
                state.done = True
                state.last_event_ms = time_ms
                if all(t.done for t in executor.threads):
                    break
            else:
                push(executor.dispatch(tid, source, time_ms, probe_busy_until),
                     scheduler._PRIO_QUERY, tid)
        else:
            source = state.source
            finished = executor.on_tuple(tid, time_ms)
            if executor.reached_target:
                break
            if finished:
                try_start_detection(time_ms)
                push(time_ms, scheduler._PRIO_QUERY, tid)
            else:
                push(time_ms + universe.sources[source].per_tuple_ms, scheduler._PRIO_QUERY, tid)

    if executor.reached_target:
        total = executor.end_ms
    else:
        total = max((t.last_event_ms for t in executor.threads), default=0.0)
    return RunResult(
        algo=algo,
        k=query.k,
        tuples_retrieved=executor.transferred,
        distinct_tuples=executor.distinct,
        simulated_time_ms=total,
        planner_time_ms=planner_charge,
        shortfall=not executor.reached_target,
        per_source_trace=tuple(executor.traces),
        detections=detections,
        stats_versions=stats_versions,
        perm_versions=max(planner.versions, 1),
    )


def per_tuple_reference(*args, **kwargs) -> RunResult:
    """``run_query`` with the per-tuple event loop in place of the windowed one."""
    with mock.patch.object(scheduler, "_run", _per_tuple_run):
        return run_query(*args, **kwargs)


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
        # Zero latency puts every arrival at one instant; one shared
        # per-tuple latency with no access time makes arrivals of
        # different threads tie.
        latency = {
            "drawn": {},
            "zero": {"access_ms": (0.0, 0.0), "per_tuple_ms": (0.0, 0.0)},
            "shared": {"access_ms": (0.0, 0.0), "per_tuple_ms": (0.25, 0.25)},
        }[data.draw(st.sampled_from(["drawn", "zero", "shared"]), label="latency")]
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
        cfg = RunConfig(
            query_threads=data.draw(st.integers(1, 3), label="threads"),
            # With no overhead a counting query completes at the instant
            # it starts, which may be an arrival's.
            detection_overhead=data.draw(st.sampled_from([0.0, 1.0]), label="overhead"),
        )

        plans = []
        planned = _Planner.next

        def record(planner, stats, version, dispatched):
            source = planned(planner, stats, version, dispatched)
            plans.append((source, dispatched))
            return source

        with mock.patch.object(_Planner, "next", record):
            result = run_query(algo, QuerySpec(SCOPE_FOCUS, k), u, init, cfg, seed=7)
        # The planner never names a dispatched source, and runs out only
        # once every source is dispatched.
        for source, dispatched in plans:
            if source is None:
                assert sorted(dispatched) == list(range(n))
            else:
                assert source not in dispatched
        # Each plan extends the prefix the last one saw, so no pinned
        # prefix ever changes.
        for (_, earlier), (_, later) in zip(plans, plans[1:]):
            assert later[: len(earlier)] == earlier
        sources = [t.source for t in result.per_source_trace]
        assert len(sources) == len(set(sources))
        new = sum(t.new_tuples for t in result.per_source_trace)
        dup = sum(t.duplicate_tuples for t in result.per_source_trace)
        assert result.tuples_retrieved == new + dup
        assert result.distinct_tuples == new
        assert result.shortfall == (result.distinct_tuples < k)
        again = run_query(algo, QuerySpec(SCOPE_FOCUS, k), u, init, cfg, seed=7)
        assert again.to_json() == result.to_json()
        reference = per_tuple_reference(algo, QuerySpec(SCOPE_FOCUS, k), u, init, cfg, seed=7)
        assert result.to_json() == reference.to_json()

    @pytest.mark.parametrize("overhead", [0.0, 1.0])
    @pytest.mark.parametrize("algo", ["max_tuples", "random", "online", "sequential"])
    def test_equal_times_follow_the_heap_order(self, algo, overhead):
        # Every tuple sits in every source, and one shared latency with no
        # access time makes the threads' arrivals tie: the same tuple can
        # reach two threads at one instant, and with no overhead a
        # counting query completes at an arrival's instant.
        config = UniverseConfig(
            n_sources=3,
            n_distinct=12,
            total_tuples=36,
            overlap=ReplicationModel(mean_depth=3.0, max_depth=3, chains=1),
            access_ms=(0.0, 0.0),
            per_tuple_ms=(0.25, 0.25),
            query_split=1.0,
        )
        for seed in range(6):
            u = generate(config, seed)
            init = initial_detection(ScopedProbe(u, SCOPE_ALL)).snapshot
            for threads in (2, 3):
                cfg = RunConfig(query_threads=threads, detection_overhead=overhead)
                for k in range(1, 13):
                    query = QuerySpec(SCOPE_FOCUS, k)
                    reference = per_tuple_reference(algo, query, u, init, cfg, seed=seed)
                    result = run_query(algo, query, u, init, cfg, seed=seed)
                    assert result.to_json() == reference.to_json(), (seed, threads, k)

    @pytest.mark.parametrize("algo", TABLE_ALGO_ORDER)
    def test_a_window_leaves_no_first_arrival_behind(self, algo):
        # Each window of several threads starts from first-arrival times
        # at inf, so it never reads an earlier window's arrivals.  (Those
        # tuples are all seen, so the outputs alone cannot show this.)
        windows = 0
        first_arrivals = scheduler._Executor._first_arrivals

        def checked(executor, parts):
            nonlocal windows
            windows += 1
            fresh = first_arrivals(executor, parts)
            assert np.isinf(executor.first).all()
            return fresh

        u, init = desk_setup()
        with mock.patch.object(scheduler._Executor, "_first_arrivals", checked):
            run_query(algo, QuerySpec(SCOPE_FOCUS, 260), u, init, RunConfig(query_threads=3))
        assert windows > 0

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("algo", TABLE_ALGO_ORDER)
    def test_k_on_the_last_arrival_of_a_window(self, algo, threads):
        # Disjoint sources make every arrival new, so the k-th arrival
        # ends the run; over every k, some land on the last arrival of a
        # source, which is where a window closes.
        config = UniverseConfig(
            n_sources=4,
            n_distinct=30,
            total_tuples=30,
            overlap=ReplicationModel(mean_depth=1.0, max_depth=1, chains=3),
            query_split=1.0,
        )
        u = generate(config, 4)
        init = initial_detection(ScopedProbe(u, SCOPE_ALL)).snapshot
        cfg = RunConfig(query_threads=threads)
        on_stream_end = 0
        for k in range(1, u.truth.distinct_in_scope(SCOPE_FOCUS) + 1):
            query = QuerySpec(SCOPE_FOCUS, k)
            reference = per_tuple_reference(algo, query, u, init, cfg, seed=7)
            assert run_query(algo, query, u, init, cfg, seed=7).to_json() == reference.to_json()
            on_stream_end += any(
                t.arrival_ms == reference.simulated_time_ms
                and t.new_tuples == len(u.tuple_stream(t.source, SCOPE_FOCUS)) > 0
                for t in reference.per_source_trace
            )
        assert on_stream_end >= 2


#: One JSON line per run: ``bulk_run_lines()`` on the bulk universe.
GOLDEN_BULK_RUNS = Path(__file__).parent / "data" / "golden_bulk_runs.jsonl"


def bulk_run_lines() -> list[str]:
    """``to_json()`` of every baseline and ``full_knowledge`` on the bulk universe.

    The universe is perfbench's ``bulk-scan`` one at seed 101 (20,000
    distinct tuples, 100,000 in all); the runs cover one and four query
    threads at k fractions 0.2 and 0.8.
    """
    u = generate(desk_universe_config(n_distinct=20_000, total_tuples=100_000), 101)
    init = offline_stats(u, RunConfig()).snapshot
    in_scope = u.truth.distinct_in_scope(SCOPE_FOCUS)
    lines = []
    for threads in (1, 4):
        cfg = RunConfig(query_threads=threads)
        for k_fraction in (0.2, 0.8):
            query = QuerySpec(SCOPE_FOCUS, max(1, round(k_fraction * in_scope)))
            for algo in BASELINE_ALGOS + ("full_knowledge",):
                lines.append(run_query(algo, query, u, init, cfg, seed=101).to_json())
    return lines


class TestGoldenBulkRuns:
    def test_bulk_runs_match_golden_json(self):
        text = "".join(line + "\n" for line in bulk_run_lines())
        assert text == GOLDEN_BULK_RUNS.read_text()

    def test_only_the_window_that_reaches_k_sorts(self):
        # A window of several threads finds each tuple's first arrival by
        # scatter; only the one that reaches k merges its arrivals.  Only
        # sorts inside a window count: the planner may sort too.
        sorts = []  # merged-order builds, one count per run
        in_window = []
        init, consume = scheduler._Executor.__init__, scheduler._Executor.consume_window
        argsort = np.argsort

        def new_run(executor, *args):
            sorts.append(0)
            init(executor, *args)

        def window(executor, *args):
            in_window.append(True)
            try:
                return consume(executor, *args)
            finally:
                in_window.pop()

        def counted(*args, **kwargs):
            if in_window:
                sorts[-1] += 1
            return argsort(*args, **kwargs)

        with (
            mock.patch.object(scheduler._Executor, "__init__", new_run),
            mock.patch.object(scheduler._Executor, "consume_window", window),
            mock.patch.object(scheduler.np, "argsort", counted),
            mock.patch.object(scheduler.np, "unique", side_effect=AssertionError("np.unique")),
        ):
            bulk_run_lines()
        assert max(sorts) == 1


#: One JSON line per run: ``adaptive_run_lines()`` on desk and 200-source universes.
GOLDEN_ADAPTIVE_RUNS = Path(__file__).parent / "data" / "golden_adaptive_runs.jsonl"


def adaptive_run_lines() -> list[str]:
    """``to_json()`` of ``online`` and ``sequential`` runs, which read query-level refreshes.

    Desk seed 101 at k fractions 0.2, 0.5 and 0.8, with one and four
    query threads; then the 200-source universe of the ``n_sources`` axis
    at seed 101 and k fraction 0.8.
    """
    desk = desk_universe_config()
    cases = [
        (desk, k_fraction, RunConfig(query_threads=threads))
        for threads in (1, 4)
        for k_fraction in (0.2, 0.5, 0.8)
    ]
    cases.append((scaled_universe(desk, 200), 0.8, RunConfig()))
    lines = []
    for ucfg, k_fraction, cfg in cases:
        u = generate(ucfg, 101)
        init = offline_stats(u, cfg).snapshot
        in_scope = u.truth.distinct_in_scope(SCOPE_FOCUS)
        query = QuerySpec(SCOPE_FOCUS, max(1, round(k_fraction * in_scope)))
        for algo in ("online", "sequential"):
            lines.append(run_query(algo, query, u, init, cfg, seed=101).to_json())
    return lines


class TestGoldenAdaptiveRuns:
    def test_adaptive_runs_match_golden_json(self):
        text = "".join(line + "\n" for line in adaptive_run_lines())
        assert text == GOLDEN_ADAPTIVE_RUNS.read_text()


class TestSourceTraces:
    TRACES = (
        SourceTrace(3, 0.0, 21.561105691883927, 0, 0),
        SourceTrace(1, 21.561105691883927, 849.4973738612003, 2591, 17),
    )

    def test_packed_traces_read_back_exactly(self):
        packed = SourceTraces(self.TRACES)
        assert len(packed) == 2
        assert tuple(packed) == self.TRACES
        assert packed[-1] == packed[1] == self.TRACES[1]
        assert packed[:1] == self.TRACES[:1]
        with pytest.raises(IndexError):
            packed[2]

    def test_equals_and_extends_like_a_tuple(self):
        packed = SourceTraces(self.TRACES)
        assert packed == self.TRACES and packed == SourceTraces(self.TRACES)
        assert packed != self.TRACES[:1]
        assert hash(packed) == hash(self.TRACES)
        extra = replace(self.TRACES[0], source=7)
        assert packed + (extra,) == self.TRACES + (extra,)


class TestRunConfig:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: RunConfig(detection_overhead=-1.0), "detection_overhead"),
            (lambda: grid_from_json({"run": {"detection_overhead": -1.0}}), "detection_overhead"),
            (lambda: RunConfig(prune_threshold=-0.1), "prune_threshold"),
            (lambda: grid_from_json({"run": {"prune_threshold": -0.1}}), "prune_threshold"),
            (
                lambda: grid_from_json(json.loads('{"run": {"prune_threshold": NaN}}')),
                "prune_threshold",
            ),
            (lambda: RunConfig(detection_overhead=float("inf")), "detection_overhead"),
            (
                lambda: grid_from_json(json.loads('{"run": {"detection_overhead": Infinity}}')),
                "detection_overhead",
            ),
            (
                lambda: grid_from_json(
                    json.loads('{"axes": {"detection_overhead": [1.0, Infinity]}}')
                ),
                "detection_overhead",
            ),
        ],
        ids=[
            "detection_overhead",
            "grid_json",
            "prune_threshold",
            "grid_json_threshold",
            "grid_json_nan_threshold",
            "infinite_detection_overhead",
            "grid_json_infinite_detection_overhead",
            "grid_json_infinite_overhead_axis",
        ],
    )
    def test_work_scheduled_in_the_past_rejected(self, build, field):
        # Every value below its field's least raises when the config is
        # built, before any run: a negative charge would start counting
        # queries before time zero, and a negative threshold is no share
        # at all.  An infinite charge keeps a probed source busy forever,
        # and JSON's Infinity reaches the config as one.
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize(
        "field",
        ["query_threads", "detection_overhead", "prune_threshold"],
    )
    def test_nan_rejected(self, field):
        # NaN compares false with every bound.  A NaN threshold would
        # prune nothing offline: every mask of every level admitted.
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: float("nan")})

    @pytest.mark.parametrize("value", [1.5, 2.9, float("inf")])
    @pytest.mark.parametrize("field", ["query_threads"])
    def test_fractional_count_rejected(self, field, value):
        # The thread count is a range bound, which would fail mid-run
        # with a TypeError that does not name the field.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            replace(RunConfig(), **{field: value})

    def test_integral_float_count_runs(self):
        u, init = desk_setup()
        k = u.truth.distinct_in_scope(SCOPE_FOCUS)
        query = QuerySpec(SCOPE_FOCUS, k)
        whole = run_query("online", query, u, init, RunConfig(query_threads=2))
        floats = RunConfig(query_threads=2.0)
        assert type(floats.query_threads) is int
        assert run_query("online", query, u, init, floats).to_json() == whole.to_json()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e308", "-0.5", "0"])
    def test_grid_json_bad_k_fraction_rejected(self, value):
        # NaN, the infinities and a share whose count of the universe's
        # tuples is infinite would fail mid-grid converting k to an int;
        # a share at or below zero would silently run with k = 1.
        with pytest.raises(ValueError, match="top level: k_fraction must be positive"):
            grid_from_json(json.loads(f'{{"k_fraction": {value}, "seeds": [101]}}'))
        with pytest.raises(ValueError, match="axes: k_fraction must be positive"):
            grid_from_json(json.loads(f'{{"axes": {{"k_fraction": [0.5, {value}]}}}}'))

    @pytest.mark.parametrize("value", [1.5, 1e300])
    def test_grid_k_fraction_above_one_runs_short(self, value):
        spec = grid_from_json({"axes": {"k_fraction": [value]}, "seeds": [101]})
        result = run_condition(spec, "k_fraction", value, "online", 101)
        assert result.shortfall and result.k > result.distinct_tuples

    def test_grid_json_empty_seeds_rejected(self):
        # Every condition's mean needs at least one run; with none the
        # grid would fail after its first condition without naming seeds.
        payload = {"seeds": [], "axes": {"k_fraction": [0.5]}, "algorithms": ["online"]}
        with pytest.raises(ValueError, match="top level: seeds must not be empty"):
            grid_from_json(payload)
        spec = grid_from_json(dict(payload, seeds=[101]))
        with pytest.raises(ValueError, match="top level: seeds must not be empty"):
            replace(spec, seeds=())

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("run", "query_threads", "1.5"),
            ("run", "query_threads", "NaN"),
            ("universe", "sources", "12.5"),
            ("universe", "distinct", "-Infinity"),
            ("universe.overlap", "max_depth", "3.5"),
        ],
    )
    def test_grid_json_non_integral_integer_rejected(self, section, key, value):
        # int() would truncate 1.5 to 1 and fail on NaN or an infinity
        # without naming the field.
        *outer, inner = section.split(".")
        body = f'{{"{inner}": {{"{key}": {value}}}}}'
        for name in reversed(outer):
            body = f'{{"{name}": {body}}}'
        with pytest.raises(ValueError, match=f"{section}: {key} must be an integer"):
            grid_from_json(json.loads(body))

    @pytest.mark.parametrize("axis", ["query_threads", "n_sources"])
    def test_grid_json_non_integral_axis_value_rejected(self, axis):
        with pytest.raises(ValueError, match=f"axes: {axis} must be an integer"):
            grid_from_json({"axes": {axis: [2.0, 2.5]}, "seeds": [101]})

    def test_grid_json_integral_floats_accepted(self):
        spec = grid_from_json(
            {
                "run": {"query_threads": 4.0},
                "universe": {"sources": 12.0, "overlap": {"chains": 8.0}},
                "seeds": [101.0],
            }
        )
        assert spec.run.query_threads == 4
        assert (spec.universe.n_sources, spec.universe.overlap.chains) == (12, 8)
        assert spec.seeds == (101,)
        assert all(
            type(v) is int
            for v in (spec.run.query_threads, spec.universe.n_sources, spec.seeds[0])
        )


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
        # A plan is the pinned prefix plus the source it names, so it
        # extends the prefix when that source is not already dispatched.
        u, init = desk_setup()
        planner = _Planner(200)
        dispatched: list[int] = []
        for _ in range(init.n_sources):
            source = planner.next(lambda: init, 1, tuple(dispatched))
            assert source is not None and source not in dispatched
            dispatched.append(source)
        assert planner.next(lambda: init, 1, tuple(dispatched)) is None
        assert planner.versions == init.n_sources + 1

    def test_fixed_order_is_taken_in_turn(self):
        u, init = desk_setup()
        order = baseline_order("max_tuples", init)
        planner = _Planner(200, order)
        for pinned in range(len(order) + 1):
            expected = order[pinned] if pinned < len(order) else None
            assert planner.next(lambda: init, 1 + pinned, order[:pinned]) == expected
        assert planner.versions == 1

    def test_a_plan_is_kept_until_its_inputs_move(self):
        u, init = desk_setup()
        planner = _Planner(200)
        first = planner.next(lambda: init, 1, ())
        # A kept plan reads no statistics.
        unread = mock.Mock(side_effect=AssertionError("read without a replan"))
        with mock.patch.object(scheduler, "next_source") as replan:
            assert planner.next(unread, 1, ()) == first
        replan.assert_not_called()
        unread.assert_not_called()
        assert planner.versions == 1
        planner.next(lambda: init, 2, ())
        planner.next(lambda: init, 2, (first,))
        assert planner.versions == 3

    def test_sequential_first_source_is_the_head_of_the_charged_sweep(self):
        u, init = desk_setup()
        prior = prior_query_snapshot(init)
        k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
        meter = permutation.WorkMeter()
        head = refine_order(k, prior, meter=meter).order[0]
        planner = _Planner(k)
        assert planner.sweep_work(lambda: prior) == meter.ops > 0
        # The charged sweep's plan is version 1, read by the first dispatch.
        assert planner.versions == 1
        assert planner.next(lambda: prior, 1, ()) == head
        assert planner.versions == 1
        # With counting queries slower than the charge, the first dispatch
        # still reads version 1.
        config = RunConfig(detection_overhead=100.0)
        result = run_query("sequential", QuerySpec(SCOPE_FOCUS, k), u, init, config)
        assert result.planner_time_ms == meter.ops * PLANNER_OP_MS
        assert result.per_source_trace[0].source == head

    def test_online_run_sweeps_only_the_hint_once_per_snapshot(self):
        # The detection hint sweeps the offline statistics once per
        # snapshot; every plan swaps at its first unpinned position only.
        u, _ = desk_setup()

        def detected():
            return initial_detection(ScopedProbe(u, SCOPE_ALL), RunConfig().prune_threshold).snapshot

        init = detected()
        k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
        sweeps, positions = [], []
        refine, improve = scheduler.refine_order, permutation.improve_position

        def counted_refine(k, snapshot, **kwargs):
            sweeps.append(snapshot)
            return refine(k, snapshot, **kwargs)

        def counted_improve(k, order, pos, snapshot, pinned, meter):
            if snapshot is not init:  # not the hint's sweep
                positions.append((pos, pinned))
            return improve(k, order, pos, snapshot, pinned, meter)

        query = QuerySpec(SCOPE_FOCUS, k)
        with mock.patch.object(scheduler, "refine_order", counted_refine), mock.patch.object(
            permutation, "improve_position", counted_improve
        ):
            runs = [run_query("online", query, u, init, RunConfig()) for _ in range(2)]
        assert len(sweeps) == 1 and sweeps[0] is init
        assert runs[0].perm_versions > 2
        assert positions and all(pos == pinned for pos, pinned in positions)
        # Runs sharing the hint equal runs over a freshly detected snapshot.
        for run in runs:
            assert run.to_json() == run_query("online", query, u, detected(), RunConfig()).to_json()
        # Sequential's charged sweep reads the query-level prior, not the
        # offline snapshot, whose hint it shares.
        sweeps.clear()
        with mock.patch.object(scheduler, "refine_order", counted_refine):
            run_query("sequential", query, u, init, RunConfig())
        assert len(sweeps) == 1 and sweeps[0] is not init


class TestPlannerCharging:
    def test_json_trace_roundtrip(self):
        import json

        u, init = demo_setup()
        result = run_query("online", QuerySpec(SCOPE_FOCUS, 125), u, init, RunConfig())
        payload = json.loads(result.to_json())
        assert payload["algo"] == "online"
        assert payload["distinct_tuples"] == 125
        assert payload["trace"][0]["source"] == 1
