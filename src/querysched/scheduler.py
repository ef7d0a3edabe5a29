"""Deterministic event-driven execution of a query over a universe.

One event loop runs every strategy.  Three logical workers take turns in
it.  The statistics worker applies each refreshed snapshot when its
counting query completes and bumps a plain version counter.  The planner
replans lazily whenever that version or the dispatched prefix has moved
since its last plan.  The query threads take the first undispatched
source of the current plan, pin every source they dispatch and
deduplicate arriving tuples against a shared seen-set.  Events are keyed
on (time, worker class, thread id), so a run is a pure function of its
inputs.  A baseline is the same loop with a fixed plan (its policy's
order, never revised) and no statistics worker.  Planner compute is free
on the simulated clock, except that the sequential strategy charges its
initial sweep at a configured per-operation rate before the first
dispatch.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from typing import Iterator

from .cost import PermState, QuerySpec
from .detection import (
    DEFAULT_PRUNE_THRESHOLD,
    DETECTION_QUERY_MS,
    online_detection_plan,
    prior_query_snapshot,
)
from .lattice import StatsSnapshot
from .permutation import (
    ALGO_FULL_KNOWLEDGE,
    ALGO_ONLINE,
    ALGO_SEQUENTIAL,
    BASELINE_ALGOS,
    DEFAULT_OVERLAP_FLOOR,
    WorkMeter,
    baseline_order,
    covered_total,
    greedy_by_rate,
    refine_order,
)
from .simulator import ScopedProbe, SourceUnavailable, Universe

_PRIO_STATS = 0
_PRIO_QUERY = 2


@dataclass(frozen=True)
class RunConfig:
    query_threads: int = 1
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD
    detection_overhead: float = 1.0
    detection_batch: int = 1
    planner_unit_ms: float = 0.01

    def __post_init__(self) -> None:
        # A negative time charge would schedule work before it was asked for.
        for name, least in (
            ("query_threads", 1),
            ("detection_batch", 1),
            ("detection_overhead", 0),
            ("planner_unit_ms", 0),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class SourceTrace:
    source: int
    dispatch_ms: float
    arrival_ms: float
    new_tuples: int
    duplicate_tuples: int


@dataclass(frozen=True)
class RunResult:
    algo: str
    k: int
    tuples_retrieved: int
    distinct_tuples: int
    simulated_time_ms: float
    planner_time_ms: float
    shortfall: bool
    per_source_trace: tuple[SourceTrace, ...]
    detections: int
    stats_versions: int
    perm_versions: int

    def to_json(self) -> str:
        payload = {
            "algo": self.algo,
            "k": self.k,
            "tuples_retrieved": self.tuples_retrieved,
            "distinct_tuples": self.distinct_tuples,
            "simulated_time_ms": round(self.simulated_time_ms, 6),
            "planner_time_ms": round(self.planner_time_ms, 6),
            "shortfall": self.shortfall,
            "detections": self.detections,
            "stats_versions": self.stats_versions,
            "perm_versions": self.perm_versions,
            "trace": [
                {
                    "source": t.source,
                    "dispatch_ms": round(t.dispatch_ms, 6),
                    "arrival_ms": round(t.arrival_ms, 6),
                    "new": t.new_tuples,
                    "dup": t.duplicate_tuples,
                }
                for t in self.per_source_trace
            ],
        }
        return json.dumps(payload, sort_keys=True)


@dataclass
class _ThreadState:
    source: int = -1
    stream: tuple[int, ...] = ()
    cursor: int = 0
    dispatch_ms: float = 0.0
    new_tuples: int = 0
    dup_tuples: int = 0
    last_event_ms: float = 0.0
    done: bool = False


class _Planner:
    """Holds the current plan and replans lazily when its inputs moved.

    A plan is stale once the statistics version or the length of the
    dispatched prefix differs from the pair it was built from.  Built with
    a ``fixed`` order, as for the baselines, the planner keeps that order
    and does no work.
    """

    def __init__(self, k: float, config: RunConfig, fixed: tuple[int, ...] | None = None):
        self.k = k
        self.config = config
        self.fixed = fixed is not None
        self.plan = None if fixed is None else PermState(fixed, frozenset())
        self.versions = int(self.fixed)
        self._key: tuple[int, int] | None = None

    def current(
        self, stats: StatsSnapshot, stats_version: int, dispatched: tuple[int, ...]
    ) -> tuple[PermState, int]:
        """Re-plan if stats or the pinned prefix moved; return plan + work."""
        key = (stats_version, len(dispatched))
        if self.fixed or key == self._key:
            return self.plan, 0
        meter = WorkMeter()
        candidate = refine_order(
            self.k,
            stats,
            pinned_order=dispatched,
            overlap_floor=self.config.overlap_floor,
            meter=meter,
        )
        # Publish a full-universe order: estimates can overstate the
        # covering prefix, and the executor must always find a next
        # source until the target or the universe is exhausted.  The
        # tail continues greedily by rate, dead sources last by id.
        rest = set(range(stats.n_sources)) - set(candidate.order)
        full = greedy_by_rate(math.inf, candidate.order, rest, stats)
        order = full.order + tuple(sorted(full.unselected))
        self.plan = PermState(order, frozenset(), pinned=len(dispatched))
        self.versions += 1
        self._key = key
        return self.plan, meter.ops


def run_query(
    algo: str,
    query: QuerySpec,
    universe: Universe,
    initial: StatsSnapshot,
    config: RunConfig = RunConfig(),
    seed: int = 0,
) -> RunResult:
    """Execute one query run under the named strategy.

    ``initial`` is the offline statistics snapshot (ground truth is
    substituted internally for the full-knowledge strategy).  The result
    is deterministic in (algo, query, universe, initial, config, seed).
    """
    if algo in BASELINE_ALGOS:
        prior = prior_query_snapshot(initial)
        order = baseline_order(algo, prior, seed=seed)
        return _run(algo, query, universe, config, _Planner(query.k, config, order), prior)
    if algo == ALGO_FULL_KNOWLEDGE:
        truth = universe.truth_snapshot(query.predicate_id)
        return _run(algo, query, universe, config, _Planner(query.k, config), truth)
    if algo in (ALGO_ONLINE, ALGO_SEQUENTIAL):
        probe = ScopedProbe(universe, query.predicate_id)
        hint = _all_source_hint(initial, config)
        detection = online_detection_plan(
            initial,
            hint,
            probe,
            per_query_ms=DETECTION_QUERY_MS * config.detection_overhead,
            batch=config.detection_batch,
        )
        _, prior, _ = next(detection)
        return _run(
            algo, query, universe, config, _Planner(query.k, config), prior, detection,
            charge_first_sweep=algo == ALGO_SEQUENTIAL,
        )
    raise ValueError(f"unknown algorithm {algo!r}")


def _all_source_hint(initial: StatsSnapshot, config: RunConfig) -> tuple[int, ...]:
    """Offline all-source permutation used as the detection order."""
    full_coverage = covered_total(range(initial.n_sources), initial)
    candidate = refine_order(
        max(full_coverage, 1.0),
        initial,
        overlap_floor=config.overlap_floor,
    )
    missing = [s for s in range(initial.n_sources) if s not in set(candidate.order)]
    return candidate.order + tuple(sorted(missing))


def _run(
    algo: str,
    query: QuerySpec,
    universe: Universe,
    config: RunConfig,
    planner: _Planner,
    stats: StatsSnapshot,
    detection: Iterator[tuple[float, StatsSnapshot, int]] | None = None,
    *,
    charge_first_sweep: bool = False,
) -> RunResult:
    """The event loop; ``detection`` yields the statistics worker's steps."""
    stats_versions = 1
    detections = 0
    planner_charge = 0.0
    if charge_first_sweep:
        _, work = planner.current(stats, stats_versions, ())
        planner_charge = work * config.planner_unit_ms

    executor = _Executor(query, universe, config)

    events: list[tuple[float, int, int, int]] = []
    seq = 0

    def push(time_ms: float, prio: int, tid: int) -> None:
        nonlocal seq
        heapq.heappush(events, (time_ms, prio, tid, seq))
        seq += 1

    # A source answers one request at a time: a counting query in flight
    # delays the executor's contact with that source and an executor scan
    # stalls the stats worker.  Bookings hold the probe-side busy windows;
    # scan ownership lives in the executor.
    probe_busy_until: dict[int, float] = {}
    pending: tuple[float, StatsSnapshot, int] | None = None
    sc_in_flight = False

    def pull_next_detection() -> None:
        nonlocal pending
        pending = None if detection is None else next(detection, None)

    def try_start_detection(now_ms: float) -> None:
        """Begin the pending probe unless its source is being scanned."""
        nonlocal sc_in_flight
        if sc_in_flight or pending is None or executor.reached_target:
            return
        cost, _snapshot, target = pending
        if target >= 0 and executor.scanning(target):
            return  # retried after any scan completes
        sc_in_flight = True
        if target >= 0:
            probe_busy_until[target] = now_ms + cost
        push(now_ms + cost, _PRIO_STATS, -1)

    pull_next_detection()
    try_start_detection(0.0)
    for tid in range(config.query_threads):
        push(planner_charge, _PRIO_QUERY, tid)

    while events and not executor.reached_target:
        time_ms, prio, tid, _ = heapq.heappop(events)
        if prio == _PRIO_STATS:
            sc_in_flight = False
            if pending is not None:
                stats = pending[1]
                stats_versions += 1
                detections += 1
            pull_next_detection()
            try_start_detection(time_ms)
            continue
        # query-thread event: either a dispatch (idle) or one tuple arrival
        state = executor.threads[tid]
        if state.source < 0:
            plan, _ = planner.current(stats, stats_versions, tuple(executor.dispatched))
            started = executor.dispatch(tid, plan, time_ms, probe_busy_until)
            if started is None:
                state.done = True
                state.last_event_ms = time_ms
                if all(t.done for t in executor.threads):
                    break
            else:
                push(started, _PRIO_QUERY, tid)
        else:
            source = state.source
            finished = executor.on_tuple(tid, time_ms)
            if executor.reached_target:
                break
            if finished:
                try_start_detection(time_ms)
                push(time_ms, _PRIO_QUERY, tid)  # same-time dispatch of next source
            else:
                push(time_ms + universe.sources[source].per_tuple_ms, _PRIO_QUERY, tid)

    return executor.result(
        algo,
        planner_time=planner_charge,
        detections=detections,
        stats_versions=stats_versions,
        perm_versions=max(planner.versions, 1),
    )


class _Executor:
    """Query-thread bookkeeping: dispatch, dedup, trace, termination."""

    def __init__(self, query: QuerySpec, universe: Universe, config: RunConfig):
        self.query = query
        self.universe = universe
        self.scope = query.predicate_id
        self.threads = [_ThreadState() for _ in range(config.query_threads)]
        self.dispatched: list[int] = []
        self.seen: set[int] = set()
        self.distinct = 0
        self.transferred = 0
        self.traces: list[SourceTrace] = []
        self.end_ms = 0.0
        self.reached_target = False  # also ends the event loop

    # -- dispatch -----------------------------------------------------

    def next_source(self, plan: PermState) -> int | None:
        taken = set(self.dispatched)
        for s in plan.order:
            if s not in taken:
                return s
        return None

    def scanning(self, source: int) -> bool:
        return any(t.source == source for t in self.threads)

    def dispatch(
        self,
        tid: int,
        plan: PermState,
        now_ms: float,
        probe_busy_until: dict[int, float],
    ) -> float | None:
        """Start the next undispatched source; None when exhausted.

        Contact waits for any in-flight counting query on that source.
        """
        source = self.next_source(plan)
        if source is None:
            return None
        state = self.threads[tid]
        self.dispatched.append(source)
        start_ms = max(now_ms, probe_busy_until.get(source, 0.0))
        state.source = source
        state.cursor = 0
        state.dispatch_ms = start_ms
        state.new_tuples = 0
        state.dup_tuples = 0
        src = self.universe.sources[source]
        try:
            state.stream = self.universe.tuple_stream(source, self.scope)
        except SourceUnavailable:
            state.stream = ()
        contact_done = start_ms + src.access_ms
        state.last_event_ms = contact_done
        if not state.stream:
            self._finish_source(tid, contact_done)
            return contact_done  # next event is the follow-up dispatch
        return contact_done + src.per_tuple_ms  # first tuple arrival

    def on_tuple(self, tid: int, now_ms: float) -> bool:
        """Process one tuple arrival; True when the source is finished."""
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
                self._finish_source(tid, now_ms)
                self._flush_active(now_ms, skip=tid)
                return True
        if state.cursor >= len(state.stream):
            self._finish_source(tid, now_ms)
            return True
        return False

    # -- bookkeeping ---------------------------------------------------

    def _finish_source(self, tid: int, arrival_ms: float) -> None:
        state = self.threads[tid]
        self.traces.append(
            SourceTrace(state.source, state.dispatch_ms, arrival_ms, state.new_tuples, state.dup_tuples)
        )
        state.source = -1
        state.stream = ()
        state.last_event_ms = arrival_ms

    def _flush_active(self, now_ms: float, skip: int) -> None:
        for tid, state in enumerate(self.threads):
            if tid != skip and state.source >= 0:
                self._finish_source(tid, min(state.last_event_ms, now_ms))

    def result(
        self,
        algo: str,
        planner_time: float,
        detections: int,
        stats_versions: int,
        perm_versions: int,
    ) -> RunResult:
        if self.reached_target:
            total = self.end_ms
        else:
            total = max((t.last_event_ms for t in self.threads), default=0.0)
            self.end_ms = total
        return RunResult(
            algo=algo,
            k=self.query.k,
            tuples_retrieved=self.transferred,
            distinct_tuples=self.distinct,
            simulated_time_ms=total,
            planner_time_ms=planner_time,
            shortfall=not self.reached_target,
            per_source_trace=tuple(self.traces),
            detections=detections,
            stats_versions=stats_versions,
            perm_versions=perm_versions,
        )
