"""Deterministic event-driven execution of a query over a universe.

One event loop runs every strategy.  Three logical workers take turns in
it.  A counting query advances the statistics worker by one step: when
the query completes, the worker keeps the step's reader and bumps a plain
version counter.  The planner names the source the next dispatch takes,
and replans lazily whenever that version or the dispatched prefix has
moved since its last answer; only a replan reads the statistics, and the
step's snapshot and its refresh are built on that first read.
The query threads dispatch that source, pin every source they dispatch
and deduplicate arriving tuples against a shared seen-set.  Events are
keyed on (time, worker class, thread id), so a run is a pure function of
its inputs.  A baseline is the same loop with a fixed order (its
policy's, never revised) and no statistics worker.  Planner compute is
free on the simulated clock, except that the sequential strategy charges
the full sweep over its first snapshot at a fixed per-operation rate
(:data:`PLANNER_OP_MS`) before the first dispatch.

Tuple arrivals are not heap events.  Between two events that are not
arrivals (a dispatch, a source finishing, a counting query completing)
the set of streams being scanned is fixed, and an arrival only adds to
the seen-set and the counters.  So the loop consumes each such window in
one step: the arrivals of every scanning thread up to the next heap
event, or through the earliest finish among those threads.  Arrival
times are each source's cumulative sums of its per-tuple latency, added
one tuple at a time as a per-tuple event loop would add them; a boolean
array over the tuple ids says which tuples the run has seen.  An arrival
is new if it is its tuple's first in (time, thread id) order and the
tuple is unseen.  With several threads the first arrivals come from a
scatter, not a sort: thread by thread, each arrival earlier than its
tuple's stored time replaces it, so a tie goes to the lower thread id.
Only the window that reaches the k-th new tuple, at most one per run,
merges its arrivals in (time, thread id) order, to stop at that tuple.
This is batch-at-a-time execution as in MonetDB/X100 (Boncz et al.,
CIDR 2005).
"""

from __future__ import annotations

import heapq
import json
import math
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .cost import QuerySpec
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
    WorkMeter,
    baseline_order,
    covered_total,
    next_source,
    refine_order,
)
from .simulator import ScopedProbe, SourceUnavailable, Universe

_PRIO_STATS = 0
_PRIO_QUERY = 2
#: Simulated time of one planner operation, which ``sequential`` pays for its first sweep.
PLANNER_OP_MS = 0.01


@dataclass(frozen=True)
class RunConfig:
    query_threads: int = 1
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD
    detection_overhead: float = 1.0

    def __post_init__(self) -> None:
        # A negative time charge would schedule work before it was asked
        # for; a negative threshold is a share that cannot be.  NaN fails
        # every comparison, so the test must fail on it too.
        for name, least in (
            ("query_threads", 1),
            ("detection_overhead", 0),
            ("prune_threshold", 0),
        ):
            value = getattr(self, name)
            if not value >= least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        # An infinite charge would keep a probed source busy forever.
        if self.detection_overhead == math.inf:
            raise ValueError(f"detection_overhead must be finite, got {self.detection_overhead}")
        # The thread count is a range bound, where only an int runs.
        threads = self.query_threads
        try:
            whole = float(threads).is_integer()
        except OverflowError:  # an int past the float range
            raise ValueError(f"query_threads is too large: {len(str(threads))} digits") from None
        if not whole:
            raise ValueError(f"query_threads must be an integer, got {threads}")
        object.__setattr__(self, "query_threads", int(threads))


@dataclass(frozen=True, slots=True)
class SourceTrace:
    source: int
    dispatch_ms: float
    arrival_ms: float
    new_tuples: int
    duplicate_tuples: int


#: One packed SourceTrace: source, dispatch and arrival ms, new and duplicate tuples.
_TRACE = struct.Struct("<iddii")


class SourceTraces(Sequence[SourceTrace]):
    """A run's per-source trace, packed at 28 bytes a source.

    Callers keep results by the thousand, and a tuple of SourceTrace
    objects and their numbers takes about five times the space.  Items
    are rebuilt on access.  The sequence equals a tuple of the same
    traces, and adding a tuple to it gives a tuple.
    """

    __slots__ = ("_packed",)

    def __init__(self, traces: Iterable[SourceTrace] = ()):
        self._packed = b"".join(
            _TRACE.pack(t.source, t.dispatch_ms, t.arrival_ms, t.new_tuples, t.duplicate_tuples)
            for t in traces
        )

    @classmethod
    def _of(cls, packed: bytes) -> SourceTraces:
        traces = cls.__new__(cls)
        traces._packed = packed
        return traces

    def __len__(self) -> int:
        return len(self._packed) // _TRACE.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        n = len(self)
        if not -n <= index < n:
            raise IndexError("trace index out of range")
        return SourceTrace(*_TRACE.unpack_from(self._packed, (index % n) * _TRACE.size))

    def __iter__(self) -> Iterator[SourceTrace]:
        return (SourceTrace(*fields) for fields in _TRACE.iter_unpack(self._packed))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SourceTraces, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: tuple) -> tuple:
        if isinstance(other, tuple):
            return tuple(self) + other
        return NotImplemented

    def __repr__(self) -> str:
        return f"SourceTraces({list(self)!r})"


@dataclass(frozen=True, slots=True)
class RunResult:
    algo: str
    k: int
    tuples_retrieved: int
    distinct_tuples: int
    simulated_time_ms: float
    planner_time_ms: float
    shortfall: bool
    per_source_trace: Sequence[SourceTrace]
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


_NO_TIMES = np.empty(0, dtype=np.float64)


@dataclass
class _ThreadState:
    """One query thread; while it scans, ``stream[i]`` arrives at ``times[i]``."""

    source: int = -1
    stream: tuple[int, ...] = ()
    times: np.ndarray = field(default_factory=lambda: _NO_TIMES)
    cursor: int = 0
    dispatch_ms: float = 0.0
    new_tuples: int = 0
    dup_tuples: int = 0
    last_event_ms: float = 0.0
    done: bool = False


class _Planner:
    """Names the source the next dispatch takes; None once every source is.

    The answer is stale once the statistics version or the length of the
    dispatched prefix differs from the pair it was found for; each new
    answer is a plan version.  It is the first unpinned source of the full
    construction, which :func:`next_source` finds without building the
    rest.  Built with a ``fixed`` order, as for the baselines, the planner
    takes that order's sources in turn and does no work.
    """

    def __init__(self, k: float, fixed: tuple[int, ...] | None = None):
        self.k = k
        self.fixed = fixed
        self.versions = int(fixed is not None)
        self._key: tuple[int, int] | None = None
        self._source: int | None = None

    def next(
        self, read: Callable[[], StatsSnapshot], stats_version: int, dispatched: tuple[int, ...]
    ) -> int | None:
        """The source to dispatch after ``dispatched``; replans if stats or the prefix moved.

        ``read()`` gives the statistics of ``stats_version``; only a replan calls it.
        """
        pinned = len(dispatched)
        if self.fixed is not None:
            # Every dispatch takes the fixed order's next source, so the
            # dispatched prefix is the order's head.
            return self.fixed[pinned] if pinned < len(self.fixed) else None
        key = (stats_version, pinned)
        if key != self._key:
            self._source = next_source(self.k, read(), dispatched)
            self.versions += 1
            self._key = key
        return self._source

    def sweep_work(self, read: Callable[[], StatsSnapshot]) -> int:
        """Operations of the full sweep over ``read()``, which ``sequential`` pays for.

        The plan it stands for, which :meth:`next` finds as the sweep's
        head, is version 1, found before the first dispatch.
        """
        meter = WorkMeter()
        refine_order(self.k, read(), meter=meter)
        self.next(read, 1, ())
        return meter.ops


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
        return _run(algo, query, universe, config, _Planner(query.k, order), lambda: prior)
    if algo == ALGO_FULL_KNOWLEDGE:
        truth = universe.truth_snapshot(query.predicate_id)
        return _run(algo, query, universe, config, _Planner(query.k), lambda: truth)
    if algo in (ALGO_ONLINE, ALGO_SEQUENTIAL):
        probe = ScopedProbe(universe, query.predicate_id)
        detection = online_detection_plan(
            initial,
            _all_source_hint(initial),
            probe,
            per_query_ms=DETECTION_QUERY_MS * config.detection_overhead,
        )
        _, read_prior, _ = next(detection)
        return _run(
            algo, query, universe, config, _Planner(query.k), read_prior, detection,
            charge_first_sweep=algo == ALGO_SEQUENTIAL,
        )
    raise ValueError(f"unknown algorithm {algo!r}")


def _all_source_hint(initial: StatsSnapshot) -> tuple[int, ...]:
    """Offline sweep over the whole universe, used as the detection order.

    Detection probes the sources it leaves out after it, in id order.  It
    depends only on the offline snapshot, so the snapshot keeps it and
    every run over that snapshot shares it.
    """
    memo = initial._detection_hint
    if not memo:
        full_coverage = covered_total(range(initial.n_sources), initial)
        memo.append(refine_order(max(full_coverage, 1.0), initial).order)
    return memo[0]


def _run(
    algo: str,
    query: QuerySpec,
    universe: Universe,
    config: RunConfig,
    planner: _Planner,
    read_stats: Callable[[], StatsSnapshot],
    detection: Iterator[tuple[float, Callable[[], StatsSnapshot], int]] | None = None,
    *,
    charge_first_sweep: bool = False,
) -> RunResult:
    """The event loop; ``detection`` yields the statistics worker's steps.

    ``read_stats`` gives the statistics in force before the first step;
    the worker replaces it with each completed step's reader, which only
    a replan calls.  The heap holds counting-query completions and
    dispatches.  A scanning thread's arrivals stay in its arrays until a
    window consumes them.
    """
    stats_versions = 1
    detections = 0
    planner_charge = 0.0
    if charge_first_sweep:
        planner_charge = planner.sweep_work(read_stats) * PLANNER_OP_MS

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
    pending: tuple[float, Callable[[], StatsSnapshot], int] | None = None
    sc_in_flight = False

    def pull_next_detection() -> None:
        nonlocal pending
        pending = None if detection is None else next(detection, None)

    def try_start_detection(now_ms: float) -> None:
        """Begin the pending probe unless its source is being scanned."""
        nonlocal sc_in_flight
        if sc_in_flight or pending is None or executor.reached_target:
            return
        cost, _read, target = pending
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

    while not executor.reached_target:
        arrival = executor.next_arrival()
        if arrival is not None and (not events or arrival < events[0][:3]):
            # Every arrival before the heap's next event: the window ends
            # there, or at the first stream to run out.  Arrivals sort
            # after a counting query completing at the same time, and
            # after the dispatches of lower thread ids.
            if events:
                time_ms, prio, tid, _ = events[0]
                bound = (time_ms, tid - 1 if prio == _PRIO_QUERY else -1)
            else:
                bound = (math.inf, config.query_threads)
            finished = executor.consume_window(bound)
            if finished is not None:
                tid, time_ms = finished
                try_start_detection(time_ms)
                push(time_ms, _PRIO_QUERY, tid)  # same-time dispatch of next source
            continue
        if not events:
            break
        time_ms, prio, tid, _ = heapq.heappop(events)
        if prio == _PRIO_STATS:
            sc_in_flight = False
            if pending is not None:
                read_stats = pending[1]
                stats_versions += 1
                detections += 1
            pull_next_detection()
            try_start_detection(time_ms)
            continue
        # a dispatch: the thread is idle
        state = executor.threads[tid]
        source = planner.next(read_stats, stats_versions, tuple(executor.dispatched))
        if source is None:
            state.done = True
            state.last_event_ms = time_ms
            if all(t.done for t in executor.threads):
                break
            continue
        contact_ms = executor.dispatch(tid, source, time_ms, probe_busy_until)
        if state.source < 0:
            push(contact_ms, _PRIO_QUERY, tid)  # nothing to scan: dispatch again

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
        # Tuple ids are dense, 0 .. n_distinct - 1.
        n = universe.truth.n_distinct
        self.seen = np.zeros(n, dtype=bool)
        if config.query_threads > 1:
            # Scratch for a window of several threads: each tuple's first
            # arrival time (inf outside a window) and the part it came in.
            self.first = np.full(n, np.inf)
            self.owner = np.zeros(n, dtype=np.intp)
        self.distinct = 0
        self.transferred = 0
        self.traces = bytearray()  # packed SourceTrace records
        self.end_ms = 0.0
        self.reached_target = False  # also ends the event loop

    # -- dispatch -----------------------------------------------------

    def scanning(self, source: int) -> bool:
        return any(t.source == source for t in self.threads)

    def dispatch(
        self,
        tid: int,
        source: int,
        now_ms: float,
        probe_busy_until: dict[int, float],
    ) -> float:
        """Start scanning ``source`` on thread ``tid``; returns the contact time.

        Contact waits for any in-flight counting query on that source.  A
        source with nothing to stream is finished at contact; otherwise
        the thread scans it, its first tuple arriving one per-tuple
        latency after contact.
        """
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
            stream = self.universe.tuple_stream(source, self.scope)
        except SourceUnavailable:
            stream = ()
        contact_done = start_ms + src.access_ms
        state.last_event_ms = contact_done
        if not stream:
            self._finish_source(tid, contact_done)
            return contact_done
        state.stream = stream
        # np.cumsum adds left to right, so times[i] is the float that
        # adding per_tuple_ms once per arrival would reach.
        times = np.full(len(stream), src.per_tuple_ms)
        times[0] = contact_done + src.per_tuple_ms
        state.times = np.cumsum(times, out=times)
        return contact_done

    # -- arrivals ------------------------------------------------------

    def next_arrival(self) -> tuple[float, int, int] | None:
        """Event key of the earliest pending arrival, None when no thread scans."""
        best = None
        for tid, state in enumerate(self.threads):
            if state.source >= 0:
                key = (float(state.times[state.cursor]), _PRIO_QUERY, tid)
                if best is None or key < best:
                    best = key
        return best

    def consume_window(self, bound: tuple[float, int]) -> tuple[int, float] | None:
        """Consume every arrival at or before ``bound`` = (time, last thread id).

        The window also closes after the earliest last arrival of a
        scanning thread, and after the k-th distinct tuple, which ends the
        run.  Returns (thread id, time) of a source that finished here.
        """
        active = [(tid, st) for tid, st in enumerate(self.threads) if st.source >= 0]
        for tid, st in active:
            bound = min(bound, (float(st.times[-1]), tid))
        bound_ms, bound_tid = bound
        parts = []
        for tid, st in active:
            pending = st.times[st.cursor :]
            n = int(pending.searchsorted(bound_ms, "right" if tid <= bound_tid else "left"))
            if n:
                ids = np.fromiter(st.stream[st.cursor : st.cursor + n], dtype=np.intp, count=n)
                parts.append((tid, ids, pending[:n]))
        if len(parts) == 1:
            fresh = [~self.seen[parts[0][1]]]  # a stream holds each tuple once
        else:
            fresh = self._first_arrivals(parts)
        new = [int(np.count_nonzero(f)) for f in fresh]
        need = self.query.k - self.distinct
        if sum(new) >= need:
            self._final_window(parts, fresh, need)
            return None

        for (tid, ids, times), n_new in zip(parts, new):
            self.seen[ids] = True  # new or not, every tuple here is seen now
            st = self.threads[tid]
            st.cursor += len(ids)
            st.new_tuples += n_new
            st.dup_tuples += len(ids) - n_new
            st.last_event_ms = float(times[-1])
            self.distinct += n_new
            self.transferred += len(ids)
        for tid, st in active:
            if st.cursor == len(st.stream):
                self._finish_source(tid, st.last_event_ms)
                return tid, st.last_event_ms
        return None

    def _first_arrivals(self, parts: list) -> list[np.ndarray]:
        """Per part, which of its arrivals bring a tuple new to the run.

        A tuple is new at its first arrival in (time, thread id) order if
        no earlier window saw it.  Parts are in thread order and each
        holds a tuple at most once, so scattering each part's earlier
        times in turn finds every tuple's first arrival, with a tie going
        to the lower thread id, as in the merged order, and no sort.
        """
        first, owner = self.first, self.owner
        for p, (_, ids, times) in enumerate(parts):
            earlier = times < first[ids]
            won = ids[earlier]
            first[won] = times[earlier]
            owner[won] = p
        fresh = []
        for p, (_, ids, _) in enumerate(parts):
            fresh.append((owner[ids] == p) & ~self.seen[ids])
            first[ids] = np.inf  # as the next window expects
        return fresh

    def _final_window(self, parts: list, fresh: list[np.ndarray], need: int) -> None:
        """Consume the window's arrivals through the k-th new tuple, ending the run.

        Only here does the run need the window's arrivals in (time,
        thread id) order: parts are in thread order, and a stable sort
        keeps that order among equal times.  The run ends, so ``seen`` is
        left as it is.
        """
        times = np.concatenate([t for _, _, t in parts])
        order = np.argsort(times, kind="stable")
        times = times[order]
        owners = np.repeat([tid for tid, _, _ in parts], [len(t) for _, _, t in parts])[order]
        is_new = np.concatenate(fresh)[order]
        stop = int(np.cumsum(is_new).searchsorted(need)) + 1  # through the k-th new tuple
        times, owners, is_new = times[:stop], owners[:stop], is_new[:stop]
        self.distinct = self.query.k
        self.transferred += stop
        for tid, _, _ in parts:
            mine = owners == tid
            n = int(np.count_nonzero(mine))
            if n:
                st = self.threads[tid]
                new = int(np.count_nonzero(is_new[mine]))
                st.cursor += n
                st.new_tuples += new
                st.dup_tuples += n - new
                st.last_event_ms = float(st.times[st.cursor - 1])
        self.reached_target = True
        now_ms = float(times[-1])
        tid = int(owners[-1])
        self.end_ms = now_ms
        self._finish_source(tid, now_ms)
        self._flush_active(now_ms, skip=tid)

    # -- bookkeeping ---------------------------------------------------

    def _finish_source(self, tid: int, arrival_ms: float) -> None:
        state = self.threads[tid]
        self.traces += _TRACE.pack(
            state.source, state.dispatch_ms, arrival_ms, state.new_tuples, state.dup_tuples
        )
        state.source = -1
        state.stream = ()
        state.times = _NO_TIMES
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
        return RunResult(
            algo=algo,
            k=self.query.k,
            tuples_retrieved=self.transferred,
            distinct_tuples=self.distinct,
            simulated_time_ms=total,
            planner_time_ms=planner_time,
            shortfall=not self.reached_target,
            per_source_trace=SourceTraces._of(bytes(self.traces)),
            detections=detections,
            stats_versions=stats_versions,
            perm_versions=perm_versions,
        )
