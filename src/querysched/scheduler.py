"""Deterministic event-driven execution of a query over a universe.

One event loop runs every strategy.  Three logical workers take turns in
it.  The statistics worker starts from the offline snapshot and runs the
detection plan's counting queries one at a time, each asked of one
source and priced at :data:`DETECTION_QUERY_MS` times the configured
overhead: when a query completes, the worker keeps the step's reader
and counts the detection; that count is the statistics version.  The
planner names the source the next dispatch takes, and replans lazily
whenever that version or the dispatched prefix has moved since its last
answer; only a replan reads the statistics, and the worker builds a
version's snapshot and refresh on its first read and keeps them.  A
replan under the same version starts from the last plan's head when the
dispatched prefix begins it.
The query threads dispatch that source, pin every source they dispatch
and deduplicate arriving tuples against a shared seen-set.  A baseline
is the same loop with a fixed order (its policy's, never revised) and no
statistics worker.  Planner compute is free on the simulated clock,
except that the sequential strategy charges the full sweep over its
first snapshot at a fixed per-operation rate (:data:`PLANNER_OP_MS`)
before the first dispatch.

Only dispatches are heap events, keyed on (time, thread id), so a run
is a pure function of its inputs.  The statistics worker keeps its own
clock, the completion time of its query in flight, and the loop catches
it up to time t before the executor acts at t: before a dispatch, at a
source's last arrival (while the source still counts as scanned, after
which a query that waits on that source is retried) and at the k-th new
tuple.  Every completion at or before t counts, chained ones included,
so a completion at t comes before an arrival or a dispatch at t.  A
query's effects read only which sources are scanned, which changes only
at a dispatch or a finish, so catching up there is exact.

Tuple arrivals are not heap events either.  Between a dispatch and the
next one, or a finish, the set of streams being scanned is fixed, and an
arrival only adds to the seen-set and the counters.  So the loop
consumes each such window in one step: the arrivals of every scanning
thread up to the next dispatch, or through the earliest finish among
those threads, or through the k-th new tuple.  Arrival times are each
source's cumulative sums of its per-tuple latency, added one tuple at a
time as a per-tuple event loop would add them; a boolean array over the
tuple ids says which tuples the run has seen.  An arrival is new if it
is its tuple's first in (time, thread id) order and the tuple is unseen.
With several threads the first arrivals come from a scatter, not a sort:
thread by thread, each arrival earlier than its tuple's stored time
replaces it, so a tie goes to the lower thread id.  Only the window that
reaches the k-th new tuple, at most one per run, merges its arrivals in
(time, thread id) order, to stop at that tuple.  This is
batch-at-a-time execution as in MonetDB/X100 (Boncz et al., CIDR 2005).
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
from .detection import DEFAULT_PRUNE_THRESHOLD, online_detection_plan
from .lattice import StatsSnapshot
from .permutation import (
    ALGO_FULL_KNOWLEDGE,
    ALGO_ONLINE,
    ALGO_SEQUENTIAL,
    BASELINE_ALGOS,
    PermCandidate,
    WorkMeter,
    baseline_order,
    covered_total,
    next_source,
    refine_order,
)
from .simulator import ScopedProbe, SourceUnavailable, Universe

#: Simulated time of one planner operation, which ``sequential`` pays for its first sweep.
PLANNER_OP_MS = 0.01
#: Simulated time of one counting query, before ``detection_overhead`` scales it.
DETECTION_QUERY_MS = 1.5


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
            "stats_versions": self.detections + 1,  # the offline statistics, then one per detection
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
    rest.  The planner keeps the head that call returns: while the
    statistics version holds and the dispatched prefix is the head's
    first sources, it is the next replan's greedy start.  Built with a
    ``fixed`` order, as for the baselines, the planner takes that order's
    sources in turn and does no work.
    """

    def __init__(self, k: float, fixed: tuple[int, ...] | None = None):
        self.k = k
        self.fixed = fixed
        self.versions = int(fixed is not None)
        self._key: tuple[int, int] | None = None
        self._source: int | None = None
        self._head: PermCandidate | None = None

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
            # The head is set with the key, and under the same version the
            # prefix only grows.
            start = self._head
            if start is not None and (
                self._key[0] != stats_version or start.order[:pinned] != dispatched
            ):
                start = None
            self._source, self._head = next_source(self.k, read(), dispatched, start)
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
        self.next(read, 0, ())  # statistics version 0: none detected yet
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
    Raises ValueError when ``initial`` covers another number of sources
    than ``universe`` has.
    """
    if initial.n_sources != universe.n_sources:
        raise ValueError(
            f"statistics over {initial.n_sources} sources for a universe of {universe.n_sources}"
        )
    if algo in BASELINE_ALGOS:
        order = baseline_order(algo, initial, seed=seed)
        return _run(algo, query, universe, config, _Planner(query.k, order), lambda: initial)
    if algo == ALGO_FULL_KNOWLEDGE:
        truth = universe.truth_snapshot(query.predicate_id)
        return _run(algo, query, universe, config, _Planner(query.k), lambda: truth)
    if algo in (ALGO_ONLINE, ALGO_SEQUENTIAL):
        probe = ScopedProbe(universe, query.predicate_id)
        detection = online_detection_plan(initial, _all_source_hint(initial), probe)
        return _run(
            algo, query, universe, config, _Planner(query.k), lambda: initial, detection,
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
    detection: Iterator[tuple[Callable[[], StatsSnapshot], int]] | None = None,
    *,
    charge_first_sweep: bool = False,
) -> RunResult:
    """The event loop; ``detection`` yields the statistics worker's steps.

    ``read_stats`` gives the statistics in force before the first step.
    The heap holds only dispatches, (time, thread id); the statistics
    worker is caught up to each dispatch and to each window's end.  A
    scanning thread's arrivals stay in its arrays until a window consumes
    them.
    """
    planner_charge = 0.0
    if charge_first_sweep:
        planner_charge = planner.sweep_work(read_stats) * PLANNER_OP_MS

    executor = _Executor(query, universe, config)
    worker = _StatsWorker(
        executor, read_stats, detection, DETECTION_QUERY_MS * config.detection_overhead
    )
    # A thread has at most one dispatch waiting, so (time, thread id) is unique.
    events = [(planner_charge, tid) for tid in range(config.query_threads)]

    while True:
        arrival = executor.next_arrival()
        if arrival is not None and (not events or arrival < events[0]):
            # Every arrival before the next dispatch: the window ends
            # there, at the first stream to run out, or at the k-th new
            # tuple.  Arrivals sort after the dispatches of lower thread
            # ids at the same time.
            if events:
                time_ms, tid = events[0]
                bound = (time_ms, tid - 1)
            else:
                bound = (math.inf, config.query_threads)
            end = executor.consume_window(bound)
            if end is None:
                continue
            tid, time_ms = end
            if worker.due_ms <= time_ms:
                worker.catch_up(time_ms)  # the source still counts as scanned
            executor.finish(tid, time_ms)
            if executor.reached_target:
                break
            worker.start(time_ms)  # a query may wait on the finished source
            heapq.heappush(events, (time_ms, tid))  # same-time dispatch of next source
            continue
        time_ms, tid = heapq.heappop(events)
        if worker.due_ms <= time_ms:
            worker.catch_up(time_ms)
        # a dispatch: the thread is idle
        state = executor.threads[tid]
        source = planner.next(worker.read, worker.detections, tuple(executor.dispatched))
        if source is None:
            state.done = True
            state.last_event_ms = time_ms
            if all(t.done for t in executor.threads):
                break
            continue
        contact_ms = executor.dispatch(tid, source, time_ms, worker.busy_until)
        if state.source < 0:
            heapq.heappush(events, (contact_ms, tid))  # nothing to scan: dispatch again

    return executor.result(
        algo,
        planner_time=planner_charge,
        detections=worker.detections,
        perm_versions=max(planner.versions, 1),
    )


class _StatsWorker:
    """The statistics worker on its own clock: one counting query at a time.

    ``due_ms`` is when the query in flight completes, and inf while none
    is: the plan has run out, or its next step waits because its source
    is being scanned.  Each query costs ``query_ms`` and books its source
    busy until it completes; a dispatch of that source waits for it.
    The snapshot in force is built at most once, on its first :meth:`read`.
    """

    def __init__(
        self,
        executor: _Executor,
        read: Callable[[], StatsSnapshot],
        plan: Iterator[tuple[Callable[[], StatsSnapshot], int]] | None,
        query_ms: float,
    ):
        self._build = read  # builds the statistics in force
        self._snapshot: StatsSnapshot | None = None  # and, once read, holds them
        self.detections = 0  # also the version of the statistics in force
        self.due_ms = math.inf
        self.busy_until: dict[int, float] = {}  # source -> end of its latest query
        self._executor = executor
        self._plan = plan
        self._query_ms = query_ms
        self._step = None if plan is None else next(plan, None)
        self.start(0.0)

    def read(self) -> StatsSnapshot:
        """The statistics in force, built on their version's first read."""
        if self._snapshot is None:
            self._snapshot = self._build()
        return self._snapshot

    def start(self, now_ms: float) -> None:
        """Ask the waiting step's query at ``now_ms``, unless it must wait."""
        step = self._step
        if step is None or self.due_ms != math.inf or self._executor.scanning(step[1]):
            return
        self.due_ms = now_ms + self._query_ms
        self.busy_until[step[1]] = self.due_ms

    def catch_up(self, now_ms: float) -> None:
        """Complete every query due at or before ``now_ms``, each starting the next.

        Only a query in flight completes: with none, ``due_ms`` is inf,
        which a clock that has overflowed to inf reaches too.
        """
        while self.due_ms <= now_ms and self.due_ms < math.inf:
            done_ms, self.due_ms = self.due_ms, math.inf
            self._build, self._snapshot = self._step[0], None
            self.detections += 1
            self._step = next(self._plan, None)
            self.start(done_ms)


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
        # adding per_tuple_ms once per arrival would reach; past the float
        # range that is inf, as in Python, and numpy's warning is silenced.
        times = np.full(len(stream), src.per_tuple_ms)
        times[0] = contact_done + src.per_tuple_ms
        with np.errstate(over="ignore"):
            state.times = np.cumsum(times, out=times)
        return contact_done

    # -- arrivals ------------------------------------------------------

    def next_arrival(self) -> tuple[float, int] | None:
        """(time, thread id) of the earliest pending arrival, None when no thread scans."""
        best = None
        for tid, state in enumerate(self.threads):
            if state.source >= 0:
                key = (float(state.times[state.cursor]), tid)
                if best is None or key < best:
                    best = key
        return best

    def consume_window(self, bound: tuple[float, int]) -> tuple[int, float] | None:
        """Consume every arrival at or before ``bound`` = (time, last thread id).

        The window also closes after the earliest last arrival of a
        scanning thread, and after the k-th distinct tuple, which ends the
        run.  Returns (thread id, time) of the arrival that closed it in
        either way, whose source the caller then finishes; None if
        neither did.
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
            return self._final_window(parts, fresh, need)

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

    def _final_window(
        self, parts: list, fresh: list[np.ndarray], need: int
    ) -> tuple[int, float]:
        """Consume the window's arrivals through the k-th new tuple, ending the run.

        Only here does the run need the window's arrivals in (time,
        thread id) order: parts are in thread order, and a stable sort
        keeps that order among equal times.  The run ends, so ``seen`` is
        left as it is.  Returns (thread id, time) of the k-th new tuple.
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
        self.end_ms = float(times[-1])
        return int(owners[-1]), self.end_ms

    # -- bookkeeping ---------------------------------------------------

    def finish(self, tid: int, arrival_ms: float) -> None:
        """Trace thread ``tid``'s source as finished at ``arrival_ms``.

        Past the k-th new tuple, every other scanning thread stops there too.
        """
        self._finish_source(tid, arrival_ms)
        if self.reached_target:
            for other, state in enumerate(self.threads):
                if state.source >= 0:
                    self._finish_source(other, min(state.last_event_ms, arrival_ms))

    def _finish_source(self, tid: int, arrival_ms: float) -> None:
        state = self.threads[tid]
        self.traces += _TRACE.pack(
            state.source, state.dispatch_ms, arrival_ms, state.new_tuples, state.dup_tuples
        )
        state.source = -1
        state.stream = ()
        state.times = _NO_TIMES
        state.last_event_ms = arrival_ms

    def result(
        self,
        algo: str,
        planner_time: float,
        detections: int,
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
            perm_versions=perm_versions,
        )
