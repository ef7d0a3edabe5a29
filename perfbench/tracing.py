"""In-memory spans around the calls into each querysched layer.

Tracing works from outside the package: :func:`instrument` replaces the
public function each layer is entered through, under the name its caller
looks it up by, with a wrapper that records a span, and restores the
originals on exit.  Spans nest through an explicit stack, so a layer's
self time is its span minus the time covered by the spans it caused.

Layers and their entry points:

==============  ==========================================================
``simulator``   ``simulator.generate``, ``Universe.tuple_stream``,
                ``Universe.truth_snapshot``, ``ScopedProbe.cardinality``
                and ``ScopedProbe.cell_count``
``detection``   ``grid.initial_detection`` (offline) and every ``next()``
                on the generator ``scheduler.online_detection_plan``
                returns (query level)
``maxent``      ``maxent.solve``; the enclosing detection span says
                whether the offline fill-in or a query refresh called it
``permutation`` ``scheduler.refine_order``, ``scheduler.baseline_order``
``scheduler``   ``scheduler.run_query``
``grid``        ``grid.run_grid``
==============  ==========================================================

The scheduler's self time therefore includes its private planner tail
``_extend_to_full``; separating it needs a span inside the package.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from checks import percentile


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name: str, start: float, parent: int | None, run: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs: dict = {}


class Tracer:
    """Collects spans; ``run`` labels every span opened until it changes.

    Spans opened inside one ``run_query`` call share the label
    ``<phase>/<n>``; spans outside any run carry the phase alone.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def enclosing(self, names: Iterable[str]) -> str | None:
        """Name of the innermost open span whose name is in ``names``."""
        wanted = set(names)
        for idx in reversed(self._stack):
            if self.spans[idx].name in wanted:
                return self.spans[idx].name
        return None

    def dump(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": s.name,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                "parent": s.parent,
                "run": s.run,
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, span.end - span.start - covered))
    return out


@contextlib.contextmanager
def patched(replacements: Iterable[tuple[object, str, object]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _wrap(tracer: Tracer, name: str, fn, on_result=None, on_error=None):
    """Span around ``fn``; the hooks annotate the span once it is closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(span)
            if on_error is not None:
                on_error(span, args, kwargs, exc)
            raise
        except BaseException:
            tracer.close(span)
            raise
        tracer.close(span)
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result

    return wrapper


class _TracedSteps:
    """Iterator proxy: one span around each ``next()`` of the wrapped one."""

    def __init__(self, tracer: Tracer, name: str, inner: Iterator):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        span = self._tracer.open(self._name)
        try:
            item = next(self._inner)
        finally:
            self._tracer.close(span)
        span.attrs["yielded"] = True
        return item


def instrument(tracer: Tracer, qs) -> contextlib.AbstractContextManager:
    """Patch every layer entry point of the ``querysched`` package ``qs``."""
    grid, maxent, scheduler, simulator = qs.grid, qs.maxent, qs.scheduler, qs.simulator
    WorkMeter = qs.permutation.WorkMeter

    def offline_outcome(span, args, kwargs, outcome):
        span.attrs["count_queries"] = outcome.count_queries
        span.attrs["clamped_rows"] = outcome.clamped_rows

    def caller(span):
        layer = tracer.enclosing(("detection.offline", "detection.online"))
        span.attrs["caller"] = {"detection.offline": "offline", "detection.online": "query"}.get(
            layer, "other"
        )

    def solved(span, args, kwargs, result):
        caller(span)
        report = result[1]
        span.attrs.update(ok=True, iterations=report.iterations, residual=report.max_rel_residual)

    def unsolved(span, args, kwargs, exc):
        caller(span)
        span.attrs["ok"] = False
        if isinstance(exc, maxent.MaxEntError):
            constraints = args[0] if args else kwargs["constraints"]
            span.attrs["residual"] = max(
                (r / max(float(constraints[s]), 1.0) for s, r in exc.residuals.items()),
                default=0.0,
            )

    refine = scheduler.refine_order

    @functools.wraps(refine)
    def refine_order(*args, **kwargs):
        meter = kwargs.get("meter")
        if meter is None:
            meter = kwargs["meter"] = WorkMeter()
        before = meter.ops
        span = tracer.open("permutation.refine_order")
        try:
            return refine(*args, **kwargs)
        finally:
            tracer.close(span)
            span.attrs["ops"] = meter.ops - before

    plan = scheduler.online_detection_plan

    @functools.wraps(plan)
    def online_detection_plan(*args, **kwargs):
        return _TracedSteps(tracer, "detection.online", plan(*args, **kwargs))

    query_run = _wrap(tracer, "scheduler", scheduler.run_query)
    run_ids = itertools.count()

    @functools.wraps(scheduler.run_query)
    def run_query(*args, **kwargs):
        phase = tracer.run
        tracer.run = f"{phase}/{next(run_ids)}"
        try:
            return query_run(*args, **kwargs)
        finally:
            tracer.run = phase

    def entered(owner, attr, name, **hooks):
        return owner, attr, _wrap(tracer, name, vars(owner)[attr], **hooks)

    return patched(
        [
            entered(simulator, "generate", "simulator.generate"),
            entered(simulator.Universe, "tuple_stream", "simulator.tuple_stream"),
            entered(simulator.Universe, "truth_snapshot", "simulator.truth_snapshot"),
            entered(simulator.ScopedProbe, "cardinality", "simulator.probe"),
            entered(simulator.ScopedProbe, "cell_count", "simulator.probe"),
            entered(grid, "initial_detection", "detection.offline", on_result=offline_outcome),
            entered(maxent, "solve", "maxent.solve", on_result=solved, on_error=unsolved),
            entered(scheduler, "baseline_order", "permutation.baseline_order"),
            (scheduler, "run_query", run_query),
            entered(grid, "run_grid", "grid"),
            (scheduler, "refine_order", refine_order),
            (scheduler, "online_detection_plan", online_detection_plan),
        ]
    )


def run_split(spans: Sequence[Span]) -> dict[str, float]:
    """Self time spent inside query runs, by layer (first part of the name).

    The values add up to the time spent in ``run_query``.
    """
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if "/" in span.run:
            out[span.name.split(".")[0]] += own
    return dict(out)


def layer_metrics(spans: Sequence[Span], results: Sequence, log_records: int) -> dict[str, float]:
    """Per-layer metrics from the spans and results of one traced run."""
    by_name: dict[str, list[tuple[Span, float]]] = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name].append((span, own))

    def count(name: str) -> int:
        return len(by_name[name])

    def dur(name: str, keep=lambda s: True) -> float:
        return sum(s.end - s.start for s, _ in by_name[name] if keep(s))

    def own(name: str) -> float:
        return sum(o for _, o in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s, _ in by_name[name])

    m: dict[str, float] = {
        "grid.self_s": own("grid"),
        "simulator.generate.calls": count("simulator.generate"),
        "simulator.generate.s": dur("simulator.generate"),
        "simulator.tuple_stream.calls": count("simulator.tuple_stream"),
        "simulator.tuple_stream.s": dur("simulator.tuple_stream"),
        "simulator.probe.calls": count("simulator.probe"),
        "simulator.probe.s": dur("simulator.probe"),
        "simulator.truth_snapshot.s": dur("simulator.truth_snapshot"),
        "detection.offline.s": dur("detection.offline"),
        "detection.offline.count_queries": attr_sum("detection.offline", "count_queries"),
        "detection.offline.clamped_rows": attr_sum("detection.offline", "clamped_rows"),
        "detection.online.steps": sum(
            1 for s, _ in by_name["detection.online"] if s.attrs.get("yielded")
        ),
        "detection.online.self_s": own("detection.online"),
        "detection.log_records": log_records,
    }

    for caller in ("offline", "query"):
        solves = [s for s, _ in by_name["maxent.solve"] if s.attrs.get("caller") == caller]
        failed = [s for s in solves if not s.attrs.get("ok")]
        m[f"maxent.{caller}.calls"] = len(solves)
        m[f"maxent.{caller}.failed"] = len(failed)
        m[f"maxent.{caller}.s"] = sum(s.end - s.start for s in solves)
        if caller == "query":
            ok_ms = [(s.end - s.start) * 1e3 for s in solves if s.attrs.get("ok")]
            failed_ms = [(s.end - s.start) * 1e3 for s in failed]
            m["maxent.query.fail_share"] = len(failed) / len(solves) if solves else 0.0
            m["maxent.query.ms_converged.p50"] = percentile(ok_ms, 50) if ok_ms else 0.0
            m["maxent.query.ms_failed.p50"] = percentile(failed_ms, 50) if failed_ms else 0.0
            m["maxent.query.iterations"] = sum(s.attrs.get("iterations", 0) for s in solves)
            m["maxent.query.worst_rel_residual"] = max(
                (s.attrs.get("residual", 0.0) for s in solves), default=0.0
            )

    tuples = sum(r.tuples_retrieved for r in results)
    distinct = sum(r.distinct_tuples for r in results)
    sched_self = own("scheduler")
    m.update(
        {
            "permutation.refine_order.calls": count("permutation.refine_order"),
            "permutation.refine_order.s": dur("permutation.refine_order"),
            "permutation.work_ops": attr_sum("permutation.refine_order", "ops"),
            "permutation.baseline_order.s": dur("permutation.baseline_order"),
            "scheduler.run_s": dur("scheduler"),
            "scheduler.self_s": sched_self,
            "scheduler.tuples": tuples,
            "scheduler.us_per_tuple": sched_self / tuples * 1e6 if tuples else 0.0,
            "scheduler.dispatches": sum(len(r.per_source_trace) for r in results),
            "scheduler.replans": sum(r.perm_versions - 1 for r in results),
            "scheduler.detections": sum(r.detections for r in results),
            "scheduler.useful_tuple_share": distinct / tuples if tuples else 0.0,
        }
    )
    return m
