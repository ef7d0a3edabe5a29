"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

import calibrate
import checks
import run
import tracing
import workloads

qs = run.import_package()


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
        assert checks.percentile(values, 50) == 5.0
        assert checks.percentile(values, 90) == 9.0
        assert checks.percentile(values, 100) == 10.0
        assert checks.percentile(values, 1) == 1.0

    def test_single_value_and_even_count(self):
        assert checks.percentile([7.0], 50) == 7.0
        assert checks.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_beyond_counts_samples_above_the_cut(self):
        values = list(range(1, 101))
        assert checks.percentile(values, 90) == 90
        assert checks.beyond(values, 90) == 10

    @pytest.mark.parametrize("q", [0, -5, 101])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            checks.percentile([1.0], q)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            checks.percentile([], 50)


def ticking_tracer() -> tracing.Tracer:
    """A tracer whose clock advances by one per reading."""
    ticks = itertools.count()
    return tracing.Tracer(clock=lambda: float(next(ticks)))


class TestSelfTime:
    def test_nested_spans(self):
        tr = ticking_tracer()
        outer = tr.open("outer")  # t=0
        mid = tr.open("mid")  # t=1
        inner = tr.open("inner")  # t=2
        tr.close(inner)  # t=3
        tr.close(mid)  # t=4
        sibling = tr.open("sibling")  # t=5
        tr.close(sibling)  # t=6
        tr.close(outer)  # t=7
        assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
        assert tracing.self_times(tr.spans) == [7 - 3 - 1, 3 - 1, 1, 1]

    def test_child_outside_parent_is_clipped(self):
        parent = tracing.Span("p", 0.0, None, "r")
        parent.end = 10.0
        early = tracing.Span("c", 8.0, 0, "r")
        early.end = 12.0
        overlap = tracing.Span("c", 7.0, 0, "r")
        overlap.end = 9.0
        # Covered: [7, 10] -> 3 of the parent's 10.
        assert tracing.self_times([parent, early, overlap])[0] == pytest.approx(7.0)

    def test_solver_spans_nest_under_generator_steps(self):
        tr = ticking_tracer()
        solve = tracing._wrap(tr, "maxent.solve", lambda: None)

        def plan():
            yield 0
            solve()
            yield 1

        steps = tracing._TracedSteps(tr, "detection.online", plan())
        scheduler = tr.open("scheduler")
        assert list(steps) == [0, 1]
        tr.close(scheduler)
        names = [(s.name, s.parent) for s in tr.spans]
        assert names == [
            ("scheduler", None),
            ("detection.online", 0),
            ("detection.online", 0),
            ("maxent.solve", 2),
            ("detection.online", 0),
        ]
        assert [s.attrs.get("yielded", False) for s in tr.spans[1:]] == [True, True, False, False]

    def test_patched_restores_originals(self):
        class Owner:
            def f(self):
                return "orig"

        with tracing.patched([(Owner, "f", lambda self: "patched")]):
            assert Owner().f() == "patched"
        assert Owner().f() == "orig"


def desk_run(algo="online", k_fraction=0.4):
    universe = qs.simulator.generate(
        qs.grid.desk_universe_config(n_sources=10, n_distinct=120, total_tuples=500), 101
    )
    stats = qs.grid.offline_stats(universe, qs.scheduler.RunConfig())
    in_scope = universe.truth.distinct_in_scope(qs.simulator.SCOPE_FOCUS)
    query = qs.QuerySpec(qs.simulator.SCOPE_FOCUS, round(k_fraction * in_scope))
    return qs.run_query(algo, query, universe, stats.snapshot), in_scope, universe


class TestRunViolations:
    def test_real_runs_pass(self):
        for algo in ("online", "max_tuples", "full_knowledge"):
            result, in_scope, _ = desk_run(algo)
            assert checks.run_violations(result, in_scope) == []

    def test_doctored_counts_rejected(self):
        result, in_scope, _ = desk_run()
        bad = replace(result, tuples_retrieved=result.tuples_retrieved + 1)
        assert any("tuples_retrieved" in p for p in checks.run_violations(bad, in_scope))
        bad = replace(result, distinct_tuples=result.distinct_tuples - 1)
        assert any("distinct_tuples" in p for p in checks.run_violations(bad, in_scope))

    def test_doctored_trace_rejected(self):
        result, in_scope, _ = desk_run()
        first = result.per_source_trace[0]
        twice = replace(
            result,
            per_source_trace=result.per_source_trace + (replace(first, new_tuples=0, duplicate_tuples=0),),
        )
        assert "a source appears twice in the trace" in checks.run_violations(twice, in_scope)

    def test_doctored_shortfall_rejected(self):
        result, in_scope, _ = desk_run()
        assert not result.shortfall
        claimed = replace(result, shortfall=True)
        assert any("shortfall" in p for p in checks.run_violations(claimed, in_scope))
        missed = replace(result, k=result.distinct_tuples + 1)
        assert any("without shortfall" in p for p in checks.run_violations(missed, in_scope))

    def test_legitimate_shortfall_accepted(self):
        result, in_scope, _ = desk_run(k_fraction=1.0)
        over = replace(result, k=in_scope + 5, shortfall=True)
        assert checks.run_violations(over, in_scope) == []


def test_variant_only_reorders_streams():
    _, _, universe = desk_run()
    other = workloads.variant(qs, universe, seed=7)
    assert other.truth == universe.truth
    assert other.config == universe.config and other.seed == universe.seed
    assert any(a.tuples != b.tuples for a, b in zip(universe.sources, other.sources))
    for a, b in zip(universe.sources, other.sources):
        assert (a.id, a.access_ms, a.per_tuple_ms) == (b.id, b.access_ms, b.per_tuple_ms)
        assert sorted(a.tuples) == sorted(b.tuples)
    assert workloads.variant(qs, universe, seed=7) == other


class TestCalibrator:
    def test_scale_is_nominal_over_mean(self):
        assert calibrate.scale([0.02, 0.04, 0.06]) == pytest.approx(calibrate.NOMINAL_S / 0.04)
        with pytest.raises(ValueError):
            calibrate.scale([])

    def test_tick_waits_for_the_interval(self):
        now = [0.0]
        cal = calibrate.Calibrator(clock=lambda: now[0])
        assert cal.tick() == 0.0  # the fake clock stands still while the kernel runs
        assert len(cal.samples) == calibrate.PER_BURST
        now[0] = calibrate.INTERVAL_S / 2
        cal.tick()
        assert len(cal.samples) == calibrate.PER_BURST
        now[0] = calibrate.INTERVAL_S * 1.5
        cal.tick()
        assert len(cal.samples) == 2 * calibrate.PER_BURST

    def test_factor_uses_samples_since_the_mark(self):
        cal = calibrate.Calibrator()
        cal.samples = [0.01, 0.01, 0.04, 0.02]
        assert cal.factor(2) == pytest.approx(calibrate.NOMINAL_S / 0.03)
        assert cal.factor(4) == cal.factor(0)

    def test_local_uses_the_samples_of_the_run_and_the_bursts_around_it(self):
        assert calibrate.PER_BURST == 2
        cal = calibrate.Calibrator()
        cal.samples = [0.01, 0.01, 0.02, 0.02, 0.04, 0.04, 0.06]
        assert cal.local(2, 2) == pytest.approx(calibrate.NOMINAL_S / 0.015)
        assert cal.local(2, 4) == pytest.approx(calibrate.NOMINAL_S / (0.14 / 6))
        assert cal.local(7, 7) == pytest.approx(calibrate.NOMINAL_S / 0.05)

    def test_burst_adds_its_time_to_spent(self):
        cal = calibrate.Calibrator()
        spent = cal.burst()
        assert len(cal.samples) == calibrate.PER_BURST
        assert cal.spent_s == spent >= sum(cal.samples)

    def test_kernel_is_deterministic(self):
        assert calibrate.reference_kernel() == calibrate.reference_kernel()
