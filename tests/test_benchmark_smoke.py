"""The benchmark command runs against this checkout.

The benchmark wraps package entry points by name from outside ``src/``;
running traced passes here makes a rename fail the suite rather than
the benchmark.  The desk and wide passes also pin their planner and
scheduler counters, so a change of plan fails the suite too, and every
pass pins its set-up counters, so a set-up that probes or solves
differently does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_pass(workload: str) -> dict:
    """The summary line of one traced benchmark pass over ``workload``."""
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seconds", "0",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def plan_counters(summary: dict) -> dict:
    """The deterministic counters that only a change of plan can move."""
    names = (
        "permutation.work_ops",
        "scheduler.replans",
        "scheduler.detections",
        "scheduler.dispatches",
    )
    return {name: summary["metrics"][name]["value"] for name in names}


def setup_counters(summary: dict) -> dict:
    """The offline detection's counting queries, clamped rows and solves."""
    names = (
        "detection.offline.count_queries",
        "detection.offline.clamped_rows",
        "maxent.offline.calls",
        "maxent.offline.failed",
    )
    return {name: summary["metrics"][name]["value"] for name in names}


def offline(queries: int, solves: int) -> dict:
    """Set-up counters of a pass whose every offline solve fails."""
    return {
        "detection.offline.count_queries": queries,
        "detection.offline.clamped_rows": 0,
        "maxent.offline.calls": solves,
        "maxent.offline.failed": solves,
    }


# The counters of one traced pass without ``--seed``.  Replans, detections
# and dispatches were recorded with the refresh that solved every
# query-level snapshot as soon as it was taken, and with a planner that
# swept every position of every plan; neither change may change a plan.
# ``permutation.work_ops`` counts only ``sequential``'s charged sweeps (3
# on desk, 1 on wide): every other plan comes from ``next_source``, and the
# detection hint is swept once per offline snapshot, which the untraced
# pass before the traced one already did.  It was 37,385 and 107,832
# while every run swept the hint and its own first plan in full.  Desk's
# replans, detections and dispatches were re-recorded (from 20, 191 and
# 24) when query refreshes came to fit only the counted rows.
DESK_COUNTERS = {
    "permutation.work_ops": 682,
    "scheduler.replans": 18,
    "scheduler.detections": 163,
    "scheduler.dispatches": 22,
}
WIDE_COUNTERS = {
    "permutation.work_ops": 1975,
    "scheduler.replans": 47,
    "scheduler.detections": 432,
    "scheduler.dispatches": 49,
}
# Detection steps taken over the pass's `online` and `sequential` runs
# (6 on desk, 2 on wide), one per counting query: here each run takes
# the queries that complete before it reaches k, and the one pending
# then.  They read 175 and 436 while each plan began with a step that
# counted nothing.
DESK_STEPS = 169
WIDE_STEPS = 434
# The bulk pass runs the baselines and ``full_knowledge`` with one and
# four query threads; its tuple count pins how the event loop consumes
# their arrivals, so a window that miscounts fails here too.
BULK_COUNTERS = {
    "scheduler.tuples": 845_999,
    "scheduler.dispatches": 578,
    "scheduler.replans": 50,
}
# Every offline solve fails.  Desk's and bulk's counting queries were
# re-recorded (from 123 and 217) when the offline fill came to run one
# round of at most 20 sweeps and Newton: its last iterates moved, and the
# next level probes four more cells.
DESK_SETUP = offline(queries=127, solves=5)
WIDE_SETUP = offline(queries=277, solves=1)
BULK_SETUP = offline(queries=221, solves=8)


def test_traced_desk_pass_is_correct():
    summary = traced_pass("desk-adaptive")
    assert summary["correct"] is True
    assert plan_counters(summary) == DESK_COUNTERS
    assert summary["metrics"]["detection.online.steps"]["value"] == DESK_STEPS
    assert setup_counters(summary) == DESK_SETUP


def test_traced_bulk_pass_is_correct():
    # The only workload that calls run_query directly, so the only one
    # that reaches the wrapped simulator entry points without the grid.
    summary = traced_pass("bulk-scan")
    assert summary["correct"] is True
    counters = {name: summary["metrics"][name]["value"] for name in BULK_COUNTERS}
    assert counters == BULK_COUNTERS
    assert setup_counters(summary) == BULK_SETUP


def test_traced_wide_pass_is_correct():
    # The only 200-source workload, and the only one whose planner and
    # converging query refreshes share the run time.
    summary = traced_pass("wide-sources")
    assert summary["correct"] is True
    assert plan_counters(summary) == WIDE_COUNTERS
    assert summary["metrics"]["detection.online.steps"]["value"] == WIDE_STEPS
    assert setup_counters(summary) == WIDE_SETUP
