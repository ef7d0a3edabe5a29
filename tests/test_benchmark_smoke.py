"""The benchmark command runs against this checkout.

The benchmark wraps package entry points by name from outside ``src/``;
running traced passes here makes a rename fail the suite rather than
the benchmark.
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


def test_traced_desk_pass_is_correct():
    assert traced_pass("desk-adaptive")["correct"] is True


def test_traced_bulk_pass_is_correct():
    # The only workload that calls run_query directly, so the only one
    # that reaches the wrapped simulator entry points without the grid.
    assert traced_pass("bulk-scan")["correct"] is True


def test_traced_wide_pass_is_correct():
    # The only 200-source workload, and the only one whose refreshes run
    # Newton before NNLS on a cell set whose last NNLS moved no row.
    assert traced_pass("wide-sources")["correct"] is True
