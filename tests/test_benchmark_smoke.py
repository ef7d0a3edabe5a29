"""The benchmark command runs against this checkout.

The benchmark wraps package entry points by name from outside ``src/``;
running one traced pass here makes a rename fail the suite rather than
the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_desk_pass_is_correct():
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", "desk-adaptive",
            "--seconds", "0",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
