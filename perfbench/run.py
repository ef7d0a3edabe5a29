"""Benchmark command for querysched.

    python3 perfbench/run.py --workload desk-adaptive --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
``src/`` directory and nowhere else.  ``--trace 0`` times closed-loop
passes over the workload's run list and prints the end-to-end metrics;
``--trace 1`` adds one traced set-up and one traced pass and prints the
per-layer metrics.  Both check every run and exit nonzero on any
violation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat every metric with its unit, and a JSON copy with the
environment and seed list goes to ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import logging
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: on a few shared cores a second
# BLAS thread waits on other tenants' work and its timings scatter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 1
#: Bursts of reference samples taken before and after each cold set-up.
SETUP_BURSTS = 2


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class CountingHandler(logging.Handler):
    """Counts records instead of writing them."""

    def __init__(self) -> None:
        super().__init__()
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def import_package():
    """Import ``querysched`` from this checkout's ``src/`` or return None."""
    src = ROOT / "src"
    if not (src / "querysched" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    qs = importlib.import_module("querysched")
    if Path(qs.__file__).resolve().parent != (src / "querysched").resolve():
        return None
    for module in ("grid", "lattice", "maxent", "permutation", "scheduler", "simulator"):
        importlib.import_module(f"querysched.{module}")
    return qs


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment(workload) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seeds": list(workload.seeds),
        "variant_seed": workload.variant_seed,
    }


class Gate:
    """Counts attempted and failed runs and keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check_pass(self, p) -> None:
        in_scope: dict[int, int] = {}
        for i, rec in enumerate(p.records):
            key = id(rec.universe)
            if key not in in_scope:
                in_scope[key] = rec.universe.truth.distinct_in_scope(rec.scope)
            self.attempted += 1
            for problem in checks.run_violations(rec.result, in_scope[key]):
                self.fail(f"run {i} ({rec.result.algo}, k={rec.result.k}): {problem}")
                break

    def run_passes(self, workload, seconds: float, min_passes: int, calibrator=None) -> list:
        """Closed-loop passes until ``seconds`` elapse; every run is checked.

        With a calibrator, each pass starts and ends with a burst of
        reference samples and gets the scale factor of the samples taken
        during it; each run gets the factor of the samples taken during it
        and of the bursts just before and after.
        """
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            if calibrator is not None:
                mark = calibrator.mark()
                calibrator.burst()
            p = self.guarded_pass(workload, calibrator)
            if p is None:
                break
            if calibrator is not None:
                calibrator.burst()
                p.factor = calibrator.factor(mark)
                for rec in p.records:
                    rec.factor = calibrator.local(*rec.marks)
            passes.append(p)
        return passes

    def guarded_pass(self, workload, calibrator=None):
        try:
            p = workload.run_pass(calibrator)
        except Exception as exc:  # a run raised: count it and stop measuring
            self.attempted += 1
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        self.check_pass(p)
        return p

    def check_repeatable(self, workload, passes) -> None:
        if not passes:
            return
        self.attempted += 1
        if not workload.replay_matches(passes[0].records[0].result):
            self.fail("replay of the first run gave different JSON")
        for i, p in enumerate(passes[1:], start=1):
            if p.csv is None:
                continue
            self.attempted += 1
            if p.csv != passes[0].csv:
                self.fail(f"pass {i} CSV differs from pass 0")


def cold_setup(qs, workload, calibrator) -> tuple[float, float]:
    """Seconds of one cold set-up: as measured, and scaled to the reference speed."""
    qs.grid._DETECTION_CACHE.clear()
    mark = calibrator.mark()
    for _ in range(SETUP_BURSTS):
        calibrator.burst()
    spent = calibrator.spent_s
    t0 = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - t0 - (calibrator.spent_s - spent)
    for _ in range(SETUP_BURSTS):
        calibrator.burst()
    return raw, raw * calibrator.factor(mark)


def timing_metrics(setups: list[float], passes: list, scaled: bool) -> dict[str, float]:
    """The timing metrics, scaled to the reference speed or as measured."""
    run_ms = [rec.ms * (rec.factor if scaled else 1.0) for p in passes for rec in p.records]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s * (p.factor if scaled else 1.0) for p in passes),
        "run_ms.p50": statistics.median(run_ms),
        "run_ms.p90": checks.percentile(run_ms, 90),
    }


def solver_ticks(qs, calibrator):
    """Give the reference kernel turns inside runs too: after each entropy solve.

    A ``desk-adaptive`` run lasts seconds, over which the host's speed
    changes; samples taken during the run say how fast it ran.
    """
    solve = qs.maxent.solve

    @functools.wraps(solve)
    def ticking(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        finally:
            calibrator.tick()

    return tracing.patched([(qs.maxent, "solve", ticking)])


def timed_run(qs, workload, seconds: float, gate: Gate) -> tuple[dict, list[str], dict]:
    calibrator = calibrate.Calibrator()
    with solver_ticks(qs, calibrator):
        setups = [cold_setup(qs, workload, calibrator) for _ in range(SETUP_REPEATS)]
        passes = gate.run_passes(workload, seconds, MIN_PASSES, calibrator)
    gate.check_repeatable(workload, passes)
    if not passes:
        return {}, [], {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = timing_metrics([cal for _, cal in setups], passes, scaled=True)
    metrics["sim_ms.mean"] = statistics.fmean(
        r.result.simulated_time_ms for r in passes[0].records
    )
    metrics["peak_rss_mb"] = rss_mb
    raw = timing_metrics([s for s, _ in setups], passes, scaled=False)
    n_runs = sum(len(p.records) for p in passes)
    factors = [p.factor for p in passes]
    notes = [
        f"times are scaled to the reference speed (kernel {calibrate.NOMINAL_S * 1e3:g} ms); "
        f"pass factors {min(factors):.3f}-{max(factors):.3f} "
        f"from {len(calibrator.samples)} kernel samples",
        "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"setup_s: median of {len(setups)} cold set-ups",
        f"wall_s: median of {len(passes)} passes of {len(passes[0].records)} runs",
        f"run_ms: {n_runs} samples, "
        f"{checks.beyond([r.ms * r.factor for p in passes for r in p.records], 90)} beyond p90",
    ]
    samples = {
        "setup_s": [s for s, _ in setups],
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_factor": factors,
        "reference_s": calibrator.samples,
        "run_ms": [[rec.ms for rec in p.records] for p in passes],
        "run_factor": [[rec.factor for rec in p.records] for p in passes],
    }
    return metrics, notes, samples


def traced_run(qs, workload, seconds: float, gate: Gate, handler) -> tuple[dict, list[str], dict]:
    tracer = tracing.Tracer()
    records_before = handler.count
    qs.grid._DETECTION_CACHE.clear()
    with tracing.instrument(tracer, qs):
        workload.setup()
    logged = handler.count - records_before

    untraced = gate.run_passes(workload, seconds, 1)
    if not untraced:
        return {}, [], {}
    tracer.run = "pass"
    records_before = handler.count
    with tracing.instrument(tracer, qs):
        traced = gate.guarded_pass(workload)
    logged += handler.count - records_before
    if traced is None:
        return {}, [], {}
    gate.check_repeatable(workload, untraced + [traced])

    spans_path = OUT_DIR / f"{workload.name}-spans.json"
    tracer.dump(spans_path)
    metrics = tracing.layer_metrics(
        tracer.spans, [rec.result for rec in traced.records], logged
    )
    metrics["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in untraced)
    split = tracing.run_split(tracer.spans)
    run_s = sum(split.values())
    notes = [
        "per-layer metrics cover one traced cold set-up and one traced pass",
        "scheduler.self_s includes the planner tail _extend_to_full",
        "self time inside run_query by layer: "
        + ", ".join(f"{k} {v / run_s:.1%}" for k, v in sorted(split.items()) if run_s > 0),
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    samples = {
        "untraced_pass_wall_s": [p.wall_s for p in untraced],
        "traced_pass_wall_s": traced.wall_s,
    }
    return metrics, notes, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="variant seed: reshuffles every source's tuple stream (default: none)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=101, help="first universe seed (default 101)"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qs = import_package()
    if qs is None:
        print(f"perfbench: no querysched package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    handler = CountingHandler()
    logger = logging.getLogger("querysched")
    logger.addHandler(handler)
    logger.propagate = False

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](qs, args.seed_base, args.seed, OUT_DIR)
    gate = Gate()
    if args.trace:
        metrics, notes, samples = traced_run(qs, workload, args.seconds, gate, handler)
    else:
        metrics, notes, samples = timed_run(qs, workload, args.seconds, gate)
    units = declared_units(args.trace)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    failed_share = gate.failed / gate.attempted if gate.attempted else 1.0
    correct = gate.failed == 0 and bool(metrics)

    env = environment(workload)
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("note: " + note)
    for reason in gate.reasons:
        print("violation: " + reason)
    print(f"failed_share {failed_share:.6g} share ({gate.failed} of {gate.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    summary = {
        "correct": correct,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(summary, workload=args.workload, trace=args.trace, environment=env,
                  failed_share=failed_share, notes=notes, violations=gate.reasons,
                  samples=samples)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
