"""Command-line benchmark harness."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .cost import PREFIX_AVERAGE, SEQUENTIAL, permutation_time_cost
from .detection import DEFAULT_PRUNE_THRESHOLD, initial_detection
from .grid import (
    default_grid,
    desk_universe_config,
    load_grid,
    run_grid,
    verify_demo_instance,
)
from .lattice import dump_snapshot
from .permutation import (
    ORACLE_SOURCE_BOUND,
    approx_bound,
    brute_force_opt,
    format_order,
    refine_order,
)
from .simulator import SCOPE_ALL, ScopedProbe, generate
from .testing import INSTANCE_DISTINCT, random_instance


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_grid(args.config) if args.config else default_grid()
    if args.seed is not None:
        spec = replace(spec, seeds=(args.seed,))
    text = run_grid(spec, args.out, trace_dir=args.trace_dir)
    sys.stdout.write(text)
    return 0


def _cmd_verify_example1(args: argparse.Namespace) -> int:
    report = verify_demo_instance()
    text = report.render() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0 if report.passed else 1


def _cmd_dump_stats(args: argparse.Namespace) -> int:
    if args.config:
        spec = load_grid(args.config)
        ucfg = spec.universe
    else:
        ucfg = desk_universe_config()
    universe = generate(ucfg, args.seed)
    probe = ScopedProbe(
        universe,
        SCOPE_ALL,
        sample_rate=args.sample,
        sample_seed=args.seed,
    )
    outcome = initial_detection(
        probe,
        args.threshold,
        relative=not args.absolute,
    )
    text = dump_snapshot(outcome.snapshot)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(
        "count queries: %d, clamped rows: %d\n" % (outcome.count_queries, outcome.clamped_rows)
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    snapshot, distinct = random_instance(args.max_sources, args.seed)
    k = max(1, int(round(args.k_fraction * distinct)))
    model = PREFIX_AVERAGE if args.prefix_average else SEQUENTIAL
    order, best_cost, shortfall = brute_force_opt(k, snapshot, model)
    refined = refine_order(k, snapshot)
    refined_cost = permutation_time_cost(refined.order, snapshot, k, model)
    bound = approx_bound(k, snapshot)
    print(f"sources={snapshot.n_sources} k={k} model={model}")
    print(f"optimal order={format_order(order)} cost={best_cost:.6f} shortfall={shortfall}")
    print(f"refined order={format_order(refined.order)} cost={refined_cost.time_ms:.6f}")
    ratio = refined_cost.time_ms / best_cost if best_cost > 0 else float("inf")
    print(f"ratio={ratio:.6f} bound={bound:.6f} within_bound={ratio <= bound}")
    return 0


def _number(convert, text: str):
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _oracle_sources(text: str) -> int:
    """A source count the generator can build and the oracle can search."""
    value = _number(int, text)
    if not 1 <= value <= ORACLE_SOURCE_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be between 1 and {ORACLE_SOURCE_BOUND}, got {value}"
        )
    return value


def _oracle_fraction(text: str) -> float:
    """A share of an oracle instance's distinct tuples that is a finite count of them.

    Zero or less would ask for none; a share whose count is infinite
    has no whole k.
    """
    value = _number(float, text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    most = INSTANCE_DISTINCT[-1]
    if not math.isfinite(value * most):
        raise argparse.ArgumentTypeError(
            f"must be a finite share of up to {most} tuples, got {value}"
        )
    return value


def _threshold(text: str) -> float:
    """A pruning threshold; NaN would prune nothing and admit every cell."""
    value = _number(float, text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _sample_rate(text: str) -> float:
    """A sample rate in (0, 1]: the share of placements a probe keeps."""
    value = _number(float, text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="querysched",
        description="Overlap-aware source scheduling benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid and write a CSV")
    p_run.add_argument("--config", help="JSON grid config file")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--seed", type=int, help="override the config seed list")
    p_run.add_argument("--trace-dir", help="directory for per-run trace JSON files")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify-example1",
        help="check the bundled three-source instance against its reference table",
    )
    p_verify.add_argument("--out", help="write the report to this path")
    p_verify.set_defaults(func=_cmd_verify_example1)

    p_dump = sub.add_parser("dump-stats", help="run initial detection and dump the lattice")
    p_dump.add_argument("--config", help="JSON grid config file (universe section)")
    p_dump.add_argument("--seed", type=int, default=101)
    p_dump.add_argument("--threshold", type=_threshold, default=DEFAULT_PRUNE_THRESHOLD)
    p_dump.add_argument("--absolute", action="store_true", help="treat threshold as absolute")
    p_dump.add_argument("--sample", type=_sample_rate, default=1.0, help="sample rate in (0,1]")
    p_dump.add_argument("--out", help="output path (stdout when omitted)")
    p_dump.set_defaults(func=_cmd_dump_stats)

    p_oracle = sub.add_parser("oracle", help="compare the sweep against exhaustive search")
    p_oracle.add_argument("--max-sources", type=_oracle_sources, default=6)
    p_oracle.add_argument("--seed", type=int, default=1)
    p_oracle.add_argument("--k-fraction", type=_oracle_fraction, default=0.6)
    p_oracle.add_argument(
        "--prefix-average", action="store_true", help="evaluate under the prefix-average model"
    )
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # A file that cannot be read or written, or an input rejected once
        # read (a bad config, a threshold too low for the universe).
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
