"""Benchmark grid: seeded conditions, CSV reporting, reference checks.

A grid varies one axis at a time away from a default condition and runs
every configured algorithm over a shared seed list, reporting the mean
and standard deviation of the simulated retrieval time per (condition,
algorithm).  Output is byte-stable for a fixed config.  The module also
ships the verification routine for the bundled three-source instance,
which sweeps the target count over its whole range and compares the
exhaustive-search optimum against the expected piecewise table and curve
crossing point.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping

from .cost import SEQUENTIAL, QuerySpec, permutation_time_cost, walk_residuals
from .detection import DetectionOutcome, initial_detection
from .permutation import TABLE_ALGO_ORDER, brute_force_opt
from .scheduler import RunConfig, RunResult, run_query
from .simulator import (
    SCOPE_ALL,
    SCOPE_FOCUS,
    ReplicationModel,
    ScopedProbe,
    Universe,
    UniverseConfig,
    VennModel,
    demo_universe,
    generate,
)

CSV_HEADER = "condition,algorithm,mean_time_ms,stddev_ms,shortfall_count"

@dataclass(frozen=True)
class GridSpec:
    """A grid: default condition, one-factor axes, algorithms and seeds.

    Construction builds every condition's configs, so a bad axis name or
    value raises before any run.
    """

    universe: UniverseConfig
    run: RunConfig
    k_fraction: float = 0.8
    axes: tuple[tuple[str, tuple[float, ...]], ...] = ()
    algorithms: tuple[str, ...] = TABLE_ALGO_ORDER
    seeds: tuple[int, ...] = tuple(range(101, 111))

    def __post_init__(self) -> None:
        _fraction(self.k_fraction, "top level", "k_fraction", self.universe.n_distinct)
        if not self.seeds:  # every condition's mean needs a run
            raise ValueError("grid config section top level: seeds must not be empty")
        for axis, value in self.conditions():
            condition_config(self, axis, value)

    def conditions(self) -> list[tuple[str, float]]:
        return [(axis, v) for axis, values in self.axes for v in values]


def condition_config(
    spec: GridSpec, axis: str, value: float
) -> tuple[UniverseConfig, RunConfig, float]:
    """The universe config, run config and k fraction of one grid condition.

    Raises ValueError for an unknown axis, or for a value the config it
    sets rejects.
    """
    ucfg = spec.universe
    run = spec.run
    k_fraction = spec.k_fraction
    if axis == "k_fraction":
        k_fraction = _fraction(value, "axes", axis, ucfg.n_distinct)
    elif axis == "query_threads":
        run = replace(run, query_threads=_integer(value, "axes", axis))
    elif axis == "n_sources":
        ucfg = scaled_universe(ucfg, _integer(value, "axes", axis))
    elif axis == "query_split":
        ucfg = replace(ucfg, query_split=float(value))
    elif axis == "detection_overhead":
        run = replace(run, detection_overhead=float(value))
    else:
        raise ValueError(f"unknown grid axis {axis!r}")
    return ucfg, run, k_fraction


def desk_universe_config(
    n_sources: int = 50,
    n_distinct: int = 600,
    total_tuples: int = 3000,
    query_split: float = 0.5,
) -> UniverseConfig:
    """Desk-scale default universe: small enough for second-scale runs."""
    return UniverseConfig(
        n_sources=n_sources,
        n_distinct=n_distinct,
        total_tuples=total_tuples,
        overlap=ReplicationModel(
            style="chained",
            mean_depth=total_tuples / n_distinct,
            max_depth=9,
            chains=4,
            chain_skew=0.2,
            popularity_alpha=0.0,
            split_skew=0.25,
        ),
        access_ms=(5.0, 25.0),
        per_tuple_ms=(0.02, 0.42),
        query_split=query_split,
    )


def default_grid() -> GridSpec:
    return GridSpec(
        universe=desk_universe_config(),
        run=RunConfig(),
        axes=(("k_fraction", (0.2, 0.4, 0.6, 0.8)),),
    )


_DETECTION_CACHE: dict[tuple, DetectionOutcome] = {}
#: Universes by (config, seed): every cell of a condition shares one.
_UNIVERSE_CACHE: dict[tuple[UniverseConfig, int], Universe] = {}


def offline_stats(universe: Universe, run: RunConfig) -> DetectionOutcome:
    """Initial detection for a universe, cached per (universe, threshold)."""
    key = (universe.config, universe.seed, universe.unavailable, run.prune_threshold)
    hit = _DETECTION_CACHE.get(key)
    if hit is None:
        hit = initial_detection(ScopedProbe(universe, SCOPE_ALL), run.prune_threshold)
        _DETECTION_CACHE[key] = hit
    return hit


def scaled_universe(ucfg: UniverseConfig, n_sources: int) -> UniverseConfig:
    """Resize the source count at fixed tuple totals.

    Overlap families scale with the source count so that tuples spread
    over more, individually smaller sources instead of leaving the extra
    sources empty.
    """
    overlap = ucfg.overlap
    if isinstance(overlap, ReplicationModel) and overlap.style == "chained":
        factor = n_sources / ucfg.n_sources
        overlap = replace(overlap, chains=max(2, round(overlap.chains * factor)))
    return replace(ucfg, n_sources=n_sources, overlap=overlap)


def run_condition(
    spec: GridSpec, axis: str, value: float, algo: str, seed: int
) -> RunResult:
    """One deterministic cell of the grid; universes are generated once per process."""
    ucfg, run, k_fraction = condition_config(spec, axis, value)
    universe = _UNIVERSE_CACHE.get((ucfg, seed))
    if universe is None:
        universe = _UNIVERSE_CACHE[ucfg, seed] = generate(ucfg, seed)
    stats = offline_stats(universe, run)
    focus_count = universe.truth.distinct_in_scope(SCOPE_FOCUS)
    k = max(1, int(round(k_fraction * focus_count)))
    query = QuerySpec(SCOPE_FOCUS, k)
    return run_query(algo, query, universe, stats.snapshot, run, seed=seed)


def run_grid(spec: GridSpec, out_path: str | Path, trace_dir: str | Path | None = None) -> str:
    """Run the whole grid and write the CSV; returns the CSV text."""
    lines = [CSV_HEADER]
    trace_root = Path(trace_dir) if trace_dir is not None else None
    if trace_root is not None:
        trace_root.mkdir(parents=True, exist_ok=True)
    for axis, value in spec.conditions():
        condition = f"{axis}={value:g}"
        for algo in spec.algorithms:
            times = []
            shortfalls = 0
            for seed in spec.seeds:
                result = run_condition(spec, axis, value, algo, seed)
                times.append(result.simulated_time_ms)
                shortfalls += int(result.shortfall)
                if trace_root is not None:
                    name = f"{axis}_{value:g}_{algo}_{seed}.json"
                    (trace_root / name).write_text(result.to_json() + "\n")
            mean = statistics.fmean(times)
            stddev = statistics.pstdev(times) if len(times) > 1 else 0.0
            lines.append(
                "%s,%s,%.6f,%.6f,%d" % (condition, algo, mean, stddev, shortfalls)
            )
    text = "\n".join(lines) + "\n"
    Path(out_path).write_text(text)
    return text


# -- reference-instance verification ----------------------------------------

#: Expected optimal prefix by target-count range for the bundled demo
#: instance: (upper bound of k, optimal order).
DEMO_OPTIMAL_TABLE: tuple[tuple[int, tuple[int, ...]], ...] = (
    (50, (0,)),
    (96, (0, 1)),
    (125, (1,)),
    (190, (1, 2)),
    (200, (1, 2, 0)),
)
#: Expected crossing point (k, time_ms) of the two demo retrieval curves.
DEMO_CROSSPOINT = (96.8, 106.4)
DEMO_CROSSPOINT_TOL = 0.5


def demo_table_order(k: int) -> tuple[int, ...]:
    for upper, order in DEMO_OPTIMAL_TABLE:
        if k <= upper:
            return order
    raise ValueError(f"k={k} outside the table range")


@dataclass(frozen=True)
class DemoReport:
    matches: int
    total: int
    mismatched_k: tuple[int, ...]
    crosspoint: tuple[float, float]
    crosspoint_ok: bool

    @property
    def passed(self) -> bool:
        return self.matches == self.total and self.crosspoint_ok

    def render(self) -> str:
        lines = [
            "optimal-prefix table: %d/%d match" % (self.matches, self.total),
        ]
        if self.mismatched_k:
            lines.append("mismatched k: %s" % ", ".join(map(str, self.mismatched_k)))
        lines.append(
            "curve crosspoint: (%.4f, %.4f) expected (%.1f, %.1f) tol %.1f -> %s"
            % (
                self.crosspoint[0],
                self.crosspoint[1],
                DEMO_CROSSPOINT[0],
                DEMO_CROSSPOINT[1],
                DEMO_CROSSPOINT_TOL,
                "ok" if self.crosspoint_ok else "MISMATCH",
            )
        )
        lines.append("result: %s" % ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def demo_crosspoint(universe: Universe) -> tuple[float, float]:
    """First genuine crossing of the two reference retrieval curves."""
    snapshot = universe.truth_snapshot(SCOPE_ALL)
    seq_a, seq_b = (0, 1, 2), (1, 2, 0)

    def curve(order: tuple[int, ...], k: float) -> float:
        return permutation_time_cost(order, snapshot, k, SEQUENTIAL).time_ms

    # Each curve is linear between the cumulative residuals of its order.
    breakpoints = sorted(
        set(accumulate(walk_residuals(seq_a, snapshot)))
        | set(accumulate(walk_residuals(seq_b, snapshot)))
    )
    prev_k = 1.0
    prev_diff = curve(seq_a, 1.0) - curve(seq_b, 1.0)
    for k in [k for k in breakpoints if k > 1.0]:
        diff = curve(seq_a, k) - curve(seq_b, k)
        if prev_diff == 0.0:
            return prev_k, curve(seq_a, prev_k)
        if diff * prev_diff < 0:
            # Linear interpolation inside the segment gives the exact root.
            frac = prev_diff / (prev_diff - diff)
            k_star = prev_k + frac * (k - prev_k)
            return k_star, curve(seq_b, k_star)
        prev_k, prev_diff = k, diff
    raise ValueError("curves do not cross")


def verify_demo_instance() -> DemoReport:
    """Check exhaustive-search optima against the reference table."""
    universe = demo_universe()
    snapshot = universe.truth_snapshot(SCOPE_ALL)
    matches = 0
    mismatched = []
    for k in range(1, 201):
        _, best_cost, shortfall = brute_force_opt(k, snapshot, SEQUENTIAL)
        expected = permutation_time_cost(demo_table_order(k), snapshot, k, SEQUENTIAL)
        if (
            not shortfall
            and not expected.shortfall
            and abs(expected.time_ms - best_cost) <= 1e-9 * max(1.0, best_cost)
        ):
            matches += 1
        else:
            mismatched.append(k)
    cross = demo_crosspoint(universe)
    cross_ok = (
        abs(cross[0] - DEMO_CROSSPOINT[0]) <= DEMO_CROSSPOINT_TOL
        and abs(cross[1] - DEMO_CROSSPOINT[1]) <= DEMO_CROSSPOINT_TOL
    )
    return DemoReport(matches, 200, tuple(mismatched), cross, cross_ok)


# -- config (de)serialization ------------------------------------------------

_TOP_KEYS = ("universe", "run", "k_fraction", "axes", "algorithms", "seeds")
#: Universe section key -> UniverseConfig field.
_UNIVERSE_FIELDS = {
    "sources": "n_sources",
    "distinct": "n_distinct",
    "total": "total_tuples",
    "access_ms": "access_ms",
    "per_tuple_ms": "per_tuple_ms",
    "query_split": "query_split",
}
_REPLICATION_KEYS = tuple(f.name for f in fields(ReplicationModel))


def _section(value: object, where: str, allowed: Iterable[str] | None = None) -> Mapping:
    """``value`` as a config section: a JSON object with no key but the ``allowed`` ones.

    The parser would otherwise drop an unknown key without notice.  With
    no ``allowed`` keys given, any key goes.
    """
    if not isinstance(value, Mapping):
        raise ValueError(f"grid config section {where} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(value if allowed is None else allowed))
    if unknown:
        raise ValueError(
            "unknown key(s) in grid config section %s: %s" % (where, ", ".join(unknown))
        )
    return value


def _list(value: object, where: str, key: str) -> list:
    """``value`` if it is a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"grid config section {where}: {key} must be a list, got {value!r}")
    return value


def _number(value: object, where: str, key: str) -> float:
    """``value`` as a float: it must be a JSON number within the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"grid config section {where}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(
            f"grid config section {where}: {key} is too large: {len(str(value))} digits"
        ) from None


def _integer(value: object, where: str, key: str) -> int:
    """``value`` as an int; a float must be whole, since ``int`` would truncate it."""
    if not _number(value, where, key).is_integer():  # NaN and infinities too
        raise ValueError(
            f"grid config section {where}: {key} must be an integer, got {value!r}"
        )
    return int(value)


def _fraction(value: object, where: str, key: str, n_distinct: int) -> float:
    """``value`` as a float: a positive share of the focus tuples to ask for.

    The focus tuples are at most the universe's ``n_distinct``; a share
    whose count of them is infinite has no whole k.
    """
    value = float(value)
    if not (value > 0.0 and math.isfinite(value * n_distinct)):  # NaN too
        raise ValueError(
            f"grid config section {where}: {key} must be positive and finite"
            f" as a share of {n_distinct} tuples, got {value!r}"
        )
    return value


def _override(
    default,
    values: Mapping[str, object],
    where: str,
    fields_by_key: Mapping[str, str] | None = None,
):
    """``default`` with ``values`` replacing its fields.

    Each value takes the type of the default it replaces, as JSON gives
    numbers without telling ints from floats; a tuple default, a (low,
    high) range, takes a list of two numbers.  ``fields_by_key`` maps a
    section key to its field where the two differ.
    """
    changes = {}
    for key, value in values.items():
        name = fields_by_key.get(key, key) if fields_by_key else key
        kind = type(getattr(default, name))
        if kind is tuple:
            pair = tuple(_number(v, where, key) for v in _list(value, where, key))
            if len(pair) != 2:
                raise ValueError(f"grid config section {where}: {key} must be a pair: {value!r}")
            value = pair
        elif kind is not str:  # the model names the strings it knows
            value = _integer(value, where, key) if kind is int else _number(value, where, key)
        changes[name] = value
    return replace(default, **changes)


def grid_from_json(payload: Mapping) -> GridSpec:
    """Parse a grid config; unknown keys, algorithm names or axes raise ValueError.

    So do axis values a condition's config rejects, as :class:`GridSpec`
    builds every condition's configs, a value of the wrong JSON type, an
    int past the float range, and a value for an integer field that is
    not a whole number (NaN and infinities included), which would
    otherwise be truncated.

    Every value left out takes its default from :func:`desk_universe_config`,
    :class:`RunConfig` or :class:`GridSpec`.
    """
    _section(payload, "top level", _TOP_KEYS)
    desk = desk_universe_config()
    u = _section(payload.get("universe", {}), "universe", [*_UNIVERSE_FIELDS, "overlap"])
    overlap_cfg = u.get("overlap", {})
    venn = isinstance(overlap_cfg, Mapping) and "cells" in overlap_cfg
    _section(overlap_cfg, "universe.overlap", ("cells",) if venn else _REPLICATION_KEYS)
    if venn:
        cells = _section(overlap_cfg["cells"], "universe.overlap.cells")
        overlap: ReplicationModel | VennModel = VennModel.from_mapping(
            {
                int(m, 0) if isinstance(m, str) else int(m): _integer(c, "universe.overlap", "cells")
                for m, c in cells.items()
            }
        )
    else:
        overlap = _override(desk.overlap, overlap_cfg, "universe.overlap")
    universe = _override(
        replace(desk, overlap=overlap),
        {key: value for key, value in u.items() if key != "overlap"},
        "universe",
        _UNIVERSE_FIELDS,
    )
    r = _section(payload.get("run", {}), "run", [f.name for f in fields(RunConfig)])
    axes = tuple(
        (name, tuple(_number(v, "axes", name) for v in _list(values, "axes", name)))
        for name, values in _section(payload.get("axes", {}), "axes").items()
    )
    spec = GridSpec(universe, _override(RunConfig(), r, "run"), axes=axes)
    top: dict[str, object] = {}
    if "k_fraction" in payload:
        top["k_fraction"] = _number(payload["k_fraction"], "top level", "k_fraction")
    if "algorithms" in payload:
        top["algorithms"] = tuple(_list(payload["algorithms"], "top level", "algorithms"))
    if "seeds" in payload:
        seeds = _list(payload["seeds"], "top level", "seeds")
        top["seeds"] = tuple(_integer(s, "top level", "seeds") for s in seeds)
    spec = replace(spec, **top)
    unknown = [a for a in spec.algorithms if a not in TABLE_ALGO_ORDER]
    if unknown:
        raise ValueError("unknown algorithm(s) in grid config: %s" % ", ".join(map(repr, unknown)))
    return spec


def load_grid(path: str | Path) -> GridSpec:
    return grid_from_json(json.loads(Path(path).read_text()))
