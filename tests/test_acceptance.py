"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass/fail summary line (collected again in the
terminal summary) and asserts its stated tolerances.
"""

import random
import statistics
import time

from conftest import record_criterion
from querysched.cost import PREFIX_AVERAGE, SEQUENTIAL, permutation_time_cost
from querysched.detection import initial_detection, online_detection_plan
from querysched.grid import (
    GridSpec,
    desk_universe_config,
    run_condition,
    run_grid,
    verify_demo_instance,
)
from querysched.lattice import PRUNED
from querysched.permutation import approx_bound, brute_force_opt, refine_order
from querysched.scheduler import RunConfig
from querysched.simulator import (
    SCOPE_ALL,
    SCOPE_FOCUS,
    ReplicationModel,
    ScopedProbe,
    UniverseConfig,
    demo_universe,
    generate,
)
from querysched.testing import random_instance

from test_maxent import entropy, solve

DESK_SEEDS = tuple(range(101, 111))
ALGOS = (
    "random",
    "max_tuples",
    "max_residual",
    "min_unit_cost",
    "min_residual_cost",
    "sequential",
    "online",
    "full_knowledge",
)


def desk_spec(seeds=DESK_SEEDS):
    return GridSpec(universe=desk_universe_config(), run=RunConfig(), seeds=tuple(seeds))


def test_criterion_1_reference_table_and_crosspoint():
    started = time.monotonic()
    report = verify_demo_instance()
    elapsed = time.monotonic() - started
    detail = (
        f"table {report.matches}/200, crosspoint ({report.crosspoint[0]:.2f}, "
        f"{report.crosspoint[1]:.2f}) vs (96.8, 106.4) +-0.5, {elapsed:.2f}s"
    )
    ok = report.passed and elapsed < 1.0
    record_criterion(1, ok, detail)
    assert report.matches == 200
    assert report.crosspoint_ok
    assert elapsed < 1.0


def test_criterion_2_reference_costs():
    snap = demo_universe().truth_snapshot(SCOPE_ALL)
    single = permutation_time_cost((1,), snap, 125, SEQUENTIAL).time_ms
    pair = permutation_time_cost((0, 1), snap, 125, SEQUENTIAL).time_ms
    ok = single == 137.5 and abs(pair - 147.5) <= 0.5
    record_criterion(
        2,
        ok,
        f"single-source cost {single} (expect exactly 137.5), "
        f"two-source cost {pair:.4f} (expect 147.5 +-0.5)",
    )
    assert single == 137.5
    # The exact sequential model yields 35 + 75 * (137.5 / 90) =~ 149.58 ms
    # here; 147.5 corresponds to rounding the 1.5278 ms/tuple marginal rate
    # down to 1.5.  The assertion keeps the stated tolerance even though
    # the model that reproduces the optimal-prefix table cannot meet it.
    assert abs(pair - 147.5) <= 0.5


def test_criterion_3_oracle_dominance_and_bound():
    started = time.monotonic()
    n_instances = 200
    dominance_failures = 0
    bound_failures = []
    for i in range(n_instances):
        n = 3 + i % 6
        snap, distinct = random_instance(n, i)
        rng = random.Random(f"acceptance3:{i}")
        k = max(1, round((0.3 + 0.5 * rng.random()) * distinct))
        refined = refine_order(k, snap)
        _, best_seq, shortfall = brute_force_opt(k, snap, SEQUENTIAL)
        assert not shortfall
        got_seq = permutation_time_cost(refined.order, snap, k, SEQUENTIAL)
        if got_seq.time_ms < best_seq - 1e-9:
            dominance_failures += 1
        _, best_avg, _ = brute_force_opt(k, snap, PREFIX_AVERAGE)
        got_avg = permutation_time_cost(refined.order, snap, k, PREFIX_AVERAGE)
        ratio = got_avg.time_ms / best_avg if best_avg > 0 else 1.0
        bound = approx_bound(k, snap)
        if ratio > bound + 1e-9:
            bound_failures.append((i, n, k, round(ratio, 4), round(bound, 4)))
    elapsed = time.monotonic() - started
    bound_rate = 1.0 - len(bound_failures) / n_instances
    ok = dominance_failures == 0 and bound_rate >= 0.95 and elapsed < 30.0
    record_criterion(
        3,
        ok,
        f"dominance failures {dominance_failures}/200, bound satisfied "
        f"{bound_rate:.1%} (violations logged: {len(bound_failures)}), {elapsed:.1f}s",
    )
    if bound_failures:
        print("bound violations (instance, sources, k, ratio, bound):")
        for row in bound_failures:
            print("  ", row)
    assert dominance_failures == 0
    assert bound_rate >= 0.95
    assert elapsed < 30.0


def _exactness_universe(i: int) -> UniverseConfig:
    n = 3 + i % 10
    return UniverseConfig(
        n_sources=n,
        n_distinct=50 + 7 * i,
        total_tuples=(50 + 7 * i) * 2 + n,
        overlap=ReplicationModel(
            style="uniform", mean_depth=2.0 + (i % 3) * 0.5, max_depth=min(5, n)
        ),
        query_split=0.5,
    )


def test_criterion_4_statistics_exactness_and_residuals():
    started = time.monotonic()
    exact = 0
    snapshots = 0
    bad_rows = 0
    for i in range(20):
        config = _exactness_universe(i)
        n = config.n_sources
        universe = generate(config, 1000 + i)
        out = initial_detection(ScopedProbe(universe, SCOPE_ALL), 0.0)
        truth = universe.truth.cells(SCOPE_ALL)
        got = {m: c.value for m, c in out.snapshot.cells.items()}
        cells_match = all(
            abs(got.get(m, 0.0) - v) <= 1e-6 * max(1.0, v) for m, v in truth.items()
        ) and all(v <= 1e-6 or m in truth for m, v in got.items())
        exact += cells_match
        if n <= 7:
            stream = online_detection_plan(
                out.snapshot,
                tuple(range(n)),
                ScopedProbe(universe, SCOPE_FOCUS),
            )
            for _cost, read, _src in stream:
                snap = read()
                snapshots += 1
                for s in range(n):
                    total = sum(
                        c.value
                        for m, c in snap.cells.items()
                        if c.provenance != PRUNED and (m >> s) & 1
                    )
                    if abs(total - snap.cardinalities[s]) > 1e-6 * max(
                        snap.cardinalities[s], 1.0
                    ):
                        bad_rows += 1
    elapsed = time.monotonic() - started
    ok = exact == 20 and bad_rows == 0 and elapsed < 30.0
    record_criterion(
        4,
        ok,
        f"exact lattices {exact}/20, residual violations {bad_rows} over "
        f"{snapshots} snapshots, {elapsed:.1f}s",
    )
    assert exact == 20
    assert bad_rows == 0
    assert elapsed < 30.0


def test_criterion_5_entropy_solver():
    n, m = 100.0, 20.0
    values, _ = solve(
        {0: n, 1: n, 2: n},
        {0b001: m, 0b010: m, 0b100: m},
        [0b011, 0b101, 0b110],
        rel_tol=1e-9,
    )
    pair_ok = all(
        abs(values[mask] - (n - m) / 2) <= 1e-6 * (n - m) / 2
        for mask in (0b011, 0b101, 0b110)
    )

    grid_ok = True
    for a, b in [(2.0, 2.0), (5.0, 3.0), (1.0, 0.8)]:
        got, _ = solve({0: a, 1: b}, {}, [0b01, 0b10, 0b11], rel_tol=1e-9)
        scale = max(a, b)
        step = 0.01 * scale
        best = float("-inf")
        t = 0.0
        while t <= min(a, b) + 1e-12:
            best = max(best, entropy([a - t, b - t, t]))
            t += step
        objective = entropy([got[0b01], got[0b10], got[0b11]])
        if objective < best - 1e-6 * scale:
            grid_ok = False
    ok = pair_ok and grid_ok
    record_criterion(
        5,
        ok,
        f"symmetric split exact: {pair_ok}, objective >= grid maximizer: {grid_ok}",
    )
    assert pair_ok
    assert grid_ok


def test_criterion_6_desk_scale_ordering():
    started = time.monotonic()
    spec = desk_spec()
    means = []
    for algo in reversed(ALGOS):  # fastest last so caches fill on cheap runs
        vals = [
            run_condition(spec, "k_fraction", 0.8, algo, seed).simulated_time_ms
            for seed in spec.seeds
        ]
        means.append((algo, statistics.fmean(vals)))
    means.reverse()
    ordered = [m for _a, m in means]
    # Reporting order is worst-to-best; the required chain is best-to-worst.
    chain = list(reversed(ordered))
    inversions = sum(1 for i in range(len(chain) - 1) if chain[i] > chain[i + 1])
    elapsed = time.monotonic() - started
    ok = inversions <= 1 and elapsed < 120.0
    detail = ", ".join(f"{a}={m:.1f}" for a, m in means)
    record_criterion(6, ok, f"adjacent inversions {inversions} (<=1), {elapsed:.0f}s; {detail}")
    assert inversions <= 1
    assert elapsed < 120.0


def test_criterion_7_source_count_scaling():
    spec = desk_spec()
    sizes = (50, 100, 150, 200)
    means = []
    for n in sizes:
        vals = [
            run_condition(spec, "n_sources", n, "online", seed).simulated_time_ms
            for seed in spec.seeds
        ]
        means.append(statistics.fmean(vals))
    ok = True
    ratios = []
    for i in range(len(sizes) - 1):
        got = means[i + 1] / means[i]
        limit = 1.5 * sizes[i + 1] / sizes[i]
        ratios.append((round(got, 3), round(limit, 3)))
        if got >= limit:
            ok = False
    record_criterion(
        7,
        ok,
        "means "
        + "/".join(f"{m:.0f}" for m in means)
        + " ratios(limit) "
        + " ".join(f"{g}({l})" for g, l in ratios),
    )
    assert ok


def test_criterion_8_detection_overhead_direction():
    factors = (1.0, 1.2, 1.4, 1.6, 1.8)
    spec = desk_spec(seeds=range(101, 121))
    online_means = []
    full_means = []
    for factor in factors:
        online_means.append(
            statistics.fmean(
                run_condition(spec, "detection_overhead", factor, "online", s).simulated_time_ms
                for s in spec.seeds
            )
        )
        full_means.append(
            statistics.fmean(
                run_condition(
                    spec, "detection_overhead", factor, "full_knowledge", s
                ).simulated_time_ms
                for s in spec.seeds
            )
        )
    monotone = all(a <= b + 1e-9 for a, b in zip(online_means, online_means[1:]))
    invariant = all(m == full_means[0] for m in full_means)
    ok = monotone and invariant
    record_criterion(
        8,
        ok,
        "online means "
        + "/".join(f"{m:.1f}" for m in online_means)
        + f" nondecreasing: {monotone}; full-knowledge invariant: {invariant}",
    )
    assert monotone
    assert invariant


def test_criterion_9_byte_identical_csv(tmp_path):
    spec = GridSpec(
        universe=desk_universe_config(n_sources=16, n_distinct=120, total_tuples=500),
        run=RunConfig(),
        axes=(("k_fraction", (0.4, 0.8)), ("query_threads", (2,))),
        algorithms=ALGOS,
        seeds=(101, 102, 103),
    )
    first = run_grid(spec, tmp_path / "a.csv")
    second = run_grid(spec, tmp_path / "b.csv")
    ok = first == second and (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    record_criterion(9, ok, f"{len(first.splitlines()) - 1} rows, reruns byte-identical: {ok}")
    assert ok
