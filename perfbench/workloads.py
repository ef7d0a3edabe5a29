"""The benchmark's three workloads and the inputs they feed the program.

Each workload runs a fixed list of query runs over universes generated
from the seed base (the ROADMAP seeds 101, 102, ... by default).  The
``--seed`` of one benchmark run then derives a variant of every universe
in which each source streams its tuples in another order.  A variant
keeps the overlap structure, the source latencies and the statistics, so
it costs the program about as much as the original; it still changes
which duplicates arrive first, when the target is reached and so how many
detections, refreshes and replans a run makes.  Without ``--seed`` the
universes are used exactly as generated.

Why not a fresh universe per seed: at desk scale the cost of a universe
is bimodal.  Where the query-level entropy refreshes fail, its eight
online and sequential runs at k fractions 0.2-0.8 take 9-13 s; where
they converge, 0.6-3 s (seeds 101-112: six of each; coefficient of
variation 0.84).  The quartile
spread of a pass over ``n`` fresh universes would be about 1.1/sqrt(n)
of its median, so staying under 0.25 would take about twenty universes,
two minutes a pass.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import patched

BASELINES = ("random", "max_tuples", "max_residual", "min_unit_cost", "min_residual_cost")


@dataclass
class Record:
    """One ``run_query`` call of a pass.

    ``ms`` excludes the reference kernel's turns inside the run.  ``marks``
    are the calibrator's sample counts when the run started and ended
    (None without one); ``factor`` scales ``ms`` to the reference speed.
    """

    result: object
    ms: float
    universe: object
    scope: str
    marks: tuple[int, int] | None = None
    factor: float = 1.0


@dataclass
class Pass:
    """One pass over the run list; ``wall_s`` excludes the reference kernel.

    ``factor`` scales its times to the reference speed (1.0 until the
    caller sets it from the reference samples taken during the pass).
    """

    records: list[Record]
    wall_s: float
    csv: str | None = None
    factor: float = 1.0


class Recorder:
    """Calls ``scheduler.run_query`` and records each result with its wall ms.

    It looks ``run_query`` up at call time, so a traced wrapper installed
    there is what it times.  With a calibrator, it notes the calibrator's
    marks around a run, leaves the kernel's turns inside it out of its
    time, and gives the kernel a turn after it.
    """

    def __init__(self, scheduler, calibrator=None):
        self.scheduler = scheduler
        self.calibrator = calibrator
        self.records: list[Record] = []

    def __call__(self, algo, query, universe, *args, **kwargs):
        cal = self.calibrator
        start, spent = (cal.mark(), cal.spent_s) if cal is not None else (None, 0.0)
        t0 = time.perf_counter()
        result = self.scheduler.run_query(algo, query, universe, *args, **kwargs)
        seconds = time.perf_counter() - t0
        record = Record(result, 0.0, universe, query.predicate_id)
        if cal is not None:
            seconds -= cal.spent_s - spent
            record.marks = (start, cal.mark())
            cal.tick()
        record.ms = seconds * 1e3
        self.records.append(record)
        return result


def kernel_seconds(calibrator) -> float:
    """Seconds the calibrator's kernel has run so far (0 without one)."""
    return 0.0 if calibrator is None else calibrator.spent_s


def variant(qs, universe, seed: int):
    """The same universe with every source's tuple stream reshuffled from ``seed``."""
    sim = qs.simulator
    sources = []
    for src in universe.sources:
        stream = list(src.tuples)
        random.Random(f"perfbench:{seed}:{universe.seed}:{src.id}").shuffle(stream)
        sources.append(sim.SimSource(src.id, src.access_ms, src.per_tuple_ms, tuple(stream)))
    return sim.Universe(universe.config, universe.seed, tuple(sources), universe.truth)


class Workload:
    """A fixed run list over seeded universes; subclasses say how it runs."""

    name = ""
    n_universes = 1

    def __init__(self, qs, seed_base: int, variant_seed: int | None, out_dir: Path):
        self.qs = qs
        self.seeds = tuple(range(seed_base, seed_base + self.n_universes))
        self.variant_seed = variant_seed
        self.out_dir = out_dir

    def universe(self, config, seed: int):
        u = self.qs.simulator.generate(config, seed)
        return u if self.variant_seed is None else variant(self.qs, u, self.variant_seed)

    def setup(self) -> None:
        """Cold generation and offline statistics for every universe."""
        raise NotImplementedError

    def run_pass(self, calibrator=None) -> Pass:
        raise NotImplementedError

    def replay_matches(self, first) -> bool:
        """Run the pass's first run again; True if its JSON is identical."""
        raise NotImplementedError


class GridWorkload(Workload):
    """``grid_from_json`` + ``run_grid``, as ``querysched run --config`` does."""

    payload: dict = {}

    def __init__(self, *args):
        super().__init__(*args)
        payload = dict(self.payload, seeds=list(self.seeds))
        self.spec = self.qs.grid.grid_from_json(payload)

    def _installed(self, recorder: Recorder):
        grid = self.qs.grid
        return patched([(grid, "generate", self.universe), (grid, "run_query", recorder)])

    def _universe_config(self, axis: str, value: float):
        if axis == "n_sources":
            return self.qs.grid.scaled_universe(self.spec.universe, int(value))
        return self.spec.universe

    def setup(self) -> None:
        configs = {self._universe_config(a, v) for a, v in self.spec.conditions()}
        for config in configs:
            for seed in self.spec.seeds:
                self.qs.grid.offline_stats(self.universe(config, seed), self.spec.run)

    def run_pass(self, calibrator=None) -> Pass:
        recorder = Recorder(self.qs.scheduler, calibrator)
        with self._installed(recorder):
            spent = kernel_seconds(calibrator)
            t0 = time.perf_counter()
            csv = self.qs.grid.run_grid(self.spec, self.out_dir / f"{self.name}.csv")
            wall = time.perf_counter() - t0 - (kernel_seconds(calibrator) - spent)
        return Pass(recorder.records, wall, csv)

    def replay_matches(self, first) -> bool:
        axis, value = self.spec.conditions()[0]
        with self._installed(Recorder(self.qs.scheduler)):
            again = self.qs.grid.run_condition(
                self.spec, axis, value, self.spec.algorithms[0], self.spec.seeds[0]
            )
        return again.to_json() == first.to_json()


# Run costs cluster by k fraction and by algorithm.  Each run list has an
# odd number of clusters, so the median run lies inside the middle cluster
# rather than in the gap between two, where it would jump from seed to seed.


class DeskAdaptive(GridWorkload):
    name = "desk-adaptive"
    payload = {
        "axes": {"k_fraction": [0.2, 0.5, 0.8]},
        "algorithms": ["online", "sequential"],
    }


class WideSources(GridWorkload):
    name = "wide-sources"
    payload = {
        "k_fraction": 0.8,
        "axes": {"n_sources": [200]},
        "algorithms": ["online", "sequential", "full_knowledge"],
    }


class BulkScan(Workload):
    """The README quick start: offline statistics once, then ``run_query``."""

    name = "bulk-scan"
    n_universes = 2
    k_fractions = (0.2, 0.4, 0.6, 0.8)
    query_threads = (1, 4)
    algorithms = BASELINES + ("full_knowledge",)

    def setup(self) -> None:
        grid = self.qs.grid
        config = grid.desk_universe_config(n_distinct=20_000, total_tuples=100_000)
        run = self.qs.scheduler.RunConfig()
        self.universes = []
        for seed in self.seeds:
            u = self.universe(config, seed)
            self.universes.append((seed, u, grid.offline_stats(u, run).snapshot))

    def _runs(self):
        focus = self.qs.simulator.SCOPE_FOCUS
        for seed, u, snapshot in self.universes:
            in_scope = u.truth.distinct_in_scope(focus)
            for threads in self.query_threads:
                config = self.qs.scheduler.RunConfig(query_threads=threads)
                for kf in self.k_fractions:
                    query = self.qs.QuerySpec(focus, max(1, int(round(kf * in_scope))))
                    for algo in self.algorithms:
                        yield algo, query, u, snapshot, config, seed

    def run_pass(self, calibrator=None) -> Pass:
        recorder = Recorder(self.qs.scheduler, calibrator)
        runs = list(self._runs())
        spent = kernel_seconds(calibrator)
        t0 = time.perf_counter()
        for algo, query, u, snapshot, config, seed in runs:
            recorder(algo, query, u, snapshot, config, seed=seed)
        wall = time.perf_counter() - t0 - (kernel_seconds(calibrator) - spent)
        return Pass(recorder.records, wall)

    def replay_matches(self, first) -> bool:
        algo, query, u, snapshot, config, seed = next(self._runs())
        again = self.qs.scheduler.run_query(algo, query, u, snapshot, config, seed=seed)
        return again.to_json() == first.to_json()


WORKLOADS = {w.name: w for w in (DeskAdaptive, WideSources, BulkScan)}
