"""Seeded synthetic universes of overlapping sources.

Generation is deterministic in (config, seed).  Two overlap models are
supported: ``venn`` places exact per-cell counts (used by the bundled
three-source demo instance), while ``replication`` draws a membership set
per distinct tuple.  Replication comes in a ``uniform`` flavour (source
sets sampled independently) and a ``chained`` flavour, where membership
sets are prefixes of seeded source chains; the chained flavour produces
the few-heavy-cells structure that threshold-pruned detection can actually
discover, and is the benchmark default.

Every distinct tuple is an opaque integer id.  Each tuple is assigned to
the ``focus`` or the complementary result set once at generation time, so
a query either targets the focus subset or everything.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .lattice import StatsSnapshot, member_sources, snapshot_from_cells

SCOPE_ALL = "all"
SCOPE_FOCUS = "focus"
SCOPES = (SCOPE_ALL, SCOPE_FOCUS)


class SourceUnavailable(RuntimeError):
    """The simulated source refused the connection."""


@dataclass(frozen=True)
class ReplicationModel:
    """Random membership draws: how many sources per tuple, and how."""

    style: str = "chained"  # "chained" | "uniform"
    mean_depth: float = 5.0
    max_depth: int = 10
    chains: int = 16
    chain_skew: float = 1.4  # zipf exponent over chain weights
    popularity_alpha: float = 1.0
    split_skew: float = 0.0  # per-chain spread of the focus share

    def __post_init__(self) -> None:
        if self.style not in ("chained", "uniform"):
            raise ValueError(f"unknown replication style {self.style!r}")
        if not 1.0 <= self.mean_depth <= self.max_depth:
            raise ValueError("mean_depth must lie in [1, max_depth]")
        if not self.chains >= 1:  # a chained draw picks one of them
            raise ValueError(f"chains must be at least 1, got {self.chains}")


@dataclass(frozen=True)
class VennModel:
    """Exact cell counts, mask-keyed."""

    cells: tuple[tuple[int, int], ...]

    @staticmethod
    def from_mapping(cells: Mapping[int, int]) -> "VennModel":
        return VennModel(tuple(sorted((int(m), int(c)) for m, c in cells.items())))


@dataclass(frozen=True)
class UniverseConfig:
    n_sources: int
    n_distinct: int
    total_tuples: int
    overlap: ReplicationModel | VennModel
    access_ms: tuple[float, float] = (5.0, 25.0)
    per_tuple_ms: tuple[float, float] = (0.02, 0.42)
    query_split: float = 0.5
    access_override: tuple[float, ...] | None = None
    per_tuple_override: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.n_sources >= 1:
            raise ValueError(f"n_sources must be at least 1, got {self.n_sources}")
        if not self.n_distinct >= 0:  # a count of tuples to draw
            raise ValueError(f"n_distinct must be at least 0, got {self.n_distinct}")
        if self.total_tuples < self.n_distinct:
            raise ValueError("total_tuples must be at least n_distinct")
        if not 0.0 < self.query_split <= 1.0:
            raise ValueError("query_split must be in (0, 1]")
        for name in ("access_ms", "per_tuple_ms"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi < math.inf:  # NaN too
                raise ValueError(
                    f"{name} must be an ordered, nonnegative and finite range, got {(lo, hi)!r}"
                )
        for name in ("access_override", "per_tuple_override"):
            values = getattr(self, name)
            if values is None:
                continue
            if len(values) != self.n_sources:
                raise ValueError(
                    f"{name} must hold one entry per source ({self.n_sources}), got {len(values)}"
                )
            if not all(0.0 <= v < math.inf for v in values):  # NaN too
                raise ValueError(f"{name} entries must be nonnegative and finite, got {values!r}")
        if isinstance(self.overlap, VennModel):
            for mask, count in self.overlap.cells:
                if not 0 < mask < 1 << self.n_sources:
                    raise ValueError(f"cell mask {mask:#x} outside the universe")
                if count < 0:
                    raise ValueError(f"cell {mask:#x} has a negative count {count}")
            if sum(count for _, count in self.overlap.cells) > self.n_distinct:
                raise ValueError("cell counts exceed the distinct tuple budget")


@dataclass(frozen=True)
class SimSource:
    id: int
    access_ms: float
    per_tuple_ms: float
    tuples: tuple[int, ...]  # fixed stream order, each tuple at most once


def _check_scope(scope: str) -> None:
    """Raise ValueError unless ``scope`` names a query scope; each per-scope view checks here."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")


def _cell_table(membership: Sequence[int], focus: frozenset[int], scope: str) -> dict[int, int]:
    """Tuple count per nonempty membership mask over the tuples in ``scope``."""
    _check_scope(scope)
    counts: Counter[int] = Counter()
    for tid, mask in enumerate(membership):
        if mask and (scope == SCOPE_ALL or tid in focus):
            counts[mask] += 1
    return dict(counts)


def _source_totals(cells: Mapping[int, int], n_sources: int) -> list[int]:
    """Tuple count of each source: every cell's count added to each member."""
    totals = [0] * n_sources
    for mask, count in cells.items():
        for s in member_sources(mask):
            totals[s] += count
    return totals


@dataclass(frozen=True)
class GroundTruth:
    """Exact membership masks and the per-scope cell tables derived from them."""

    membership: tuple[int, ...]  # per distinct tuple id
    focus: frozenset[int]  # tuple ids in the focus result set
    _tables: dict[str, dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_distinct(self) -> int:
        return len(self.membership)

    def _table(self, scope: str) -> dict[int, int]:
        """The cached cell table of ``scope``; callers must not mutate it."""
        if scope not in self._tables:
            self._tables[scope] = _cell_table(self.membership, self.focus, scope)
        return self._tables[scope]

    def cells(self, scope: str) -> dict[int, int]:
        return dict(self._table(scope))

    def distinct_in_scope(self, scope: str) -> int:
        return sum(self._table(scope).values())


@dataclass(frozen=True)
class Universe:
    config: UniverseConfig
    seed: int
    sources: tuple[SimSource, ...]
    truth: GroundTruth
    unavailable: frozenset[int] = frozenset()
    _streams: dict[str, tuple[tuple[int, ...], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _totals: dict[str, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _truths: dict[str, StatsSnapshot] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def tuple_stream(self, source: int, scope: str) -> tuple[int, ...]:
        """Matching tuples of one source in its fixed stream order."""
        if scope not in self._streams:
            _check_scope(scope)
            focus = self.truth.focus
            self._streams[scope] = tuple(
                src.tuples if scope == SCOPE_ALL else tuple(t for t in src.tuples if t in focus)
                for src in self.sources
            )
        self._check_up(source)
        return self._streams[scope][source]

    def _check_up(self, source: int) -> None:
        if source in self.unavailable:
            raise SourceUnavailable(f"source {source} unavailable")

    def _scope_totals(self, scope: str) -> list[int]:
        """The cached tuple count of each source in ``scope``; callers must not mutate it."""
        if scope not in self._totals:
            self._totals[scope] = _source_totals(self.truth._table(scope), self.n_sources)
        return self._totals[scope]

    def truth_snapshot(self, scope: str) -> StatsSnapshot:
        """Ground-truth lattice packaged as a statistics snapshot, built once per scope."""
        if scope not in self._truths:
            self._truths[scope] = snapshot_from_cells(
                tuple(s.access_ms for s in self.sources),
                tuple(s.per_tuple_ms for s in self.sources),
                self.truth.cells(scope),
            )
        return self._truths[scope]


def _zipf_weights(n: int, alpha: float, rng: random.Random) -> list[float]:
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    return [1.0 / (r**alpha) for r in ranks]


def _weighted_sample(ids: Sequence[int], weights: Sequence[float], k: int, rng: random.Random) -> list[int]:
    chosen: list[int] = []
    pool = list(ids)
    w = list(weights)
    for _ in range(min(k, len(pool))):
        total = sum(w)
        pick = rng.random() * total
        acc = 0.0
        idx = len(pool) - 1
        for i, wi in enumerate(w):
            acc += wi
            if pick < acc:
                idx = i
                break
        chosen.append(pool.pop(idx))
        w.pop(idx)
    return chosen


def _weighted_draw(
    population: Sequence[int], weights: Iterable[float], rng: random.Random
) -> Callable[[], int]:
    """``lambda: rng.choices(population, weights)[0]``: the same draws.

    ``choices`` accumulates the weights and checks them on every call;
    here that happens once, and each draw is its ``random()`` and bisect.
    """
    cum = list(itertools.accumulate(weights))
    total = cum[-1] + 0.0
    hi = len(cum) - 1
    draw = rng.random
    return lambda: population[bisect.bisect(cum, draw() * total, 0, hi)]


def _depth_weights(model: ReplicationModel) -> list[float]:
    """Geometric depth profile whose mean matches the configured one."""
    depths = range(1, model.max_depth + 1)
    lo, hi = 1e-6, 4.0
    target = model.mean_depth

    def mean_for(q: float) -> float:
        ws = [q**d for d in depths]
        return sum(d * w for d, w in zip(depths, ws)) / sum(ws)

    if target <= mean_for(lo):
        q = lo
    elif target >= mean_for(hi):
        q = hi
    else:
        for _ in range(80):
            mid = (lo + hi) / 2
            if mean_for(mid) < target:
                lo = mid
            else:
                hi = mid
        q = (lo + hi) / 2
    return [q**d for d in depths]


def generate(config: UniverseConfig, seed: int) -> Universe:
    """Deterministically build a universe from (config, seed)."""
    if isinstance(config.overlap, VennModel):
        membership, focus = _generate_venn(config, seed)
    else:
        membership, focus = _generate_replication(config, config.overlap, seed)

    rng = random.Random(f"latency:{seed}")
    n = config.n_sources
    if config.access_override is not None:
        access = tuple(float(a) for a in config.access_override)
    else:
        lo, hi = config.access_ms
        access = tuple(lo + rng.random() * (hi - lo) for _ in range(n))
    if config.per_tuple_override is not None:
        per_tuple = tuple(float(t) for t in config.per_tuple_override)
    else:
        lo, hi = config.per_tuple_ms
        per_tuple = tuple(lo + rng.random() * (hi - lo) for _ in range(n))

    per_source: list[list[int]] = [[] for _ in range(n)]
    # Far fewer masks than tuples (bulk: 36 for 20,000): decode each once.
    members = {mask: member_sources(mask) for mask in set(membership)}
    # One int per tuple id, shared by every stream and the focus set.
    tids = list(range(config.n_distinct))
    for tid, mask in zip(tids, membership):
        for s in members[mask]:
            per_source[s].append(tid)
    sources = []
    for s in range(n):
        order_rng = random.Random(f"stream:{seed}:{s}")
        tuples = per_source[s][:]
        order_rng.shuffle(tuples)
        sources.append(SimSource(s, access[s], per_tuple[s], tuple(tuples)))

    # Inserted in ascending order, as every generator builds ``focus``,
    # so the set's layout, and with it its repr, is unchanged.
    truth = GroundTruth(tuple(membership), frozenset({t for t in tids if t in focus}))
    return Universe(config, seed, tuple(sources), truth)


def _generate_venn(config: UniverseConfig, seed: int) -> tuple[list[int], set[int]]:
    model = config.overlap
    assert isinstance(model, VennModel)
    membership = []
    for mask, count in sorted(model.cells):
        membership.extend([mask] * count)
    membership.extend([0] * (config.n_distinct - len(membership)))
    rng = random.Random(f"focus:{seed}")
    focus = {tid for tid in range(config.n_distinct) if rng.random() < config.query_split}
    return membership, focus


def _generate_replication(
    config: UniverseConfig, model: ReplicationModel, seed: int
) -> tuple[list[int], set[int]]:
    rng = random.Random(f"replication:{seed}")
    n = config.n_sources
    popularity = _zipf_weights(n, model.popularity_alpha, rng)
    draw_depth = _weighted_draw(range(1, model.max_depth + 1), _depth_weights(model), rng)

    if model.style == "chained":
        chain_len = min(n, model.max_depth)
        chains = [
            _weighted_sample(range(n), popularity, chain_len, rng) for _ in range(model.chains)
        ]
        draw_chain = _weighted_draw(
            range(model.chains),
            (1.0 / (c + 1) ** model.chain_skew for c in range(model.chains)),
            rng,
        )
        picks = [(draw_chain(), draw_depth()) for _ in range(config.n_distinct)]
        depth_of = [min(d, len(chains[c])) for c, d in picks]
        chain_of = [c for c, _ in picks]
        _balance_total(depth_of, config.total_tuples, rng,
                       cap=[len(chains[c]) for c in chain_of])
        # prefix[c][d] is the mask of chains[c][:d]: tuples on one chain
        # prefix share its int, so a universe keeps one per distinct mask.
        prefix = [
            list(itertools.accumulate((1 << s for s in chain), operator.or_, initial=0))
            for chain in chains
        ]
        membership = [prefix[c][d] for c, d in zip(chain_of, depth_of)]
        focus_rng = random.Random(f"focus:{seed}")
        shares = [
            min(0.95, max(0.05, config.query_split + (focus_rng.random() * 2 - 1) * model.split_skew))
            for _ in range(model.chains)
        ]
        focus = {
            tid
            for tid in range(config.n_distinct)
            if focus_rng.random() < shares[chain_of[tid]]
        }
        return membership, focus

    depth_of = [draw_depth() for _ in range(config.n_distinct)]
    for i in range(len(depth_of)):
        depth_of[i] = min(depth_of[i], n)
    _balance_total(depth_of, config.total_tuples, rng, cap=[n] * config.n_distinct)
    membership = []
    ids = list(range(n))
    for tid in range(config.n_distinct):
        chosen = _weighted_sample(ids, popularity, depth_of[tid], rng)
        mask = 0
        for s in chosen:
            mask |= 1 << s
        membership.append(mask)
    focus_rng = random.Random(f"focus:{seed}")
    focus = {tid for tid in range(config.n_distinct) if focus_rng.random() < config.query_split}
    return membership, focus


def _balance_total(depth_of: list[int], target: int, rng: random.Random, cap: list[int]) -> None:
    """Nudge per-tuple depths until their sum hits the configured total."""
    total = sum(depth_of)
    guard = 0
    n = len(depth_of)
    while total != target and guard < 50 * max(target, 1):
        guard += 1
        tid = rng.randrange(n)
        if total < target and depth_of[tid] < cap[tid]:
            depth_of[tid] += 1
            total += 1
        elif total > target and depth_of[tid] > 1:
            depth_of[tid] -= 1
            total -= 1
    if total != target:
        raise ValueError("replication distribution cannot reach the tuple total")


@dataclass(frozen=True)
class ScopedProbe:
    """Counting-query view of a universe for one query scope.

    A ``sample_rate`` below 1 switches the view to a Bernoulli sample of
    tuple/source placements; counts are then sample counts scaled by the
    rate's reciprocal.
    """

    universe: Universe
    scope: str
    sample_rate: float = 1.0
    sample_seed: int = 0
    _cells: dict[int, int] = field(init=False, repr=False, compare=False)
    _totals: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rate = self.sample_rate
        if not 0.0 < rate <= 1.0:
            raise ValueError("sample rate must be in (0, 1]")
        truth = self.universe.truth
        if rate == 1.0:  # every draw would keep its placement
            cells = truth._table(self.scope)
            totals = self.universe._scope_totals(self.scope)
        else:
            rng = random.Random(f"sample:{self.sample_seed}:{rate}")
            sampled = [
                sum(1 << s for s in member_sources(mask) if rng.random() < rate)
                for mask in truth.membership
            ]
            cells = _cell_table(sampled, truth.focus, self.scope)
            totals = _source_totals(cells, self.universe.n_sources)
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_totals", totals)

    @property
    def n_sources(self) -> int:
        return self.universe.n_sources

    def access_ms(self, source: int) -> float:
        return self.universe.sources[source].access_ms

    def per_tuple_ms(self, source: int) -> float:
        return self.universe.sources[source].per_tuple_ms

    def cardinality(self, source: int) -> float:
        self.universe._check_up(source)
        return float(self._totals[source]) * (1.0 / self.sample_rate)

    def cell_count(self, mask: int) -> float:
        for s in member_sources(mask):
            self.universe._check_up(s)
        return float(self._cells.get(mask, 0)) * (1.0 / self.sample_rate)


DEMO_CELLS: Mapping[int, int] = {
    0b001: 10,
    0b010: 80,
    0b100: 60,
    0b011: 35,
    0b101: 5,
    0b110: 10,
    0b111: 0,
}
DEMO_ACCESS = (0.0, 0.0, 0.0)
DEMO_PER_TUPLE = (0.7, 1.1, 1.5)


def demo_universe(seed: int = 7, query_split: float = 1.0) -> Universe:
    """The bundled three-source reference instance.

    Three partially overlapping sources with zero access cost and known
    cell counts; with ``query_split=1.0`` the focus query matches every
    tuple, which is the configuration the reference figures assume.
    """
    cells = {m: c for m, c in DEMO_CELLS.items() if c > 0}
    n_distinct = sum(cells.values())
    total = sum(c * bin(m).count("1") for m, c in cells.items())
    config = UniverseConfig(
        n_sources=3,
        n_distinct=n_distinct,
        total_tuples=total,
        overlap=VennModel.from_mapping(cells),
        access_override=DEMO_ACCESS,
        per_tuple_override=DEMO_PER_TUPLE,
        query_split=query_split,
    )
    return generate(config, seed)
