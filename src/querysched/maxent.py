"""Entropy-based fill-in for undetected lattice cells.

Given per-source totals and a set of already-detected cells, estimates the
free cells by maximizing ``-sum(w * log(w))`` subject to one linear row per
source: the cells containing that source must add up to its total.  The
stationarity conditions factor as ``w = exp(-1) * prod(mu_i)`` over the
sources in the cell's mask, so the solver runs multiplicative row scaling
(iterative proportional fitting) seeded at ``exp(-1)``; each row update is
an exact coordinate step on the convex dual, which converges to the global
optimum whenever the rows are consistent.  The sweeps run on Python floats
and add each row in numpy's summation order, so the floats are numpy's.
They skip the work whose result is known: once a sweep leaves every cell
as it found it, the phase's later sweeps would repeat it, so they are
counted against the stop rules but not run; and between the plateau
checks, which read the worst residual, a convergence test stops at the
first row over the tolerance.

Passing ``prior`` asks for the generalized-KL projection of the prior
onto the rows instead, i.e. the estimate closest to the prior that matches
the new totals; that variant backs the per-query refresh, where the
offline cells act as the prior.  Both pose the problem on the free cells
with a positive start (``exp(-1)``, or the prior) that no zero-residual
row forces, and on the rows that reach them: updates are multiplicative,
so a cell that starts at zero stays there, and a refresh's values depend
only on the known cells and the totals of the rows that reach a
positive-prior cell.  A refresh fits only the rows whose totals it
knows; a NaN total leaves its row out.  It runs the same row scaling for
a few sweeps and then the same damped Newton steps on the dual that
finish the offline fill; on rows some nonnegative cells meet, row
scaling converges to the projection (Csiszar, Ann. Probab. 1975) and
Newton gets there quadratically.  Rows the cells cannot all meet stop
Newton when its dual stops falling: the refresh returns that last
iterate and its residual rather than raising.  Cells are read by
position in a :class:`~querysched.lattice.CellIndex`, whose source-by-cell
matrix gives the rows: it is built once per cell set and shared by every
solve over it.  It holds no values, so a solve's answer and the work it
does depend only on its own arguments.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .lattice import CellIndex

log = logging.getLogger(__name__)

DEFAULT_REL_TOL = 1e-6

# Newton's backtracking tries these step lengths, longest first: 1, 1/2, ... 2**-59.
_STEP_LENGTHS = tuple(0.5**i for i in range(60))
# Sweeps of a query refresh's row scaling before Newton takes over.
_QUERY_SWEEPS = 20


class MaxEntError(RuntimeError):
    """Raised when the offline fill-in cannot satisfy the constraint rows.

    Carries the per-row absolute residuals, keyed by source, and the last
    iterate as every cell's value in index order, so pipelines can
    degrade to the best-effort estimates.
    """

    def __init__(self, message: str, residuals: dict[int, float], values: np.ndarray):
        super().__init__(message)
        self.residuals = residuals
        self.values = values


@dataclass(frozen=True)
class SolveReport:
    """What one :func:`solve` did.

    ``iterations`` counts row-scaling sweeps: 0 for a projection
    (``prior`` given) whose prior already meets the rows.
    ``max_rel_residual`` covers the rows solved, each row's sum of the
    cells read from the rows' 0/1 matrix as a matrix product: 0.0 when
    none is in play.
    """

    iterations: int
    max_rel_residual: float
    clamped_sources: tuple[int, ...]
    skipped_sources: tuple[int, ...] = ()


def solve(
    totals: Sequence[float],
    index: CellIndex,
    known: Mapping[int, float],
    *,
    prior: Sequence[float] | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    on_clamp: Callable[[int, float], None] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Estimate the free cells of ``index`` under per-source sum constraints.

    ``totals[s]`` is source ``s``'s total, one row per source of the
    index; a NaN total leaves the row out.  ``known`` maps cell positions
    to counts; they hold fixed and are subtracted from their rows in the
    order given.  The other cells are free, and ``prior``, when given,
    holds every cell's prior in index order; a zero, negative or NaN
    prior counts as zero and keeps its cell at zero.  Returns every
    cell's value in index order.  Negative row residuals (detected cells
    overshooting a total) are clamped to zero and reported through
    ``on_clamp`` rather than failing.  Without ``prior``, raises
    :class:`MaxEntError` when the residuals have not dropped below
    ``rel_tol`` (relative to each row total).  With ``prior`` it never
    raises: rows no positive-prior cell can reach are listed in
    ``skipped_sources``, and rows the cells cannot all meet leave the
    last Newton iterate, whose worst residual the report gives.
    """
    incidence = index.incidence
    n = len(incidence)
    # Per-row bookkeeping runs as array passes over the sources; only the
    # sums over a row's cells stay per row.
    resid = np.fromiter(map(totals.__getitem__, range(n)), float, n)
    scales = np.maximum(resid, 1.0)
    # Known cells add into each row in the order given, as a left-to-right
    # sum would: the same floats, row by row.
    known_sum = np.zeros(n)
    for i, v in known.items():
        known_sum[list(index.members[i])] += v
    resid = resid - known_sum
    values = np.zeros(incidence.shape[1])
    values[list(known)] = list(known.values())
    negative = np.flatnonzero(resid < 0.0)
    clamped = tuple(negative.tolist())
    if on_clamp is not None:
        for s, r in zip(clamped, resid[negative].tolist()):
            on_clamp(s, r)
    resid[negative] = 0.0
    wanting = resid > rel_tol * scales

    # Multiplicative updates keep a cell that starts at zero there, and a
    # zero-residual row forces its free cells to zero.  Rows that reach no
    # other free cell are vacuous: their residual is reported, not fatal.
    # A NaN total compares false everywhere: its row forces nothing and
    # is left out.
    start = np.full(len(values), math.exp(-1.0)) if prior is None else np.asarray(prior, float)
    fixed = incidence[resid == 0.0].any(axis=0) | ~(start > 0.0)
    fixed[list(known)] = True
    active = np.flatnonzero(~fixed)
    w = start[active]
    a = incidence[:, active]
    reachable = a.any(axis=1)
    skipped = np.flatnonzero(~reachable & wanting).tolist()
    rows = _Rows(np.arange(n), a.astype(float), resid, scales).take(reachable & ~np.isnan(resid))

    if prior is None:
        iterations, worst_rel, rows = _scale_rows(w, rows, rel_tol, skipped)
    else:
        # A prior that already meets the rows is the answer.  Otherwise one
        # round of a few sweeps and Newton, which converges quadratically
        # near the answer, polishes it past ``rel_tol``; no cell is pinned.
        iterations, worst_rel = 0, _worst_residual(w, rows)
        if worst_rel > rel_tol * 1e-3:
            iterations, worst_rel, rows = _scale_rows(
                w, rows, rel_tol * 1e-3, skipped, _QUERY_SWEEPS, (0.0,)
            )
    if skipped:
        log.debug("rows skipped as unreachable: %s", skipped)
    values[active] = w
    if prior is None and worst_rel > rel_tol:
        raise MaxEntError(
            "row scaling did not converge",
            dict(zip(rows.sources.tolist(), np.abs(rows.a @ w - rows.targets).tolist())),
            values,
        )
    return values, SolveReport(iterations, worst_rel, clamped, tuple(skipped))


@dataclass(frozen=True)
class _Rows:
    """The rows in play, as every phase of a solve reads them.

    ``a`` is their 0/1 matrix over the unforced free cells, as floats;
    each row also has its source, target and scale.
    """

    sources: np.ndarray
    a: np.ndarray
    targets: np.ndarray
    scales: np.ndarray

    def __len__(self) -> int:
        return len(self.sources)

    def take(self, keep: np.ndarray) -> _Rows:
        """The rows where the boolean ``keep`` holds, in order."""
        return _Rows(self.sources[keep], self.a[keep], self.targets[keep], self.scales[keep])


def _worst_residual(w: np.ndarray, rows: _Rows) -> float:
    """Worst row residual of ``w`` relative to each row's scale."""
    return float(np.max(np.abs(rows.a @ w - rows.targets) / rows.scales, initial=0.0))


def _row_sum(vals: list[float], idx: list[int]) -> float:
    """``float(np.array(vals)[idx].sum())`` bit for bit, without the array."""
    if len(idx) >= 8:  # numpy's pairwise blocks
        return float(np.array([vals[i] for i in idx]).sum())
    got = 0.0  # numpy's order below 8 cells (``sum`` compensates from 3.12)
    for i in idx:
        got += vals[i]
    return got


def _scale_rows(
    w, rows: _Rows, rel_tol, skipped, sweeps=400, pin_scales=(0.0, 1e-8, 1e-6, 1e-4, 1e-2)
) -> tuple[int, float, _Rows]:
    """Rounds of up to ``sweeps`` row-scaling sweeps, then Newton, on ``w``.

    After each round that misses ``rel_tol``, the next entry of
    ``pin_scales`` zeroes the cells below that share of the smallest
    target.  Returns the sweep count, the worst relative residual and the
    rows still in play; rows that pinning empties are added to ``skipped``.
    The sweeps run on Python lists, each row's cell positions read from
    ``rows.a`` once per scaling phase.
    """
    iterations = 0

    def scaling_phase(budget: int) -> float:
        nonlocal iterations
        vals = w.tolist()
        positions = [np.flatnonzero(row).tolist() for row in rows.a]
        lists = list(zip(positions, rows.targets.tolist(), rows.scales.tolist()))
        worst = window_best = math.inf
        still = False  # a sweep left ``vals`` as it found them
        failed = 0  # the row that failed the last convergence test
        for steps in range(1, budget + 1):
            iterations += 1
            if not still:
                before = vals.copy()
                for idx, target, _scale in lists:
                    got = _row_sum(vals, idx)
                    # Subnormal row sums would blow the factor up to inf;
                    # leave such rows to the residual check, not to nans.
                    if got > 1e-300 and math.isfinite(got):
                        f = target / got
                        for i in idx:
                            vals[i] *= f
                # A later sweep would repeat these operations on the same
                # floats.  ``f`` is never negative, so ``==`` cannot confuse
                # 0.0 with -0.0, and a NaN compares unequal.
                still = vals == before
                # Only the window checks and the phase's result read the
                # worst residual; other steps ask whether every row is
                # within ``rel_tol``, which the first row over it answers.
                # The max starts at 0.0, so row order does not change it.
                full = still or steps % 64 == 0 or steps == budget
                worst = 0.0
                for r in itertools.chain(range(failed, len(lists)), range(failed)):
                    idx, target, scale = lists[r]
                    residual = abs(_row_sum(vals, idx) - target) / scale
                    worst = max(worst, residual)
                    if residual > rel_tol and not full:
                        failed = r
                        break
            if worst <= rel_tol:
                break
            # Plateaued residuals mean inconsistent rows; boundary-bound
            # systems keep improving a few percent per window.
            if steps % 64 == 0:
                if worst >= window_best * 0.99:
                    break
                window_best = worst
        w[:] = vals
        return worst

    # Alternate cheap multiplicative sweeps with damped Newton steps on
    # the dual.  Solutions on the nonnegativity boundary are reachable
    # only asymptotically in this family, so after each stalled round the
    # cells vanishing against the row scale are pinned to zero and the
    # reduced system is polished again.
    worst_rel = math.inf
    positive = rows.targets[rows.targets > 0.0]
    min_target = float(positive.min()) if positive.size else 1.0
    for pin_scale in pin_scales:
        if not rows:
            worst_rel = 0.0
            break
        worst_rel = scaling_phase(sweeps)
        if worst_rel <= rel_tol:
            break
        worst_rel, _ = _newton_phase(w, rows, rel_tol)
        if worst_rel <= rel_tol:
            break
        threshold = pin_scale * min_target
        pinned = (w > 0.0) & (w < threshold)
        if not pinned.any():
            continue
        w[pinned] = 0.0
        has_mass = rows.a @ w > 0.0
        # Pinning emptied the rows that still want mass: the system was
        # not feasible in the nonnegative orthant there.
        skipped.extend(rows.sources[~has_mass & (rows.targets > rel_tol * rows.scales)].tolist())
        rows = rows.take(has_mass)
    return iterations, worst_rel, rows


def _newton_phase(w, rows: _Rows, rel_tol) -> tuple[float, int]:
    """Damped Newton steps on the dual until the rows balance or the dual stops falling.

    Returns the worst relative residual and the number of steps taken.
    ``A`` is ``rows.a`` as it is, the 0/1 rows over ``w``'s cells, and
    ``b`` the rows' targets.  The dual objective is ``sum(w) + lambda . b``
    with gradient ``b - A w`` and Hessian ``A diag(w) A^T``; cells keep the
    multiplicative form ``w *= exp(-A^T delta)`` so zero cells stay zero.
    Each step backtracks over :data:`_STEP_LENGTHS` along the Newton
    direction, which descends the convex dual; the phase ends when no
    length lowers the dual or when an accepted step does not.
    """
    incidence, targets, scales = rows.a, rows.targets, rows.scales
    lam = np.zeros(len(rows))

    # The gradient is the residual vector: the worst row comes from it.
    grad = incidence @ w - targets
    worst = float(np.max(np.abs(grad) / scales, initial=0.0))
    best = float(w.sum() + lam @ targets)
    best_resid = worst
    stale = 0
    steps = 0
    for _ in range(120):
        if worst <= rel_tol:
            break
        # On infeasible rows the dual is unbounded: h keeps shrinking
        # while the residual plateaus.  Stop chasing it.
        if worst < best_resid * 0.99:
            best_resid = worst
            stale = 0
        else:
            stale += 1
            if stale >= 8:
                break
        # Minimize the dual h = sum(w) + lambda.b: gradient b - Aw, so
        # the Newton step moves along the solved (Aw - b) direction.
        hess = (incidence * w) @ incidence.T
        ridge = 1e-12 * max(float(hess.trace()), 1.0)
        hess.flat[:: len(rows) + 1] += ridge
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        steps += 1
        slack = 1e-12 * max(1.0, abs(best))
        for alpha in _STEP_LENGTHS:
            step = alpha * delta
            shift = np.minimum(np.maximum(incidence.T @ step, -500.0), 500.0)
            trial = w * np.exp(-shift)
            if not np.all(np.isfinite(trial)):
                continue
            value = float(trial.sum() + (lam + step) @ targets)
            if value <= best + slack:
                break
        else:
            break
        w[:] = trial
        lam = lam + step
        grad = incidence @ w - targets
        worst = float(np.max(np.abs(grad) / scales, initial=0.0))
        if value >= best:
            break
        best = value
    return worst, steps
