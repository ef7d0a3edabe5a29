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
positive-prior cell.  Its rows are often infeasible: totals scaled from
a few probed sources cannot be met by the cells that the offline lattice
kept.  So unless the prior already meets the rows, the refresh scales
the rows once into a matrix over its cells and solves it in least
squares.  When that matrix has full column rank, the cells that reach
the nearest totals are one point, whatever the prior, and that point is
the answer: the least-squares point when it is positive, else the
Lawson-Hanson NNLS solution on the same matrix.  Otherwise NNLS finds
the nearest totals the nonnegative cells can reach, the refresh keeps
only the cells some nearest point may use, and Newton steps on the dual
project the prior onto those totals.  Each step backtracks until the
dual falls, so the refresh needs no other solver: the row scaling above
serves only the offline fill.  It always returns an answer and names the
sources whose totals moved.  Cells are read by position in a
:class:`~querysched.lattice.CellIndex`, whose source-by-cell matrix
gives the rows: it is built once per cell set and shared by every solve
over it.  It holds no values, so a solve's answer and the work it does
depend only on its own arguments.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .lattice import CellIndex

log = logging.getLogger(__name__)

DEFAULT_REL_TOL = 1e-6

# Newton's backtracking tries these step lengths, longest first: 1, 1/2, ... 2**-59.
_STEP_LENGTHS = tuple(0.5**i for i in range(60))
# NNLS stops after this many outer iterations per cell (column), plus one.
_NNLS_ITERATIONS_PER_CELL = 3


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

    ``iterations`` counts the offline fill's row-scaling sweeps.  For a
    projection (``prior`` given) it counts Newton steps, so it is 0 when
    the prior already meets the rows or when the rows fix a single point.
    ``max_rel_residual`` covers the rows solved, each row's sum of the
    cells read from the rows' 0/1 matrix as a matrix product: 0.0 when
    none is in play.
    """

    iterations: int
    max_rel_residual: float
    clamped_sources: tuple[int, ...]
    skipped_sources: tuple[int, ...] = ()
    moved_sources: tuple[int, ...] = ()


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
    index.  ``known`` maps cell positions to counts; they hold fixed and
    are subtracted from their rows in the order given.  The other cells
    are free, and ``prior``, when given, holds every cell's prior in index
    order; a zero, negative or NaN prior counts as zero and keeps its
    cell at zero.  Returns every cell's value in index order.  Negative row
    residuals (detected cells overshooting a total) are clamped to zero
    and reported through ``on_clamp`` rather than failing.  Without
    ``prior``, raises :class:`MaxEntError` when the residuals have not
    dropped below ``rel_tol`` (relative to each row total).  With
    ``prior`` it never raises for inconsistent rows: rows no
    positive-prior cell can reach are listed in ``skipped_sources``, rows
    whose totals were moved to the nearest reachable ones in
    ``moved_sources``.
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
    start = np.full(len(values), math.exp(-1.0)) if prior is None else np.asarray(prior, float)
    fixed = incidence[resid == 0.0].any(axis=0) | ~(start > 0.0)
    fixed[list(known)] = True
    active = np.flatnonzero(~fixed)
    w = start[active]
    a = incidence[:, active]
    reachable = a.any(axis=1)
    skipped = np.flatnonzero(~reachable & wanting).tolist()
    rows = _Rows(np.arange(n), a.astype(float), resid, scales).take(reachable)

    moved: tuple[int, ...] = ()
    if prior is not None:
        iterations, worst_rel, moved = _project(w, rows, rel_tol)
    else:
        iterations, worst_rel, rows = _scale_rows(w, rows, rel_tol, skipped)
    if skipped or moved:
        log.debug("rows skipped as unreachable: %s; rows moved: %s", skipped, list(moved))
    values[active] = w
    if prior is None and worst_rel > rel_tol:
        raise MaxEntError(
            "row scaling did not converge",
            dict(zip(rows.sources.tolist(), np.abs(rows.a @ w - rows.targets).tolist())),
            values,
        )
    return values, SolveReport(iterations, worst_rel, clamped, tuple(skipped), moved)


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


def _scale_rows(w, rows: _Rows, rel_tol, skipped) -> tuple[int, float, _Rows]:
    """Offline fill-in: row scaling, Newton and pinning rounds on ``w``.

    Returns the sweep count, the worst relative residual and the rows
    still in play; rows that pinning empties are added to ``skipped``.
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
    for pin_scale in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
        if not rows:
            worst_rel = 0.0
            break
        worst_rel = scaling_phase(400)
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


def _project(w, rows: _Rows, rel_tol) -> tuple[int, float, tuple[int, ...]]:
    """Query-level refresh: KL projection of ``w`` onto the nearest feasible rows.

    A ``w`` that already meets the rows within ``rel_tol * 1e-3`` is
    returned as it is; with no row in play every ``w`` does.  Otherwise
    ``rows.a``, over the cells of ``w`` (all positive), each row divided
    by its scale, forms ``A x = b`` with ``b`` the scaled targets, and one
    least-squares solve gives its point and the rank of ``A``.  At full
    column rank the cells that reach the nearest totals are one point,
    which is the answer: the least-squares point if it is positive, else
    NNLS on the same ``A, b``.  Otherwise NNLS finds the
    nearest reachable totals ``A x``, the cells it left at zero with
    ``(A^T r)_j < 0`` are zeroed (every closest point is zero there), and
    Newton on the dual projects onto that face.  Either way, totals that
    moved by more than ``rel_tol`` replace the rows.
    Updates ``w`` in place; returns the Newton step count, the worst
    relative residual against the rows solved, and the sources whose
    rows moved.
    """
    # A prior that already meets the rows is the answer: NNLS would
    # move nothing and Newton would take no step.
    worst = _worst_residual(w, rows)
    if worst <= rel_tol * 1e-3:
        return 0, worst, ()
    # Column-major, as LAPACK reads it; the products below add in that order.
    a = np.asfortranarray(rows.a / rows.scales[:, None])
    b = rows.targets / rows.scales
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank == w.size:
        # NNLS with every column passive ends on this same solve.
        if x.min() > 0.0:
            tol = _zero_tol(a)
        else:
            x, _, tol = _nnls(a, b)
        w[:] = x
        rows, moved = _reached_rows(w, rows, a @ x, b, tol, rel_tol)
        return 0, _worst_residual(w, rows), moved
    x, grad, tol = _nnls(a, b)
    fitted = a @ x
    if float(np.max(np.abs(fitted - b))) > rel_tol:
        w[(x <= 0.0) & (grad < -tol)] = 0.0
    rows, moved = _reached_rows(w, rows, fitted, b, tol, rel_tol)
    # Newton converges quadratically near the answer: a step or two past
    # rel_tol makes the result independent of where the iteration started.
    # Far from it (a prior off by orders of magnitude) the line search
    # shortens the step until the dual falls.
    worst, steps = _newton_phase(w, rows, rel_tol * 1e-3)
    return steps, worst, moved


def _reached_rows(w, rows: _Rows, fitted, b, tol, rel_tol) -> tuple[_Rows, tuple[int, ...]]:
    """The rows with the reachable scaled totals ``fitted``, and the sources that moved.

    Rows stay as they are unless some total moved by more than
    ``rel_tol``.  Otherwise every row takes its reached total, a row
    whose total is at most ``tol`` zeroes its cells in ``w``, and rows
    left without mass are dropped.
    """
    if float(np.max(np.abs(fitted - b))) <= rel_tol:
        return rows, ()
    targets = np.maximum(fitted, 0.0) * rows.scales
    moved = rows.sources[np.abs(targets - rows.targets) > rel_tol * rows.scales]
    w[rows.a[targets <= tol * rows.scales].any(axis=0)] = 0.0
    return replace(rows, targets=targets).take(rows.a @ w > 0.0), tuple(moved.tolist())


def _zero_tol(a: np.ndarray) -> float:
    """NNLS's tolerance on ``a``: a gradient or value at most this counts as zero."""
    return 10.0 * np.finfo(float).eps * max(a.shape) * max(1.0, float(np.abs(a).sum(axis=0).max()))


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Lawson-Hanson active-set solution of ``min |a x - b|`` over ``x >= 0``.

    Returns ``x``, the gradient ``a^T (b - a x)`` and the tolerance below
    which a cell at zero counts as optimal.  Where ``x > 0`` the gradient
    is zero only up to rounding, which the tolerance does not bound: only
    a cell at zero reads its face from the gradient's sign.  A run that
    reaches the iteration cap returns its last point and logs a warning.
    """
    n = a.shape[1]
    tol = _zero_tol(a)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    rejected = [False] * n

    def least_squares(cols: np.ndarray) -> np.ndarray:
        z = np.zeros(n)
        z[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
        return z

    grad = a.T @ b
    cap = _NNLS_ITERATIONS_PER_CELL * n + 1
    for _ in range(cap):
        # The free cell of steepest ascent, the first of any tie.
        g = grad.tolist()
        free = [j for j, (p, r) in enumerate(zip(passive.tolist(), rejected)) if not (p or r)]
        if not free:
            break
        j = max(free, key=g.__getitem__)
        if g[j] <= tol:
            break
        trial = passive.copy()
        trial[j] = True
        z = least_squares(trial)
        if z[j] <= 0.0:
            # Rounding made an ascent direction look flat; try the next.
            rejected[j] = True
            continue
        rejected = [False] * n
        passive = trial
        while np.any(z[passive] <= 0.0):
            # Step from x towards z until the first passive cell hits zero;
            # that cell (and any other at zero) leaves the passive set.
            blocking = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[blocking] / (x[blocking] - z[blocking])
            x += float(ratios.min()) * (z - x)
            x[blocking[np.argmin(ratios)]] = 0.0
            passive &= x > tol
            x[~passive] = 0.0
            z = least_squares(passive)
        x = z
        grad = a.T @ (b - a @ x)
    else:
        log.warning("NNLS stopped at its cap of %d iterations on a %d x %d matrix", cap, *a.shape)
    return x, grad, tol


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
