"""Entropy-based fill-in for undetected lattice cells.

Given per-source totals and a set of already-detected cells, estimates the
free cells by maximizing ``-sum(w * log(w))`` subject to one linear row per
source: the cells containing that source must add up to its total.  The
stationarity conditions factor as ``w = exp(-1) * prod(mu_i)`` over the
sources in the cell's mask, so the solver runs multiplicative row scaling
(iterative proportional fitting) seeded at ``exp(-1)``; each row update is
an exact coordinate step on the convex dual.  Passing ``prior`` asks for
the generalized-KL projection of the prior onto the rows instead, i.e. the
estimate closest to the prior that matches the new totals; that variant
backs the per-query refresh, where the offline cells act as the prior.

Both callers run one path.  A start that already meets the rows is the
answer; otherwise at most :data:`_SWEEPS` row-scaling sweeps, then damped
Newton steps on the dual.  On rows some nonnegative cells meet, row
scaling converges to the projection (Csiszar, Ann. Probab. 1975) and
Newton gets there quadratically.  Newton stops at the tolerance, when
its dual stops falling, after 8 steps without a 1% gain in the worst
residual, or at 120 steps; rows the cells cannot all meet end it by one
of the last three.  The last iterate and its residual are the answer,
and only the offline fill (no ``prior``) raises on them.
The sweeps run on Python floats and add each row left to right.

The problem is posed on the free cells with a positive start that no
zero-residual row forces, and on the rows that reach them: updates are
multiplicative, so a cell that starts at zero stays there, and a
refresh's values depend only on the known cells and the totals of the
rows that reach a positive-prior cell.  A NaN total leaves its row out.
Cells are read by position in a :class:`~querysched.lattice.CellIndex`,
whose source-by-cell matrix gives the rows: it is built once per cell set
and shared by every solve over it.  It holds no values, so a solve's
answer and the work it does depend only on its own arguments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .lattice import CellIndex

log = logging.getLogger(__name__)

DEFAULT_REL_TOL = 1e-6

# Newton's backtracking tries these step lengths, longest first: 1, 1/2, ... 2**-59.
_STEP_LENGTHS = tuple(0.5**i for i in range(60))
# Row-scaling sweeps of a solve before Newton takes over.
_SWEEPS = 20


class MaxEntError(RuntimeError):
    """Raised when the offline fill-in cannot satisfy the constraint rows.

    Carries the per-row absolute residuals, keyed by source, the last
    iterate as every cell's value in index order, so pipelines can
    degrade to the best-effort estimates, and the solve's report.
    """

    def __init__(
        self, message: str, residuals: dict[int, float], values: np.ndarray, report: SolveReport
    ):
        super().__init__(message)
        self.residuals = residuals
        self.values = values
        self.report = report


@dataclass(frozen=True)
class SolveReport:
    """What one :func:`solve` did.

    ``iterations`` counts row-scaling sweeps: 0 when the start (``exp(-1)``
    or the prior) already meets the rows.
    ``max_rel_residual`` is the worst residual of the rows solved,
    relative to each row's scale: 0.0 when none is in play.
    ``clamped_sources`` are the rows the known cells overshot, each
    clamped to a zero residual and logged once.
    """

    iterations: int
    max_rel_residual: float
    clamped_sources: tuple[int, ...]


def solve(
    totals: Sequence[float],
    index: CellIndex,
    known: Mapping[int, float],
    *,
    prior: Sequence[float] | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[np.ndarray, SolveReport]:
    """Estimate the free cells of ``index`` under per-source sum constraints.

    ``totals[s]`` is source ``s``'s total, one row per source of the
    index; a NaN total leaves the row out.  ``known`` maps cell positions
    to counts; they hold fixed and are subtracted from their rows in the
    order given.  The other cells are free, and ``prior``, when given,
    holds every cell's prior in index order; a zero, negative or NaN
    prior counts as zero and keeps its cell at zero.  Returns every
    cell's value in index order.  Negative row residuals (known cells
    overshooting a total) are clamped to zero and reported in
    ``clamped_sources`` rather than failing.  Rows no free cell with a
    positive start can reach are left out.  Without ``prior``, raises
    :class:`MaxEntError` when the worst residual exceeds ``rel_tol``
    (relative to each row total).  With ``prior`` it never raises: rows
    the cells cannot all meet leave the last Newton iterate, whose worst
    residual the report gives.
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
    for s, r in zip(clamped, resid[negative].tolist()):
        log.warning("known cells overshoot source %d by %.6g; clamping", s, -r)
    resid[negative] = 0.0

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
    keep = reachable & ~np.isnan(resid)
    rows = _Rows(np.flatnonzero(keep), a[keep].astype(float), resid[keep], scales[keep])

    # A start that already meets the rows is the answer.  Otherwise a few
    # sweeps, and Newton, which converges quadratically near the answer,
    # polishes it past ``rel_tol``.
    iterations, worst_rel = 0, _worst_residual(w, rows)
    if worst_rel > rel_tol * 1e-3:
        iterations, worst_rel = _scale_rows(w, rows, rel_tol * 1e-3)
    values[active] = w
    report = SolveReport(iterations, worst_rel, clamped)
    if prior is None and worst_rel > rel_tol:
        raise MaxEntError(
            "row scaling did not converge",
            dict(zip(rows.sources.tolist(), np.abs(rows.a @ w - rows.targets).tolist())),
            values,
            report,
        )
    return values, report


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


def _worst_residual(w: np.ndarray, rows: _Rows) -> float:
    """Worst row residual of ``w`` relative to each row's scale."""
    return float(np.max(np.abs(rows.a @ w - rows.targets) / rows.scales, initial=0.0))


def _left_sum(vals: list[float], idx: list[int]) -> float:
    """The cells ``idx`` of ``vals`` added left to right.

    ``sum`` would do, but its floats differ from Python 3.12 on, where it
    compensates for rounding.
    """
    got = 0.0
    for i in idx:
        got += vals[i]
    return got


def _scale_rows(w: np.ndarray, rows: _Rows, rel_tol: float) -> tuple[int, float]:
    """Up to :data:`_SWEEPS` row-scaling sweeps on ``w``, then Newton if they miss ``rel_tol``.

    Returns the sweep count and the worst relative residual.  The sweeps
    run on Python lists, each row's cell positions read from ``rows.a``
    once.
    """
    vals = w.tolist()
    lists = [
        (np.flatnonzero(row).tolist(), target, scale)
        for row, target, scale in zip(rows.a, rows.targets.tolist(), rows.scales.tolist())
    ]
    for sweeps in range(1, _SWEEPS + 1):
        for idx, target, _scale in lists:
            got = _left_sum(vals, idx)
            # Subnormal row sums would blow the factor up to inf; leave
            # such rows to the residual check, not to nans.
            if got > 1e-300 and math.isfinite(got):
                f = target / got
                for i in idx:
                    vals[i] *= f
        # Starting at 0.0, the max passes over a NaN residual.
        worst = 0.0
        for idx, target, scale in lists:
            worst = max(worst, abs(_left_sum(vals, idx) - target) / scale)
        if worst <= rel_tol:
            break
    w[:] = vals
    if worst > rel_tol:
        worst = _newton_phase(w, rows, rel_tol)
    return sweeps, worst


def _newton_phase(w, rows: _Rows, rel_tol) -> float:
    """Damped Newton steps on the dual until the rows balance or progress stops.

    Returns the worst relative residual.  The phase ends when the worst
    residual is within ``rel_tol``; when no step length lowers the dual,
    or an accepted step does not lower it; when the Hessian is singular;
    after 8 steps in a row without a 1% gain in the worst residual; or
    after 120 steps.
    ``A`` is ``rows.a`` as it is, the 0/1 rows over ``w``'s cells, and
    ``b`` the rows' targets.  The dual objective is ``sum(w) + lambda . b``
    with gradient ``b - A w`` and Hessian ``A diag(w) A^T``; cells keep the
    multiplicative form ``w *= exp(-A^T delta)`` so zero cells stay zero.
    Each step backtracks over :data:`_STEP_LENGTHS` along the Newton
    direction, which descends the convex dual.
    """
    incidence, targets, scales = rows.a, rows.targets, rows.scales
    lam = np.zeros(len(targets))

    # The gradient is the residual vector: the worst row comes from it.
    grad = incidence @ w - targets
    worst = float(np.max(np.abs(grad) / scales, initial=0.0))
    best = float(w.sum() + lam @ targets)
    best_resid = worst
    stale = 0
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
        hess.flat[:: len(targets) + 1] += ridge
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
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
    return worst
