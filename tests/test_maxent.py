"""Entropy solver: analytic cases, grid-search oracle, degradation paths."""

import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from querysched import grid, maxent
from querysched.cost import QuerySpec
from querysched.detection import DEFAULT_PRUNE_THRESHOLD, initial_detection
from querysched.grid import default_grid, desk_universe_config, run_condition, scaled_universe
from querysched.lattice import CellIndex
from querysched.scheduler import RunConfig, run_query
from querysched.simulator import SCOPE_ALL, SCOPE_FOCUS, ScopedProbe, generate


def entropy(values):
    """``-sum(w * log(w))`` with the 0*log(0)=0 convention."""
    total = 0.0
    for v in values:
        if v > 0.0:
            total -= v * math.log(v)
    return total


def objective(values):
    return entropy(values.values())


def solve(constraints, known, free, *, prior=None, index=None, **kwargs):
    """``maxent.solve`` over masks: the free cells' answer as a mask dict.

    ``constraints`` holds one total per source, ``known`` maps masks to
    counts (subtracted in the order given) and ``prior`` masks to priors,
    0 where left out.  The cells are indexed ascending, or by ``index``
    when given, which must hold the same masks.
    """
    masks = sorted({*known, *free})
    index = index or CellIndex(masks, len(constraints))
    assert list(index.masks) == masks
    position = {m: i for i, m in enumerate(masks)}
    if prior is not None:
        prior = [prior.get(m, 0.0) for m in masks]
    values, report = maxent.solve(
        constraints, index, {position[m]: v for m, v in known.items()}, prior=prior, **kwargs
    )
    values = values.tolist()
    return {m: values[position[m]] for m in sorted(set(free))}, report


class TestUniqueSolutions:
    def test_singleton_rows_pass_through(self):
        constraints = {0: 100.0, 1: 100.0, 2: 100.0}
        values, report = solve(constraints, {}, [0b001, 0b010, 0b100])
        assert values == pytest.approx({0b001: 100.0, 0b010: 100.0, 0b100: 100.0})
        assert report.max_rel_residual <= 1e-6

    def test_symmetric_pairwise_split(self):
        # Known singletons m, three pairwise cells shared by two rows each:
        # the unique solution puts (n - m) / 2 in every pairwise cell.
        n, m = 100.0, 20.0
        constraints = {0: n, 1: n, 2: n}
        known = {0b001: m, 0b010: m, 0b100: m}
        values, _ = solve(constraints, known, [0b011, 0b101, 0b110], rel_tol=1e-9)
        for mask in (0b011, 0b101, 0b110):
            assert values[mask] == pytest.approx((n - m) / 2, rel=1e-6)

    def test_point_feasible_set_is_returned(self):
        # w011 + w001 = 30 with w001 known => w011 pinned.
        constraints = {0: 30.0, 1: 12.0}
        known = {0b001: 18.0}
        values, _ = solve(constraints, known, [0b011])
        assert values[0b011] == pytest.approx(12.0, rel=1e-6)

    def test_last_level_cell_recovers_truth(self):
        constraints = {0: 50.0, 1: 125.0, 2: 75.0}
        known = {0b001: 10.0, 0b010: 80.0, 0b100: 60.0, 0b011: 35.0, 0b101: 5.0, 0b110: 10.0}
        values, _ = solve(constraints, known, [0b111])
        assert values[0b111] == pytest.approx(0.0, abs=1e-9)


class TestTrueMaximum:
    def test_two_row_analytic_optimum(self):
        # max -sum(w log w) s.t. w1 + w12 = 2, w2 + w12 = 2.  Stationarity
        # gives w = exp(-1) * prod(mu), with mu solving mu(1+mu) = 2e.
        constraints = {0: 2.0, 1: 2.0}
        values, _ = solve(constraints, {}, [0b01, 0b10, 0b11], rel_tol=1e-10)
        mu = (-1.0 + math.sqrt(1.0 + 8.0 * math.e)) / 2.0
        expected_pair = math.exp(-1.0) * mu * mu
        assert values[0b11] == pytest.approx(expected_pair, rel=1e-6)
        assert values[0b01] == pytest.approx(2.0 - expected_pair, rel=1e-6)

    @pytest.mark.parametrize("a,b", [(2.0, 2.0), (3.0, 2.0), (10.0, 4.0), (1.0, 0.7)])
    def test_beats_grid_search_dof1(self, a, b):
        # One degree of freedom: t = w11 in [0, min(a, b)], w01 = a - t,
        # w10 = b - t.  Grid at 1% of the constraint scale.
        constraints = {0: a, 1: b}
        values, _ = solve(constraints, {}, [0b01, 0b10, 0b11], rel_tol=1e-9)
        scale = max(a, b)
        step = 0.01 * scale
        best = -math.inf
        t = 0.0
        while t <= min(a, b) + 1e-12:
            best = max(best, entropy([a - t, b - t, t]))
            t += step
        got = entropy([values[0b01], values[0b10], values[0b11]])
        assert got >= best - 1e-6 * scale

    def test_beats_grid_search_three_rows(self):
        # Three rows, three free cells, one degree of freedom through the
        # triple cell: w(i) = c_i - t for each row i, t in [0, min c].
        c = (5.0, 4.0, 3.0)
        constraints = {0: c[0], 1: c[1], 2: c[2]}
        free = [0b111, 0b001, 0b010, 0b100]
        # Make it dof-1 by knowing nothing: rows are c_i = w_i + w_111.
        values, _ = solve(constraints, {}, free, rel_tol=1e-9)
        scale = max(c)
        step = 0.01 * scale
        best = -math.inf
        t = 0.0
        while t <= min(c) + 1e-12:
            best = max(best, entropy([c[0] - t, c[1] - t, c[2] - t, t]))
            t += step
        got = entropy(values.values())
        assert got >= best - 1e-6 * scale

    def test_prior_changes_the_answer(self):
        # With a prior, the solver projects the prior instead of maximizing
        # plain entropy; a prior already satisfying the rows is returned.
        constraints = {0: 2.0, 1: 2.0}
        prior = {0b01: 1.5, 0b10: 1.5, 0b11: 0.5}
        values, _ = solve(constraints, {}, [0b01, 0b10, 0b11], prior=prior)
        for mask, v in prior.items():
            assert values[mask] == pytest.approx(v, rel=1e-9)

    def test_zero_prior_pins_cell(self):
        constraints = {0: 2.0, 1: 2.0}
        prior = {0b01: 1.0, 0b10: 1.0, 0b11: 0.0}
        values, _ = solve(constraints, {}, [0b01, 0b10, 0b11], prior=prior)
        assert values[0b11] == 0.0
        assert values[0b01] == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("prior", [-1.0, math.nan])
    def test_negative_or_nan_prior_counts_as_zero(self, prior):
        # NaN is not positive, so its cell starts, and stays, at zero;
        # it never reaches the matrix products as a NaN cell or residual.
        index = CellIndex([0b01, 0b10, 0b11], 2)
        values, report = maxent.solve([5.0, 7.0], index, {}, prior=[1.0, 1.0, prior])
        zero_values, zero_report = maxent.solve([5.0, 7.0], index, {}, prior=[1.0, 1.0, 0.0])
        assert values.tobytes() == zero_values.tobytes()
        assert values[2] == 0.0
        assert report == zero_report
        assert report.max_rel_residual <= maxent.DEFAULT_REL_TOL


class TestDegradation:
    def test_negative_residual_clamps_and_reports(self):
        clamps = []
        constraints = {0: 10.0, 1: 30.0}
        known = {0b01: 15.0}  # overshoots row 0
        values, report = solve(
            constraints, known, [0b11, 0b10], on_clamp=lambda s, r: clamps.append((s, r))
        )
        assert clamps and clamps[0][0] == 0
        assert values[0b11] == 0.0  # clamped row forces its free cells to zero
        assert values[0b10] == pytest.approx(30.0, rel=1e-6)
        assert 0 in report.clamped_sources

    def test_known_cells_subtract_in_input_order(self):
        # Left to right, 1e16 + 1 + 1 rounds back to 1e16 (the row overshoots
        # by 2); adding the ones first keeps them (it would overshoot by 4).
        # Rows 1-3 are met exactly.
        clamps = []
        known = {0b0011: 1e16, 0b0101: 1.0, 0b1001: 1.0}
        solve(
            {0: 1e16 - 2.0, 1: 1e16, 2: 1.0, 3: 1.0},
            known,
            [0b0001],
            prior={0b0001: 1.0},
            on_clamp=lambda s, r: clamps.append((s, r)),
        )
        assert clamps == [(0, -2.0)]

    def test_zero_row_forces_cells(self):
        constraints = {0: 0.0, 1: 20.0}
        values, _ = solve(constraints, {}, [0b01, 0b11, 0b10])
        assert values[0b01] == 0.0
        assert values[0b11] == 0.0
        assert values[0b10] == pytest.approx(20.0, rel=1e-6)

    def test_unreachable_row_is_reported_not_fatal(self):
        # Row 1's only support has a zero prior: nothing can absorb it.
        constraints = {0: 4.0, 1: 7.0}
        prior = {0b01: 1.0, 0b10: 0.0}
        values, report = solve(constraints, {}, [0b01, 0b10], prior=prior)
        assert values[0b01] == pytest.approx(4.0, rel=1e-6)
        assert 1 in report.skipped_sources
        assert report.max_rel_residual <= 1e-6
        # Row 1's zero total forces the only free cell to zero, so row 0
        # is skipped and no row is left in play to report a residual.
        values, report = solve({0: 1.0, 1: 0.0}, {}, [0b11], prior={0b11: 1.0})
        assert values == {0b11: 0.0}
        assert report.skipped_sources == (0,)
        assert report.max_rel_residual == 0.0


class TestQueryRefreshShortcuts:
    CONSTRAINTS = {0: 6.0, 1: 9.0, 2: 4.0}
    FREE = [0b001, 0b010, 0b100, 0b011, 0b110, 0b101]
    PRIOR = {m: 1.0 for m in FREE}

    def test_warm_start_meeting_the_rows_skips_nnls(self, monkeypatch):
        parent, _ = solve(self.CONSTRAINTS, {}, self.FREE, prior=self.PRIOR)

        def no_nnls(a, b):
            raise AssertionError("NNLS ran on rows the prior already meets")

        monkeypatch.setattr(maxent, "_nnls", no_nnls)
        # The refresh starts from its prior; one that meets the rows is the answer.
        values, report = solve(self.CONSTRAINTS, {}, self.FREE, prior=parent)
        assert values == parent
        assert report.iterations == 0
        assert report.moved_sources == ()
        assert report.max_rel_residual <= 1e-9

    def test_infeasible_rows_still_reach_nnls(self, monkeypatch):
        calls = []
        nnls = maxent._nnls

        def counted(a, b):
            calls.append(b)
            return nnls(a, b)

        monkeypatch.setattr(maxent, "_nnls", counted)
        # Row 0's cells all lie in rows 1 or 2, so row 0 cannot exceed their sum.
        constraints = {0: 40.0, 1: 9.0, 2: 4.0}
        values, report = solve(constraints, {}, [0b011, 0b101, 0b110], prior=self.PRIOR)
        assert len(calls) == 1
        assert 0 in report.moved_sources
        assert all(v >= 0.0 for v in values.values())

    @staticmethod
    def calls_of(monkeypatch):
        """The names of the NNLS and Newton calls the next solves make, in order."""
        calls = []
        nnls, newton = maxent._nnls, maxent._newton_phase

        def counted_nnls(a, b):
            calls.append("nnls")
            return nnls(a, b)

        def counted_newton(*args):
            calls.append("newton")
            return newton(*args)

        monkeypatch.setattr(maxent, "_nnls", counted_nnls)
        monkeypatch.setattr(maxent, "_newton_phase", counted_newton)
        return calls

    @classmethod
    def projection_calls(cls, monkeypatch):
        """Per projection of the next solves, the names of its NNLS and Newton calls."""
        projections = []
        calls = cls.calls_of(monkeypatch)
        project = maxent._project

        def counted_project(*args):
            start = len(calls)
            answer = project(*args)
            projections.append(calls[start:])
            return answer

        monkeypatch.setattr(maxent, "_project", counted_project)
        return projections

    def test_refresh_after_a_moving_solve_runs_nnls_once(self, monkeypatch):
        # Four cells over three rows: no face of these rows is a single point.
        free = [0b011, 0b101, 0b110, 0b111]
        prior = dict.fromkeys(free, 1.0)
        index = CellIndex(free, 3)  # all three solves share it
        calls = self.calls_of(monkeypatch)
        # Row 0's cells lie in row 1 or in row 2, so row 0 cannot exceed their sum.
        _, first = solve({0: 40.0, 1: 9.0, 2: 4.0}, {}, free, prior=prior, index=index)
        assert 0 in first.moved_sources
        # Feasible in many ways, one of them x01 = 4, x02 = 1, x12 = 3, x012 = 0.
        _, second = solve({0: 5.0, 1: 7.0, 2: 4.0}, {}, free, prior=prior, index=index)
        # After a solve that moved no row, the next one still runs NNLS first:
        # x01 = 4, x02 = 2, x12 = 3, x012 = 0 is one way to meet these.
        _, third = solve({0: 6.0, 1: 7.0, 2: 5.0}, {}, free, prior=prior, index=index)
        assert calls == ["nnls", "newton"] * 3
        for report in (second, third):
            assert report.iterations > 0
            assert report.moved_sources == ()
            assert report.max_rel_residual <= 1e-9

    def test_single_feasible_point_runs_neither_nnls_nor_newton(self, monkeypatch):
        calls = self.calls_of(monkeypatch)
        # Three cells over three independent rows: x01 = 4, x02 = 1, x12 = 3.
        values, report = solve(
            {0: 5.0, 1: 7.0, 2: 4.0}, {}, [0b011, 0b101, 0b110], prior=self.PRIOR
        )
        assert calls == []
        assert values == pytest.approx({0b011: 4.0, 0b101: 1.0, 0b110: 3.0}, rel=1e-12)
        assert report.iterations == 0
        assert report.moved_sources == ()
        assert report.max_rel_residual <= 1e-12

    def test_single_point_off_the_cells_runs_nnls_alone(self, monkeypatch):
        calls = self.calls_of(monkeypatch)
        # The least-squares point has x12 = -13.5: no nonnegative cells meet row 0.
        values, report = solve(
            {0: 40.0, 1: 9.0, 2: 4.0}, {}, [0b011, 0b101, 0b110], prior=self.PRIOR
        )
        assert calls == ["nnls"]
        assert values[0b110] == 0.0
        assert all(v >= 0.0 for v in values.values())
        assert 0 in report.moved_sources
        assert report.iterations == 0

    @pytest.mark.parametrize("n_sources, projections, nnls_runs", [(50, 4, 3), (200, 10, 0)])
    def test_online_refreshes_take_no_newton_step(
        self, monkeypatch, n_sources, projections, nnls_runs
    ):
        # Counted, not timed.  Every query-level face of these runs is a
        # single point: the desk one's least-squares points leave the
        # cells, so NNLS finds them; the 200-source one's are positive.
        # A plan solves each distinct refresh once.
        config = desk_universe_config()
        if n_sources != 50:
            config = scaled_universe(config, n_sources)
        u = generate(config, 101)
        initial = initial_detection(ScopedProbe(u, SCOPE_ALL), DEFAULT_PRUNE_THRESHOLD).snapshot
        k = round(0.8 * u.truth.distinct_in_scope(SCOPE_FOCUS))
        solved = self.projection_calls(monkeypatch)
        run_query("online", QuerySpec(SCOPE_FOCUS, k), u, initial)
        assert len(solved) == projections
        assert sum(solved, []) == ["nnls"] * nnls_runs  # and no Newton step

    def test_a_run_s_projections_do_not_depend_on_the_run_before(self, monkeypatch):
        # Counted, not timed.  On the default grid's desk universe, seed
        # 110 at k = 0.2, `sequential` re-solves cells that `online` solved
        # just before, over the same offline snapshot and cell index; its
        # projections make the same calls as over a fresh snapshot.
        spec = default_grid()
        solved = self.projection_calls(monkeypatch)
        run_condition(spec, "k_fraction", 0.2, "online", 110)
        solved.clear()
        run_condition(spec, "k_fraction", 0.2, "sequential", 110)
        after_online = solved.copy()
        monkeypatch.setattr(grid, "_DETECTION_CACHE", {})
        solved.clear()
        run_condition(spec, "k_fraction", 0.2, "sequential", 110)
        assert after_online == solved == [["nnls", "newton"]]

    def test_every_newton_phase_follows_an_nnls_run(self, monkeypatch):
        # Counted, not timed: default grid, desk universe seed 104, `online`
        # at k = 0.8.  A face Newton solves is the one NNLS left.
        solved = self.projection_calls(monkeypatch)
        run_condition(default_grid(), "k_fraction", 0.8, "online", 104)
        assert ["nnls", "newton"] in solved
        for calls in solved:
            assert calls in ([], ["nnls"], ["nnls", "newton"])

    @pytest.mark.parametrize(
        "constraints, prior",
        [
            ({0: 0.0, 1: 66.76226010599068}, {0b10: 0.1}),
            ({0: 1e6}, {0b1: 1e-6}),
            ({0: 1e6, 1: 5e5}, {0b1: 1e-6, 0b11: 2e-6}),
        ],
    )
    def test_far_priors_are_met_without_the_offline_loop(self, monkeypatch, constraints, prior):
        # Priors orders of magnitude off their rows: Newton's line search
        # keeps shortening its step until the dual falls, so it meets the
        # rows itself.
        def no_scaling(*args):
            raise AssertionError("a query projection ran the offline loop")

        monkeypatch.setattr(maxent, "_scale_rows", no_scaling)
        values, report = solve(constraints, {}, list(prior), prior=prior)
        got = row_totals(len(constraints), values)
        for s, total in constraints.items():
            assert abs(got[s] - total) <= maxent.DEFAULT_REL_TOL * max(total, 1.0)
        assert report.max_rel_residual <= maxent.DEFAULT_REL_TOL
        assert report.moved_sources == report.skipped_sources == ()

    def test_one_debug_record_names_every_skipped_row(self, caplog):
        constraints = {0: 4.0, 1: 7.0, 2: 5.0}
        prior = {0b001: 1.0, 0b010: 0.0, 0b100: 0.0}
        with caplog.at_level(logging.DEBUG, logger="querysched.maxent"):
            _, report = solve(constraints, {}, [0b001, 0b010, 0b100], prior=prior)
        assert report.skipped_sources == (1, 2)
        records = [r for r in caplog.records if r.name == "querysched.maxent"]
        assert len(records) == 1
        assert "[1, 2]" in records[0].getMessage()


class TestNnlsCap:
    """``_nnls`` stops after ``3n + 1`` outer iterations, and says so."""

    def test_a_capped_run_warns_with_the_matrix_shape(self, monkeypatch, caplog):
        # One iteration: the second column enters, the first never does.
        monkeypatch.setattr(maxent, "_NNLS_ITERATIONS_PER_CELL", 0)
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with caplog.at_level(logging.WARNING, logger="querysched.maxent"):
            x, _, _ = maxent._nnls(a, np.array([1.0, 2.0, 0.0]))
        assert x.tolist() == [0.0, 2.0]
        (record,) = caplog.records
        assert "cap of 1 iterations on a 3 x 2 matrix" in record.getMessage()

    def test_an_uncapped_run_is_silent(self, caplog):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with caplog.at_level(logging.WARNING, logger="querysched.maxent"):
            x, _, _ = maxent._nnls(a, np.array([1.0, 2.0, 0.0]))
        assert x.tolist() == [1.0, 2.0]
        assert not caplog.records

    def test_no_query_refresh_reaches_the_cap(self, monkeypatch, caplog):
        # Every online and sequential run over desk seeds 101-105 and
        # 200-source seeds 101-103, at k from 0.2 to 1.0 of the in-scope
        # tuples.
        nnls = maxent._nnls
        runs = []

        def counted(a, b):
            runs.append(a.shape)
            return nnls(a, b)

        monkeypatch.setattr(maxent, "_nnls", counted)
        desk = desk_universe_config()
        cases = [(desk, seed) for seed in range(101, 106)]
        cases += [(scaled_universe(desk, 200), seed) for seed in range(101, 104)]
        with caplog.at_level(logging.WARNING, logger="querysched.maxent"):
            for config, seed in cases:
                u = generate(config, seed)
                initial = grid.offline_stats(u, RunConfig()).snapshot
                in_scope = u.truth.distinct_in_scope(SCOPE_FOCUS)
                for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
                    query = QuerySpec(SCOPE_FOCUS, round(fraction * in_scope))
                    for algo in ("online", "sequential"):
                        run_query(algo, query, u, initial)
        assert runs  # the runs do reach NNLS
        capped = [r for r in caplog.records if "NNLS stopped" in r.getMessage()]
        assert capped == []


# -- query-level projection: properties over random systems -----------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def cell_systems(draw, implied=False):
    """Random masks over 2-4 sources with nonnegative true cell values.

    With ``implied``, every cell holding source 0 also holds source 1, so
    row 0 can never exceed row 1.
    """
    n = draw(st.integers(2, 4))
    masks = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=10))
    if implied:
        masks = {m | 0b10 if m & 1 else m for m in masks}
    masks = sorted(masks)
    truth = {m: draw(st.floats(0.0, 100.0)) for m in masks}
    prior = {m: draw(st.floats(0.1, 10.0)) for m in masks}
    known = set(draw(st.lists(st.sampled_from(masks), max_size=len(masks) - 1, unique=True)))
    return n, truth, prior, known


def row_totals(n, cells):
    return {s: sum(v for m, v in cells.items() if (m >> s) & 1) for s in range(n)}


@st.composite
def full_rank_systems(draw):
    """Random cells over 2-5 sources whose row-by-cell incidence has full column rank.

    Totals are row sums of positive cells (feasible) or drawn freely
    (mostly infeasible); a free total may be tiny, at the scale of NNLS's
    zero tolerance.
    """
    n = draw(st.integers(2, 5))
    masks = sorted(draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=n)))
    incidence = np.array([[(m >> s) & 1 for m in masks] for s in range(n)], dtype=float)
    assume(np.linalg.matrix_rank(incidence) == len(masks))
    prior = {m: draw(st.floats(0.1, 10.0)) for m in masks}
    if draw(st.booleans()):
        constraints = row_totals(n, {m: draw(st.floats(0.1, 100.0)) for m in masks})
    else:
        total = st.one_of(st.floats(0.5, 500.0), st.floats(1e-300, 1e-14))
        constraints = {s: draw(total) for s in range(n)}
    return n, masks, prior, constraints


def row_tuples(rows):
    """``rows`` as ``(source, positions, target, scale)`` tuples, one per row."""
    return list(
        zip(
            rows.sources.tolist(),
            [np.flatnonzero(row) for row in rows.a],
            rows.targets.tolist(),
            rows.scales.tolist(),
        )
    )


def tuple_worst_residual(w, rows):
    """Worst residual relative to scale, each row summed by ``w[idx].sum()``."""
    worst = 0.0
    for _s, idx, target, scale in rows:
        worst = max(worst, abs(float(w[idx].sum()) - target) / scale)
    return worst


def tuple_newton_phase(w, rows, rel_tol):
    """``maxent._newton_phase`` on row tuples, their 0/1 matrix filled row by row."""
    a = np.zeros((len(rows), w.size))
    for r, (_s, idx, _t, _scale) in enumerate(rows):
        a[r, idx] = 1.0
    got = maxent._Rows(
        np.array([s for s, _idx, _t, _sc in rows], dtype=np.intp),
        a,
        np.array([t for _s, _idx, t, _sc in rows]),
        np.array([sc for _s, _idx, _t, sc in rows]),
    )
    return maxent._newton_phase(w, got, rel_tol)


def tuple_project(w, rows, rel_tol, single_point=True):
    """``maxent._project`` on row tuples: a row at a time, each summed by ``w[idx].sum()``.

    With ``single_point`` off there is no single-point branch: NNLS runs
    on every projection the prior does not already meet, and Newton
    polishes its answer to ``rel_tol * 1e-3``.
    """
    rows = row_tuples(rows)
    worst = tuple_worst_residual(w, rows)
    if worst <= rel_tol * 1e-3:
        return 0, worst, ()
    cells = np.flatnonzero(w > 0.0)
    column = np.full(w.size, -1, dtype=np.intp)
    column[cells] = np.arange(cells.size)
    a = np.zeros((len(rows), cells.size))
    for r, (_s, idx, _t, scale) in enumerate(rows):
        a[r, column[idx[w[idx] > 0.0]]] = 1.0 / scale
    b = np.array([t / scale for _s, _idx, t, scale in rows])
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if single_point and rank == cells.size:
        if x.min() > 0.0:
            tol = maxent._zero_tol(a)
        else:
            x, _, tol = maxent._nnls(a, b)
        w[cells] = x
        rows, moved = tuple_reached_rows(w, rows, a @ x, b, tol, rel_tol)
        return 0, tuple_worst_residual(w, rows), moved
    x, grad, tol = maxent._nnls(a, b)
    fitted = a @ x
    if float(np.max(np.abs(fitted - b))) > rel_tol:
        w[cells[(x <= 0.0) & (grad < -tol)]] = 0.0
    rows, moved = tuple_reached_rows(w, rows, fitted, b, tol, rel_tol)
    worst, steps = tuple_newton_phase(w, rows, rel_tol * 1e-3)
    return steps, worst, moved


def tuple_reached_rows(w, rows, fitted, b, tol, rel_tol):
    """``maxent._reached_rows`` on row tuples."""
    if float(np.max(np.abs(fitted - b))) <= rel_tol:
        return rows, ()
    moved = []
    rescaled = []
    for r, (s, idx, t, scale) in enumerate(rows):
        target = max(float(fitted[r]), 0.0) * scale
        if abs(target - t) > rel_tol * scale:
            moved.append(s)
        if target <= tol * scale:
            w[idx] = 0.0
        rescaled.append((s, idx, target, scale))
    return [row for row in rescaled if float(w[row[1]].sum()) > 0.0], tuple(moved)


def nnls_newton_project(w, rows, rel_tol):
    """The reference for a projection onto rows of full column rank: NNLS, then Newton."""
    return tuple_project(w, rows, rel_tol, single_point=False)


def assert_nearest_totals(n, constraints, values):
    """The totals ``values`` reach are the nearest to ``constraints`` in scaled least squares.

    The gradient ``A^T r`` is nonpositive on every cell and zero on used
    ones.  Cells in a zero-total row are held at zero before projecting,
    so they are left out.
    """
    got = row_totals(n, values)
    scaled = {s: (constraints[s] - got[s]) / max(constraints[s], 1.0) ** 2 for s in range(n)}
    for m, v in values.items():
        rows = [s for s in range(n) if (m >> s) & 1]
        if any(constraints[s] == 0.0 for s in rows):
            continue
        grad = sum(scaled[s] for s in rows)
        assert grad <= 1e-5
        if v > 1e-6:
            assert abs(grad) <= 1e-5


class TestQueryProjectionProperties:
    @PROPERTY_SETTINGS
    @given(cell_systems(), st.lists(st.floats(0.0, 500.0), min_size=4, max_size=4))
    def test_nonnegative_on_any_totals(self, system, totals):
        n, truth, prior, _ = system
        constraints = {s: totals[s] for s in range(n)}
        values, _ = solve(constraints, {}, list(truth), prior=prior)
        assert set(values) == set(truth)
        assert all(v >= 0.0 and math.isfinite(v) for v in values.values())

    @PROPERTY_SETTINGS
    @given(cell_systems())
    def test_feasible_rows_are_met(self, system):
        n, truth, prior, known = system
        constraints = row_totals(n, truth)
        known_cells = {m: truth[m] for m in known}
        free = [m for m in truth if m not in known]
        values, report = solve(constraints, known_cells, free, prior=prior)
        got = row_totals(n, {**known_cells, **values})
        for s in range(n):
            assert abs(got[s] - constraints[s]) <= 1e-6 * max(constraints[s], 1.0)
        assert report.moved_sources == ()
        assert report.max_rel_residual <= 1e-6

    @PROPERTY_SETTINGS
    @given(cell_systems())
    def test_prior_fitting_the_rows_is_a_fixed_point(self, system):
        n, truth, _, _ = system
        values, _ = solve(row_totals(n, truth), {}, list(truth), prior=truth)
        for m, v in truth.items():
            assert values[m] == pytest.approx(v, rel=1e-9, abs=1e-9)

    @PROPERTY_SETTINGS
    @given(cell_systems(), st.data())
    def test_solves_over_a_shared_index_equal_fresh_ones(self, system, data):
        # A refresh sequence re-solves one cell set with new totals over
        # one index: in any order, each answer is that of a fresh index.
        n, truth, prior, known = system
        known_cells = {m: truth[m] for m in known}
        free = [m for m in truth if m not in known]
        totals = st.lists(st.floats(0.0, 500.0), min_size=n, max_size=n)
        systems = [row_totals(n, truth)]
        systems += [dict(enumerate(t)) for t in data.draw(st.lists(totals, min_size=1, max_size=3))]
        shared = CellIndex(sorted(truth), n)
        shared_answers = {}
        for i in data.draw(st.permutations(range(len(systems)))):
            shared_answers[i] = solve(systems[i], known_cells, free, prior=prior, index=shared)
        for i, constraints in enumerate(systems):
            assert solve(constraints, known_cells, free, prior=prior) == shared_answers[i]

    @PROPERTY_SETTINGS
    @given(cell_systems(), st.data())
    def test_totals_off_the_prior_s_support_leave_a_refresh_unchanged(self, system, data):
        # A row that reaches no positive-prior cell takes no part in the
        # projection, so a detection plan may reuse a refresh whose other
        # totals are the same.  Every cell of one such row has a zero prior.
        n, truth, prior, known = system
        outside = data.draw(st.integers(0, n - 1), label="outside")
        zeroed = data.draw(st.sets(st.sampled_from(sorted(truth))), label="zeroed")
        prior = {m: 0.0 if (m >> outside) & 1 or m in zeroed else p for m, p in prior.items()}
        support = {s for m, p in prior.items() if p > 0.0 for s in range(n) if (m >> s) & 1}
        if data.draw(st.booleans(), label="feasible"):
            constraints = row_totals(n, truth)
        else:
            constraints = {s: data.draw(st.floats(0.0, 500.0)) for s in range(n)}
        moved = {
            s: data.draw(st.floats(0.0, 500.0)) if s not in support else total
            for s, total in constraints.items()
        }
        known_cells = {m: truth[m] for m in known}
        free = [m for m in truth if m not in known]
        values, _ = solve(constraints, known_cells, free, prior=prior)
        again, _ = solve(moved, known_cells, free, prior=prior)
        assert [v.hex() for v in values.values()] == [v.hex() for v in again.values()]

    @PROPERTY_SETTINGS
    @given(cell_systems(implied=True), st.floats(1.0, 100.0))
    # NNLS uses cell 0b111 (x = 1) but leaves its gradient just past its
    # tolerance; zeroing that cell would leave row 2 a tuple short.
    @example((4, {2: 0.0, 3: 0.0, 7: 1.0, 11: 81.0}, dict.fromkeys((2, 3, 7, 11), 1.0), set()), 1.0)
    def test_infeasible_rows_move_and_are_reported(self, system, excess):
        n, truth, prior, _ = system
        constraints = row_totals(n, truth)
        constraints[0] = constraints[1] + excess  # row 0's cells all lie in row 1
        first = solve(constraints, {}, list(truth), prior=prior)
        again = solve(constraints, {}, list(truth), prior=prior)
        assert first == again
        values, report = first
        assert all(v >= 0.0 for v in values.values())
        # Rows left without support are skipped, the others moved.
        assert set(report.moved_sources + report.skipped_sources) & {0, 1}
        assert_nearest_totals(n, constraints, values)

    @PROPERTY_SETTINGS
    @given(full_rank_systems())
    # Rows 1 and 2 disagree on cell 0b110; row 0's tiny total is within
    # NNLS's zero tolerance, so its cell ends at exactly zero.
    @example((3, [0b001, 0b110], {0b001: 1.0, 0b110: 1.0}, {0: 1e-15, 1: 10.0, 2: 20.0}))
    def test_single_point_is_the_nnls_newton_answer(self, system):
        # At full column rank one least-squares solve, with NNLS when its
        # point leaves the cells, gives the answer of NNLS then Newton.
        n, masks, prior, constraints = system
        values, report = solve(constraints, {}, masks, prior=prior)
        with mock.patch.object(maxent, "_project", nnls_newton_project):
            want, want_report = solve(constraints, {}, masks, prior=prior)
        assert report.iterations == 0  # a single point takes no Newton step
        assert report.moved_sources == want_report.moved_sources
        assert report.skipped_sources == want_report.skipped_sources
        scale = max(1.0, *constraints.values())
        for m in masks:
            assert abs(values[m] - want[m]) <= maxent.DEFAULT_REL_TOL * scale
            assert values[m] >= 0.0
            if want[m] == 0.0:
                assert values[m] == 0.0
        assert_nearest_totals(n, constraints, values)

    @PROPERTY_SETTINGS
    @given(st.data())
    def test_matrix_rows_give_the_row_tuple_answer(self, data):
        # Rank-deficient systems, more free cells than rows, feasible or
        # mostly not, some cells with a zero prior: the rows as one matrix
        # give the cells and reports of the same projection run a row at
        # a time.
        n = data.draw(st.integers(2, 4))
        cells = st.sets(st.integers(1, (1 << n) - 1), min_size=n + 1, max_size=12)
        masks = sorted(data.draw(cells))
        truth = {m: data.draw(st.floats(0.0, 100.0)) for m in masks}
        prior = {m: data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 10.0])) for m in masks}
        known = data.draw(st.sets(st.sampled_from(masks), max_size=len(masks) - n - 1))
        free = [m for m in masks if m not in known]
        if data.draw(st.booleans()):
            constraints = row_totals(n, truth)
        else:
            constraints = {s: data.draw(st.floats(0.0, 500.0)) for s in range(n)}
        known_cells = {m: truth[m] for m in known}
        values, report = solve(constraints, known_cells, free, prior=prior)
        with mock.patch.object(maxent, "_project", tuple_project):
            want, want_report = solve(constraints, known_cells, free, prior=prior)
        assert report.moved_sources == want_report.moved_sources
        assert report.skipped_sources == want_report.skipped_sources
        assert report.iterations == want_report.iterations
        assert abs(report.max_rel_residual - want_report.max_rel_residual) <= 1e-12
        scale = max(1.0, *constraints.values())
        for m in free:
            assert abs(values[m] - want[m]) <= 1e-12 * scale


# -- offline row scaling: the list sweep against numpy arrays ---------------


def numpy_scale_rows(w, rows, rel_tol, skipped):
    """``maxent._scale_rows`` with its scaling sweeps on numpy arrays.

    The reference for the list sweep: each row is summed by
    ``w[idx].sum()`` and scaled by ``w[idx] *= factor``.  Newton, pinning
    and the stop rules are the same.
    """
    iterations = 0

    def scaling_phase(budget, rows):
        nonlocal iterations
        worst = math.inf
        window_best = math.inf
        steps = 0
        for _ in range(budget):
            iterations += 1
            steps += 1
            for _s, idx, target, _scale in rows:
                got = float(w[idx].sum())
                if got > 1e-300 and math.isfinite(got):
                    w[idx] *= target / got
            worst = tuple_worst_residual(w, rows)
            if worst <= rel_tol:
                break
            if steps % 64 == 0:
                if worst >= window_best * 0.99:
                    break
                window_best = worst
        return worst

    worst_rel = math.inf
    min_target = min((t for t in rows.targets.tolist() if t > 0), default=1.0)
    for pin_scale in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
        if not len(rows):
            worst_rel = 0.0
            break
        worst_rel = scaling_phase(400, row_tuples(rows))
        if worst_rel <= rel_tol:
            break
        worst_rel, _ = maxent._newton_phase(w, rows, rel_tol)
        if worst_rel <= rel_tol:
            break
        pinned = (w > 0.0) & (w < pin_scale * min_target)
        if not pinned.any():
            continue
        w[pinned] = 0.0
        kept = []
        for s, idx, t, scale in row_tuples(rows):
            kept.append(float(w[idx].sum()) > 0.0)
            if not kept[-1] and t > rel_tol * scale:
                skipped.append(s)
        kept = np.array(kept, dtype=bool)
        rows = maxent._Rows(rows.sources[kept], rows.a[kept], rows.targets[kept], rows.scales[kept])
    return iterations, worst_rel, rows


#: Row lengths on both sides of numpy's 8-cell unrolled block and of its
#: 128-cell pairwise split.
ROW_SIZES = (1, 2, 7, 8, 9, 128, 129, 200)


def lattice_members(rng):
    """Each row's cell positions in a system shaped like the offline fill-in.

    Cells are distinct masks of one level (2-9) over the rows, and each
    cell sits in the rows of its sources; in half the systems every cell
    shares the hub source 0.  Rows without a cell are left out.
    """
    level = int(rng.integers(2, 10))
    n_rows = int(rng.integers(level + 1, level + 12))
    hub = bool(rng.integers(2))
    masks = set()
    for _ in range(int(rng.integers(1, n_rows + 4))):
        if hub:
            others = rng.choice(np.arange(1, n_rows), level - 1, replace=False)
            masks.add(1 | sum(1 << int(s) for s in others))
        else:
            masks.add(sum(1 << int(s) for s in rng.choice(n_rows, level, replace=False)))
    cells = sorted(masks)
    members = [[i for i, m in enumerate(cells) if m >> s & 1] for s in range(n_rows)]
    return [np.array(idx, dtype=np.intp) for idx in members if idx], len(cells)


def lattice_system(seed, consistent):
    """A lattice-shaped system from ``exp(-1)``, as the offline fill-in starts."""
    rng = np.random.default_rng(seed)
    members, n = lattice_members(rng)
    return np.full(n, math.exp(-1.0)), sweep_rows(rng, members, n, consistent)


def sweep_rows(rng, members, n, consistent, zeros=frozenset()):
    """``maxent._Rows`` over ``members``: targets are row sums of random cells or random.

    Rows numbered in ``zeros`` get a zero target; each row's scale is its
    target floored at 1.
    """
    truth = 10.0 ** rng.uniform(-2.0, 2.0, n)
    targets = []
    for s, idx in enumerate(members):
        if s in zeros:
            targets.append(0.0)
        elif consistent:
            targets.append(float(truth[idx].sum()))
        else:
            targets.append(float(10.0 ** rng.uniform(-2.0, 3.0)))
    a = np.zeros((len(members), n))
    for r, idx in enumerate(members):
        a[r, idx] = 1.0
    targets = np.array(targets)
    return maxent._Rows(np.arange(len(members)), a, targets, np.maximum(targets, 1.0))


@st.composite
def sweep_systems(draw):
    """A start ``w`` and rows as ``_scale_rows`` takes them.

    Two shapes: each row draws its ascending cell positions freely, or
    the system is lattice-shaped (:func:`lattice_members`).  Targets are
    row sums of random cells (consistent) or random (mostly
    inconsistent), and some freely drawn rows want zero.  Cells start at
    ``exp(-1)``, spread over six decades, or mostly near 1e-300 (some
    subnormal), where a row sum can fall under the update's floor.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    consistent = draw(st.booleans())
    if draw(st.booleans()):
        members, n = lattice_members(rng)
        zeros = set()
    else:
        sizes = draw(st.lists(st.sampled_from(ROW_SIZES), min_size=1, max_size=5))
        n = max(sizes) + draw(st.integers(0, 8))
        members = [np.sort(rng.choice(n, size, replace=False)) for size in sizes]
        zeros = {s for s in range(len(sizes)) if draw(st.integers(0, 4)) == 0}
    start = draw(st.sampled_from(["exp", "spread", "tiny"]))
    if start == "exp":
        w = np.full(n, math.exp(-1.0))
    elif start == "spread":
        w = 10.0 ** rng.uniform(-3.0, 3.0, n)
    else:
        w = np.where(rng.random(n) < 0.8, 10.0 ** rng.uniform(-310.0, -296.0, n), math.exp(-1.0))
    return w, sweep_rows(rng, members, n, consistent, zeros)


def numpy_sweeps(w, rows, count):
    """``w``'s bytes and worst residual after each of ``count`` numpy sweeps."""
    w = w.copy()
    rows = row_tuples(rows)
    for _ in range(count):
        for _s, idx, target, _scale in rows:
            got = float(w[idx].sum())
            if got > 1e-300 and math.isfinite(got):
                w[idx] *= target / got
        yield w.tobytes(), tuple_worst_residual(w, rows)


def sweep_ending(w, rows, rel_tol):
    """How 400 sweeps from ``w`` end, window checks aside."""
    states = [w.tobytes()]
    for steps, (state, worst) in enumerate(numpy_sweeps(w, rows, 400), 1):
        if state == states[-1]:
            return "still before 64" if steps < 64 else "still after 64"
        if len(states) > 1 and state == states[-2]:
            return "cycle"
        if worst <= rel_tol:
            return "converged"
        states.append(state)
    return "budget"


def assert_sweeps_agree(w, rows, rel_tol):
    """The list sweep and the numpy sweep leave the same floats and report."""
    got_w, want_w = w.copy(), w.copy()
    got_skipped, want_skipped = [], []
    with np.errstate(all="ignore"):
        got = maxent._scale_rows(got_w, rows, rel_tol, got_skipped)
        want = numpy_scale_rows(want_w, rows, rel_tol, want_skipped)
    assert got_w.tobytes() == want_w.tobytes()
    assert got[0] == want[0]  # sweeps
    assert got[1].hex() == want[1].hex()  # worst residual
    assert got[2].sources.tolist() == want[2].sources.tolist()
    assert got_skipped == want_skipped
    return want


class TestOfflineSweep:
    @PROPERTY_SETTINGS
    @given(sweep_systems(), st.sampled_from([1e-6, 1e-9]))
    def test_list_sweep_equals_numpy_sweep(self, system, rel_tol):
        assert_sweeps_agree(*system, rel_tol)

    @pytest.mark.parametrize(
        "seed, consistent, ending",
        [
            (44, False, "still before 64"),
            (24, False, "still after 64"),
            (14, False, "cycle"),
            (14, True, "converged"),
            (11, True, "budget"),
        ],
    )
    def test_every_sweep_ending_equals_numpy(self, seed, consistent, ending):
        # The list sweep skips what it knows: the sweeps after a fixed
        # point, and the full worst residual between window checks.  One
        # lattice-shaped system for each way the sweeps can end.
        w, rows = lattice_system(seed, consistent)
        assert sweep_ending(w, rows, 1e-6) == ending
        assert_sweeps_agree(w, rows, 1e-6)

    def test_convergence_on_the_budget_step_is_seen(self):
        # The tolerance is the worst residual after exactly 400 sweeps, so
        # the first phase converges on its last step and Newton never runs.
        # Newton sums the rows as a matrix product, which here reads more
        # than the tolerance: a phase that missed its own convergence on
        # that step would have Newton move the cells.
        w, rows = lattice_system(29, True)
        worsts = [worst for _state, worst in numpy_sweeps(w, rows, 400)]
        assert min(worsts[:-1]) > worsts[-1]
        want = assert_sweeps_agree(w, rows, worsts[-1])
        assert want[0] == 400

    def test_desk_offline_detection_row_sums(self, monkeypatch):
        # The sweeps of one cold desk offline detection made 185,600 row
        # sums; most of its phases reach a fixed point early.
        calls = [0]
        row_sum = maxent._row_sum

        def counted(vals, idx):
            calls[0] += 1
            return row_sum(vals, idx)

        monkeypatch.setattr(maxent, "_row_sum", counted)
        probe = ScopedProbe(generate(desk_universe_config(), 101), SCOPE_ALL)
        initial_detection(probe, DEFAULT_PRUNE_THRESHOLD)
        assert 0 < calls[0] <= 46_400

    def test_row_sum_adds_in_numpy_order(self):
        rng = np.random.default_rng(13)
        for n in range(1, 301):
            # Ten decades around a scale between 1e-300 and 1e290, so the
            # order of the additions shows in the last bits.
            vals = (10.0 ** (rng.uniform(-300.0, 290.0) + rng.uniform(0.0, 10.0, 2 * n))).tolist()
            idx = sorted(rng.choice(2 * n, n, replace=False).tolist())
            want = float(np.array(vals)[idx].sum())
            assert maxent._row_sum(vals, idx).hex() == want.hex(), n
