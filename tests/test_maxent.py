"""Entropy solver: analytic cases, grid-search oracle, degradation paths."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querysched import grid, maxent
from querysched.detection import DEFAULT_PRUNE_THRESHOLD, initial_detection
from querysched.grid import default_grid, desk_universe_config, run_condition
from querysched.lattice import CellIndex
from querysched.simulator import SCOPE_ALL, ScopedProbe, generate


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
    @staticmethod
    def clamp_messages(caplog):
        return [r.getMessage() for r in caplog.records if r.name == "querysched.maxent"]

    def test_negative_residual_clamps_and_reports(self, caplog):
        constraints = {0: 10.0, 1: 30.0}
        known = {0b01: 15.0}  # overshoots row 0
        with caplog.at_level(logging.WARNING, logger="querysched.maxent"):
            values, report = solve(constraints, known, [0b11, 0b10])
        assert values[0b11] == 0.0  # clamped row forces its free cells to zero
        assert values[0b10] == pytest.approx(30.0, rel=1e-6)
        assert report.clamped_sources == (0,)
        assert self.clamp_messages(caplog) == ["known cells overshoot source 0 by 5; clamping"]

    def test_known_cells_subtract_in_input_order(self, caplog):
        # Left to right, 1e16 + 1 + 1 rounds back to 1e16 (the row overshoots
        # by 2); adding the ones first keeps them (it would overshoot by 4).
        # Rows 1-3 are met exactly.
        known = {0b0011: 1e16, 0b0101: 1.0, 0b1001: 1.0}
        with caplog.at_level(logging.WARNING, logger="querysched.maxent"):
            _, report = solve(
                {0: 1e16 - 2.0, 1: 1e16, 2: 1.0, 3: 1.0},
                known,
                [0b0001],
                prior={0b0001: 1.0},
            )
        assert report.clamped_sources == (0,)
        assert self.clamp_messages(caplog) == ["known cells overshoot source 0 by 2; clamping"]

    def test_a_failed_offline_solve_carries_its_report(self):
        # The known cell overshoots row 2; rows 0 and 1 share their one
        # free cell at unequal totals, so the fill cannot meet them.
        with pytest.raises(maxent.MaxEntError) as failed:
            solve({0: 40.0, 1: 9.0, 2: 4.0}, {0b100: 5.0}, [0b011, 0b110])
        report = failed.value.report
        assert report.clamped_sources == (2,)
        assert report.max_rel_residual > maxent.DEFAULT_REL_TOL
        assert set(failed.value.residuals) <= {0, 1, 2}

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
        assert values[0b10] == 0.0  # row 1 stays unmet
        assert report.max_rel_residual <= 1e-6
        # Row 1's zero total forces the only free cell to zero, so row 0
        # is left out and no row is left in play to report a residual.
        values, report = solve({0: 1.0, 1: 0.0}, {}, [0b11], prior={0b11: 1.0})
        assert values == {0b11: 0.0}
        assert row_totals(2, values) == {0: 0.0, 1: 0.0}
        assert report.max_rel_residual == 0.0


class TestQueryRefreshShortcuts:
    CONSTRAINTS = {0: 6.0, 1: 9.0, 2: 4.0}
    FREE = [0b001, 0b010, 0b100, 0b011, 0b110, 0b101]
    PRIOR = {m: 1.0 for m in FREE}

    def test_a_prior_meeting_the_rows_is_returned_as_is(self):
        parent, _ = solve(self.CONSTRAINTS, {}, self.FREE, prior=self.PRIOR)
        # The refresh starts from its prior; one that meets the rows is the answer.
        values, report = solve(self.CONSTRAINTS, {}, self.FREE, prior=parent)
        assert values == parent
        assert report.iterations == 0
        assert report.max_rel_residual <= 1e-9

    def test_a_nan_total_leaves_its_row_out(self):
        # Row 0 alone is fitted: one sweep scales its two cells to 5 / 2
        # each, and cell 0b10, in row 1 only, keeps its prior.
        values, report = solve(
            {0: 5.0, 1: math.nan}, {}, [0b01, 0b10, 0b11], prior=dict.fromkeys((1, 2, 3), 1.0)
        )
        assert values == {0b01: 2.5, 0b10: 1.0, 0b11: 2.5}
        assert report.clamped_sources == ()
        assert report.max_rel_residual == 0.0

    def test_rows_no_cells_can_meet_are_not_fatal(self):
        # Row 0's cells all lie in row 1 or in row 2, so row 0 cannot exceed
        # their sum: the capped solve returns its last cells and residual.
        values, report = solve(
            {0: 40.0, 1: 9.0, 2: 4.0}, {}, [0b011, 0b101, 0b110], prior=self.PRIOR
        )
        assert all(v >= 0.0 and math.isfinite(v) for v in values.values())
        assert report.max_rel_residual > maxent.DEFAULT_REL_TOL

    def test_a_run_s_refreshes_do_not_depend_on_the_run_before(self, monkeypatch):
        # On the default grid's desk universe, seed 110 at k = 0.2,
        # `sequential` re-solves cells that `online` solved just before,
        # over the same offline snapshot and cell index; its refreshes
        # equal those over a fresh snapshot, float for float.
        refreshes = []
        refresh = maxent.solve

        def recorded(*args, **kwargs):
            values, report = refresh(*args, **kwargs)
            if kwargs.get("prior") is not None:
                refreshes.append(([v.hex() for v in values.tolist()], report))
            return values, report

        monkeypatch.setattr(maxent, "solve", recorded)
        spec = default_grid()
        run_condition(spec, "k_fraction", 0.2, "online", 110)
        refreshes.clear()
        run_condition(spec, "k_fraction", 0.2, "sequential", 110)
        after_online = refreshes.copy()
        monkeypatch.setattr(grid, "_DETECTION_CACHE", {})
        refreshes.clear()
        run_condition(spec, "k_fraction", 0.2, "sequential", 110)
        assert after_online and refreshes == after_online

    @pytest.mark.parametrize(
        "constraints, prior",
        [
            ({0: 0.0, 1: 66.76226010599068}, {0b10: 0.1}),
            ({0: 1e6}, {0b1: 1e-6}),
            ({0: 1e6, 1: 5e5}, {0b1: 1e-6, 0b11: 2e-6}),
        ],
    )
    def test_far_priors_are_met(self, constraints, prior):
        # Priors orders of magnitude off their rows.
        values, report = solve(constraints, {}, list(prior), prior=prior)
        got = row_totals(len(constraints), values)
        for s, total in constraints.items():
            assert abs(got[s] - total) <= maxent.DEFAULT_REL_TOL * max(total, 1.0)
        assert report.max_rel_residual <= maxent.DEFAULT_REL_TOL


# -- query-level projection: properties over random systems -----------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def cell_systems(draw, implied=False, positive=False):
    """Random masks over 2-4 sources with nonnegative true cell values.

    With ``implied``, every cell holding source 0 also holds source 1, so
    row 0 can never exceed row 1.  With ``positive``, every true value is
    at least 0.1.
    """
    n = draw(st.integers(2, 4))
    masks = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1, max_size=10))
    if implied:
        masks = {m | 0b10 if m & 1 else m for m in masks}
    masks = sorted(masks)
    truth = {m: draw(st.floats(0.1 if positive else 0.0, 100.0)) for m in masks}
    prior = {m: draw(st.floats(0.1, 10.0)) for m in masks}
    known = set(draw(st.lists(st.sampled_from(masks), max_size=len(masks) - 1, unique=True)))
    return n, truth, prior, known


def row_totals(n, cells):
    return {s: sum(v for m, v in cells.items() if (m >> s) & 1) for s in range(n)}


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
    """Worst residual relative to scale, each row summed by :func:`left_sum`."""
    worst = 0.0
    for _s, idx, target, scale in rows:
        worst = max(worst, abs(left_sum(w, idx) - target) / scale)
    return worst


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
        assert report.max_rel_residual <= 1e-6

    @PROPERTY_SETTINGS
    @given(cell_systems(positive=True), st.data())
    def test_kkt_conditions_on_feasible_rows(self, system, data):
        # Row scaling and Newton both multiply a cell by the exponentials
        # of its rows' multipliers, so on the free cells with a positive
        # prior log(w / prior) lies in the row space.  A cell with a zero
        # prior stays at zero, and known cells come back as given.  The
        # rows are feasible: the true cells of the free zero-prior ones
        # are zero, and every other true cell is positive.
        n, truth, prior, known = system
        zeroed = data.draw(st.sets(st.sampled_from(sorted(truth))), label="zeroed")
        prior = {m: 0.0 if m in zeroed else p for m, p in prior.items()}
        truth = {m: 0.0 if m in zeroed and m not in known else v for m, v in truth.items()}
        masks = sorted(truth)
        index = CellIndex(masks, n)
        known_cells = {masks.index(m): truth[m] for m in known}
        values, report = maxent.solve(
            row_totals(n, truth), index, known_cells, prior=[prior[m] for m in masks]
        )
        assert report.max_rel_residual <= maxent.DEFAULT_REL_TOL
        assert all(values[i] == v for i, v in known_cells.items())
        free = [i for i, m in enumerate(masks) if m not in known]
        assert all(values[i] == 0.0 for i in free if masks[i] in zeroed)
        live = [i for i in free if masks[i] not in zeroed]
        assert all(values[i] > 0.0 for i in live)
        rows = index.incidence[:, live].T.astype(float)
        logs = np.log(values[live] / np.array([prior[masks[i]] for i in live]))
        multipliers = np.linalg.lstsq(rows, logs, rcond=None)[0]
        assert np.max(np.abs(rows @ multipliers - logs), initial=0.0) <= 1e-9

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


# -- row scaling: the list sweep against numpy arrays ------------------------


def left_sum(w, idx):
    """``w[idx]`` added left to right, as the list sweep adds a row."""
    return float(np.cumsum(w[idx])[-1])


def numpy_scale_rows(w, rows, rel_tol):
    """``maxent._scale_rows`` with its sweeps on numpy arrays.

    The reference for the list sweep: each row is summed by
    :func:`left_sum` and scaled by ``w[idx] *= factor``.  The 20-sweep
    budget, the stop rule and Newton are the same.
    """
    tuples = row_tuples(rows)
    for sweeps in range(1, 21):
        for _s, idx, target, _scale in tuples:
            got = left_sum(w, idx)
            if got > 1e-300 and math.isfinite(got):
                w[idx] *= target / got
        worst = tuple_worst_residual(w, tuples)
        if worst <= rel_tol:
            return sweeps, worst
    return sweeps, maxent._newton_phase(w, rows, rel_tol)


#: Row lengths on both sides of numpy's 8-cell unrolled block and of its
#: 128-cell pairwise split, past which ``np.sum`` does not add left to right.
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
            got = left_sum(w, idx)
            if got > 1e-300 and math.isfinite(got):
                w[idx] *= target / got
        yield w.tobytes(), tuple_worst_residual(w, rows)


def sweep_ending(w, rows, rel_tol):
    """How 20 sweeps from ``w`` end, before Newton."""
    states = [w.tobytes()]
    for state, worst in numpy_sweeps(w, rows, 20):
        if state in states[-2:]:
            return "cycle"
        if worst <= rel_tol:
            return "converged"
        states.append(state)
    return "budget"


def assert_sweeps_agree(w, rows, rel_tol):
    """The list sweep and the numpy sweep leave the same floats and report."""
    got_w, want_w = w.copy(), w.copy()
    with np.errstate(all="ignore"):
        got = maxent._scale_rows(got_w, rows, rel_tol)
        want = numpy_scale_rows(want_w, rows, rel_tol)
    assert got_w.tobytes() == want_w.tobytes()
    assert got[0] == want[0]  # sweeps
    assert got[1].hex() == want[1].hex()  # worst residual
    return want


def row_sums_per_solve(monkeypatch):
    """Each later ``maxent.solve`` call's row sums and rows in play, as a pair."""
    solves = []
    solve, scale_rows, add = maxent.solve, maxent._scale_rows, maxent._left_sum

    def counted_solve(*args, **kwargs):
        solves.append([0, 0])
        return solve(*args, **kwargs)

    def counted_scale_rows(w, rows, rel_tol):
        solves[-1][1] = len(rows.targets)
        return scale_rows(w, rows, rel_tol)

    def counted_add(vals, idx):
        solves[-1][0] += 1
        return add(vals, idx)

    monkeypatch.setattr(maxent, "solve", counted_solve)
    monkeypatch.setattr(maxent, "_scale_rows", counted_scale_rows)
    monkeypatch.setattr(maxent, "_left_sum", counted_add)
    return solves


class TestOfflineSweep:
    @PROPERTY_SETTINGS
    @given(sweep_systems(), st.sampled_from([1e-6, 1e-9]))
    def test_list_sweep_equals_numpy_sweep(self, system, rel_tol):
        assert_sweeps_agree(*system, rel_tol)

    @pytest.mark.parametrize(
        "seed, consistent, ending",
        [
            (14, False, "cycle"),
            (14, True, "converged"),
            (11, True, "budget"),
        ],
    )
    def test_every_sweep_ending_equals_numpy(self, seed, consistent, ending):
        # One lattice-shaped system for each way the sweeps can end.
        w, rows = lattice_system(seed, consistent)
        assert sweep_ending(w, rows, 1e-6) == ending
        assert_sweeps_agree(w, rows, 1e-6)

    def test_convergence_on_the_budget_step_is_seen(self):
        # The tolerance is the worst residual after exactly 20 sweeps, so
        # the sweeps converge on their last step and Newton never runs.
        # Newton sums the rows as a matrix product, which here reads more
        # than the tolerance: sweeps that missed their own convergence on
        # that step would have Newton move the cells.
        w, rows = lattice_system(2, True)
        states, worsts = zip(*numpy_sweeps(w, rows, 20))
        assert min(worsts[:-1]) > worsts[-1]
        assert maxent._worst_residual(np.frombuffer(states[-1]), rows) > worsts[-1]
        want = assert_sweeps_agree(w, rows, worsts[-1])
        assert want[0] == 20

    @pytest.mark.parametrize("run", ["offline detection", "online run"])
    def test_no_solve_runs_more_than_20_sweeps(self, monkeypatch, run):
        # A sweep sums every row in play twice: once to scale it, once for
        # the residual.  The online run counts only its query refreshes:
        # the run before it leaves the offline snapshot cached.
        if run == "offline detection":
            solves = row_sums_per_solve(monkeypatch)
            probe = ScopedProbe(generate(desk_universe_config(), 101), SCOPE_ALL)
            initial_detection(probe, DEFAULT_PRUNE_THRESHOLD)
        else:
            run_condition(default_grid(), "k_fraction", 0.8, "online", 101)
            solves = row_sums_per_solve(monkeypatch)
            run_condition(default_grid(), "k_fraction", 0.8, "online", 101)
        swept = [sums / (2 * rows) for sums, rows in solves if sums]
        assert swept and max(swept) <= 20
