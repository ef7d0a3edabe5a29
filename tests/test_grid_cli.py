"""Experiment grid, CSV output, and the command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import querysched
from querysched import grid
from querysched.cli import build_parser, main
from querysched.grid import (
    CSV_HEADER,
    GridSpec,
    default_grid,
    demo_crosspoint,
    demo_table_order,
    desk_universe_config,
    grid_from_json,
    run_grid,
    scaled_universe,
    verify_demo_instance,
)
from querysched.detection import DEFAULT_PRUNE_THRESHOLD, dump_snapshot, initial_detection
from querysched.permutation import BASELINE_ALGOS, TABLE_ALGO_ORDER
from querysched.scheduler import RunConfig
from querysched.simulator import SCOPE_ALL, ReplicationModel, ScopedProbe, demo_universe, generate


def tiny_grid():
    return GridSpec(
        universe=replace(desk_universe_config(), n_sources=12, n_distinct=80, total_tuples=300),
        run=RunConfig(),
        axes=(("k_fraction", (0.4, 0.8)),),
        algorithms=("max_tuples", "online", "random"),
        seeds=(101, 102),
    )


DATA = Path(__file__).parent / "data"


class TestGrid:
    def test_csv_shape_and_order(self, tmp_path):
        out = tmp_path / "grid.csv"
        text = run_grid(tiny_grid(), out)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3
        conditions = [ln.split(",")[0] for ln in lines[1:]]
        assert conditions == ["k_fraction=0.4"] * 3 + ["k_fraction=0.8"] * 3
        algos = [ln.split(",")[1] for ln in lines[1:3 + 1]]
        assert algos == ["max_tuples", "online", "random"]
        assert out.read_text() == text

    def test_csv_deterministic(self, tmp_path):
        a = run_grid(tiny_grid(), tmp_path / "a.csv")
        b = run_grid(tiny_grid(), tmp_path / "b.csv")
        assert a == b

    def test_trace_files(self, tmp_path):
        run_grid(tiny_grid(), tmp_path / "c.csv", trace_dir=tmp_path / "traces")
        files = sorted((tmp_path / "traces").glob("*.json"))
        assert len(files) == 2 * 3 * 2
        payload = json.loads(files[0].read_text())
        assert "trace" in payload and "simulated_time_ms" in payload

    def test_small_grid_matches_golden_csv(self, tmp_path):
        # Pure-Python paths only (baselines and full knowledge, no solver),
        # so the committed bytes pin the event loop's behaviour.
        spec = GridSpec(
            universe=desk_universe_config(n_sources=16),
            run=RunConfig(),
            axes=(("k_fraction", (0.4, 0.8)), ("query_threads", (2,))),
            algorithms=BASELINE_ALGOS + ("full_knowledge",),
            seeds=(101, 102, 103),
        )
        text = run_grid(spec, tmp_path / "golden.csv")
        assert text == (DATA / "golden_grid.csv").read_text()

    def test_small_adaptive_grid_matches_golden_csv(self, tmp_path):
        # Desk seed 101, where many query-level refreshes get totals the
        # offline snapshot's cells cannot all meet and so publish a capped
        # solve; the committed bytes pin the plans those refreshes lead to.
        spec = GridSpec(
            universe=desk_universe_config(),
            run=RunConfig(),
            axes=(("k_fraction", (0.5, 0.8)),),
            algorithms=("online", "sequential"),
            seeds=(101,),
        )
        text = run_grid(spec, tmp_path / "golden.csv")
        assert text == (DATA / "golden_adaptive.csv").read_text()

    def test_default_grid_matches_golden_csv(self, tmp_path):
        # What ``querysched run`` writes without a config: every algorithm
        # over the desk universe, so a change to any layer's floats shows.
        text = run_grid(default_grid(), tmp_path / "default.csv")
        assert text == (DATA / "golden_default.csv").read_text()

    def test_run_condition_generates_each_universe_once(self, monkeypatch):
        calls = []

        def counting(ucfg, seed):
            calls.append((ucfg, seed))
            return generate(ucfg, seed)

        monkeypatch.setattr(grid, "_UNIVERSE_CACHE", {})
        monkeypatch.setattr(grid, "generate", counting)
        spec = tiny_grid()
        first = grid.run_condition(spec, "k_fraction", 0.4, "online", 101)
        again = grid.run_condition(spec, "k_fraction", 0.4, "online", 101)
        assert calls == [(spec.universe, 101)]
        assert again.to_json() == first.to_json()

    def test_default_algorithms_follow_table_order(self):
        assert default_grid().algorithms == TABLE_ALGO_ORDER

    def test_scaled_universe_spreads_chains(self):
        base = desk_universe_config()
        bigger = scaled_universe(base, 150)
        assert bigger.n_sources == 150
        assert isinstance(bigger.overlap, ReplicationModel)
        assert bigger.overlap.chains == 3 * base.overlap.chains
        assert bigger.total_tuples == base.total_tuples

    def test_grid_config_roundtrip(self):
        payload = {
            "universe": {
                "sources": 10,
                "distinct": 50,
                "total": 120,
                "access_ms": [1.0, 2.0],
                "per_tuple_ms": [0.1, 0.2],
                "query_split": 0.6,
                "overlap": {"style": "uniform", "mean_depth": 2.0, "max_depth": 4},
            },
            "run": {"query_threads": 2, "detection_overhead": 1.5},
            "k_fraction": 0.5,
            "axes": {"query_threads": [1, 2]},
            "algorithms": ["online"],
            "seeds": [7, 8],
        }
        spec = grid_from_json(payload)
        assert spec.universe.n_sources == 10
        assert spec.run.query_threads == 2
        assert spec.run.detection_overhead == 1.5
        assert spec.axes == (("query_threads", (1.0, 2.0)),)
        assert spec.seeds == (7, 8)

    def test_grid_config_defaults(self):
        assert grid_from_json({}) == GridSpec(desk_universe_config(), RunConfig())
        # Defaults come from the desk config as it is, not recomputed from
        # the keys given: a larger total keeps the default depth.
        spec = grid_from_json({"universe": {"total": 6000}})
        assert spec.universe.total_tuples == 6000
        assert spec.universe.overlap.mean_depth == 5.0

    def test_readme_grid_config_is_current(self):
        # The README's example config must parse to the default grid and
        # name every run option, so an option added or dropped without a
        # README edit fails here.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Grid config", 1)[1]
        payload = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert grid_from_json(payload) == default_grid()
        assert set(payload["run"]) == {f.name for f in fields(RunConfig)}

    def test_readme_library_quick_start_runs(self, capsys):
        # The README's library example must run as written against the
        # current API.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        code = section.split("```python", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        time_ms, sources = capsys.readouterr().out.split(" ", 1)
        assert float(time_ms) > 0 and sources.startswith("[")

    @pytest.mark.parametrize(
        "payload, section, key",
        [
            ({"run": {"query_thread": 2}}, "run", "query_thread"),
            ({"run": {"cost_model": "sequential"}}, "run", "cost_model"),
            (
                {"run": {"detection_batch": 1, "overlap_floor": 0.05, "planner_unit_ms": 0.01}},
                "run",
                "detection_batch, overlap_floor, planner_unit_ms",
            ),
            ({"k_fractions": 0.5}, "top level", "k_fractions"),
            ({"universe": {"source": 10}}, "universe", "source"),
            ({"universe": {"overlap": {"chain": 3}}}, "universe.overlap", "chain"),
            (
                {"universe": {"overlap": {"cells": {"1": 5}, "style": "uniform"}}},
                "universe.overlap",
                "style",
            ),
        ],
        ids=[
            "run",
            "run-stale-cost-model",
            "run-dropped-options",
            "top-level",
            "universe",
            "overlap",
            "cells-overlap",
        ],
    )
    def test_unknown_config_key_rejected(self, payload, section, key):
        with pytest.raises(ValueError) as err:
            grid_from_json(payload)
        assert f"section {section}:" in str(err.value)
        assert key in str(err.value)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError) as err:
            grid_from_json({"algorithms": ["max_tuples", "onlin", "full", "online"]})
        assert "'onlin'" in str(err.value)
        assert "'full'" in str(err.value)
        assert "'max_tuples'" not in str(err.value)

    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"n_source": [20]}, "unknown grid axis 'n_source'"),
            ({"detection_overhead": [1.0, -1.0]}, "detection_overhead must be at least 0"),
            ({"k_fraction": [0.5], "query_threads": [2, 0]}, "query_threads must be at least 1"),
            ({"n_sources": [10, 0]}, "n_sources must be at least 1"),
            # Two conditions with one label wrote two CSV rows of that name,
            # and the second's trace files overwrote the first's.
            ({"k_fraction": [0.2, 0.2]}, "axes: k_fraction repeats the label 0.2$"),
            ({"k_fraction": [0.1234561, 0.1234562]}, "k_fraction repeats the label 0.123456$"),
        ],
        ids=[
            "unknown-axis",
            "negative-overhead",
            "zero-threads",
            "zero-sources",
            "repeated-value",
            "repeated-label",
        ],
    )
    def test_bad_axis_rejected_before_any_run(self, monkeypatch, axes, message):
        runs = []
        monkeypatch.setattr(grid, "run_query", lambda *a, **k: runs.append(a))
        payload = {"axes": axes, "seeds": [101], "algorithms": ["online"]}
        with pytest.raises(ValueError, match=message):
            grid_from_json(payload)
        spec = grid_from_json(dict(payload, axes={"k_fraction": [0.5]}))
        with pytest.raises(ValueError, match=message):
            replace(spec, axes=tuple((a, tuple(v)) for a, v in axes.items()))
        assert runs == []

    @pytest.mark.parametrize(
        "universe, message",
        [
            ({"overlap": {"chains": 0}}, "chains must be at least 1, got 0"),
            ({"sources": 0}, "n_sources must be at least 1, got 0"),
            ({"sources": -3}, "n_sources must be at least 1, got -3"),
        ],
        ids=["zero-chains", "zero-sources", "negative-sources"],
    )
    def test_count_below_one_rejected(self, universe, message):
        # With no chains a chained draw failed mid-run with an IndexError;
        # with no sources generation blamed the replication distribution.
        with pytest.raises(ValueError, match=message):
            grid_from_json({"universe": universe, "axes": {"k_fraction": [0.5]}})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"seeds": 5}, "section top level: seeds must be a list, got 5"),
            ({"seeds": ["101"]}, "section top level: seeds must be a number, got '101'"),
            ({"algorithms": "online"}, "section top level: algorithms must be a list"),
            ({"k_fraction": "0.5"}, "section top level: k_fraction must be a number"),
            ({"axes": {"k_fraction": 0.5}}, "section axes: k_fraction must be a list, got 0.5"),
            ({"axes": {"k_fraction": [None]}}, "section axes: k_fraction must be a number"),
            ({"axes": [["k_fraction", [0.5]]]}, "section axes must be an object"),
            ([], "section top level must be an object, got []"),
            ({"universe": []}, "section universe must be an object, got []"),
            ({"run": [1]}, "section run must be an object, got [1]"),
            ({"run": {"query_threads": True}}, "section run: query_threads must be a number"),
            ({"universe": {"overlap": []}}, "section universe.overlap must be an object"),
            (
                {"universe": {"overlap": {"cells": [1, 2]}}},
                "section universe.overlap.cells must be an object",
            ),
            (
                {"universe": {"overlap": {"cells": {"1": None}}}},
                "section universe.overlap: cells must be a number, got None",
            ),
            ({"universe": {"access_ms": 5}}, "section universe: access_ms must be a list, got 5"),
            ({"universe": {"access_ms": "ab"}}, "section universe: access_ms must be a list"),
            ({"universe": {"access_ms": [5]}}, "section universe: access_ms must be a pair"),
            (
                {"universe": {"per_tuple_ms": [0.1, "0.2"]}},
                "section universe: per_tuple_ms must be a number, got '0.2'",
            ),
            ({"universe": {"query_split": None}}, "section universe: query_split must be a number"),
        ],
        ids=[
            "seeds-number",
            "seeds-string",
            "algorithms-string",
            "k-fraction-string",
            "axis-number",
            "axis-null",
            "axes-list",
            "top-level-list",
            "universe-list",
            "run-list",
            "threads-bool",
            "overlap-list",
            "cells-list",
            "cell-count-null",
            "range-number",
            "range-string",
            "range-short",
            "range-string-item",
            "split-null",
        ],
    )
    def test_wrongly_typed_value_rejected(self, payload, message):
        # These escaped as TypeError or AttributeError, or as a ValueError
        # naming no key, and --config ended in a traceback.
        with pytest.raises(ValueError) as err:
            grid_from_json(payload)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "universe, message",
        [
            ({"distinct": 10**400, "total": 10**400}, "distinct is too large: 401 digits"),
            ({"sources": 10**400}, "universe: sources is too large: 401 digits"),
            ({"overlap": {"max_depth": 10**400}}, "overlap: max_depth is too large: 401 digits"),
            ({"distinct": -5, "total": -5}, "n_distinct must be at least 0, got -5"),
        ],
        ids=["huge-distinct", "huge-sources", "huge-max-depth", "negative-distinct"],
    )
    def test_out_of_range_count_rejected(self, universe, message):
        # Generation on these would not finish, or would fail mid-run on
        # an empty random range; the huge distinct count overflowed a float.
        with pytest.raises(ValueError, match=message):
            grid_from_json({"universe": universe})

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"algorithms": []}, "section top level: algorithms must not be empty$"),
            ({"algorithms": ["online", "online"]}, "top level: algorithms repeats 'online'$"),
            ({"seeds": [101, 102, 101]}, "section top level: seeds repeats 101$"),
        ],
        ids=["no-algorithm", "repeated-algorithm", "repeated-seed"],
    )
    def test_grid_running_nothing_or_twice_rejected(self, payload, message):
        # No algorithm wrote a header-only CSV; a repeated algorithm wrote
        # its rows twice, and a repeated seed weighted its run twice in the
        # mean and overwrote its trace files.
        with pytest.raises(ValueError, match=message):
            grid_from_json(payload)
        with pytest.raises(ValueError, match=message):
            replace(default_grid(), **{key: tuple(v) for key, v in payload.items()})

    @pytest.mark.parametrize("axes", [{}, {"k_fraction": []}, {"k_fraction": [], "n_sources": []}])
    def test_grid_with_no_condition_rejected(self, tmp_path, axes):
        # These wrote a header-only CSV and exited 0.
        spec = grid_from_json({"axes": axes})
        with pytest.raises(ValueError, match="section axes: no axis has a value"):
            run_grid(spec, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"access_ms": [NaN, 5]}', r"access_ms must be .* finite range, got \(nan, 5.0\)"),
            ('{"per_tuple_ms": [0.02, Infinity]}', r"per_tuple_ms must be .* got \(0.02, inf\)"),
        ],
        ids=["nan-access", "infinite-per-tuple"],
    )
    def test_non_finite_latency_bound_rejected(self, monkeypatch, text, message):
        # JSON's NaN and Infinity parse; the runs then ended in an
        # AttributeError or a TypeError instead of a CSV.
        runs = []
        monkeypatch.setattr(grid, "run_query", lambda *a, **k: runs.append(a))
        payload = {"universe": json.loads(text), "axes": {"k_fraction": [0.5]}}
        with pytest.raises(ValueError, match=message):
            grid_from_json(dict(payload, seeds=[101], algorithms=["online", "max_tuples"]))
        assert runs == []

    @pytest.mark.parametrize(
        "payload, inf_algos",
        [
            ({"run": {"detection_overhead": 1.5e308}}, {"online"}),
            ({"universe": {"per_tuple_ms": [1e308, 1e308]}}, {"online", "max_tuples"}),
        ],
        ids=["overhead", "per-tuple"],
    )
    def test_overflowing_clock_ends_in_a_csv(self, tmp_path, payload, inf_algos):
        # A counting query costs 1.5 ms times the overhead, and a scan
        # 1e308 ms per tuple: both overflow to inf.  A clock at inf used
        # to complete a query that was not in flight, a TypeError.
        algos = ["online", "max_tuples"]
        spec = grid_from_json(dict(payload, axes={"k_fraction": [0.5]}, seeds=[101], algorithms=algos))
        text = run_grid(spec, tmp_path / "out.csv")
        means = {row.split(",")[1]: row.split(",")[2] for row in text.splitlines()[1:]}
        assert {algo for algo, mean in means.items() if mean == "inf"} == inf_algos

    @pytest.mark.parametrize(
        "cells, axes, message",
        [
            ({"1": -5, "2": 10, "3": 5}, {"k_fraction": [0.5]}, "cell 0x1 has a negative count -5"),
            ({"1": 1, "2": 4, "4": 2, "3": 3}, {"n_sources": [3, 2]}, "cell mask 0x4 outside"),
            ({"1": 10, "2": 10, "3": 5}, {"k_fraction": [0.5]}, "exceed the distinct tuple budget"),
        ],
        ids=["negative-count", "mask-outside-a-condition", "over-budget"],
    )
    def test_bad_venn_cells_rejected_before_any_run(self, monkeypatch, cells, axes, message):
        # The negative cell vanished from a universe of 25 distinct tuples
        # against 20; the mask and budget checks ran only at generation,
        # so the n_sources = 2 condition failed after the first had run.
        runs = []
        monkeypatch.setattr(grid, "run_query", lambda *a, **k: runs.append(a))
        universe = {"sources": 3, "distinct": 20, "total": 30, "overlap": {"cells": cells}}
        with pytest.raises(ValueError, match=message):
            grid_from_json({"universe": universe, "axes": axes})
        assert runs == []

    def test_venn_cells_are_checked_against_the_sizes_given_with_them(self):
        # 700 cell tuples exceed the desk default of 600 distinct tuples.
        universe = {"sources": 3, "distinct": 800, "total": 900, "overlap": {"cells": {"7": 700}}}
        spec = grid_from_json({"universe": universe})
        assert spec.universe.n_distinct == 800
        assert generate(spec.universe, 1).truth.n_distinct == 800

    def test_venn_config_accepted(self):
        payload = {
            "universe": {
                "sources": 3,
                "distinct": 200,
                "total": 250,
                "overlap": {"cells": {"1": 10, "2": 80, "4": 60, "3": 35, "5": 5, "6": 10}},
            }
        }
        spec = grid_from_json(payload)
        from querysched.simulator import ScopedProbe, generate

        u = generate(spec.universe, 1)
        assert ScopedProbe(u, "all").cardinality(1) == 125


class TestDemoVerification:
    def test_piecewise_table_and_crosspoint(self):
        report = verify_demo_instance()
        assert report.passed
        assert report.matches == 200
        assert not report.mismatched_k
        assert report.crosspoint[0] == pytest.approx(96.8, abs=0.5)
        assert report.crosspoint[1] == pytest.approx(106.4, abs=0.5)

    def test_table_lookup(self):
        assert demo_table_order(50) == (0,)
        assert demo_table_order(96) == (0, 1)
        assert demo_table_order(97) == (1,)
        assert demo_table_order(200) == (1, 2, 0)
        with pytest.raises(ValueError):
            demo_table_order(201)

    def test_perturbed_transfer_cost_is_detected(self):
        # The verification is sensitive: with a slower second source the
        # reference table no longer matches everywhere.
        from querysched.cost import SEQUENTIAL, permutation_time_cost
        from querysched.permutation import brute_force_opt
        from querysched.simulator import SCOPE_ALL

        u = demo_universe()
        snap = u.truth_snapshot(SCOPE_ALL)
        bent = replace(snap, per_tuple_ms=(0.7, 2.2, 1.5))
        mism = 0
        for k in range(1, 201):
            _, best, short = brute_force_opt(k, bent, SEQUENTIAL)
            ref = permutation_time_cost(demo_table_order(k), bent, k, SEQUENTIAL)
            if short or abs(ref.time_ms - best) > 1e-9 * max(1.0, best):
                mism += 1
        assert mism > 0

    def test_crosspoint_helper(self):
        k, t = demo_crosspoint(demo_universe())
        assert k == pytest.approx(96.75, abs=0.01)
        assert t == pytest.approx(106.43, abs=0.01)


class TestCli:
    def test_verify_example1_command(self, capsys):
        rc = main(["verify-example1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "200/200" in out

    def test_run_command_with_config(self, tmp_path, capsys):
        cfg = {
            "universe": {
                "sources": 10,
                "distinct": 60,
                "total": 180,
                "overlap": {"style": "chained", "mean_depth": 3.0, "max_depth": 5, "chains": 3},
            },
            "axes": {"k_fraction": [0.5]},
            "algorithms": ["max_tuples", "online"],
            "seeds": [101, 102],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_run_seed_override(self, tmp_path):
        cfg = {
            "universe": {
                "sources": 8,
                "distinct": 40,
                "total": 100,
                "overlap": {"style": "uniform", "mean_depth": 2.5, "max_depth": 4},
            },
            "axes": {"k_fraction": [0.5]},
            "algorithms": ["max_tuples"],
            "seeds": [101, 102, 103],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        rc = main(
            ["run", "--config", str(cfg_path), "--out", str(out_path), "--seed", "55"]
        )
        assert rc == 0
        row = out_path.read_text().strip().splitlines()[1]
        assert row.split(",")[3] == "0.000000"  # single seed -> zero stddev

    def test_dump_stats_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "stats.txt"
        rc = main(["dump-stats", "--seed", "101", "--out", str(out_path)])
        assert rc == 0
        probe = ScopedProbe(generate(desk_universe_config(), 101), SCOPE_ALL, sample_seed=101)
        outcome = initial_detection(probe)
        assert out_path.read_text() == dump_snapshot(outcome, DEFAULT_PRUNE_THRESHOLD)
        assert capsys.readouterr().err == "count queries: 127, clamped rows: 0\n"

    def test_dump_stats_matches_golden(self, tmp_path, capsys):
        # Four runs: relative, sampled, absolute, and README's three-source
        # cell map with no pruning, which counts every cell.
        config = {
            "universe": {
                "sources": 3,
                "distinct": 200,
                "total": 250,
                "overlap": {"cells": {"1": 10, "2": 80, "4": 60, "3": 35, "5": 5, "6": 10}},
            }
        }
        (tmp_path / "demo.json").write_text(json.dumps(config))
        runs = [
            ["--seed", "101"],
            ["--seed", "102", "--sample", "0.5"],
            ["--seed", "103", "--absolute", "--threshold", "5"],
            ["--config", "demo.json", "--threshold", "0", "--seed", "7"],
        ]
        transcript = []
        for argv in runs:
            args = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
            assert main(["dump-stats", *args]) == 0
            captured = capsys.readouterr()
            transcript += [f"$ dump-stats {' '.join(argv)}\n", captured.out, captured.err]
        assert "".join(transcript) == (DATA / "golden_dump_stats.txt").read_text()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "{missing}"], "No such file or directory"),
            (["run", "--config", "{invalid}"], "unknown key(s) in grid config"),
            (["run", "--config", "{garbled}"], "Expecting property name"),
            (["dump-stats", "--threshold", "0"], "zero prune threshold materializes 2^50 cells"),
            (["run", "--config", "{huge}"], "query_threads is too large: 401 digits"),
            (["run", "--config", "{typed}"], "section top level: seeds must be a list, got 5"),
            (["run", "--config", "{bare}"], "section axes: no axis has a value"),
        ],
        ids=[
            "missing-config",
            "invalid-config",
            "garbled-config",
            "zero-threshold",
            "huge-threads",
            "wrongly-typed-config",
            "no-condition-config",
        ],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, message):
        # These ended in a traceback and exit code 1.
        (tmp_path / "invalid.json").write_text(json.dumps({"bogus": 1}))
        (tmp_path / "garbled.json").write_text("{bogus")
        # An int past the float range: float() of it raised OverflowError.
        (tmp_path / "huge.json").write_text(json.dumps({"run": {"query_threads": 10**400}}))
        # A value of the wrong JSON type raised TypeError.
        (tmp_path / "typed.json").write_text(json.dumps({"seeds": 5}))
        # A grid with no condition wrote a header-only CSV and exited 0.
        (tmp_path / "bare.json").write_text(json.dumps({"axes": {"k_fraction": []}}))
        names = ("missing", "invalid", "garbled", "huge", "typed", "bare")
        paths = {name: str(tmp_path / f"{name}.json") for name in names}
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path / "out.csv")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("querysched: error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()

    def test_zero_threshold_over_a_wide_condition_is_rejected_before_any_run(
        self, tmp_path, capsys
    ):
        # The 8-source condition ran and wrote its trace file; detection
        # then refused the 20-source one, and no CSV was written.
        cfg = {
            "run": {"prune_threshold": 0},
            "universe": {"sources": 8, "distinct": 60, "total": 200},
            "axes": {"n_sources": [8, 20]},
        }
        message = "zero prune threshold materializes 2^20 cells"
        with pytest.raises(ValueError, match=message.replace("^", r"\^")):
            grid_from_json(cfg)
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        traces = tmp_path / "traces"
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--trace-dir", str(traces)])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not any(traces.glob("*"))
        assert not (tmp_path / "out.csv").exists()

    def test_oracle_command(self, capsys):
        rc = main(["oracle", "--max-sources", "5", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "optimal order=" in out
        assert "within_bound=" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--k-fraction", "0"),
            ("--k-fraction", "-0.5"),
            ("--k-fraction", "nan"),
            ("--k-fraction", "inf"),
            ("--k-fraction", "1e308"),
            ("--max-sources", "0"),
            ("--max-sources", "-3"),
            ("--max-sources", "10"),
        ],
    )
    def test_oracle_rejects_bad_arguments_at_parse_time(self, capsys, flag, value):
        # A fraction of zero or less used to run k = 1, one whose count
        # of the instance's tuples is infinite failed converting k to an
        # int, and no sources failed deep inside the generator.
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err
        assert captured.out == ""

    def test_oracle_fraction_above_one_runs_short(self, capsys):
        rc = main(["oracle", "--max-sources", "5", "--seed", "3", "--k-fraction", "1e300"])
        assert rc == 0
        assert "shortfall=True" in capsys.readouterr().out

    def test_oracle_gives_no_ratio_for_a_short_run(self, capsys):
        # Both orders fall short of k here.  The oracle's cost scans every
        # source; the sweep's leaves zero-rate sources out.  So the ratio of
        # the two costs read 0.778337 and claimed within_bound=True.
        rc = main(["oracle", "--max-sources", "6", "--k-fraction", "1.5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("shortfall=True")
        assert lines[2].startswith("refined order=") and lines[2].endswith("shortfall=True")
        assert lines[3].startswith("ratio=n/a ") and lines[3].endswith(" within_bound=n/a")

    def test_oracle_gives_a_ratio_when_both_orders_cover_k(self, capsys):
        rc = main(["oracle", "--max-sources", "6"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("shortfall=False") and lines[2].endswith("shortfall=False")
        assert lines[3] == "ratio=1.000000 bound=1.135325 within_bound=True"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--threshold", "nan"),
            ("--threshold", "-0.1"),
            ("--sample", "0"),
            ("--sample", "-0.5"),
            ("--sample", "1.5"),
            ("--sample", "nan"),
        ],
    )
    def test_dump_stats_rejects_bad_arguments_at_parse_time(self, capsys, flag, value):
        # A NaN threshold admitted every mask of every level and ran for
        # minutes; a sample rate of 0 built the universe before failing.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["dump-stats", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err
        assert captured.out == ""

    def test_run_is_quiet_by_default(self, tmp_path):
        # Offline detection on this universe logs fill-in warnings; with no
        # logging configured, none of them may reach stderr.  A subprocess,
        # because in-process capture hides logging's last-resort handler.
        cfg = {
            "universe": {"sources": 16},
            "axes": {"k_fraction": [0.8]},
            "algorithms": ["max_tuples"],
            "seeds": [101],
        }
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        src = str(Path(querysched.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "querysched.cli", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
