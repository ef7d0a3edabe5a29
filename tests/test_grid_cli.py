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
from querysched.detection import initial_detection
from querysched.lattice import dump_snapshot
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
        # Desk seed 101, where most query-level refreshes get totals no
        # nonnegative cells can meet and so take the nearest-totals path;
        # the committed bytes pin the plans those refreshes lead to.
        spec = GridSpec(
            universe=desk_universe_config(),
            run=RunConfig(),
            axes=(("k_fraction", (0.5, 0.8)),),
            algorithms=("online", "sequential"),
            seeds=(101,),
        )
        text = run_grid(spec, tmp_path / "golden.csv")
        assert text == (DATA / "golden_adaptive.csv").read_text()

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
        ],
        ids=["unknown-axis", "negative-overhead", "zero-threads", "zero-sources"],
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
        assert out_path.read_text() == dump_snapshot(outcome.snapshot)
        assert capsys.readouterr().err == "count queries: 123, clamped rows: 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "{missing}"], "No such file or directory"),
            (["run", "--config", "{invalid}"], "unknown key(s) in grid config"),
            (["run", "--config", "{garbled}"], "Expecting property name"),
            (["dump-stats", "--threshold", "0"], "zero prune threshold materializes 2^50 cells"),
            (["run", "--config", "{huge}"], "query_threads is too large: 401 digits"),
            (["run", "--config", "{typed}"], "section top level: seeds must be a list, got 5"),
        ],
        ids=[
            "missing-config",
            "invalid-config",
            "garbled-config",
            "zero-threshold",
            "huge-threads",
            "wrongly-typed-config",
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
        names = ("missing", "invalid", "garbled", "huge", "typed")
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
