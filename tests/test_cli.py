"""The repro-gps command-line interface.

Every subcommand is exercised end-to-end through ``main`` with output
captured via capsys, and every bad-argument path is pinned to argparse's
``SystemExit`` contract (exit code 2).
"""

from __future__ import annotations

import concurrent.futures
import json
import sys
import warnings

import pytest

from repro.cli import build_parser, main
from repro.core.sweep import SweepGrid
from repro.gps.study import run_gps_sweep


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        operands = {"flow": ["2"], "gather": ["."]}
        for command in (
            "study",
            "flow",
            "compare",
            "calibrate",
            "sweep",
            "gather",
        ):
            args = parser.parse_args([command, *operands.get(command, [])])
            assert hasattr(args, "func")

    def test_flow_requires_valid_implementation(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["flow", "7"])

    def test_flow_requires_an_implementation(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["flow"])

    def test_flow_rejects_non_integer(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["flow", "two"])

    def test_unknown_command_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["nonsense"])

    def test_study_rejects_bad_volume(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["study", "--volume", "lots"])

    def test_calibrate_rejects_bad_discount(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["calibrate", "--bare-discount", "cheap"])


class TestSweepArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--volumes", "abc"],
            ["sweep", "--volumes", "-5"],
            ["sweep", "--volumes", ""],
            ["sweep", "--processes", "bogus"],
            ["sweep", "--substrates", "granite"],
            ["sweep", "--tolerances", "loose"],
            ["sweep", "--q-models", "bogus"],
            ["sweep", "--q-models", "tan=abc"],
            ["sweep", "--q-models", "tan=-0.1"],
            ["sweep", "--q-models", "tan=inf"],
            ["sweep", "--q-models", "tan=nan"],
            ["sweep", "--q-models", ""],
            ["sweep", "--nres", "moonshot"],
            ["sweep", "--fom-weights", "1:2"],
            ["sweep", "--fom-weights", "a:b:c"],
            ["sweep", "--fom-weights", "-1:1:1"],
            ["sweep", "--fom-weights", "nan:1:1"],
            ["sweep", "--fom-weights", "inf:1:1"],
            ["sweep", "--fom-weights", ""],
        ],
    )
    def test_bad_axis_values_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_unknown_process_names_alternatives(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--processes", "bogus"])
        err = capsys.readouterr().err
        assert "summit" in err
        assert "paper" in err

    def test_unknown_q_model_names_alternatives(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--q-models", "bogus"])
        err = capsys.readouterr().err
        assert "skin" in err
        assert "tan=<value>" in err
        assert "paper" in err


class TestBadValuesExit2:
    """Out-of-range numbers and unusable output paths are asking wrong:
    exit 2 with a one-line message, never a traceback."""

    @staticmethod
    def _exit_2(argv, capsys) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--volumes", "nan"],
            ["sweep", "--volumes", "inf"],
            ["sweep", "--volumes", "1e3,-inf"],
            ["study", "--volume", "nan"],
            ["study", "--volume", "inf"],
            ["study", "--volume", "0"],
            ["study", "--volume", "-5"],
        ],
    )
    def test_non_finite_or_non_positive_volume(self, argv, capsys):
        err = self._exit_2(argv, capsys)
        assert "volume must be positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--volumes", "5e-324", "--csv"],
            ["sweep", "--volumes", "1e3,5e-324", "--adaptive"],
        ],
    )
    def test_volume_too_small_to_ship_a_unit(self, argv, capsys):
        """Positive and finite, yet the NRE share per shipped unit is
        not: refused by the cost step, before any numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._exit_2(argv, capsys)
        assert err == (
            "repro-gps sweep: error: volume 5e-324 is too small for flow "
            "'PCB/SMD (reference)': its NRE per shipped unit is not a "
            "finite number\n"
        )

    @pytest.mark.parametrize(
        "flag", ["--shards", "--max-attempts", "--passes", "--budget"]
    )
    def test_non_positive_count(self, flag, capsys):
        err = self._exit_2(["sweep", flag, "0"], capsys)
        assert f"argument {flag}: need a positive integer, got 0" in err

    @pytest.mark.parametrize("discount", ["2", "nan", "0", "-0.5"])
    def test_bare_discount_outside_unit_interval(self, discount, capsys):
        err = self._exit_2(
            ["calibrate", "--bare-discount", discount], capsys
        )
        assert "bare discount must lie in (0, 1]" in err

    def test_bare_discount_of_one_is_accepted(self):
        args = build_parser().parse_args(
            ["calibrate", "--bare-discount", "1"]
        )
        assert args.bare_discount == 1.0

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("sweep", ["sweep", "--volumes", "1000", "--fom-weights",
                       "1:1000:1"]),
            ("sweep", ["sweep", "--volumes", "1000", "--fom-weights",
                       "1:1000:1", "--max-rows-in-memory", "2"]),
            ("warehouse", ["warehouse", "build", "{out}", "--volumes",
                           "1000", "--fom-weights", "1:1000:1"]),
        ],
    )
    def test_overflowing_fom_weight(self, command, argv, tmp_path, capsys):
        """A weight whose power exceeds the largest double raised an
        ``OverflowError`` traceback (exit 1)."""
        out = str(tmp_path / "wh")
        err = self._exit_2(
            [token.replace("{out}", out) for token in argv], capsys
        )
        assert err == (
            f"repro-gps {command}: error: size weight 1000.0 overflows "
            f"the figure of merit (a base raised to it exceeds the "
            f"largest double)\n"
        )

    def test_overflowing_query_weight(self, tmp_path, capsys):
        directory = str(tmp_path / "wh")
        assert main(["warehouse", "build", directory, "--volumes", "1e3"]) == 0
        capsys.readouterr()
        err = self._exit_2(
            ["warehouse", "query", directory, "--kind", "rerank",
             "--fom-weights", "1e308:1e308:1e308"],
            capsys,
        )
        assert err.count("\n") == 1
        assert err.startswith("repro-gps warehouse: error: size weight 1e+308")

    @pytest.mark.parametrize(
        "command, argv",
        [
            (
                "sweep",
                ["sweep", "--volumes", "1e3", "--spill-dir", "{out}",
                 "--max-rows-in-memory", "4"],
            ),
            (
                "sweep",
                ["sweep", "--volumes", "1e3", "--adaptive", "--spill-dir",
                 "{out}", "--max-rows-in-memory", "4"],
            ),
            (
                "sweep",
                ["sweep", "--volumes", "1e3", "--shards", "2",
                 "--shard-index", "0", "--shard-dir", "{out}"],
            ),
            (
                "sweep",
                ["sweep", "--volumes", "1e3", "--shards", "2",
                 "--queue-init", "{out}/queue.json"],
            ),
            ("warehouse", ["warehouse", "build", "{out}", "--volumes", "1e3"]),
        ],
    )
    def test_output_directory_that_cannot_be_created(
        self, command, argv, tmp_path, capsys
    ):
        # A regular file where a parent directory should be.
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "x")
        err = self._exit_2(
            [token.replace("{out}", out) for token in argv], capsys
        )
        assert f"repro-gps {command}: error: cannot create" in err


class TestCommands:
    def test_flow_command_prints_fig4(self, capsys):
        assert main(["flow", "2"]) == 0
        out = capsys.readouterr().out
        assert "Wire bonding" in out
        assert "SCRAP" in out

    def test_study_command_prints_tables(self, capsys):
        assert main(["study"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "Recommended build-up" in out

    def test_study_with_volume(self, capsys):
        assert main(["study", "--volume", "500"]) == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "area" in out
        assert "paper=" in out

    def test_calibrate_command(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "RF chip" in out
        assert "ordering preserved" in out

    def test_default_is_study(self, capsys):
        assert main([]) == 0
        assert "Fig. 6" in capsys.readouterr().out


class TestSweepCommand:
    def test_default_sweep_single_point(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep: 1 points, 4 rows" in out
        assert "PCB/SMD (reference)" in out
        assert "Winner counts" in out
        assert "Memoised sub-results" in out

    def test_multi_axis_sweep(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--volumes",
                    "1e3,1e4",
                    "--tolerances",
                    "paper,precision",
                    "--processes",
                    "paper,si3n4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "8 points, 32 rows" in out
        assert "precision" in out
        assert "Best overall:" in out

    def test_substrate_axis(self, capsys):
        assert main(["sweep", "--substrates", "fine,coarse"]) == 0
        out = capsys.readouterr().out
        assert "fine-line" in out
        assert "coarse" in out

    def test_csv_output(self, capsys):
        assert main(["sweep", "--csv", "--volumes", "1e4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("volume,substrate,process,tolerance")
        assert len(lines) == 1 + 4  # header + one row per build-up
        assert any("True" in line for line in lines[1:])  # a winner exists

    def test_winner_marked(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        winner_lines = [
            line for line in out.splitlines() if line.rstrip().endswith("WP")
        ]
        assert len(winner_lines) == 1
        assert "IP&SMD" in winner_lines[0]

    def test_q_model_axis(self, capsys):
        assert (
            main(["sweep", "--q-models", "paper,skin,tan=0.02"]) == 0
        )
        out = capsys.readouterr().out
        assert "3 points, 12 rows" in out
        assert "skin(Q0=40@1e" in out
        assert "tan=0.02" in out

    def test_nre_axis(self, capsys):
        assert main(["sweep", "--nres", "paper,zero,mask-heavy"]) == 0
        out = capsys.readouterr().out
        assert "3 points, 12 rows" in out
        assert "zero" in out
        assert "mask-heavy" in out

    def test_fom_weights_axis(self, capsys):
        assert main(["sweep", "--fom-weights", "paper,2:1:0.5"]) == 0
        out = capsys.readouterr().out
        assert "2 points, 8 rows" in out
        assert "2:1:0.5" in out

    def test_csv_carries_the_scenario_columns(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--csv",
                    "--q-models",
                    "measured",
                    "--nres",
                    "lean",
                    "--fom-weights",
                    "1:1:0",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:8] == [
            "volume",
            "substrate",
            "process",
            "tolerance",
            "q_model",
            "nre",
            "weights",
            "candidate",
        ]
        for line in lines[1:]:
            record = line.split(",")
            assert record[4] == "measured-summit"
            assert record[5] == "lean"
            assert record[6] == "1:1:0"


class TestSweepEngines:
    """The --cache-stats surface of the one sweep engine."""

    def test_cache_stats_prints_per_table_tally(self, capsys):
        assert main(["sweep", "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "Evaluation cache (merged across workers):" in out
        for table in ("performance", "area", "cost"):
            assert table in out
        assert "entries" in out

    def test_csv_keeps_stdout_clean_with_cache_stats(self, capsys):
        assert main(["sweep", "--csv", "--cache-stats"]) == 0
        captured = capsys.readouterr()
        assert "Evaluation cache" not in captured.out
        assert "cache:" in captured.err


class _NoProcessPool:
    """Stands in for ``ProcessPoolExecutor``: any use fails the test."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a sweep started a process pool")


def _export_stale_engine_env(monkeypatch) -> None:
    """The engine knobs of older releases exported, process pools banned.

    Every sweep must ignore the old ``REPRO_SWEEP_*`` engine, jobs and
    shards variables and run the serial engine in this process.
    """
    for knob, value in (("ENGINE", "process"), ("JOBS", "2"), ("SHARDS", "2")):
        monkeypatch.setenv(f"REPRO_SWEEP_{knob}", value)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _NoProcessPool
    )
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and hasattr(
            module, "ProcessPoolExecutor"
        ):
            monkeypatch.setattr(
                module, "ProcessPoolExecutor", _NoProcessPool
            )


@pytest.fixture
def stale_engine_env(monkeypatch):
    _export_stale_engine_env(monkeypatch)


class TestOneEngine:
    """No flag or environment variable selects a sweep engine."""

    GRID = ["--volumes", "1e3,1e4"]

    def test_library_sweep_ignores_engine_env(self, monkeypatch):
        grid = SweepGrid(volumes=(1e3, 1e4, 1e5))
        reference = run_gps_sweep(grid).frame.csv_lines()
        with monkeypatch.context() as patch:
            _export_stale_engine_env(patch)
            assert run_gps_sweep(grid).frame.csv_lines() == reference

    def test_sweep_csv_ignores_engine_env(self, monkeypatch, capsys):
        assert main(["sweep", *self.GRID, "--csv"]) == 0
        reference = capsys.readouterr().out
        with monkeypatch.context() as patch:
            _export_stale_engine_env(patch)
            assert main(["sweep", *self.GRID, "--csv"]) == 0
        assert capsys.readouterr().out == reference

    def test_warehouse_build_ignores_engine_env(
        self, tmp_path, monkeypatch, capsys
    ):
        built = {}
        for name in ("unset", "stale"):
            with monkeypatch.context() as patch:
                if name == "stale":
                    _export_stale_engine_env(patch)
                directory = tmp_path / name
                argv = ["warehouse", "build", str(directory), *self.GRID]
                assert main(argv) == 0
            out = capsys.readouterr().out.replace(str(directory), "DIR")
            files = {
                path.relative_to(directory): path.read_bytes()
                for path in sorted(directory.rglob("*"))
                if path.is_file()
            }
            built[name] = (out, files)
        assert built["stale"] == built["unset"]

    def test_shard_index_without_shards_exits_2(
        self, stale_engine_env, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                ]
            )
        assert excinfo.value.code == 2
        assert "--shard-index requires --shards" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_shards_without_shard_run_exits_2(
        self, stale_engine_env, capsys
    ):
        """--shards needs a shard run or a queue to partition for."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.GRID, "--shards", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--shard-index" in err
        assert "--queue-init" in err

    @pytest.mark.parametrize(
        "flags",
        [["--engine", "serial"], ["--jobs", "2"]],
        ids=["engine", "jobs"],
    )
    @pytest.mark.parametrize(
        "command",
        [["sweep"], ["warehouse", "build"]],
        ids=["sweep", "warehouse-build"],
    )
    def test_engine_flags_are_gone(
        self, stale_engine_env, command, flags, tmp_path, capsys
    ):
        if command[0] == "warehouse":
            command = [*command, str(tmp_path / "wh")]
        with pytest.raises(SystemExit) as excinfo:
            main([*command, *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "wh").exists()


class TestShardCli:
    """The cross-host surface: --shards/--shard-index/--shard-dir/--merge."""

    GRID = ["--volumes", "1e3,1e4"]

    def _shard(self, tmp_path, index, capsys):
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shards",
                    "2",
                    "--shard-index",
                    str(index),
                    "--shard-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"Shard {index}/2" in out
        return out

    def test_shard_then_merge_matches_direct_sweep(self, tmp_path, capsys):
        assert main(["sweep", *self.GRID, "--csv"]) == 0
        reference = capsys.readouterr().out
        self._shard(tmp_path, 0, capsys)
        self._shard(tmp_path, 1, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shard-0000-of-0002.json",
            "shard-0001-of-0002.json",
        ]
        assert main(["sweep", "--merge", str(tmp_path), "--csv"]) == 0
        assert capsys.readouterr().out == reference

    def test_merge_prints_the_standard_table(self, tmp_path, capsys):
        self._shard(tmp_path, 0, capsys)
        self._shard(tmp_path, 1, capsys)
        assert main(["sweep", "--merge", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep: 2 points, 8 rows" in out
        assert "Winner counts" in out
        assert "Best overall:" in out

    def test_merge_with_missing_shard_exits_2(self, tmp_path, capsys):
        self._shard(tmp_path, 0, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "missing" in capsys.readouterr().err

    def test_merge_empty_directory_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "no shard artifacts" in capsys.readouterr().err

    def test_merge_missing_directory_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path / "nope")])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_shard_index_requires_shards(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--shard-index", "0"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_merge_rejects_grid_axis_flags(self, tmp_path, capsys):
        """Axis flags alongside --merge would be silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--merge",
                    str(tmp_path),
                    "--volumes",
                    "1e5,1e6",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--volumes" in err
        assert "from the shard artifacts" in err

    def test_merge_rejects_engine_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--merge", str(tmp_path), "--engine", "process"]
            )
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_shard_run_rejects_csv(self, tmp_path, capsys):
        """A shard run writes an artifact, not rows: --csv would lie."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--csv",
                ]
            )
        assert excinfo.value.code == 2
        assert "--csv" in capsys.readouterr().err

    def test_shard_index_out_of_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--shards", "2", "--shard-index", "2"])
        assert excinfo.value.code == 2
        assert "out of range" in capsys.readouterr().err

    def test_negative_shard_index_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--shards", "2", "--shard-index", "-1"])
        assert excinfo.value.code == 2

    def test_merge_excludes_shard_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--merge",
                    str(tmp_path),
                    "--shards",
                    "2",
                ]
            )
        assert excinfo.value.code == 2
        assert "cannot be mixed" in capsys.readouterr().err

    def test_resume_skips_a_completed_shard(self, tmp_path, capsys):
        """A valid artifact for the same grid+shard short-circuits."""
        self._shard(tmp_path, 0, capsys)
        artifact = tmp_path / "shard-0000-of-0002.json"
        before = artifact.read_bytes()
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skipping re-evaluation" in out
        assert artifact.read_bytes() == before

    def test_resume_reevaluates_on_grid_mismatch(self, tmp_path, capsys):
        """An artifact from a *different* grid must not be trusted."""
        self._shard(tmp_path, 0, capsys)
        assert (
            main(
                [
                    "sweep",
                    "--volumes",
                    "1e5,1e6",  # different grid, same shard geometry
                    "--shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skipping" not in out
        assert "Shard 0/2" in out

    def test_resume_reevaluates_a_misplaced_artifact(self, tmp_path, capsys):
        """An artifact whose header says shard 0/2 but which carries
        shard 1's points is re-run, not trusted."""
        import dataclasses

        from repro.core.sharding import (
            read_shard_artifact,
            write_shard_artifact,
        )

        self._shard(tmp_path, 1, capsys)
        path = tmp_path / "shard-0000-of-0002.json"
        other = read_shard_artifact(tmp_path / "shard-0001-of-0002.json")
        write_shard_artifact(path, dataclasses.replace(other, shard_index=0))
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--resume",
                ]
            )
            == 0
        )
        assert "skipping" not in capsys.readouterr().out
        assert read_shard_artifact(path).dframe.indices == (0,)

    def test_resume_reevaluates_a_corrupt_artifact(self, tmp_path, capsys):
        path = tmp_path / "shard-0000-of-0002.json"
        path.write_text("not json{", encoding="utf-8")
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "skipping" not in out
        # The corrupt artifact was replaced by a real one.
        from repro.core.sharding import read_shard_artifact

        assert read_shard_artifact(path).shard_index == 0

    def test_resume_requires_a_shard_run(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--resume"])
        assert excinfo.value.code == 2
        assert "--shard-index" in capsys.readouterr().err

    def test_resume_rejected_with_merge(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path), "--resume"])
        assert excinfo.value.code == 2
        assert "--resume" in capsys.readouterr().err

    def test_shard_run_honours_cache_stats(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--cache-stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache:" in out
        assert "performance=" in out


class TestIgnoredFlagsRefused:
    """Flags a run mode used to ignore without a word exit 2 naming them."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sweep", "--shard-dir", "zz"], "--shard-dir"),
            (["sweep", "--adaptive", "--shard-dir", "zz"], "--shard-dir"),
            (["sweep", "--merge", "shards", "--shard-dir", "zz"],
             "--shard-dir"),
            (["sweep", "--queue-init", "q/m.json", "--shards", "2",
              "--shard-dir", "zz"], "--shard-dir"),
            (["sweep", "--queue", "q/m.json", "--shard-dir", "zz"],
             "--shard-dir"),
            (["sweep", "--queue-init", "q/m.json", "--shards", "2",
              "--cache-stats"], "--cache-stats"),
            (["sweep", "--queue", "q/m.json", "--cache-stats"],
             "--cache-stats"),
        ],
    )
    def test_refused_with_one_line(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-gps sweep: error: ")
        assert err.count("\n") == 1 and flag in err
        assert not any(tmp_path.iterdir())

    def test_queue_worker_publishes_nowhere_else(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--queue q/m.json --shard-dir zz`` used to publish into q/."""
        monkeypatch.chdir(tmp_path)
        assert main(
            ["sweep", "--queue-init", "q/m.json", "--shards", "1"]
        ) == 0
        with pytest.raises(SystemExit):
            main(["sweep", "--queue", "q/m.json", "--shard-dir", "zz"])
        assert not (tmp_path / "zz").exists()
        assert not list((tmp_path / "q").glob("shard-*.json"))
        capsys.readouterr()

    def test_shard_dir_defaults_to_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--shards", "1", "--shard-index", "0"]) == 0
        assert "-> shard-0000-of-0001.json" in capsys.readouterr().out
        assert (tmp_path / "shard-0000-of-0001.json").is_file()


class TestMergeTornArtifact:
    """--merge on damaged artifacts: one-line exit 2, never a traceback."""

    GRID = ["--volumes", "1e3,1e4"]

    def _shards(self, tmp_path, capsys):
        for index in (0, 1):
            assert (
                main(
                    [
                        "sweep",
                        *self.GRID,
                        "--shards",
                        "2",
                        "--shard-index",
                        str(index),
                        "--shard-dir",
                        str(tmp_path),
                    ]
                )
                == 0
            )
        capsys.readouterr()

    def test_truncated_artifact_exits_2(self, tmp_path, capsys):
        self._shards(tmp_path, capsys)
        path = tmp_path / "shard-0001-of-0002.json"
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert path.name in err

    def test_torn_multibyte_utf8_exits_2(self, tmp_path, capsys):
        """The regression: a write cut mid multi-byte character used to
        escape as a UnicodeDecodeError traceback (exit 1)."""
        self._shards(tmp_path, capsys)
        path = tmp_path / "shard-0001-of-0002.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\xc2")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err
        assert "Traceback" not in err

    def test_foreign_format_artifact_exits_2(self, tmp_path, capsys):
        from repro.core.sharding import SHARD_FORMAT

        self._shards(tmp_path, capsys)
        path = tmp_path / "shard-0000-of-0002.json"
        payload = path.read_text(encoding="utf-8").replace(
            SHARD_FORMAT, "alien-format/7"
        )
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "alien-format/7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda cache: [],
            lambda cache: cache["tables"]["area"].update(hits="x"),
            lambda cache: cache["tables"]["cost"].update(keys=5),
        ],
        ids=["cache-list", "hits-string", "keys-int"],
    )
    def test_malformed_cache_section_exits_2(self, tmp_path, capsys, mangle):
        """A hand-edited cache section used to escape merge_cache_states
        as an AttributeError/ValueError/TypeError traceback (exit 1)."""
        import json

        self._shards(tmp_path, capsys)
        path = tmp_path / "shard-0001-of-0002.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        replaced = mangle(payload["cache"])
        if replaced is not None:
            payload["cache"] = replaced
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--merge", str(tmp_path), "--cache-stats"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "malformed shard artifact" in err
        assert path.name in err
        assert "Traceback" not in err



class TestForeignPointCount:
    """A foreign artifact's ``total_points`` must not size an
    allocation.  A one-shard directory whose artifact claims 10^12 (or
    10^20) points ends in the usual missing-indices message, listed
    from the gaps in the covered set, with the usual exit code.  Each
    probe runs the CLI in a child process with a capped address space,
    so a regression fails fast instead of filling the machine's
    memory."""

    #: Address-space cap of a probe process, in bytes.
    LIMIT = 1 << 30

    @pytest.fixture(scope="class")
    def payload(self):
        from repro.core.sharding import artifact_to_payload
        from repro.gps.study import run_gps_shard

        grid = SweepGrid(volumes=(1e3, 1e4))
        return artifact_to_payload(run_gps_shard(grid, 1, 0))

    def _probe(self, argv):
        import os
        import resource
        import subprocess
        from pathlib import Path

        import repro

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.LIMIT, self.LIMIT))

        env = dict(
            os.environ,
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            OPENBLAS_NUM_THREADS="1",
        )
        env.pop("REPRO_SWEEP_MAX_ROWS", None)
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap,
        )

    @pytest.mark.parametrize("total", [10**12, 10**20], ids=["1e12", "1e20"])
    @pytest.mark.parametrize(
        "command, code",
        [
            (["sweep", "--merge"], 2),
            (["sweep", "--max-rows-in-memory", "4", "--merge"], 2),
            (["gather"], 1),
            (["gather", "--max-rows-in-memory", "4"], 1),
        ],
        ids=["merge", "merge-spill", "gather", "gather-spill"],
    )
    def test_missing_indices_listed_in_bounded_memory(
        self, tmp_path, payload, total, command, code
    ):
        directory = tmp_path / "shards"
        directory.mkdir()
        (directory / "shard-0000-of-0001.json").write_text(
            json.dumps({**payload, "total_points": total}), encoding="utf-8"
        )
        completed = self._probe([*command, str(directory), "--csv"])
        assert "Traceback" not in completed.stderr
        assert completed.returncode == code
        assert "missing point indices 2, 3, 4," in completed.stderr
        assert f"… and {total - 22} more of {total}" in completed.stderr


class TestQueueCli:
    """The service surface: sweep --queue-init / --queue."""

    GRID = ["--volumes", "1e3,1e4"]

    def _init(self, tmp_path, capsys, extra=()):
        manifest = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--queue-init",
                    str(manifest),
                    "--shards",
                    "2",
                    *extra,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Queue manifest: 2 points in 2 shards" in out
        return manifest

    def test_init_then_worker_then_gather_matches_sweep(
        self, tmp_path, capsys
    ):
        assert main(["sweep", *self.GRID, "--csv"]) == 0
        reference = capsys.readouterr().out
        manifest = self._init(tmp_path, capsys)
        assert main(["sweep", "--queue", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "2 evaluated" in out
        assert "queue drained" in out
        assert main(["gather", str(tmp_path), "--csv"]) == 0
        assert capsys.readouterr().out == reference

    def test_second_worker_skips_and_exits_0(self, tmp_path, capsys):
        manifest = self._init(tmp_path, capsys)
        assert main(["sweep", "--queue", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--queue", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "0 evaluated, 2 skipped" in out

    def test_queue_policy_lands_in_the_manifest(self, tmp_path, capsys):
        manifest = self._init(
            tmp_path,
            capsys,
            extra=["--lease-ttl", "7.5", "--max-attempts", "5"],
        )
        text = manifest.read_text(encoding="utf-8")
        assert '"lease_ttl": 7.5' in text
        assert '"max_attempts": 5' in text

    def test_init_requires_shards(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--queue-init", str(tmp_path / "m.json")])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_init_rejects_engine_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--queue-init",
                    str(tmp_path / "m.json"),
                    "--shards",
                    "2",
                    "--engine",
                    "process",
                ]
            )
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_init_and_queue_are_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--queue-init",
                    str(tmp_path / "m.json"),
                    "--queue",
                    str(tmp_path / "m.json"),
                    "--shards",
                    "2",
                ]
            )
        assert excinfo.value.code == 2
        assert "one or the other" in capsys.readouterr().err

    def test_worker_rejects_grid_axis_flags(self, tmp_path, capsys):
        manifest = self._init(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--queue", str(manifest), "--volumes", "1e5"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--volumes" in err
        assert "from the manifest" in err

    def test_worker_rejects_shard_flags(self, tmp_path, capsys):
        manifest = self._init(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--queue", str(manifest), "--shards", "4"])
        assert excinfo.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_worker_rejects_csv(self, tmp_path, capsys):
        manifest = self._init(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--queue", str(manifest), "--csv"])
        assert excinfo.value.code == 2
        assert "gather" in capsys.readouterr().err

    def test_worker_rejects_queue_policy_flags(self, tmp_path, capsys):
        manifest = self._init(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--queue", str(manifest), "--lease-ttl", "5"]
            )
        assert excinfo.value.code == 2
        assert "--queue-init" in capsys.readouterr().err

    def test_policy_flags_need_a_queue(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--lease-ttl", "5"])
        assert excinfo.value.code == 2
        assert "--queue-init" in capsys.readouterr().err

    @pytest.mark.parametrize("ttl", ["1e999", "Infinity", "1" + "0" * 400])
    def test_worker_refuses_an_infinite_lease_ttl(
        self, tmp_path, capsys, ttl
    ):
        """JSON reads the first two as ``inf`` and the third as an
        integer past the largest double: every lease would never
        expire, so a dead worker would hold its shard forever."""
        manifest = self._init(tmp_path, capsys)
        text = manifest.read_text(encoding="utf-8")
        assert '"lease_ttl": 300.0' in text
        manifest.write_text(
            text.replace('"lease_ttl": 300.0', f'"lease_ttl": {ttl}'),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--queue", str(manifest)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert "needs a positive lease TTL, got " in err
        assert not list(tmp_path.glob("shard-*.json"))

    def test_worker_with_missing_manifest_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--queue", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_failed_ledger_names_the_cause(self, tmp_path, capsys):
        """A specification error used to land in the failure ledger as
        a bare "specification error"; it now carries the message."""
        manifest = self._init(
            tmp_path, capsys, extra=["--fom-weights", "1:1000:1"]
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--queue", str(manifest)])
        assert excinfo.value.code == 2
        cause = (
            "size weight 1000.0 overflows the figure of merit (a base "
            "raised to it exceeds the largest double)"
        )
        assert capsys.readouterr().err == f"repro-gps sweep: error: {cause}\n"
        ledger = json.loads(
            (tmp_path / "failed-0000-of-0002.json").read_text()
        )
        assert ledger["errors"] == [f"SpecificationError: {cause}"]

    def test_worker_refuses_manifest_without_grid_spec(
        self, tmp_path, capsys
    ):
        """An API-written manifest has no grid_spec: the CLI worker
        cannot rebuild the grid and must say so, not guess."""
        from repro.core.queue import manifest_for_grid, write_manifest
        from repro.core.sweep import SweepGrid

        manifest = manifest_for_grid(
            SweepGrid(volumes=(1e3, 1e4)), shards=2
        )
        path = write_manifest(tmp_path / "manifest.json", manifest)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--queue", str(path)])
        assert excinfo.value.code == 2
        assert "grid_spec" in capsys.readouterr().err

    def test_manifest_grid_spec_round_trips_every_axis(
        self, tmp_path, capsys
    ):
        """Registry axes, custom tan= and weight triples all survive
        the manifest round trip: worker output == direct sweep."""
        grid_flags = [
            "--volumes",
            "1e3",
            "--substrates",
            "paper",
            "--tolerances",
            "paper,precision",
            "--q-models",
            "tan=0.012",
            "--fom-weights",
            "2:1:0.5",
        ]
        assert main(["sweep", *grid_flags, "--csv"]) == 0
        reference = capsys.readouterr().out
        manifest = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "sweep",
                    *grid_flags,
                    "--queue-init",
                    str(manifest),
                    "--shards",
                    "2",
                ]
            )
            == 0
        )
        assert main(["sweep", "--queue", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["gather", str(tmp_path), "--csv"]) == 0
        assert capsys.readouterr().out == reference


class TestGatherCli:
    """The gather subcommand: one-shot merges and the watch loop."""

    GRID = ["--volumes", "1e3,1e4"]

    def _filled_queue(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--queue-init",
                    str(manifest),
                    "--shards",
                    "2",
                ]
            )
            == 0
        )
        assert main(["sweep", "--queue", str(manifest)]) == 0
        capsys.readouterr()
        return manifest

    def test_gather_prints_the_standard_table(self, tmp_path, capsys):
        self._filled_queue(tmp_path, capsys)
        assert main(["gather", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep: 2 points, 8 rows" in out
        assert "Best overall:" in out

    def test_gather_with_manifest_pins_the_grid(self, tmp_path, capsys):
        manifest = self._filled_queue(tmp_path, capsys)
        assert (
            main(
                ["gather", str(tmp_path), "--manifest", str(manifest)]
            )
            == 0
        )
        assert "Design-space sweep" in capsys.readouterr().out

    def test_incomplete_directory_exits_1(self, tmp_path, capsys):
        """Not-done-yet is exit 1 (retryable), not exit 2 (usage)."""
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shards",
                    "2",
                    "--shard-index",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["gather", str(tmp_path)]) == 1
        assert "missing point indices" in capsys.readouterr().err

    def test_missing_directory_exits_1(self, tmp_path, capsys):
        assert main(["gather", str(tmp_path / "nope")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_poll_and_timeout_need_watch(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gather", str(tmp_path), "--poll", "1"])
        assert excinfo.value.code == 2
        assert "--watch" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["gather", str(tmp_path), "--timeout", "1"])
        assert excinfo.value.code == 2
        assert "--watch" in capsys.readouterr().err

    def test_bad_manifest_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "gather",
                    str(tmp_path),
                    "--manifest",
                    str(tmp_path / "nope.json"),
                ]
            )
        assert excinfo.value.code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_watch_on_a_complete_directory_returns_at_once(
        self, tmp_path, capsys
    ):
        """A watch over an already-drained queue needs zero sleeps."""
        self._filled_queue(tmp_path, capsys)
        assert (
            main(
                [
                    "gather",
                    str(tmp_path),
                    "--watch",
                    "--timeout",
                    "5",
                    "--csv",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "gather: 2/2 points" in captured.err
        assert captured.out.startswith("volume,")

    def test_watch_timeout_exits_1(self, tmp_path, capsys):
        tmp_path.mkdir(exist_ok=True)
        assert (
            main(
                [
                    "gather",
                    str(tmp_path),
                    "--watch",
                    "--poll",
                    "0.01",
                    "--timeout",
                    "0.05",
                ]
            )
            == 1
        )
        assert "timed out" in capsys.readouterr().err


class TestWarehouseCli:
    """The warehouse verbs: every bad ask exits 2 with a one-line
    message on stderr (never a traceback), and the happy paths emit
    the query tier's canonical JSON on stdout."""

    def _build(self, tmp_path, capsys):
        directory = tmp_path / "wh"
        assert (
            main(
                [
                    "warehouse",
                    "build",
                    str(directory),
                    "--volumes",
                    "1e3,1e4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2/2 points" in out
        assert "(complete)" in out
        return directory

    def test_build_then_query_round_trips(self, tmp_path, capsys):
        import json

        directory = self._build(tmp_path, capsys)
        assert (
            main(
                [
                    "warehouse",
                    "query",
                    str(directory),
                    "--kind",
                    "winners",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "winners"
        assert payload["points"] == 2
        assert sum(payload["winner_counts"].values()) == 2

    def test_query_output_is_the_servers_bytes(self, tmp_path, capsys):
        from repro.core.queryservice import QueryService, response_bytes

        directory = self._build(tmp_path, capsys)
        assert (
            main(
                [
                    "warehouse",
                    "query",
                    str(directory),
                    "--kind",
                    "rerank",
                    "--fom-weights",
                    "2:1:0.5",
                    "--volume",
                    "1e4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        expected = response_bytes(
            QueryService(directory).execute(
                {
                    "kind": "rerank",
                    "fom_weights": "2:1:0.5",
                    "where": {"volume": 1e4},
                }
            )
        )
        assert out.encode() == expected

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "query",
                    str(tmp_path / "nowhere"),
                    "--kind",
                    "winners",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read warehouse manifest" in err
        assert "Traceback" not in err

    def test_bad_fingerprint_exits_2(self, tmp_path, capsys):
        directory = self._build(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "query",
                    str(directory),
                    "--kind",
                    "winners",
                    "--fingerprint",
                    "deadbeefdeadbeef",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "deadbeefdeadbeef" in err
        assert "Traceback" not in err

    def test_rebuild_into_existing_warehouse_exits_2(
        self, tmp_path, capsys
    ):
        directory = self._build(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "build",
                    str(directory),
                    "--volumes",
                    "1e3,1e4",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "already initialised" in err
        assert "Traceback" not in err

    def test_from_shards_rejects_grid_axis_flags(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "build",
                    str(tmp_path / "wh"),
                    "--from-shards",
                    str(tmp_path),
                    "--volumes",
                    "1e3",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--volumes" in err
        assert "Traceback" not in err

    def test_from_shards_rejects_engine_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "build",
                    str(tmp_path / "wh"),
                    "--from-shards",
                    str(tmp_path),
                    "--engine",
                    "process",
                ]
            )
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_from_shards_empty_directory_exits_2(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "build",
                    str(tmp_path / "wh"),
                    "--from-shards",
                    str(empty),
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no shard artifacts" in err
        assert "Traceback" not in err

    def test_rerank_query_requires_weights(self, tmp_path, capsys):
        directory = self._build(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "query",
                    str(directory),
                    "--kind",
                    "rerank",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fom_weights" in err
        assert "Traceback" not in err

    def test_pareto_query_rejects_weights(self, tmp_path, capsys):
        directory = self._build(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "query",
                    str(directory),
                    "--kind",
                    "pareto",
                    "--fom-weights",
                    "2:1:1",
                ]
            )
        assert excinfo.value.code == 2
        assert "weight-independent" in capsys.readouterr().err

    def test_sensitivity_query_requires_axis(self, tmp_path, capsys):
        directory = self._build(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "query",
                    str(directory),
                    "--kind",
                    "sensitivity",
                ]
            )
        assert excinfo.value.code == 2
        assert "axis" in capsys.readouterr().err

    def test_unknown_kind_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "query",
                    str(tmp_path),
                    "--kind",
                    "everything",
                ]
            )
        assert excinfo.value.code == 2

    def test_warehouse_requires_a_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["warehouse"])
        assert excinfo.value.code == 2

    def test_serve_refuses_missing_warehouse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "warehouse",
                    "serve",
                    str(tmp_path / "nowhere"),
                    "--port",
                    "0",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read warehouse manifest" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_refuses_a_port_outside_0_65535(
        self, tmp_path, capsys, port
    ):
        """70000 used to pass the parser and die in bind() with an
        OverflowError traceback; -1 was told it needs an index."""
        warehouse = tmp_path / "wh"
        assert (
            main(["warehouse", "build", str(warehouse), "--volumes", "1e3"])
            == 0
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["warehouse", "serve", str(warehouse), "--port", port])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "need a TCP port in 0-65535" in err
        assert "Traceback" not in err

    def test_queue_to_warehouse_walkthrough(self, tmp_path, capsys):
        """The documented flow: queue-init, worker, build
        --from-shards twice (append, then skip), query."""
        import json

        manifest = tmp_path / "queue.json"
        assert (
            main(
                [
                    "sweep",
                    "--queue-init",
                    str(manifest),
                    "--shards",
                    "2",
                    "--volumes",
                    "1e3,1e4",
                ]
            )
            == 0
        )
        assert main(["sweep", "--queue", str(manifest)]) == 0
        directory = tmp_path / "wh"
        assert (
            main(
                [
                    "warehouse",
                    "build",
                    str(directory),
                    "--from-shards",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("appended") == 2
        assert (
            main(
                [
                    "warehouse",
                    "build",
                    str(directory),
                    "--from-shards",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("skipped") == 2
        assert (
            main(
                [
                    "warehouse",
                    "query",
                    str(directory),
                    "--kind",
                    "best",
                    "--volume",
                    "1e4",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"]["volume"] == 1e4
        assert payload["best"]["is_winner"] is True


class TestOutOfCoreCli:
    """The --max-rows-in-memory / --spill-dir surface.

    The contract under test: spilling through a warehouse directory
    never changes a single stdout byte — CSV and table alike — and
    every misuse (bad budget, budget-less --spill-dir, spill flags on
    artifact-writing paths, a corrupt spill store) exits 2 with a
    one-line message.
    """

    GRID = ["--volumes", "1e3,1e4", "--tolerances", "paper,precision"]

    def _reference_csv(self, capsys, monkeypatch) -> str:
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        assert main(["sweep", *self.GRID, "--csv"]) == 0
        return capsys.readouterr().out

    def test_spill_flag_csv_is_byte_identical(self, capsys, monkeypatch):
        reference = self._reference_csv(capsys, monkeypatch)
        assert (
            main(
                ["sweep", *self.GRID, "--csv", "--max-rows-in-memory", "5"]
            )
            == 0
        )
        assert capsys.readouterr().out == reference

    def test_spill_env_csv_is_byte_identical(self, capsys, monkeypatch):
        reference = self._reference_csv(capsys, monkeypatch)
        monkeypatch.setenv("REPRO_SWEEP_MAX_ROWS", "3")
        assert main(["sweep", *self.GRID, "--csv"]) == 0
        assert capsys.readouterr().out == reference

    def test_spill_table_is_byte_identical(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        assert main(["sweep", *self.GRID, "--cache-stats"]) == 0
        reference = capsys.readouterr().out
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--cache-stats",
                    "--max-rows-in-memory",
                    "4",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == reference

    def test_csv_cache_stats_line_matches(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        assert main(["sweep", *self.GRID, "--csv", "--cache-stats"]) == 0
        reference = capsys.readouterr()
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--csv",
                    "--cache-stats",
                    "--max-rows-in-memory",
                    "5",
                ]
            )
            == 0
        )
        spilled = capsys.readouterr()
        assert spilled.out == reference.out
        assert spilled.err == reference.err

    def test_bad_env_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_MAX_ROWS", "zero")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.GRID, "--csv"])
        assert excinfo.value.code == 2
        assert "REPRO_SWEEP_MAX_ROWS" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["0", "-2", "many"])
    def test_bad_flag_budget_exits_2(self, capsys, raw):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--max-rows-in-memory", raw])
        assert excinfo.value.code == 2

    def test_spill_dir_without_budget_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--spill-dir", str(tmp_path / "sp")])
        assert excinfo.value.code == 2
        assert "row budget" in capsys.readouterr().err

    def test_spill_dir_reuse_is_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        reference = self._reference_csv(capsys, monkeypatch)
        spill = ["--max-rows-in-memory", "5", "--spill-dir", str(tmp_path / "sp")]
        assert main(["sweep", *self.GRID, "--csv", *spill]) == 0
        first = capsys.readouterr()
        assert first.out == reference
        assert main(["sweep", *self.GRID, "--csv", *spill]) == 0
        second = capsys.readouterr()
        assert second.out == reference
        assert "reusing spilled frame store" in second.err

    def test_spill_dir_foreign_grid_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        spill = ["--max-rows-in-memory", "5", "--spill-dir", str(tmp_path / "sp")]
        assert main(["sweep", *self.GRID, "--csv", *spill]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--volumes", "1e3", "--csv", *spill])
        assert excinfo.value.code == 2
        assert "different grid" in capsys.readouterr().err

    def test_spill_dir_partial_cover_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        """A spill whose frames stop short of the grid (a crashed run,
        or an adaptive one) is refused, not reused."""
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        spill = ["--max-rows-in-memory", "5", "--spill-dir", str(tmp_path / "sp")]
        grid = ["--volumes", ",".join(f"{v}e3" for v in range(1, 10))]
        adaptive = ["--adaptive", "--coarse", "2", "--passes", "1"]
        assert main(["sweep", *grid, *adaptive, *spill]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *grid, "--csv", *spill])
        assert excinfo.value.code == 2
        assert "incomplete" in capsys.readouterr().err

    def test_corrupt_spill_chunk_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        import numpy as np

        from repro.core.resultframe import pack_column, unpack_column

        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        spill = ["--max-rows-in-memory", "5", "--spill-dir", str(tmp_path / "sp")]
        assert main(["sweep", *self.GRID, "--csv", *spill]) == 0
        capsys.readouterr()
        chunk = sorted((tmp_path / "sp").glob("frame-*.json"))[0]
        payload = json.loads(chunk.read_text(encoding="utf-8"))
        rows = sum(payload["row_counts"])
        volume = unpack_column(
            payload["columns"]["volume"], np.float64, rows, "v"
        ).copy()
        volume[0] = 1e9
        payload["columns"]["volume"] = pack_column(volume)
        chunk.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.GRID, "--csv", *spill])
        assert excinfo.value.code == 2
        assert "digest" in capsys.readouterr().err

    def test_spill_manifest_path_escape_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        """A reused store whose manifest names a frame outside its
        directory is refused before a single row is read."""
        import json

        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        spill = ["--max-rows-in-memory", "5", "--spill-dir", str(tmp_path / "sp")]
        assert main(["sweep", *self.GRID, "--csv", *spill]) == 0
        capsys.readouterr()
        (tmp_path / "other").mkdir()
        manifest = tmp_path / "sp" / "warehouse.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        name = payload["frames"][0]["file"]
        (tmp_path / "sp" / name).rename(tmp_path / "other" / name)
        payload["frames"][0]["file"] = f"../other/{name}"
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *self.GRID, "--csv", *spill])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "bare file name" in captured.err
        assert captured.out == ""

    def _shard_directory(self, tmp_path, capsys):
        directory = tmp_path / "shards"
        for index in range(3):
            assert (
                main(
                    [
                        "sweep",
                        *self.GRID,
                        "--shards",
                        "3",
                        "--shard-index",
                        str(index),
                        "--shard-dir",
                        str(directory),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        return directory

    def test_merge_spill_is_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        directory = self._shard_directory(tmp_path, capsys)
        assert main(["sweep", "--merge", str(directory), "--csv"]) == 0
        reference = capsys.readouterr().out
        assert (
            main(
                [
                    "sweep",
                    "--merge",
                    str(directory),
                    "--csv",
                    "--max-rows-in-memory",
                    "4",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == reference

    def test_gather_spill_is_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        directory = self._shard_directory(tmp_path, capsys)
        assert main(["gather", str(directory), "--csv", "--cache-stats"]) == 0
        reference = capsys.readouterr()
        assert (
            main(
                [
                    "gather",
                    str(directory),
                    "--csv",
                    "--cache-stats",
                    "--max-rows-in-memory",
                    "4",
                ]
            )
            == 0
        )
        spilled = capsys.readouterr()
        assert spilled.out == reference.out
        assert spilled.err == reference.err

    def test_gather_spill_dir_reuse(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        directory = self._shard_directory(tmp_path, capsys)
        spill = [
            "--max-rows-in-memory",
            "4",
            "--spill-dir",
            str(tmp_path / "gsp"),
        ]
        assert main(["gather", str(directory), "--csv", *spill]) == 0
        first = capsys.readouterr()
        assert main(["gather", str(directory), "--csv", *spill]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "reusing spilled frame store" in second.err

    def test_gather_missing_directory_still_exits_1(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        assert (
            main(
                [
                    "gather",
                    str(tmp_path / "nope"),
                    "--max-rows-in-memory",
                    "4",
                ]
            )
            == 1
        )
        assert "repro-gps gather:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--queue-init", "q.json", "--shards", "2",
             "--max-rows-in-memory", "4"],
            ["sweep", "--queue", "q.json", "--max-rows-in-memory", "4"],
            ["sweep", "--shards", "2", "--shard-index", "0",
             "--max-rows-in-memory", "4"],
            ["sweep", "--shards", "2", "--shard-index", "0",
             "--spill-dir", "sp"],
            ["gather", "dir", "--watch", "--max-rows-in-memory", "4"],
            ["gather", "dir", "--watch", "--spill-dir", "sp"],
        ],
    )
    def test_spill_flags_refused_on_artifact_paths(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err


class TestSpilledGatherAgrees:
    """``gather DIR`` with and without ``--max-rows-in-memory`` give one
    answer: exit code, stdout and stderr.  The in-RAM gather's rules
    are the contract — a shard index gathered twice is dropped (its
    cache state counted once), a shard of another partition is refused
    — and with ``--manifest`` every artifact is checked against it.  A
    ``--spill-dir`` store is reused for ``gather`` and ``sweep --merge``
    only when the shard directory still passes the command's cover."""

    GRID = ["--volumes", "1e3,1e4,1e5"]

    def _shard(self, directory, shards, index):
        assert (
            main(
                [
                    "sweep",
                    *self.GRID,
                    "--shards",
                    str(shards),
                    "--shard-index",
                    str(index),
                    "--shard-dir",
                    str(directory),
                ]
            )
            == 0
        )

    def _copied_shard(self, directory):
        self._shard(directory, 2, 0)
        self._shard(directory, 2, 1)
        original = directory / "shard-0000-of-0002.json"
        (directory / "shard-0000-of-0002-copy.json").write_bytes(
            original.read_bytes()
        )

    def _two_partitions(self, directory):
        self._shard(directory, 2, 0)
        self._shard(directory, 3, 2)

    @staticmethod
    def _gather(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "build, accepted",
        [("_copied_shard", True), ("_two_partitions", False)],
    )
    @pytest.mark.parametrize("with_manifest", [False, True])
    def test_spilled_gather_gives_the_in_ram_answer(
        self, tmp_path, capsys, monkeypatch, build, accepted, with_manifest
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        directory = tmp_path / "shards"
        getattr(self, build)(directory)
        argv = ["gather", str(directory), "--csv", "--cache-stats"]
        if with_manifest:
            manifest = tmp_path / "queue" / "manifest.json"
            assert (
                main(
                    [
                        "sweep",
                        *self.GRID,
                        "--queue-init",
                        str(manifest),
                        "--shards",
                        "2",
                    ]
                )
                == 0
            )
            argv += ["--manifest", str(manifest)]
        capsys.readouterr()
        in_ram = self._gather(argv, capsys)
        spilled = self._gather(argv + ["--max-rows-in-memory", "4"], capsys)
        assert spilled == in_ram
        code, out, err = in_ram
        if accepted:
            assert code == 0
            self._shard(tmp_path / "clean", 2, 0)
            self._shard(tmp_path / "clean", 2, 1)
            capsys.readouterr()
            clean = self._gather(
                ["gather", str(tmp_path / "clean"), "--csv", "--cache-stats"],
                capsys,
            )
            assert in_ram == clean
        else:
            assert code == 1 and out == ""
            assert "cut from a different partition (3 vs 2 shards)" in err

    # -- --spill-dir reuse re-checks the shard directory ----------------

    @staticmethod
    def _merge(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_gather_reuse_refuses_a_shard_of_another_partition(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        directory = tmp_path / "d"
        self._shard(directory, 2, 0)
        self._shard(directory, 2, 1)
        argv = ["gather", str(directory), "--csv"]
        spilled = argv + [
            "--max-rows-in-memory", "4", "--spill-dir", str(tmp_path / "keep")
        ]
        capsys.readouterr()
        assert self._gather(spilled, capsys)[0] == 0
        self._shard(directory, 3, 2)
        capsys.readouterr()
        in_ram = self._gather(argv, capsys)
        assert in_ram[0] == 1
        assert "cut from a different partition (3 vs 2 shards)" in in_ram[2]
        assert self._gather(spilled, capsys) == in_ram

    def test_merge_reuse_refuses_a_renamed_copy(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        directory = tmp_path / "d"
        self._shard(directory, 2, 0)
        self._shard(directory, 2, 1)
        argv = ["sweep", "--merge", str(directory), "--csv"]
        spilled = argv + [
            "--max-rows-in-memory", "4", "--spill-dir", str(tmp_path / "keep")
        ]
        capsys.readouterr()
        assert self._merge(spilled, capsys)[0] == 0
        original = directory / "shard-0000-of-0002.json"
        (directory / "shard-0000-of-0002-copy.json").write_bytes(
            original.read_bytes()
        )
        in_ram = self._merge(argv, capsys)
        assert in_ram[0] == 2
        assert "duplicated point indices" in in_ram[2]
        assert self._merge(spilled, capsys) == in_ram

    def test_gather_reuse_waits_for_the_last_shard(
        self, tmp_path, capsys, monkeypatch
    ):
        """An incomplete directory spills nothing to reuse; once the
        last shard lands the same command answers as ``gather DIR``."""
        monkeypatch.delenv("REPRO_SWEEP_MAX_ROWS", raising=False)
        directory = tmp_path / "d"
        keep = tmp_path / "keep"
        self._shard(directory, 2, 0)
        argv = ["gather", str(directory), "--csv"]
        spilled = argv + [
            "--max-rows-in-memory", "4", "--spill-dir", str(keep)
        ]
        capsys.readouterr()
        code, out, err = self._gather(spilled, capsys)
        assert (code, out) == (1, "")
        assert "gather is incomplete" in err
        assert list(keep.iterdir()) == []
        self._shard(directory, 2, 1)
        capsys.readouterr()
        code, out, _ = self._gather(spilled, capsys)
        assert code == 0
        assert (code, out) == self._gather(argv, capsys)[:2]
