"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "MealyVendingMachine"])
        assert args.traces == 50
        assert args.budget == 120.0

    def test_table1_subset(self):
        args = build_parser().parse_args(["table1", "CountEvents", "--budget", "5"])
        assert args.benchmarks == ["CountEvents"]
        assert args.budget == 5.0

    @pytest.mark.parametrize("command", ["run", "baseline", "table1"])
    def test_no_jobs_option(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "CountEvents", "--jobs", "2"])

    def test_engine_choices(self):
        args = build_parser().parse_args(["run", "CountEvents"])
        assert args.engine == "explicit"
        for command in (["run", "CountEvents"], ["baseline", "CountEvents"],
                        ["table1", "CountEvents"]):
            args = build_parser().parse_args(command + ["--engine", "kinduction"])
            assert args.engine == "kinduction"
        for engine in ("pdr", "ic3"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "CountEvents", "--engine", engine])

    @pytest.mark.parametrize("command", ["run", "table1"])
    def test_no_session_option(self, command):
        for flag in ("--session", "--no-session"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "CountEvents", flag])


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MealyVendingMachine" in out
        assert "FSAs:" in out

    def test_run_small_benchmark(self, capsys):
        code = main(
            ["run", "MealyVendingMachine", "--traces", "10", "--length", "10",
             "--budget", "30", "--invariants"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MealyVendingMachine" in out
        assert "Invariants:" in out
        assert "oracle: 0 spurious excluded, 0 recorded inconclusive" in out

    def test_run_with_dot_export(self, tmp_path, capsys):
        dot_path = tmp_path / "model.dot"
        code = main(
            ["run", "MonitorTestPointsInStateflowChart", "--traces", "5",
             "--length", "5", "--budget", "30", "--dot", str(dot_path)]
        )
        assert code == 0
        content = dot_path.read_text()
        assert content.startswith("digraph")

    def test_run_unknown_benchmark(self, capsys):
        assert main(["run", "NoSuchBenchmark"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown benchmark 'NoSuchBenchmark'" in err

    def test_run_unknown_fsa(self, capsys):
        assert main(["run", "Superstep", "--fsa", "Nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "Superstep has no FSA 'Nope'" in err
        assert "WithoutSuperStep" in err

    @pytest.mark.parametrize("command", ["table1", "analyze"])
    def test_unknown_benchmark_other_commands(self, command, capsys):
        assert main([command, "NoSuch"]) == 2
        assert capsys.readouterr().err == (
            f"repro {command}: unknown benchmark 'NoSuch' "
            "(`repro list` shows the names)\n"
        )

    def test_run_specific_fsa(self, capsys):
        code = main(
            ["run", "Superstep", "--fsa", "WithoutSuperStep",
             "--traces", "5", "--length", "5", "--budget", "30"]
        )
        assert code == 0
        assert "WithoutSuperStep" in capsys.readouterr().out

    @staticmethod
    def _row(out, name):
        """(i, d, N, α) from the Table-I row of ``name``."""
        line = next(line for line in out.splitlines() if line.startswith(name))
        return tuple(line.split()[-6:-2])

    def test_run_with_kinduction_engine(self, capsys):
        """The literal Fig. 3b check drives the loop without guidance."""
        code = main(
            ["run", "ModelingALaunchAbortSystem", "--engine", "kinduction",
             "--traces", "10", "--length", "10", "--budget", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert self._row(out, "ModelingALaunchAbortSystem") == ("6", "1", "6", "1")
        assert "oracle: 16 spurious excluded, 5 recorded inconclusive" in out

    def test_run_with_bdd_engine_strengthens_blind(self, capsys):
        """Each spurious counterexample costs one r ∧ ¬s' round."""
        code = main(
            ["run", "ModelingALaunchAbortSystem", "--fsa", "ModeLogic",
             "--engine", "bdd", "--traces", "30", "--length", "30",
             "--budget", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert self._row(out, "ModelingALaunchAbortSystem") == ("4", "1", "5", "1")
        assert "oracle: 845 spurious excluded, 0 recorded inconclusive" in out

    def test_baseline_command(self, capsys):
        code = main(
            ["baseline", "MealyVendingMachine", "--observations", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MealyVendingMachine" in out

    def test_table1_single_benchmark(self, capsys):
        code = main(
            ["table1", "CountEvents", "--traces", "5", "--length", "10",
             "--budget", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I (active algorithm):" in out
        assert "CountEvents" in out

    def test_table1_with_baseline(self, capsys):
        code = main(
            ["table1", "MonitorTestPointsInStateflowChart", "--traces", "5",
             "--length", "5", "--budget", "30", "--baseline",
             "--observations", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "random-sampling baseline" in out


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closing_the_pipe_exits_without_traceback(self, unbuffered):
        """`repro list | head -1`: the reader is gone before the output
        is written, with stdout unbuffered or block-buffered."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            PYTHONUNBUFFERED=unbuffered,
        )
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, cwd=REPO_ROOT,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr
        assert result.stderr == ""
        assert result.returncode == 1
