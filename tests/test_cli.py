"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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
            args = build_parser().parse_args(command + ["--engine", "ic3"])
            assert args.engine == "ic3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "CountEvents", "--engine", "pdr"])


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

    def test_run_with_ic3_engine_reports_invariant(self, capsys):
        code = main(
            ["run", "ModelingALaunchAbortSystem", "--engine", "ic3",
             "--traces", "8", "--length", "8", "--budget", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IC3 proved inductive invariant" in out

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
