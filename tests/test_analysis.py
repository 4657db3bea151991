"""Tests for the static-analysis layer (:mod:`repro.analysis`).

Covers the four acceptance surfaces:

* every library benchmark is clean at every severity;
* seeded-defect fixtures produce exactly the documented stable codes,
  with the offending subexpression printed in the diagnostic;
* reports are deterministic — across repeated runs in one process and
  across interpreter runs with different ``PYTHONHASHSEED``;
* the contract linter flags each C-code on a minimal snippet, honours
  suppressions, and is clean (and fast) over the shipped tree.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisError,
    Severity,
    check_benchmark,
    check_conditions,
    check_expr,
    check_system,
    check_traces,
    expr_bounds,
    lint_paths,
    lint_source,
    validate_system,
)
from repro.cli import main
from repro.core.conditions import Condition, ConditionKind
from repro.core.oracle import CompletenessOracle
from repro.expr.ast import (
    TRUE,
    Add,
    And,
    Ite,
    Var,
    add,
    eq,
    ite,
    lt,
    minimum,
)
from repro.expr.types import BOOL, IntSort
from repro.stateflow.benchmark import FsaSpec, make_benchmark
from repro.stateflow.chart import Chart
from repro.stateflow.library import benchmark_names, get_benchmark
from repro.system.transition_system import make_system
from repro.system.valuation import Valuation
from repro.traces.trace import Trace, TraceSet

REPO_ROOT = Path(__file__).resolve().parent.parent


def toy_system(init_x: int = 0):
    """Two saturating counters driven by one boolean input."""
    x = Var("x", IntSort(0, 3))
    y = Var("y", IntSort(0, 3))
    i = Var("i", BOOL)
    inc = ite(i.prime(), ite(lt(x, 3), add(x, 1), x), x)
    inc_y = ite(i.prime(), ite(lt(y, 3), add(y, 1), y), y)
    return make_system(
        "toy", [x, y], [i], {"x": init_x, "y": 0}, {x: inc, y: inc_y}
    )


def state_var(system, name):
    return next(v for v in system.state_vars if v.name == name)


# ---------------------------------------------------------------------------
# library systems are clean
# ---------------------------------------------------------------------------


class TestLibraryClean:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_benchmark_clean_at_every_severity(self, name):
        report = check_benchmark(get_benchmark(name))
        assert report.ok, report.format()
        assert report.at_least(Severity.INFO) == []

    def test_all_systems_validate(self):
        for name in benchmark_names():
            validate_system(get_benchmark(name).system)


# ---------------------------------------------------------------------------
# range analysis
# ---------------------------------------------------------------------------


class TestExprBounds:
    def test_guarded_increment_stays_in_sort(self):
        # The stored sort is the constructors' branch union int[0,4];
        # constraint propagation recovers the exact value range.
        x = Var("x", IntSort(0, 3))
        guarded = ite(lt(x, 3), add(x, 1), x)
        assert str(guarded.sort) == "int[0,4]"
        assert expr_bounds(guarded) == (1, 3)

    def test_minimum_pattern_clamps(self):
        x = Var("x", IntSort(0, 3))
        assert expr_bounds(minimum(add(x, 1), 3)) == (1, 3)

    def test_plain_add_widens(self):
        x = Var("x", IntSort(0, 3))
        assert expr_bounds(add(x, 1)) == (1, 4)


# ---------------------------------------------------------------------------
# seeded defects: expression tier (R001–R006)
# ---------------------------------------------------------------------------


class TestExpressionDefects:
    def test_r001_undeclared_variable(self):
        x = Var("x", IntSort(0, 3))
        ghost = Var("ghost", IntSort(0, 3))
        diags = check_expr(eq(ghost, 1), scope={"x": x})
        assert [d.code for d in diags] == ["R001"]
        assert "ghost" in diags[0].message

    def test_r001_wrong_declared_sort(self):
        declared = Var("x", IntSort(0, 3))
        used = Var("x", IntSort(0, 7))
        diags = check_expr(eq(used, 1), scope={"x": declared})
        assert [d.code for d in diags] == ["R001"]
        assert "int[0,7]" in diags[0].message
        assert "int[0,3]" in diags[0].message

    def test_r002_boolean_connective_over_int(self):
        x = Var("x", IntSort(0, 3))
        # contract: ignore[C001] seeding a sort defect needs the raw node
        bad = And((x, TRUE))
        diags = check_expr(bad)
        assert [d.code for d in diags] == ["R002"]
        assert "x" in diags[0].message

    def test_r003_sort_too_narrow_for_operands(self):
        x = Var("x", IntSort(0, 3))
        one = next(iter(add(x, 1).args[1:]), None)
        # contract: ignore[C001] seeding a width defect needs the raw node
        bad = Add((x, one), IntSort(0, 2))
        diags = check_expr(bad)
        assert [d.code for d in diags] == ["R003"]
        assert "[1,4]" in diags[0].message
        assert diags[0].subject  # offending expression is printed

    def test_r004_primed_var_in_condition_body(self):
        system = toy_system()
        x = state_var(system, "x")
        condition = Condition(
            ConditionKind.STEP, 0, "q0", TRUE, eq(x.prime(), 1)
        )
        report = check_conditions([condition], system)
        assert "R004" in report.codes()
        assert any("x'" in d.message for d in report.diagnostics)

    def test_r005_ite_branch_disagreement(self):
        x = Var("x", IntSort(0, 3))
        # contract: ignore[C001] seeding a branch-sort defect needs Ite raw
        bad = Ite(TRUE, TRUE, x, BOOL)
        diags = check_expr(bad)
        assert [d.code for d in diags] == ["R005"]


# ---------------------------------------------------------------------------
# seeded defects: system tier (R101–R108)
# ---------------------------------------------------------------------------


class TestSystemDefects:
    def test_r101_width_mismatch(self):
        system = toy_system()
        x = state_var(system, "x")
        system.next_exprs[x] = add(x, 1)  # [1,4] escapes int[0,3]
        report = check_system(system)
        assert "R101" in report.codes()
        diag = next(d for d in report.diagnostics if d.code == "R101")
        assert diag.context == "next(x)"
        assert "x" in diag.subject
        assert "[1,4]" in diag.message

    def test_r101_needs_sat_confirmation(self):
        # Interval analysis alone cannot see the relational guard
        # ¬(x ≥ 3); the SAT confirmation must keep this clean.
        system = toy_system()
        report = check_system(system)
        assert "R101" not in report.codes()

    def test_r102_missing_next_state(self):
        system = toy_system()
        x = state_var(system, "x")
        del system.next_exprs[x]
        report = check_system(system)
        assert "R102" in report.codes()

    def test_r103_out_of_range_init(self):
        system = toy_system()
        system.init_state = Valuation({"x": 7, "y": 0})
        report = check_system(system)
        codes = report.codes()
        assert "R103" in codes
        diag = next(d for d in report.diagnostics if d.code == "R103")
        assert diag.severity is Severity.ERROR
        assert "7" in diag.message

    def test_r103_extra_init_key_is_warning(self):
        system = toy_system()
        system.init_state = Valuation({"x": 0, "y": 0, "zzz": 1})
        report = check_system(system)
        diag = next(d for d in report.diagnostics if d.code == "R103")
        assert diag.severity is Severity.WARNING
        assert not report.errors

    def test_r104_unprimed_input_reference(self):
        system = toy_system()
        x = state_var(system, "x")
        unprimed_input = Var("i", BOOL)
        # (branches must differ: ite(c, x, x) folds to x)
        system.next_exprs[x] = ite(unprimed_input, x, 0)
        report = check_system(system)
        assert "R104" in report.codes()

    def test_r107_bad_input_sample(self):
        system = toy_system()
        system.input_samples.append(Valuation({"i": 5}))
        report = check_system(system)
        assert "R107" in report.codes()

    def test_r108_state_input_overlap(self):
        system = toy_system()
        system.input_vars = system.input_vars + (Var("x", IntSort(0, 3)),)
        report = check_system(system)
        assert "R108" in report.codes()


# ---------------------------------------------------------------------------
# seeded defects: benchmark tier (R105, R106, R401–R403)
# ---------------------------------------------------------------------------


def overlap_benchmark():
    """Tiny chart with overlapping guards out of its initial state."""
    chart = Chart("OverlapToy")
    ev = chart.add_input("ev", BOOL)
    machine = chart.machine("M", ["A", "B", "C"], initial="A")
    machine.transition("A", "B", guard=ev, label="t1")
    machine.transition("A", "C", guard=ev, label="t2")
    machine.transition("B", "A", label="back_b")
    machine.transition("C", "A", label="back_c")
    return make_benchmark(chart, k=2, fsas=[FsaSpec("M", machines=("M",))])


class TestBenchmarkDefects:
    def test_r105_dangling_machine_and_mode_var(self):
        benchmark = get_benchmark("MealyVendingMachine")
        broken = replace(
            benchmark, fsas=(FsaSpec("Bogus", machines=("NoSuchMachine",)),)
        )
        report = check_benchmark(broken)
        r105 = [d for d in report.diagnostics if d.code == "R105"]
        assert len(r105) == 2  # unknown machine + dangling mode var
        assert all(d.context == "fsa(Bogus)" for d in r105)
        assert any("NoSuchMachine" in d.message for d in r105)

    def test_r106_unreachable_state(self):
        chart = Chart("DeadToy")
        chart.add_input("ev", BOOL)
        machine = chart.machine("M", ["A", "B"], initial="A")
        machine.transition("A", "B", guard=False, label="never")
        machine.transition("A", "A", label="stay")
        machine.transition("B", "A", label="back")
        benchmark = make_benchmark(
            chart, k=2, fsas=[FsaSpec("M", machines=("M",))]
        )
        report = check_benchmark(benchmark)
        diag = next(d for d in report.diagnostics if d.code == "R106")
        assert diag.severity is Severity.WARNING
        assert diag.subject == "M.B"
        assert not report.errors

    def test_r402_overlapping_guards_semantic_only(self):
        benchmark = overlap_benchmark()
        structural = check_benchmark(benchmark)
        assert "R402" not in structural.codes()
        semantic = check_benchmark(benchmark, semantic=True)
        codes = semantic.codes()
        assert "R402" in codes
        diag = next(d for d in semantic.diagnostics if d.code == "R402")
        assert "t1" in diag.message and "t2" in diag.message
        assert diag.severity is Severity.WARNING
        # t2 is fully blocked by t1's priority: dead once compiled.
        assert "R401" in codes

    def test_r403_non_exhaustive_guards_is_info(self):
        semantic = check_benchmark(overlap_benchmark(), semantic=True)
        diag = next(d for d in semantic.diagnostics if d.code == "R403")
        assert diag.severity is Severity.INFO


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


class TestTraceChecks:
    def test_clean_trace(self):
        system = toy_system()
        traces = TraceSet()
        traces.add(Trace([Valuation({"i": 1, "x": 1, "y": 1})]))
        assert check_traces(traces, system).ok

    def test_r301_r302_r303(self):
        system = toy_system()
        traces = TraceSet()
        traces.add(
            Trace(
                [
                    Valuation({"i": 1, "x": 9, "y": 0}),  # x out of range
                    Valuation({"i": 1, "x": 1}),  # y missing
                    Valuation({"i": 1, "x": 1, "y": 0, "bogus": 1}),
                ]
            )
        )
        report = check_traces(traces, system)
        assert set(report.codes()) == {"R301", "R302", "R303"}
        by_code = {d.code: d for d in report.diagnostics}
        assert by_code["R303"].context == "trace[0][0]"
        assert by_code["R301"].context == "trace[0][1]"
        assert by_code["R302"].context == "trace[0][2]"


# ---------------------------------------------------------------------------
# validation boundaries
# ---------------------------------------------------------------------------


class TestValidationBoundaries:
    def test_system_validate_flag_raises(self):
        x = Var("x", IntSort(0, 3))
        i = Var("i", BOOL)
        with pytest.raises(AnalysisError) as excinfo:
            make_system("bad", [x], [i], {"x": 7}, {x: x}, validate=True)
        assert "R103" in excinfo.value.report.codes()

    def test_system_validate_flag_off_constructs(self):
        x = Var("x", IntSort(0, 3))
        i = Var("i", BOOL)
        system = make_system("bad", [x], [i], {"x": 7}, {x: x})
        assert system.init_state["x"] == 7

    def test_validated_system_survives_pickle(self):
        x = Var("x", IntSort(0, 3))
        i = Var("i", BOOL)
        system = make_system("ok", [x], [i], {"x": 0}, {x: x}, validate=True)
        clone = pickle.loads(pickle.dumps(system))
        assert clone.name == "ok"
        assert clone.init_state["x"] == 0

    def test_oracle_validates_system_up_front(self):
        system = toy_system()
        system.init_state = Valuation({"x": 7, "y": 0})
        with pytest.raises(AnalysisError):
            CompletenessOracle(system, None, k=1, validate=True)

    def test_oracle_validates_each_condition(self):
        oracle = CompletenessOracle(toy_system(), None, k=1, validate=True)
        bad = Condition(
            ConditionKind.STEP,
            0,
            "q0",
            TRUE,
            eq(Var("ghost", IntSort(0, 1)), 1),
        )
        with pytest.raises(AnalysisError) as excinfo:
            oracle.check(bad)
        assert "R001" in excinfo.value.report.codes()

    def test_oracle_rejects_non_boolean_condition_body(self):
        system = toy_system()
        oracle = CompletenessOracle(system, None, k=1, validate=True)
        x = state_var(system, "x")
        bad = Condition(ConditionKind.STEP, 0, "q0", TRUE, add(x, 0))
        with pytest.raises(AnalysisError) as excinfo:
            oracle.check(bad)
        assert "R201" in excinfo.value.report.codes()

    def test_oracle_accepts_clean_condition(self):
        system = toy_system()
        oracle = CompletenessOracle(system, None, k=1, validate=True)
        good = Condition(ConditionKind.INIT, 0, "q0", None, TRUE)
        assert oracle.check(good).holds


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


DETERMINISM_SCRIPT = """
from repro.analysis import check_system
from repro.expr.ast import Var, add, eq, ite, lt
from repro.expr.types import BOOL, IntSort
from repro.system.transition_system import make_system

x = Var("x", IntSort(0, 3))
y = Var("y", IntSort(0, 3))
i = Var("i", BOOL)
system = make_system(
    "toy", [x, y], [i], {"x": 9, "y": 0},
    {x: ite(i.prime(), ite(lt(x, 3), add(x, 1), x), x),
     y: ite(i.prime(), ite(lt(y, 3), add(y, 1), y), y)},
)
system.next_exprs[x] = add(x, 1)
system.next_exprs[y] = add(y, Var("ghost", IntSort(0, 3)))
print(check_system(system).format())
"""


class TestDeterminism:
    def test_repeated_runs_identical(self):
        system = toy_system()
        x = state_var(system, "x")
        system.next_exprs[x] = add(x, 1)
        first = check_system(system).format()
        second = check_system(system).format()
        assert first == second

    def test_across_hash_seeds(self):
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            result = subprocess.run(
                [sys.executable, "-c", DETERMINISM_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert "R101" in outputs[0]


# ---------------------------------------------------------------------------
# the contract linter
# ---------------------------------------------------------------------------


#: A three-class dispatch that rebuilds through smart constructors: the
#: shape C007 reports outside the simplifier.
_C007_REWRITE_PASS = (
    "from repro.expr.ast import And, Not, Or, land, lnot, lor\n\n"
    "def rewrite(e):\n"
    "    if isinstance(e, (And, Or, Not)):\n"
    "        return lnot(lor(land(e)))\n"
    "    return e\n"
)


class TestContractLinter:
    def test_c001_raw_composite_constructor(self):
        src = (
            "from repro.expr.ast import And, Var\n"
            "from repro.expr.types import BOOL\n"
            'a = Var("a", BOOL)\n'
            'b = Var("b", BOOL)\n'
            "bad = And((a, b))\n"
        )
        findings = lint_source(src, "snippet.py")
        assert [f.code for f in findings] == ["C001"]
        assert findings[0].line == 5  # Var stays allowed

    def test_c001_exempt_inside_expr_ast(self):
        src = "from repro.expr.ast import And\nx = And((1, 2))\n"
        assert lint_source(src, "src/repro/expr/ast.py") == []

    def test_c001_ignores_unrelated_names(self):
        src = "def And(x):\n    return x\n\ny = And(3)\n"
        assert lint_source(src, "snippet.py") == []

    def test_c002_deepcopy(self):
        src = "import copy\n\nclone = copy.deepcopy([1])\n"
        assert [f.code for f in lint_source(src, "s.py")] == ["C002"]
        src = "from copy import deepcopy\n\nclone = deepcopy([1])\n"
        assert [f.code for f in lint_source(src, "s.py")] == ["C002"]

    def test_c003_expr_keyed_module_cache(self):
        src = (
            "from repro.expr.ast import Expr\n"
            "_CACHE: dict[Expr, int] = {}\n"
        )
        assert [f.code for f in lint_source(src, "s.py")] == ["C003"]

    def test_c003_eid_keyed_is_clean(self):
        src = (
            "from repro.expr.ast import Expr\n"
            "_CACHE: dict[int, Expr] = {}\n"
        )
        assert lint_source(src, "s.py") == []

    def test_c003_function_local_is_clean(self):
        src = (
            "from repro.expr.ast import Expr\n"
            "def f():\n"
            "    local: dict[Expr, int] = {}\n"
            "    return local\n"
        )
        assert lint_source(src, "s.py") == []

    def test_c004_mutable_default(self):
        src = "def f(a, b=[]):\n    return b\n"
        assert [f.code for f in lint_source(src, "s.py")] == ["C004"]
        src = "def f(a, b=()):\n    return b\n"
        assert lint_source(src, "s.py") == []

    def test_c005_wall_clock_in_measured_path(self):
        src = "import time\n\nt = time.time()\n"
        assert [f.code for f in lint_source(src, "s.py")] == ["C005"]
        src = "import time\n\nt = time.monotonic()\n"
        assert lint_source(src, "s.py") == []

    def test_c007_adhoc_rewrite_pass(self):
        src = (
            "from repro.expr.ast import And, Not, Or, land, lnot, lor\n\n"
            "def my_simplify(e):\n"
            "    if isinstance(e, And):\n"
            "        return land(*(my_simplify(a) for a in e.args))\n"
            "    if isinstance(e, Or):\n"
            "        return lor(*(my_simplify(a) for a in e.args))\n"
            "    if isinstance(e, Not):\n"
            "        return lnot(my_simplify(e.arg))\n"
            "    return e\n"
        )
        assert [f.code for f in lint_source(src, "s.py")] == ["C007"]

    def test_c007_type_is_counts_as_dispatch(self):
        src = (
            "from repro.expr.ast import And, Not, Or, land\n\n"
            "def norm(e):\n"
            "    if type(e) is And or type(e) is Or or type(e) is Not:\n"
            "        return land(e)\n"
            "    return e\n"
        )
        assert [f.code for f in lint_source(src, "s.py")] == ["C007"]

    def test_c007_pure_dispatcher_is_clean(self):
        # Evaluators/encoders dispatch widely but never rebuild.
        src = (
            "from repro.expr.ast import And, Ite, Not, Or\n\n"
            "def count(e):\n"
            "    if isinstance(e, (And, Or, Not, Ite)):\n"
            "        return 1\n"
            "    return 0\n"
        )
        assert lint_source(src, "s.py") == []

    def test_c007_pure_builder_is_clean(self):
        src = (
            "from repro.expr.ast import land, lnot, lor\n\n"
            "def make(a, b):\n"
            "    return lor(land(a, b), lnot(a))\n"
        )
        assert lint_source(src, "s.py") == []

    def test_c007_narrow_dispatch_is_clean(self):
        # Fewer than three composite classes: a special case, not a pass.
        src = (
            "from repro.expr.ast import And, Not, land, lnot\n\n"
            "def tweak(e):\n"
            "    if isinstance(e, And) or isinstance(e, Not):\n"
            "        return lnot(land(e))\n"
            "    return e\n"
        )
        assert lint_source(src, "s.py") == []

    def test_c007_exempt_in_rule_table_modules(self):
        src = _C007_REWRITE_PASS
        assert lint_source(src, "src/repro/expr/ast.py") == []
        assert lint_source(src, "src/repro/expr/simplify.py") == []
        assert [
            f.code for f in lint_source(src, "src/repro/mc/symbolic.py")
        ] == ["C007"]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/expr/rewrite.py",
            "src/repro/expr/rules.py",
            "src/repro/core/conditions.py",
        ],
    )
    def test_c007_points_other_rewrite_passes_at_the_simplifier(self, path):
        # Only the simplifier and the smart constructors may dispatch on
        # node classes and rebuild; a second rule table anywhere else,
        # even beside them under expr/, is reported.
        findings = lint_source(_C007_REWRITE_PASS, path)
        assert [f.code for f in findings] == ["C007"]
        assert "expr/simplify.py" in findings[0].message

    def test_c008_environment_access_in_package(self):
        src = (
            "import os\n"
            "from os import getenv\n\n"
            'mode = os.environ.get("MODE", "a")\n'
            'os.putenv("MODE", mode)\n'
        )
        findings = lint_source(src, "src/repro/expr/simplify.py")
        assert [(f.code, f.line) for f in findings] == [
            ("C008", 2), ("C008", 4), ("C008", 5)
        ]
        # Outside the package (tests/, tools/, benchmarks/) it is allowed.
        for path in ("tests/conftest.py", "tools/x.py", "benchmarks/b.py"):
            assert lint_source(src, path) == []
        # Other os attributes stay allowed inside the package.
        src = "import os\n\np = os.path.join('a', 'b')\n"
        assert lint_source(src, "src/repro/cli.py") == []

    def test_suppression_with_reason(self):
        src = (
            "import copy\n\n"
            "clone = copy.deepcopy([1])  "
            "# contract: ignore[C002] exercising stdlib behaviour\n"
        )
        assert lint_source(src, "s.py") == []

    def test_suppression_on_line_above(self):
        src = (
            "import copy\n\n"
            "# contract: ignore[C002] exercising stdlib behaviour\n"
            "clone = copy.deepcopy([1])\n"
        )
        assert lint_source(src, "s.py") == []

    def test_c000_suppression_without_reason(self):
        src = (
            "import copy\n\n"
            "clone = copy.deepcopy([1])  # contract: ignore[C002]\n"
        )
        assert [f.code for f in lint_source(src, "s.py")] == ["C000"]

    def test_finding_format_is_clickable(self):
        src = "import copy\n\nclone = copy.deepcopy([1])\n"
        (finding,) = lint_source(src, "pkg/mod.py")
        assert finding.format().startswith("pkg/mod.py:3: C002 ")

    def test_shipped_tree_is_clean_and_fast(self):
        start = time.perf_counter()
        findings = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "tools"]
        )
        elapsed = time.perf_counter() - start
        assert findings == [], [f.format() for f in findings]
        assert elapsed < 5.0


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


class TestAnalyzeCli:
    def test_all_library_systems_clean(self, capsys):
        assert main(["analyze", "--all-library-systems"]) == 0
        out = capsys.readouterr().out
        assert out.count(": OK") == len(benchmark_names())

    def test_single_benchmark(self, capsys):
        assert main(["analyze", "MealyVendingMachine"]) == 0
        assert "MealyVendingMachine: OK" in capsys.readouterr().out

    def test_no_benchmarks_is_usage_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "--all-library-systems" in capsys.readouterr().err

    def test_bad_trace_file_fails(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("trace,step,bogus\n0,0,1\n")
        code = main(["analyze", "MealyVendingMachine", "--trace", str(trace)])
        assert code == 1
        captured = capsys.readouterr()
        assert "R30" in captured.out  # missing observables + unknown var
        assert "finding(s)" in captured.err

    def test_severity_threshold_filters(self, capsys):
        name = "AutomaticTransmissionUsingDurationOperator"
        assert main(["analyze", name, "--semantic"]) == 1
        assert "R403" in capsys.readouterr().out
        assert (
            main(["analyze", name, "--semantic", "--severity", "warning"])
            == 0
        )
