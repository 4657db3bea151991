"""Tests for the bit-blaster and SMT facade.

The key property: for any expression of the IR and any assignment within
the variable sorts, the bit-blasted semantics agrees with the concrete
evaluator.  Hypothesis drives that comparison on random expressions.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import (
    BOOL,
    Var,
    enum_sort,
    eq,
    holds,
    int_sort,
    ite,
    land,
    lnot,
    lor,
)
from repro.expr.ast import And
from repro.smt import (
    SmtSolver,
    decode_bits,
    get_model,
    implies_semantically,
    is_satisfiable,
    is_valid,
    width_for_range,
)

X = Var("x", int_sort(0, 20))
Y = Var("y", int_sort(-8, 8))
F = Var("f", BOOL)
MODE = Var("s", enum_sort("Mode", "Off", "On", "Fault"))


class TestWidths:
    def test_width_for_small_ranges(self):
        assert width_for_range(0, 0) == 1
        assert width_for_range(0, 1) == 2  # two's complement: need sign bit
        assert width_for_range(-1, 0) == 1
        assert width_for_range(-4, 3) == 3
        assert width_for_range(0, 127) == 8

    def test_width_rejects_empty(self):
        with pytest.raises(ValueError):
            width_for_range(3, 2)

    def test_decode_bits(self):
        assert decode_bits([True, False, False]) == 1
        assert decode_bits([False, False, True]) == -4
        assert decode_bits([True, True, True]) == -1


class TestSatisfiability:
    def test_var_in_range_sat(self):
        assert is_satisfiable(X.eq(20))

    def test_var_out_of_range_unsat(self):
        # Range constraint x in [0,20] makes x = 21 unsatisfiable.
        assert not is_satisfiable(X.eq(21))

    def test_negative_range(self):
        assert is_satisfiable(Y.eq(-8))
        assert not is_satisfiable(Y.eq(-9))

    def test_enum_range(self):
        assert is_satisfiable(MODE.eq("Fault"))
        with pytest.raises(ValueError):
            MODE.eq(3)  # out-of-range member index is a construction error

    def test_conjunction_conflict(self):
        assert not is_satisfiable(land(X > 10, X < 5))

    def test_arith_constraint(self):
        model = get_model(eq(X + Y, 3), X > 8)
        assert model is not None
        assert model["x"] + model["y"] == 3
        assert model["x"] > 8

    def test_multiplication(self):
        model = get_model(eq(X * Y, 14), Y > 0)
        assert model is not None
        assert model["x"] * model["y"] == 14

    def test_subtraction_and_negation(self):
        model = get_model(eq(X - Y, 12), eq(-Y, 4))
        assert model is not None
        assert model["y"] == -4
        assert model["x"] == 8

    def test_ite_expression(self):
        expr = eq(ite(F, X, Y), 15)
        model = get_model(expr)
        assert model is not None
        picked = model["x"] if model["f"] else model["y"]
        assert picked == 15

    def test_unsat_ite(self):
        # y in [-8,8] can never be 15, so f must be true.
        model = get_model(eq(ite(F, X, Y), 15))
        assert model is not None and model["f"] == 1

    def test_validity(self):
        assert is_valid(lor(X > 5, X <= 5))
        assert not is_valid(X > 5)

    def test_implication_semantics(self):
        assert implies_semantically(X > 10, X > 5)
        assert not implies_semantically(X > 5, X > 10)

    def test_bool_var(self):
        model = get_model(F)
        assert model is not None and model["f"] == 1
        model = get_model(lnot(F))
        assert model is not None and model["f"] == 0

    def test_primed_vars_are_distinct(self):
        expr = land(X.eq(3), X.prime().eq(7))
        model = get_model(expr)
        assert model is not None
        assert model["x"] == 3 and model["x'"] == 7


class TestSolverFacade:
    def test_incremental_adds(self):
        solver = SmtSolver()
        solver.add(X > 5)
        assert solver.check()
        solver.add(X < 10)
        assert solver.check()
        assert 5 < solver.model()["x"] < 10
        solver.add(X.eq(3))
        assert not solver.check()

    def test_model_without_check_raises(self):
        solver = SmtSolver()
        with pytest.raises(RuntimeError):
            solver.model()

    def test_model_after_unsat_raises(self):
        solver = SmtSolver()
        solver.add(land(F, lnot(F)))
        assert not solver.check()
        with pytest.raises(RuntimeError):
            solver.model()

    def test_declare_makes_var_visible_in_model(self):
        solver = SmtSolver()
        solver.declare(Y)
        solver.add(X > 3)
        assert solver.check()
        assert "y" in solver.model()

    def test_redeclare_different_sort_rejected(self):
        solver = SmtSolver()
        solver.declare(X)
        with pytest.raises(ValueError):
            solver.declare(Var("x", int_sort(0, 5)))


class TestScopes:
    def test_push_pop_retracts_assertions(self):
        solver = SmtSolver()
        backing = solver.solver
        solver.add(X > 5)
        solver.push()
        solver.add(X < 3)
        assert not solver.check()
        solver.pop()
        assert solver.check()
        assert solver.model()["x"] > 5
        # Same persistent CDCL instance served both queries.
        assert solver.solver is backing

    def test_nested_scopes(self):
        solver = SmtSolver()
        solver.add(X <= 10)
        solver.push()
        solver.add(X > 4)
        solver.push()
        solver.add(X.eq(2))
        assert not solver.check()
        solver.pop()
        assert solver.check()
        assert 4 < solver.model()["x"] <= 10
        solver.pop()
        solver.push()
        solver.add(X.eq(2))
        assert solver.check()
        assert solver.model()["x"] == 2

    def test_pop_without_push_raises(self):
        solver = SmtSolver()
        with pytest.raises(RuntimeError):
            solver.pop()

    def test_scoped_contradiction_is_local(self):
        solver = SmtSolver()
        solver.add(F)
        solver.push()
        solver.add(lnot(F))  # conflicts with the base assertion
        assert not solver.check()
        solver.pop()
        assert solver.check()
        assert solver.model()["f"] == 1

    def test_scoped_constant_false_is_local(self):
        solver = SmtSolver()
        solver.declare(X)
        solver.push()
        solver.add(land(F, lnot(F)))  # folds to constant false
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_many_scoped_queries_accumulate_learning(self):
        """Scoped queries must not degrade the solver: lemma counts are
        monotone and verdicts stay correct."""
        solver = SmtSolver()
        solver.add(land(X >= 0, X <= 20))
        for bound in range(1, 8):
            solver.push()
            solver.add(X > 20 - bound)
            solver.add(X < bound)
            expected = bound > 10  # x in (20-bound, bound) nonempty iff
            assert solver.check() == expected
            solver.pop()
        assert solver.check()  # base constraints still satisfiable


PADDED_VALIDATION = """
import json, sys
padding = [object() for _ in range(int(sys.argv[1]))]
from repro.analysis.system_check import validate_system
from repro.sat.solver import Solver
from repro.stateflow.library import get_benchmark
counts = []
original = Solver.solve
def solve(self, assumptions=()):
    result = original(self, assumptions)
    counts.append([result.satisfiable, result.conflicts_delta,
                   result.decisions_delta, result.propagations_delta])
    return result
Solver.solve = solve
validate_system(get_benchmark("KarplusStrongAlgorithmUsingStateflow").system)
print(json.dumps(counts))
"""


class TestEncoderDeterminism:
    def test_solve_counts_do_not_depend_on_memory_layout(self):
        """Undeclared variables are numbered in ``eid`` order, so the
        validator's one-shot queries repeat whatever objects the process
        allocated first (``free_vars`` is an identity-hashed set)."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        runs = [
            subprocess.run(
                [sys.executable, "-c", PADDED_VALIDATION, str(padding)],
                capture_output=True, text=True, env=env, cwd=root, check=True,
            ).stdout
            for padding in (0, 7, 100, 1000)
        ]
        assert json.loads(runs[0])
        assert runs == [runs[0]] * len(runs)


class TestScopedConjunctions:
    """A scoped ``And`` is one assumption literal per conjunct."""

    ATOMS = [
        X > 4, X < 9, X.eq(7), X.eq(12), Y <= -2, Y >= 3, Y.eq(0),
        eq(X + Y, 5), eq(X + Y, 20), F, lnot(F), MODE.eq("On"),
        ite(F, X > 10, Y < 0), lor(MODE.eq("Off"), X < 3),
    ]

    def test_conjunction_matches_separate_adds(self):
        rng = random.Random(5)
        base = lor(F, X > 2)
        joint, split = SmtSolver(), SmtSolver()
        for solver in (joint, split):
            solver.add(base)
        for _ in range(60):
            conjuncts = rng.sample(self.ATOMS, k=3)
            joint.push()
            joint.add(land(*conjuncts))
            split.push()
            for conjunct in conjuncts:
                split.add(conjunct)
            expected = is_satisfiable(base, *conjuncts)
            assert joint.check() == split.check() == expected, conjuncts
            joint.pop()
            split.pop()

    def test_constant_false_conjunct_is_reported(self):
        impossible = eq(X + Y, 40)  # the encoder folds it to false
        conjunction = land(X <= 3, impossible)
        assert isinstance(conjunction, And)
        solver = SmtSolver()
        solver.push()
        solver.add(conjunction)
        assert not solver.check()
        solver.pop()
        assert solver.check()

    def test_add_is_entered_once_per_assertion(self, monkeypatch):
        """Layer timing wraps the public ``add``, so splitting a
        conjunction must not re-enter it."""
        entered = []
        original = SmtSolver.add

        def counting(self, expr):
            entered.append(expr)
            return original(self, expr)

        monkeypatch.setattr(SmtSolver, "add", counting)
        solver = SmtSolver()
        solver.add(X > 2)
        solver.push()
        solver.add(land(X < 9, F, lnot(Y.eq(0))))
        assert solver.check()
        assert len(entered) == 2


# ---------------------------------------------------------------------------
# Differential testing against the evaluator
# ---------------------------------------------------------------------------

_VARS = [
    Var("a", int_sort(-5, 6)),
    Var("b", int_sort(0, 10)),
    Var("c", int_sort(-3, 3)),
]
_BVARS = [Var("p", BOOL), Var("q", BOOL)]


def int_exprs(depth: int):
    if depth == 0:
        return st.one_of(
            st.sampled_from(_VARS),
            st.integers(-6, 10).map(lambda v: Var("a", int_sort(-5, 6)) * 0 + v),
        )
    sub = int_exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, sub).map(lambda t: t[0] + t[1]),
        st.tuples(sub, sub).map(lambda t: t[0] - t[1]),
        st.tuples(sub, sub).map(lambda t: t[0] * t[1]),
        st.tuples(bool_exprs(depth - 1), sub, sub).map(
            lambda t: ite(t[0], t[1], t[2])
        ),
    )


def bool_exprs(depth: int):
    if depth == 0:
        return st.one_of(
            st.sampled_from(_BVARS),
            st.tuples(st.sampled_from(_VARS), st.integers(-6, 10)).map(
                lambda t: t[0] > t[1]
            ),
        )
    sub_b = bool_exprs(depth - 1)
    sub_i = int_exprs(depth - 1)
    return st.one_of(
        sub_b,
        st.tuples(sub_b, sub_b).map(lambda t: land(*t)),
        st.tuples(sub_b, sub_b).map(lambda t: lor(*t)),
        sub_b.map(lnot),
        st.tuples(sub_i, sub_i).map(lambda t: eq(*t)),
        st.tuples(sub_i, sub_i).map(lambda t: t[0] < t[1]),
        st.tuples(sub_i, sub_i).map(lambda t: t[0] <= t[1]),
    )


@settings(max_examples=40, deadline=None)
@given(
    expr=bool_exprs(2),
    a=st.integers(-5, 6),
    b=st.integers(0, 10),
    c=st.integers(-3, 3),
    p=st.booleans(),
    q=st.booleans(),
)
def test_bitblast_agrees_with_evaluator(expr, a, b, c, p, q):
    """Pin every variable; the solver must agree with concrete evaluation."""
    env = {"a": a, "b": b, "c": c, "p": int(p), "q": int(q)}
    pins = [
        Var("a", int_sort(-5, 6)).eq(a),
        Var("b", int_sort(0, 10)).eq(b),
        Var("c", int_sort(-3, 3)).eq(c),
        Var("p", BOOL).eq(bool(p)),
        Var("q", BOOL).eq(bool(q)),
    ]
    expected = holds(expr, env)
    assert is_satisfiable(expr, *pins) == expected
