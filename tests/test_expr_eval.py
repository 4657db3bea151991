"""Tests for evaluation, substitution, priming, simplification, printing."""

import pytest
from hypothesis import given, strategies as st

from repro.expr import (
    BOOL,
    EvalError,
    FALSE,
    TRUE,
    Var,
    enum_sort,
    evaluate,
    guard_str,
    holds,
    iff,
    implies,
    int_sort,
    ite,
    land,
    lnot,
    lor,
    simplify,
    substitute,
    substitute_values,
    to_primed,
    to_str,
    to_unprimed,
)

X = Var("x", int_sort(-50, 50))
Y = Var("y", int_sort(-50, 50))
F = Var("f", BOOL)
MODE = Var("s", enum_sort("Mode", "Off", "On"))


class TestEvaluate:
    def test_arith(self):
        env = {"x": 7, "y": -2}
        assert evaluate(X + Y, env) == 5
        assert evaluate(X - Y, env) == 9
        assert evaluate(X * Y, env) == -14
        assert evaluate(-X, env) == -7

    def test_comparisons(self):
        env = {"x": 7, "y": -2}
        assert holds(X > Y, env)
        assert not holds(X < Y, env)
        assert holds(X >= 7, env)
        assert holds(X.eq(7), env)
        assert holds(X.ne(8), env)

    def test_boolean(self):
        env = {"f": 1, "x": 1, "y": 0}
        assert holds(land(F, X.eq(1)), env)
        assert holds(lor(lnot(F), F), env)
        assert holds(implies(F, X.eq(1)), env)
        assert holds(iff(F, X.eq(1)), env)

    def test_ite(self):
        env = {"f": 0, "x": 3, "y": 9}
        assert evaluate(ite(F, X, Y), env) == 9

    def test_missing_var_raises(self):
        with pytest.raises(EvalError):
            evaluate(X, {})

    def test_holds_requires_bool(self):
        with pytest.raises(TypeError):
            holds(X, {"x": 1})

    def test_primed_lookup(self):
        primed = X.prime()
        assert evaluate(primed, {"x'": 4}) == 4

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_comparison_agree_with_python(self, a, b):
        env = {"x": a, "y": b}
        assert holds(X < Y, env) == (a < b)
        assert holds(X <= Y, env) == (a <= b)
        assert holds(X.eq(Y), env) == (a == b)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_arith_agree_with_python(self, a, b):
        env = {"x": a, "y": b}
        assert evaluate(X + Y, env) == a + b
        assert evaluate(X - Y, env) == a - b
        assert evaluate(X * Y, env) == a * b


class TestSubstitution:
    def test_substitute_var_for_var(self):
        expr = X + Y
        out = substitute(expr, {X: Y})
        assert evaluate(out, {"y": 3}) == 6

    def test_substitute_values_folds(self):
        expr = land(X > 3, F)
        out = substitute_values(expr, {"x": 10})
        assert out == F

    def test_substitute_values_to_false(self):
        expr = land(X > 3, F)
        assert substitute_values(expr, {"x": 0}) == FALSE

    def test_to_primed(self):
        expr = land(X > 3, MODE.eq("On"))
        primed = to_primed(expr)
        assert holds(primed, {"x'": 5, "s'": 1})

    def test_to_primed_then_unprimed_roundtrip(self):
        expr = land(X > 3, MODE.eq("On"), F)
        assert to_unprimed(to_primed(expr)) == simplify(expr)

    def test_to_primed_leaves_primed_alone(self):
        expr = X.prime().eq(3)
        assert to_primed(expr) == expr


class TestSimplify:
    def test_contradicting_equalities(self):
        expr = land(X.eq(1), X.eq(2))
        assert simplify(expr) == FALSE

    def test_complement_pair_and(self):
        expr = land(F, lnot(F))
        assert simplify(expr) == FALSE

    def test_complement_pair_or(self):
        expr = lor(X > 3, lnot(X > 3))
        assert simplify(expr) == TRUE

    def test_enum_sweep(self):
        expr = lor(MODE.eq("Off"), MODE.eq("On"))
        assert simplify(expr) == TRUE

    def test_partial_enum_sweep_kept(self):
        sort3 = enum_sort("M3", "A", "B", "C")
        var = Var("m", sort3)
        expr = lor(var.eq("A"), var.eq("B"))
        assert simplify(expr) != TRUE

    def test_idempotent(self):
        expr = land(X > 3, lor(F, lnot(F)))
        once = simplify(expr)
        assert simplify(once) == once


class TestPrinter:
    def test_plain_style(self):
        expr = land(X > 3, F)
        text = to_str(expr)
        assert "x" in text and "&&" in text

    def test_paper_style_conjunction(self):
        expr = land(X > 3, MODE.prime().eq("On"))
        text = guard_str(expr)
        assert "∧" in text
        assert "s' = On" in text

    def test_paper_style_negation(self):
        expr = lnot(X > 3)
        text = guard_str(expr)
        assert text.startswith("¬(")

    def test_enum_member_names(self):
        text = to_str(MODE.eq("On"))
        assert "On" in text

    def test_bool_constants(self):
        assert to_str(TRUE) == "true"
        assert to_str(FALSE) == "false"

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            to_str(TRUE, style="fancy")

    def test_arith_precedence_parens(self):
        expr = (X + Y) * X
        text = to_str(expr)
        assert "(" in text
