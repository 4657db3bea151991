"""The six simplifier rules, conjunct facts, the fixpoint contract and
rule-level telemetry.

Semantic soundness over random expressions lives in
``test_simplify_properties.py``; this file pins the rules one by one:
each fires where it should, under its own counter, and leaves near
misses alone; facts prune nested contradictions under every connective
without circular support; rules reach below every node type; and
results are interned fixpoints (``simplify(simplify(e)) is
simplify(e)``).
"""

import itertools

import pytest

from repro.core import telemetry
from repro.expr import (
    BOOL,
    FALSE,
    TRUE,
    Var,
    add,
    coerce,
    enum_sort,
    eq,
    evaluate,
    free_vars,
    holds,
    iff,
    implies,
    int_sort,
    ite,
    land,
    le,
    lnot,
    lor,
    lt,
    mul,
    neg,
    simplify,
    sub,
    walk,
)

X = Var("x", int_sort(0, 9))
W = Var("w", int_sort(0, 9))
Y = Var("y", BOOL)
Z = Var("z", BOOL)
M = Var("m", enum_sort("Mode", "A", "B", "C"))
N = Var("n", enum_sort("Mode", "A", "B", "C"))

_DOMAINS = {
    "x": range(10),
    "w": range(10),
    "y": (0, 1),
    "z": (0, 1),
    "m": range(3),
    "n": range(3),
}

TAUT = lor(Y, lnot(Y))
CONTRA = land(Y, lnot(Y))


def c(value):
    return coerce(value)


def _equivalent(a, b):
    """``a`` and ``b`` evaluate alike under every assignment of their
    variables."""
    names = sorted(
        {var.qualified_name for var in free_vars(a) | free_vars(b)}
    )
    for values in itertools.product(*(_DOMAINS[name] for name in names)):
        env = dict(zip(names, values, strict=True))
        if evaluate(a, env) != evaluate(b, env):
            return False
    return True


def _corpus():
    """Nodes spanning every shape the rules dispatch on."""
    return [
        land(eq(X, 1), eq(X, 2)),
        land(Y, lnot(Y)),
        lor(Y, lnot(Y)),
        lor(eq(M, 0), eq(M, 1), eq(M, 2)),
        implies(Y, Y),
        implies(Y, Z),
        iff(Y, lnot(Z)),
        lnot(land(Y, Z)),
        lnot(lor(Y, Z)),
        lnot(lt(X, 3)),
        lnot(le(X, 3)),
        ite(Y, TRUE, Z),
        ite(lnot(Y), Z, Y),
        eq(ite(Y, c(1), c(2)), c(1)),
        lt(X, c(3)),
        le(c(3), X),
        eq(X, c(3)),
        land(eq(X, 1), lor(Y, eq(X, 2))),
        land(Y, lor(Y, Z)),
        X,
        Y,
        c(3),
    ]


class TestRules:
    def test_and_contradiction(self):
        assert simplify(land(eq(X, 1), Y, eq(X, 2))) is FALSE
        # Boolean variables carry no conjunct facts, so this case
        # reaches the rule itself rather than eq_ctx_contradiction.
        assert simplify(land(eq(Y, True), Z, eq(Y, False))) is FALSE

    def test_and_complement(self):
        assert simplify(land(Y, Z, lnot(Y))) is FALSE

    def test_or_complement(self):
        assert simplify(lor(Y, Z, lnot(Y))) is TRUE

    def test_or_enum_sweep(self):
        assert simplify(lor(eq(M, 0), eq(M, 1), eq(M, 2))) is TRUE
        assert simplify(lor(eq(M, 0), eq(M, 1))) is not TRUE

    def test_implies_refl(self):
        assert simplify(implies(land(Y, Z), land(Y, Z))) is TRUE

    def test_nested_contradiction_pruned_through_context(self):
        # x = 1 ∧ (y ∨ x = 2): the sibling fact x = 1 reaches the
        # disjunct x = 2 inside the Or and folds it to false.
        expr = land(eq(X, 1), lor(Y, eq(X, 2)))
        assert simplify(expr) is land(eq(X, 1), Y)

    def test_mutual_support_not_eliminated(self):
        # x = 3 ∧ 3 = x: each conjunct entails the other; folding both
        # to true would be unsound. Facts only ever fold to false.
        expr = land(eq(X, c(3)), eq(c(3), X))
        out = simplify(expr)
        assert holds(out, {"x": 3})
        assert not holds(out, {"x": 4})

    @pytest.mark.parametrize(
        "expr",
        [
            land(eq(X, 1), eq(W, 2)),
            land(eq(X, 1), lt(X, 5)),
            land(Y, lnot(Z)),
            lor(Y, lnot(Z)),
            lor(eq(M, 0), eq(M, 1)),
            lor(eq(M, 0), eq(M, 1), eq(N, 2)),
            implies(Y, Z),
        ],
        ids=[
            "and_contradiction-distinct-vars",
            "and_contradiction-not-an-equality",
            "and_complement-different-atoms",
            "or_complement-different-atoms",
            "or_enum_sweep-partial-cover",
            "or_enum_sweep-cover-split-over-two-vars",
            "implies_refl-different-sides",
        ],
    )
    def test_near_miss_is_left_alone(self, expr):
        # Each shape sits one step from a rule's pattern; folding it
        # would be unsound, so it must come back as the same node.
        assert simplify(expr) is expr


#: Per rule, a builder over ``(u, p, q, e)`` -- an int, two Booleans
#: and an enum variable -- of an expression on which that rule, and
#: only that rule, fires once.
RULE_WITNESSES = {
    # Boolean equalities carry no facts, so the conjunction itself
    # meets the clash (an int x = 1 ∧ x = 2 folds earlier, through
    # eq_ctx_contradiction).
    "and_contradiction": lambda u, p, q, e: land(eq(p, True), q, eq(p, False)),
    "and_complement": lambda u, p, q, e: land(p, q, lnot(p)),
    "or_complement": lambda u, p, q, e: lor(p, q, lnot(p)),
    "or_enum_sweep": lambda u, p, q, e: lor(eq(e, 0), eq(e, 1), eq(e, 2)),
    "implies_refl": lambda u, p, q, e: implies(land(p, q), land(p, q)),
    "eq_ctx_contradiction": lambda u, p, q, e: land(eq(u, 1), lor(p, eq(u, 2))),
}


@pytest.mark.parametrize("rule", list(RULE_WITNESSES))
def test_each_rule_fires_under_its_own_counter(rule):
    # The counter names are what `repro profile` ranks; a rule that
    # fires under another rule's name would misreport the table.
    # Variables named after the rule keep the module memo cold.
    expr = RULE_WITNESSES[rule](
        Var(f"u_{rule}", int_sort(0, 9)),
        Var(f"p_{rule}", BOOL),
        Var(f"q_{rule}", BOOL),
        Var(f"e_{rule}", enum_sort("Mode", "A", "B", "C")),
    )
    session = telemetry.start("test")
    try:
        out = simplify(expr)
        counters = session.metrics.snapshot()["counters"]
    finally:
        telemetry.stop()
    assert out is not expr
    fires = {
        name[len("rewrite.rule."):-len(".fires")]: value
        for name, value in counters.items()
        if name.startswith("rewrite.rule.") and name.endswith(".fires")
    }
    assert fires == {rule: 1}
    assert counters[f"rewrite.rule.{rule}.attempts"] >= 1


class TestFacts:
    """Sibling ``x = c`` conjuncts as facts: where they reach, where
    they must not, and how their memo entries stay apart."""

    @pytest.mark.parametrize(
        "wrapped, expected",
        [
            (lor(Y, land(Z, eq(X, 2))), Y),
            (ite(eq(X, 2), Y, Z), Z),
            (ite(Y, eq(X, 2), Z), ite(Y, FALSE, Z)),
            (lnot(eq(X, 2)), TRUE),
            (implies(eq(X, 2), Y), TRUE),
            (implies(Y, eq(X, 2)), lnot(Y)),
            (iff(eq(X, 2), Y), lnot(Y)),
        ],
        ids=[
            "or-of-and",
            "ite-condition",
            "ite-branch",
            "not",
            "implies-lhs",
            "implies-rhs",
            "iff",
        ],
    )
    def test_fact_reaches_through_every_connective(self, wrapped, expected):
        # x = 1 folds the clashing x = 2 to false wherever it sits in
        # the sibling conjunct.
        expr = land(eq(X, 1), wrapped)
        out = simplify(expr)
        assert out is land(eq(X, 1), expected)
        assert eq(X, 2) not in set(walk(out))
        assert _equivalent(out, expr)

    def test_facts_on_several_variables_apply_together(self):
        expr = land(eq(X, 1), eq(M, 0), lor(eq(X, 2), eq(M, 1), Y))
        assert simplify(expr) is land(eq(X, 1), eq(M, 0), Y)

    def test_consistent_fact_never_folds_to_true(self):
        # The disjunct x = 1 agrees with its sibling's fact; only
        # clashes fold, so the disjunction stays as written.
        expr = land(eq(X, 1), lor(Y, eq(X, 1)))
        assert simplify(expr) is expr

    def test_equality_under_a_disjunction_is_not_a_fact(self):
        # x = 1 is only one way to satisfy the first conjunct; taking
        # it as a fact would drop x = 2, which (x=2, z, ¬y) needs.
        expr = land(lor(eq(X, 1), Z), lor(Y, eq(X, 2)))
        assert simplify(expr) is expr
        assert holds(expr, {"x": 2, "y": 0, "z": 1})

    def test_fact_keyed_results_stay_out_of_the_plain_memo(self):
        inner = lor(Y, eq(X, 2))
        assert simplify(land(eq(X, 1), inner)) is land(eq(X, 1), Y)
        # The same node without the fact keeps its disjunct.
        assert simplify(inner) is inner


class TestRebuild:
    """Rules reach under every composite node type: each case hides a
    foldable ``y ∨ ¬y`` or ``y ∧ ¬y`` below a node of that type."""

    @pytest.mark.parametrize(
        "expr, expected",
        [
            (lnot(CONTRA), TRUE),
            (land(Z, TAUT), Z),
            (lor(Z, CONTRA), Z),
            (implies(TAUT, Z), Z),
            (iff(CONTRA, Z), lnot(Z)),
            (eq(ite(TAUT, c(1), c(2)), X), eq(c(1), X)),
            (lt(X, ite(TAUT, c(1), c(2))), lt(X, c(1))),
            (le(ite(TAUT, c(1), c(2)), X), le(c(1), X)),
            (ite(TAUT, Y, Z), Y),
            (add(X, ite(TAUT, c(1), c(2))), add(X, c(1))),
            (sub(X, ite(TAUT, c(1), c(2))), sub(X, c(1))),
            (neg(ite(TAUT, X, W)), neg(X)),
            (mul(ite(TAUT, c(2), c(3)), X), mul(c(2), X)),
        ],
        ids=[
            "Not",
            "And",
            "Or",
            "Implies",
            "Iff",
            "Eq",
            "Lt",
            "Le",
            "Ite",
            "Add",
            "Sub",
            "Neg",
            "Mul",
        ],
    )
    def test_rules_reach_under_node_type(self, expr, expected):
        out = simplify(expr)
        assert out is expected
        assert _equivalent(out, expr)
        assert simplify(out) is out


class TestFixpointContract:
    def test_idempotent_by_identity(self):
        for node in _corpus():
            once = simplify(node)
            assert simplify(once) is once

    @pytest.mark.parametrize("leaf", [X, Y, TRUE, FALSE, c(3)], ids=str)
    def test_leaves_are_their_own_fixpoint(self, leaf):
        assert simplify(leaf) is leaf

    def test_intermediate_forms_share_the_fixpoint(self):
        # Rewrites through land(x = 1, y) after the fact round, then
        # re-checks that form; both map to the recorded fixpoint.
        u = Var("u_fixpoint", int_sort(0, 9))
        v = Var("v_fixpoint", BOOL)
        expr = land(eq(u, 1), lor(v, eq(u, 2)))
        session = telemetry.start("test")
        try:
            out = simplify(expr)
            counters = session.metrics.snapshot()["counters"]
        finally:
            telemetry.stop()
        assert out is land(eq(u, 1), v)
        assert counters["rewrite.fixpoint_iterations"] >= 2
        assert simplify(expr) is out
        assert simplify(out) is out


class TestRuleTelemetry:
    def test_counters_record_attempts_and_fires(self):
        # Fresh variables: the module memo has never seen these nodes.
        p = Var("p_counters", BOOL)
        q = Var("q_counters", BOOL)
        session = telemetry.start("test")
        try:
            assert simplify(land(p, q, lnot(p))) is FALSE
            counters = session.metrics.snapshot()["counters"]
        finally:
            telemetry.stop()
        # and_contradiction is attempted first (table order) but the
        # complement rule is the one that fires.
        assert counters["rewrite.rule.and_contradiction.attempts"] >= 1
        assert "rewrite.rule.and_contradiction.fires" not in counters
        assert counters["rewrite.rule.and_complement.fires"] == 1
        assert counters["rewrite.fixpoint_iterations"] >= 1

    def test_memoised_hits_skip_counting(self):
        p = Var("p_memo_hit", BOOL)
        q = Var("q_memo_hit", BOOL)
        expr = land(p, q, lnot(p))
        simplify(expr)  # warm the memo outside telemetry
        session = telemetry.start("test")
        try:
            assert simplify(expr) is FALSE
            counters = session.metrics.snapshot()["counters"]
        finally:
            telemetry.stop()
        assert "rewrite.rule.and_complement.fires" not in counters
