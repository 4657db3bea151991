"""The rewrite-rule engine: patterns, the discrimination net, context
threading, the fixpoint contract and rule-level telemetry.

Semantic soundness over random expressions lives in
``test_simplify_properties.py``; this file pins the engine mechanics:
net candidates equal sequential matching, context facts prune nested
contradictions without circular support, and results are interned
fixpoints (``simplify(simplify(e)) is simplify(e)``).
"""

import pytest

from repro.core import telemetry
from repro.expr import (
    BOOL,
    DEFAULT_RULES,
    EXTENDED_RULES,
    And,
    Const,
    DiscriminationNet,
    FALSE,
    Ite,
    Not,
    Or,
    PAc,
    PLit,
    PNode,
    PVar,
    RewriteEngine,
    Rule,
    TRUE,
    Var,
    coerce,
    deep_simplify,
    default_engine,
    enum_sort,
    eq,
    extended_engine,
    holds,
    implies,
    int_sort,
    ite,
    land,
    le,
    legacy_simplify,
    lnot,
    lor,
    lt,
    make_const_comparison_rules,
    simplify,
)
from repro.expr.rewrite import (
    flatten_term,
    match_pattern,
    p_eq,
    p_not,
    pattern_height,
)

X = Var("x", int_sort(0, 9))
Y = Var("y", BOOL)
Z = Var("z", BOOL)
M = Var("m", enum_sort("Mode", "A", "B", "C"))


def c(value):
    return coerce(value)


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


class TestPatterns:
    def test_pvar_klass_and_kind_constraints(self):
        assert PVar("a").admits(X)
        assert PVar("a", klass=Var).admits(X)
        assert not PVar("a", klass=Not).admits(X)
        assert PVar("a", kind="int").admits(X)
        assert not PVar("a", kind="bool").admits(X)
        assert PVar("a", kind="numeric").admits(M)
        assert not PVar("a", kind="numeric").admits(Y)
        assert PVar("a", kind="enum").admits(M)

    def test_pvar_const_and_pred(self):
        assert PVar("a", const=True).admits(c(3))
        assert not PVar("a", const=True).admits(X)
        odd = PVar("a", const=True, pred=lambda n: n.value % 2 == 1)
        assert odd.admits(c(3))
        assert not odd.admits(c(4))

    def test_pvar_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PVar("a", kind="float")

    def test_nonlinear_pattern_requires_identity(self):
        from repro.expr.rewrite import p_implies

        p = p_implies(PVar("a"), PVar("a"))
        same = land(Y, Z)
        assert match_pattern(p, implies(same, same), {})
        assert not match_pattern(p, implies(same, Y), {})

    def test_plit_must_be_leaf(self):
        PLit(c(3))
        with pytest.raises(ValueError):
            PLit(lnot(Y))

    def test_pnode_arity_checked(self):
        with pytest.raises(ValueError):
            PNode(Not, (PVar("a"), PVar("b")))
        with pytest.raises(ValueError):
            PNode(Ite, (PVar("a"),))
        with pytest.raises(ValueError):
            PNode(And, (PVar("a"), PVar("b")))  # variadic: use PAc

    def test_pac_root_restricted(self):
        PAc(And)
        PAc(Or)
        with pytest.raises(ValueError):
            PAc(Not)

    def test_pattern_height(self):
        assert pattern_height(PVar("a")) == 1
        assert pattern_height(p_not(PVar("a"))) == 2
        assert pattern_height(p_not(p_eq(PVar("a"), PLit(c(3))))) == 3


# ---------------------------------------------------------------------------
# the discrimination net
# ---------------------------------------------------------------------------


def _corpus():
    """Nodes spanning every shape the rule tables dispatch on."""
    return [
        land(eq(X, 1), eq(X, 2)),
        land(Y, lnot(Y)),
        lor(Y, lnot(Y)),
        lor(eq(M, 0), eq(M, 1), eq(M, 2)),
        implies(Y, Y),
        implies(Y, Z),
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
        land(lt(X, 5), lt(X, 3)),
        lor(lt(X, 5), lt(X, 3)),
        land(Y, lor(Y, Z)),
        X,
        Y,
        c(3),
    ]


class TestDiscriminationNet:
    def test_rejects_bare_variable_roots(self):
        rule = Rule("bad", PVar("a"), lambda m: None)
        with pytest.raises(ValueError):
            DiscriminationNet([rule])

    def test_candidates_preserve_table_order(self):
        net = DiscriminationNet(EXTENDED_RULES)
        for node in _corpus():
            indices = net.candidates(node)
            assert indices == sorted(indices)

    def test_candidates_cover_every_sequential_match(self):
        """Every rule that matches a node must be among the net's
        candidates (the net may over-approximate, never drop)."""
        net = DiscriminationNet(EXTENDED_RULES)
        for node in _corpus():
            candidate_set = set(net.candidates(node))
            for index, rule in enumerate(EXTENDED_RULES):
                bindings = {}
                if isinstance(rule.pattern, PAc):
                    matches = type(node) is rule.pattern.klass
                else:
                    matches = match_pattern(rule.pattern, node, bindings)
                if matches:
                    assert index in candidate_set, (rule.name, node)

    def test_net_and_sequential_pick_same_first_match(self):
        engine = RewriteEngine(EXTENDED_RULES, context=None)
        for node in _corpus():
            fast = engine.find_match(node)
            slow = engine.find_match(node, sequential=True)
            if fast is None:
                assert slow is None
            else:
                assert slow is not None
                assert fast[0] is slow[0]
                assert fast[1] is slow[1]

    def test_flattening_is_depth_capped_and_memoised(self):
        deep = land(Y, lor(Z, land(Y, lnot(Z))))
        flat2 = flatten_term(deep, 2)
        assert flatten_term(deep, 2) is flat2  # memo hit
        # Below the cap, subterms collapse to the opaque symbol: total
        # length is 1 (root) + one entry per immediate child.
        assert len(flat2) == 1 + len(deep.args)

    def test_const_anchored_rules_discriminate(self):
        """A PLit edge keys on the exact interned constant: only the
        matching constant's rule comes back as a candidate."""
        rules = make_const_comparison_rules(range(50))
        net = DiscriminationNet(rules)
        probe = lt(X, Const(7, int_sort(7, 7)))
        names = {rules[i].name for i in net.candidates(probe)}
        assert names == {"lt_const_7"}


# ---------------------------------------------------------------------------
# the default tier (legacy rules as table entries)
# ---------------------------------------------------------------------------


class TestDefaultTier:
    def test_and_contradiction(self):
        assert simplify(land(eq(X, 1), Y, eq(X, 2))) is FALSE

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
        # x = 1 ∧ (y ∨ x = 2): the legacy pass cannot see the
        # contradiction through the Or; the context environment can.
        expr = land(eq(X, 1), lor(Y, eq(X, 2)))
        assert simplify(expr) is land(eq(X, 1), Y)
        assert legacy_simplify(expr) is expr

    def test_mutual_support_not_eliminated(self):
        # x = 3 ∧ 3 = x: each conjunct entails the other; folding both
        # to true would be unsound. The at-conjunct-root guard keeps
        # entailment folds off immediate conjuncts.
        expr = land(eq(X, c(3)), eq(c(3), X))
        out = deep_simplify(expr)
        assert holds(out, {"x": 3})
        assert not holds(out, {"x": 4})


# ---------------------------------------------------------------------------
# the extended tier
# ---------------------------------------------------------------------------


class TestExtendedTier:
    def test_comparison_chaining_and(self):
        assert deep_simplify(land(lt(X, 5), lt(X, 3))) is lt(X, c(3))

    def test_comparison_chaining_or(self):
        assert deep_simplify(lor(lt(X, 5), lt(X, 3))) is lt(X, c(5))

    def test_chain_conflict_folds_false(self):
        assert deep_simplify(land(lt(X, 3), le(c(5), X))) is FALSE

    def test_chain_coverage_folds_true(self):
        assert deep_simplify(lor(lt(X, 5), le(c(5), X))) is TRUE

    def test_nnf_pushes_negations(self):
        out = deep_simplify(lnot(land(Y, lt(X, 3))))
        assert out is lor(lnot(Y), le(c(3), X))

    def test_absorption(self):
        assert deep_simplify(land(Y, lor(Y, Z))) is Y
        assert deep_simplify(lor(Y, land(Y, Z))) is Y

    def test_or_subsumption(self):
        wide = lor(Y, Z, eq(X, 1))
        assert deep_simplify(land(lor(Y, Z), wide)) is lor(Y, Z)

    def test_ite_bool_branch(self):
        assert deep_simplify(ite(Y, TRUE, Z)) is lor(Y, Z)
        assert deep_simplify(ite(Y, Z, FALSE)) is land(Y, Z)

    def test_ite_negated_cond(self):
        assert deep_simplify(ite(lnot(Y), Z, Y)) is deep_simplify(
            ite(Y, Y, Z)
        )

    def test_ite_branch_merge(self):
        inner = ite(Y, eq(X, 1), eq(X, 2))
        assert deep_simplify(ite(Y, inner, Z)) is deep_simplify(
            ite(Y, eq(X, 1), Z)
        )

    def test_eq_ite_lift(self):
        out = deep_simplify(eq(ite(Y, c(1), c(2)), c(1)))
        assert out is Y

    def test_context_free_interval_folds(self):
        assert deep_simplify(lt(X, c(100))) is TRUE  # x in [0, 9]
        assert deep_simplify(lt(X, c(0))) is FALSE

    def test_sound_on_entailed_conjunct_pair(self):
        # x < 5 ∧ x ≤ 4 are mutually entailing; the result must keep
        # the constraint (chaining keeps one bound), not drop both.
        out = deep_simplify(land(lt(X, 5), le(X, 4)))
        assert holds(out, {"x": 4})
        assert not holds(out, {"x": 5})


# ---------------------------------------------------------------------------
# fixpoint + memo contract
# ---------------------------------------------------------------------------


class TestFixpointContract:
    def test_idempotent_by_identity(self):
        for node in _corpus():
            once = simplify(node)
            assert simplify(once) is once
            deep = deep_simplify(node)
            assert deep_simplify(deep) is deep

    def test_intermediate_forms_share_the_fixpoint(self):
        engine = RewriteEngine(EXTENDED_RULES, context=None)
        expr = lnot(lor(Y, Z))  # rewrites through land(¬y, ¬z)
        out = engine.simplify(expr)
        assert engine.simplify(expr) is out
        assert engine.simplify(out) is out

    def test_memo_grows_and_clears(self):
        engine = RewriteEngine(DEFAULT_RULES, context="eq")
        assert engine.memo_size() == 0
        engine.simplify(land(eq(X, 1), eq(X, 2)))
        assert engine.memo_size() > 0
        engine.clear_memo()
        assert engine.memo_size() == 0

    def test_shared_engines_are_singletons(self):
        assert default_engine() is default_engine()
        assert extended_engine() is extended_engine()
        assert default_engine() is not extended_engine()


# ---------------------------------------------------------------------------
# rule-level telemetry
# ---------------------------------------------------------------------------


class TestRuleTelemetry:
    def test_counters_record_attempts_and_fires(self):
        engine = RewriteEngine(DEFAULT_RULES, context="eq")
        session = telemetry.start("test")
        try:
            assert engine.simplify(land(Y, Z, lnot(Y))) is FALSE
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
        engine = RewriteEngine(DEFAULT_RULES, context="eq")
        expr = land(Y, Z, lnot(Y))
        engine.simplify(expr)  # warm the memo outside telemetry
        session = telemetry.start("test")
        try:
            assert engine.simplify(expr) is FALSE
            counters = session.metrics.snapshot()["counters"]
        finally:
            telemetry.stop()
        assert "rewrite.rule.and_complement.fires" not in counters


# ---------------------------------------------------------------------------
# rule families
# ---------------------------------------------------------------------------


class TestConstComparisonFamily:
    def test_four_rules_per_value(self):
        rules = make_const_comparison_rules([10, 20])
        assert [r.name for r in rules] == [
            "lt_const_10", "le_const_10", "gt_const_10", "ge_const_10",
            "lt_const_20", "le_const_20", "gt_const_20", "ge_const_20",
        ]

    def test_family_rules_fold_against_sorts(self):
        rules = make_const_comparison_rules([100])
        engine = RewriteEngine(list(DEFAULT_RULES) + rules, context="eq")
        hundred = Const(100, int_sort(100, 100))
        assert engine.simplify(lt(X, hundred)) is TRUE  # x in [0, 9]
        assert engine.simplify(le(hundred, X)) is FALSE
