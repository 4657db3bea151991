"""Tests for the BDD manager: operations, quantification, counting."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager


@pytest.fixture
def mgr():
    return BddManager()


class TestBasics:
    def test_terminals(self, mgr):
        assert mgr.TRUE == 1 and mgr.FALSE == 0

    def test_var_hash_consing(self, mgr):
        assert mgr.var(3) == mgr.var(3)
        assert mgr.var(3) != mgr.var(4)

    def test_negative_index_rejected(self, mgr):
        with pytest.raises(ValueError):
            mgr.var(-1)

    def test_not_involution(self, mgr):
        a = mgr.var(0)
        assert mgr.apply_not(mgr.apply_not(a)) == a

    def test_and_or_units(self, mgr):
        a = mgr.var(0)
        assert mgr.apply_and(a, mgr.TRUE) == a
        assert mgr.apply_and(a, mgr.FALSE) == mgr.FALSE
        assert mgr.apply_or(a, mgr.FALSE) == a
        assert mgr.apply_or(a, mgr.TRUE) == mgr.TRUE

    def test_canonicity(self, mgr):
        """Structurally different constructions of the same function
        yield the same node (ROBDD canonicity)."""
        a, b = mgr.var(0), mgr.var(1)
        de_morgan_left = mgr.apply_not(mgr.apply_and(a, b))
        de_morgan_right = mgr.apply_or(mgr.apply_not(a), mgr.apply_not(b))
        assert de_morgan_left == de_morgan_right

    def test_xor_xnor(self, mgr):
        a, b = mgr.var(0), mgr.var(1)
        assert mgr.apply_xnor(a, b) == mgr.apply_not(mgr.apply_xor(a, b))
        assert mgr.apply_xor(a, a) == mgr.FALSE

    def test_ite_shortcuts(self, mgr):
        a, b = mgr.var(0), mgr.var(1)
        assert mgr.ite(mgr.TRUE, a, b) == a
        assert mgr.ite(mgr.FALSE, a, b) == b
        assert mgr.ite(a, mgr.TRUE, mgr.FALSE) == a

    def test_conjoin_disjoin(self, mgr):
        vs = [mgr.var(i) for i in range(4)]
        all_true = mgr.conjoin(vs)
        assert mgr.evaluate(all_true, lambda i: True)
        assert not mgr.evaluate(all_true, lambda i: i != 2)
        any_true = mgr.disjoin(vs)
        assert mgr.evaluate(any_true, lambda i: i == 3)
        assert not mgr.evaluate(any_true, lambda i: False)


class TestSemantics:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_against_truth_table(self, data):
        """Random 3-variable formulas evaluate like Python booleans."""
        mgr = BddManager()

        def build(depth):
            if depth == 0:
                index = data.draw(st.integers(0, 2))
                return mgr.var(index), lambda env, i=index: env[i]
            op = data.draw(st.sampled_from(["and", "or", "not", "xor"]))
            lhs, lhs_fn = build(depth - 1)
            if op == "not":
                return mgr.apply_not(lhs), lambda env: not lhs_fn(env)
            rhs, rhs_fn = build(depth - 1)
            if op == "and":
                return mgr.apply_and(lhs, rhs), lambda env: lhs_fn(env) and rhs_fn(env)
            if op == "or":
                return mgr.apply_or(lhs, rhs), lambda env: lhs_fn(env) or rhs_fn(env)
            return mgr.apply_xor(lhs, rhs), lambda env: lhs_fn(env) != rhs_fn(env)

        node, fn = build(3)
        for env in itertools.product([False, True], repeat=3):
            assert mgr.evaluate(node, lambda i: env[i]) == fn(env)

    def test_restrict(self):
        mgr = BddManager()
        a, b = mgr.var(0), mgr.var(1)
        f = mgr.apply_and(a, b)
        assert mgr.restrict(f, 0, True) == b
        assert mgr.restrict(f, 0, False) == mgr.FALSE

    def test_exists(self):
        mgr = BddManager()
        a, b = mgr.var(0), mgr.var(1)
        f = mgr.apply_and(a, b)
        assert mgr.exists(f, [0]) == b
        assert mgr.exists(f, [0, 1]) == mgr.TRUE
        assert mgr.exists(mgr.FALSE, [0]) == mgr.FALSE

    def test_exists_is_disjunction_of_restrictions(self):
        mgr = BddManager()
        a, b, c = mgr.var(0), mgr.var(1), mgr.var(2)
        f = mgr.apply_or(mgr.apply_and(a, b), mgr.apply_and(mgr.apply_not(a), c))
        expected = mgr.apply_or(
            mgr.restrict(f, 1, False), mgr.restrict(f, 1, True)
        )
        assert mgr.exists(f, [1]) == expected

    def test_and_exists(self):
        mgr = BddManager()
        a, b = mgr.var(0), mgr.var(1)
        # ∃a. a ∧ (a -> b) == b
        assert mgr.and_exists(a, mgr.apply_implies(a, b), [0]) == b

    def test_rename(self):
        mgr = BddManager()
        f = mgr.apply_and(mgr.var(1), mgr.var(3))
        renamed = mgr.rename(f, {1: 0, 3: 2})
        assert renamed == mgr.apply_and(mgr.var(0), mgr.var(2))

    def test_rename_order_violating_mapping(self):
        """Mappings that reorder or merge the support are rejected."""
        mgr = BddManager()
        f = mgr.apply_and(mgr.var(0), mgr.var(1))
        with pytest.raises(ValueError):
            mgr.rename(f, {0: 5, 1: 2})
        g = mgr.apply_or(mgr.var(0), mgr.apply_not(mgr.var(2)))
        with pytest.raises(ValueError):
            mgr.rename(g, {0: 2, 2: 0})
        with pytest.raises(ValueError):
            mgr.rename(f, {0: 1})  # merges v0 into v1
        # Only the support counts: v1 -> v0 is fine when v0 is absent.
        assert mgr.rename(mgr.var(1), {1: 0, 0: 7}) == mgr.var(0)


def _build_random(mgr, data, num_vars, depth):
    """Random formula as (BDD node, python oracle function)."""
    if depth == 0:
        index = data.draw(st.integers(0, num_vars - 1))
        return mgr.var(index), lambda env, i=index: env[i]
    op = data.draw(st.sampled_from(["and", "or", "not", "xor", "ite"]))
    lhs, lhs_fn = _build_random(mgr, data, num_vars, depth - 1)
    if op == "not":
        return mgr.apply_not(lhs), lambda env: not lhs_fn(env)
    rhs, rhs_fn = _build_random(mgr, data, num_vars, depth - 1)
    if op == "and":
        return mgr.apply_and(lhs, rhs), lambda env: lhs_fn(env) and rhs_fn(env)
    if op == "or":
        return mgr.apply_or(lhs, rhs), lambda env: lhs_fn(env) or rhs_fn(env)
    if op == "xor":
        return mgr.apply_xor(lhs, rhs), lambda env: lhs_fn(env) != rhs_fn(env)
    other, other_fn = _build_random(mgr, data, num_vars, depth - 1)
    return (
        mgr.ite(lhs, rhs, other),
        lambda env: rhs_fn(env) if lhs_fn(env) else other_fn(env),
    )


class TestPropertyOracle:
    """Every operation against a truth-table oracle."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_all_ops_against_truth_table(self, data):
        num_vars = data.draw(st.integers(3, 10))
        mgr = BddManager()
        f, f_fn = _build_random(mgr, data, num_vars, 3)
        g, g_fn = _build_random(mgr, data, num_vars, 3)
        h, h_fn = _build_random(mgr, data, num_vars, 2)
        envs = list(itertools.product([False, True], repeat=num_vars))

        def bdd_table(node):
            return [mgr.evaluate(node, lambda i, e=env: e[i]) for env in envs]

        assert bdd_table(mgr.ite(f, g, h)) == [
            g_fn(e) if f_fn(e) else h_fn(e) for e in envs
        ]
        var = data.draw(st.integers(0, num_vars - 1))
        value = data.draw(st.booleans())
        assert bdd_table(mgr.restrict(f, var, value)) == [
            f_fn(e[:var] + (value,) + e[var + 1 :]) for e in envs
        ]
        subset = data.draw(
            st.frozensets(st.integers(0, num_vars - 1), max_size=3)
        )

        def exists_fn(env):
            choices = itertools.product(
                *([False, True] if i in subset else [env[i]] for i in range(num_vars))
            )
            return any(f_fn(tuple(c)) for c in choices)

        assert bdd_table(mgr.exists(f, subset)) == [exists_fn(e) for e in envs]
        assert mgr.and_exists(f, g, subset) == mgr.exists(
            mgr.apply_and(f, g), subset
        )
        # A strictly increasing injection into a gapped range, like the
        # image step's next->current rename: order-preserving by design.
        targets = sorted(
            data.draw(
                st.lists(
                    st.integers(0, 2 * num_vars - 1),
                    min_size=num_vars,
                    max_size=num_vars,
                    unique=True,
                )
            )
        )
        mapping = dict(enumerate(targets))
        inverse = {new: old for old, new in mapping.items()}
        renamed = mgr.rename(f, mapping)
        assert mgr.support(renamed) == {mapping[v] for v in mgr.support(f)}
        assert [
            mgr.evaluate(renamed, lambda j, e=env: e[inverse[j]]) for env in envs
        ] == [f_fn(e) for e in envs]
        assert mgr.rename(renamed, inverse) == f
        assert mgr.count_models(f, num_vars) == sum(
            1 for e in envs if f_fn(e)
        )


class TestCacheAccounting:
    def test_restrict_is_memoised_on_shared_dags(self, mgr):
        # Parity has maximal subgraph sharing: an unmemoised restrict
        # re-walks every root-to-node path (2^31 here); the memoised one
        # is linear and returns instantly.
        parity = mgr.FALSE
        for i in range(32):
            parity = mgr.apply_xor(parity, mgr.var(i))
        restricted = mgr.restrict(parity, 0, True)
        odd = mgr.FALSE
        for i in range(1, 32):
            odd = mgr.apply_xor(odd, mgr.var(i))
        assert restricted == mgr.apply_not(odd)

    def test_clear_caches_drops_and_stays_correct(self, mgr):
        a, b = mgr.var(0), mgr.var(1)
        f = mgr.apply_and(a, b)
        mgr.exists(f, [0])
        mgr.restrict(f, 0, True)
        assert mgr.cache_entries > 0
        dropped = mgr.clear_caches()
        assert dropped > 0
        assert mgr.cache_entries == 0
        assert mgr.exists(f, [0]) == b
        assert mgr.restrict(f, 0, True) == b

    def test_peak_nodes_tracks_allocation(self, mgr):
        start = mgr.peak_nodes
        mgr.apply_and(mgr.var(0), mgr.var(1))
        assert mgr.peak_nodes > start
        assert mgr.peak_nodes == mgr.num_nodes


class TestSupport:
    def test_support(self, mgr):
        f = mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(2)), mgr.var(5))
        assert mgr.support(f) == {0, 2, 5}
        assert mgr.support(mgr.TRUE) == frozenset()

    def test_count_models_rejects_out_of_range_support(self, mgr):
        f = mgr.var(4)
        with pytest.raises(ValueError):
            mgr.count_models(f, 3)


class TestCounting:
    def test_count_models(self):
        mgr = BddManager()
        a, b = mgr.var(0), mgr.var(1)
        assert mgr.count_models(mgr.TRUE, 2) == 4
        assert mgr.count_models(mgr.FALSE, 2) == 0
        assert mgr.count_models(a, 2) == 2
        assert mgr.count_models(mgr.apply_and(a, b), 2) == 1
        assert mgr.count_models(mgr.apply_or(a, b), 2) == 3
        assert mgr.count_models(mgr.apply_xor(a, b), 2) == 2

    def test_count_with_gaps(self):
        mgr = BddManager()
        f = mgr.var(2)  # vars 0,1 free
        assert mgr.count_models(f, 3) == 4

    def test_one_model(self):
        mgr = BddManager()
        a, b = mgr.var(0), mgr.var(1)
        f = mgr.apply_and(a, mgr.apply_not(b))
        model = mgr.one_model(f)
        assert model == {0: True, 1: False}
        assert mgr.one_model(mgr.FALSE) is None

    def test_size(self):
        mgr = BddManager()
        f = mgr.apply_and(mgr.var(0), mgr.var(1))
        assert mgr.size(f) == 2
        assert mgr.size(mgr.TRUE) == 0
