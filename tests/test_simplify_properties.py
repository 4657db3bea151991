"""Property-based soundness of the simplifier and substitution layer.

``simplify`` and the smart constructors may rewrite expressions at will,
but never their meaning: hypothesis compares every rewrite against the
concrete evaluator on random expressions and environments.
"""

from hypothesis import given, settings, strategies as st

from repro.expr import (
    BOOL,
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
    substitute_values,
    to_primed,
    to_unprimed,
)

A = Var("a", int_sort(-4, 9))
B = Var("b", int_sort(0, 6))
P = Var("p", BOOL)
M = Var("m", enum_sort("M3", "X", "Y", "Z"))


def bool_exprs(depth: int):
    atoms = st.one_of(
        st.just(P),
        st.integers(-4, 9).map(lambda c: A > c),
        st.integers(0, 6).map(lambda c: eq(B, c)),
        st.integers(0, 2).map(lambda c: eq(M, c)),
    )
    if depth == 0:
        return atoms
    sub = bool_exprs(depth - 1)
    return st.one_of(
        atoms,
        st.tuples(sub, sub).map(lambda t: land(*t)),
        st.tuples(sub, sub).map(lambda t: lor(*t)),
        sub.map(lnot),
        st.tuples(sub, sub, sub).map(lambda t: ite(t[0], t[1], t[2])),
        st.tuples(sub, sub).map(lambda t: implies(*t)),
        sub.map(lambda a: implies(a, a)),
        st.tuples(sub, sub).map(lambda t: iff(*t)),
    )


def int_exprs(depth: int):
    """Linear integer terms over a and b, with Boolean-guarded Ite."""
    atoms = st.one_of(
        st.just(A), st.just(B), st.integers(-3, 3).map(coerce)
    )
    if depth == 0:
        return atoms
    sub_terms = int_exprs(depth - 1)
    return st.one_of(
        atoms,
        st.tuples(sub_terms, sub_terms).map(lambda t: add(*t)),
        st.tuples(sub_terms, sub_terms).map(lambda t: sub(*t)),
        sub_terms.map(neg),
        st.tuples(st.integers(-2, 2), sub_terms).map(lambda t: mul(*t)),
        st.tuples(bool_exprs(1), sub_terms, sub_terms).map(
            lambda t: ite(*t)
        ),
    )


ENVS = st.fixed_dictionaries(
    {
        "a": st.integers(-4, 9),
        "b": st.integers(0, 6),
        "p": st.integers(0, 1),
        "m": st.integers(0, 2),
    }
)


@settings(max_examples=120, deadline=None)
@given(expr=bool_exprs(3), env=ENVS)
def test_simplify_preserves_semantics(expr, env):
    assert holds(simplify(expr), env) == holds(expr, env)


@settings(max_examples=60, deadline=None)
@given(expr=bool_exprs(3), env=ENVS)
def test_simplify_is_idempotent(expr, env):
    once = simplify(expr)
    assert simplify(once) == once


@settings(max_examples=60, deadline=None)
@given(expr=bool_exprs(3))
def test_engine_simplify_idempotent_by_identity(expr):
    once = simplify(expr)
    assert simplify(once) is once


@settings(max_examples=80, deadline=None)
@given(
    expr=bool_exprs(3),
    b_fact=st.integers(0, 6),
    m_fact=st.integers(0, 2),
    env=ENVS,
)
def test_simplify_preserves_semantics_under_conjunct_facts(
    expr, b_fact, m_fact, env
):
    # Sibling x = c conjuncts become facts threaded into ``expr``.
    whole = land(eq(B, b_fact), eq(M, m_fact), expr)
    assert holds(simplify(whole), env) == holds(whole, env)


@settings(max_examples=60, deadline=None)
@given(expr=bool_exprs(3))
def test_simplify_never_adds_free_variables(expr):
    assert free_vars(simplify(expr)) <= free_vars(expr)


@settings(max_examples=80, deadline=None)
@given(
    lhs=int_exprs(2),
    rhs=int_exprs(2),
    env=ENVS,
)
def test_simplify_preserves_arithmetic_semantics(lhs, rhs, env):
    for term in (lhs, rhs):
        assert evaluate(simplify(term), env) == evaluate(term, env)
    for compare in (lt, le, eq):
        atom = compare(lhs, rhs)
        assert holds(simplify(atom), env) == holds(atom, env)


@settings(max_examples=60, deadline=None)
@given(expr=bool_exprs(2), env=ENVS)
def test_priming_roundtrip_semantics(expr, env):
    primed_env = {f"{name}'": value for name, value in env.items()}
    assert holds(to_primed(expr), primed_env) == holds(expr, env)
    assert holds(to_unprimed(to_primed(expr)), env) == holds(expr, env)


@settings(max_examples=60, deadline=None)
@given(expr=bool_exprs(2), env=ENVS)
def test_partial_substitution_preserves_semantics(expr, env):
    # Substitute a and p; evaluate the residual under the rest.
    partial = {"a": env["a"], "p": env["p"]}
    residual = substitute_values(expr, partial)
    rest = {name: value for name, value in env.items() if name not in partial}
    full_env = dict(rest)
    full_env.update(partial)  # residual may still mention them
    assert holds(residual, full_env) == holds(expr, env)
