"""Property-based soundness of the simplifier and substitution layer.

``simplify`` and the smart constructors may rewrite expressions at will,
but never their meaning: hypothesis compares every rewrite against the
concrete evaluator on random expressions and environments.
"""

from hypothesis import given, settings, strategies as st

from repro.expr import (
    BOOL,
    Var,
    compile_expr,
    deep_simplify,
    enum_sort,
    eq,
    holds,
    int_sort,
    ite,
    land,
    legacy_simplify,
    lnot,
    lor,
    simplify,
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


@settings(max_examples=120, deadline=None)
@given(expr=bool_exprs(3), env=ENVS)
def test_engine_matches_legacy_semantically(expr, env):
    """The table-driven engine and the legacy pass agree as functions
    (checked through the compiled evaluator, the hot-path consumer)."""
    engine_fn = compile_expr(simplify(expr))
    legacy_fn = compile_expr(legacy_simplify(expr))
    original = compile_expr(expr)(env)
    assert bool(engine_fn(env)) == bool(legacy_fn(env)) == bool(original)


@settings(max_examples=120, deadline=None)
@given(expr=bool_exprs(3), env=ENVS)
def test_deep_simplify_preserves_semantics(expr, env):
    """The extended rule set (bounds context, chaining, NNF, absorption)
    is a strictly stronger but still sound simplifier."""
    assert holds(deep_simplify(expr), env) == holds(expr, env)


@settings(max_examples=60, deadline=None)
@given(expr=bool_exprs(3))
def test_engine_simplify_idempotent_by_identity(expr):
    once = simplify(expr)
    assert simplify(once) is once


@settings(max_examples=60, deadline=None)
@given(expr=bool_exprs(3))
def test_deep_simplify_idempotent_by_identity(expr):
    once = deep_simplify(expr)
    assert deep_simplify(once) is once


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
