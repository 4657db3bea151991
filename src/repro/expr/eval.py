"""Concrete evaluation of expressions under an environment.

Environments map *qualified* variable names (``x`` or ``x'``) to Python
ints (Booleans are 0/1, enum values are member indices).  The same
evaluator backs the concrete simulator in :mod:`repro.system` -- the
symbolic transition relation and the executable implementation share one
source of truth, so the model checker and the trace generator can never
disagree about the system's semantics.

:func:`evaluate` is the reference tree-walking interpreter; the hot
paths use :func:`repro.expr.compiled.compile_expr`, which flattens an
expression into one compiled Python function with identical semantics
(differentially tested).  :func:`holds` -- the Boolean entry point used
by guard evaluation during NFA runs and chart simulation -- goes
through the compiled evaluator, so repeated queries against the same
(interned) predicate pay no interpretation cost.
"""

from __future__ import annotations

from collections.abc import Mapping

from .ast import (
    Add,
    And,
    Const,
    Eq,
    Expr,
    Iff,
    Implies,
    Ite,
    Le,
    Lt,
    Mul,
    Neg,
    Not,
    Or,
    Sub,
    Var,
)

Env = Mapping[str, int]


class EvalError(KeyError):
    """Raised when a variable is missing from the environment."""


def evaluate(expr: Expr, env: Env) -> int:
    """Evaluate ``expr`` under ``env``; Booleans come back as 0/1."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.qualified_name]
        except KeyError:
            raise EvalError(
                f"variable {expr.qualified_name!r} not bound "
                f"(have: {sorted(env)})"
            ) from None
    if isinstance(expr, Not):
        return 0 if evaluate(expr.arg, env) else 1
    if isinstance(expr, And):
        for arg in expr.args:
            if not evaluate(arg, env):
                return 0
        return 1
    if isinstance(expr, Or):
        for arg in expr.args:
            if evaluate(arg, env):
                return 1
        return 0
    if isinstance(expr, Implies):
        if not evaluate(expr.lhs, env):
            return 1
        return 1 if evaluate(expr.rhs, env) else 0
    if isinstance(expr, Iff):
        return 1 if bool(evaluate(expr.lhs, env)) == bool(evaluate(expr.rhs, env)) else 0
    if isinstance(expr, Eq):
        return 1 if evaluate(expr.lhs, env) == evaluate(expr.rhs, env) else 0
    if isinstance(expr, Lt):
        return 1 if evaluate(expr.lhs, env) < evaluate(expr.rhs, env) else 0
    if isinstance(expr, Le):
        return 1 if evaluate(expr.lhs, env) <= evaluate(expr.rhs, env) else 0
    if isinstance(expr, Add):
        return sum(evaluate(arg, env) for arg in expr.args)
    if isinstance(expr, Sub):
        return evaluate(expr.lhs, env) - evaluate(expr.rhs, env)
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, env)
    if isinstance(expr, Mul):
        return evaluate(expr.lhs, env) * evaluate(expr.rhs, env)
    if isinstance(expr, Ite):
        if evaluate(expr.cond, env):
            return evaluate(expr.then, env)
        return evaluate(expr.other, env)
    raise TypeError(f"cannot evaluate node {type(expr).__name__}")


# Bound lazily to avoid a module-level import cycle (compiled.py imports
# EvalError from here).
_compile_expr = None


def holds(expr: Expr, env: Env) -> bool:
    """True iff the Boolean expression ``expr`` is satisfied by ``env``."""
    global _compile_expr
    if not expr.sort.is_bool():
        raise TypeError(f"holds() needs a Boolean expression, got {expr.sort}")
    if _compile_expr is None:
        from .compiled import compile_expr

        _compile_expr = compile_expr
    return bool(_compile_expr(expr)(env))
