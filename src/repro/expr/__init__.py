"""Typed expression IR: the lingua franca of the reproduction.

Chart guards, transition relations ``R(X, X')``, learned edge predicates
and model-checking queries are all values of this little language.

The IR is **hash-consed**: constructors intern every node, equality and
hashing are identity-based O(1) operations, and hot-path evaluation goes
through :func:`compile_expr` (see ``docs/expr_core.md``).
"""

from .ast import (
    Add,
    And,
    Const,
    Eq,
    Expr,
    FALSE,
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
    TRUE,
    Var,
    add,
    bool_const,
    children,
    coerce,
    enum_const,
    eq,
    free_vars,
    ge,
    gt,
    has_primed_vars,
    iff,
    implies,
    int_constants,
    intern_table_size,
    interval,
    ite,
    land,
    le,
    lnot,
    lor,
    lt,
    maximum,
    minimum,
    mul,
    ne,
    neg,
    sub,
    walk,
    walk_unique,
)
from .eval import Env, EvalError, evaluate, holds
from .compiled import compile_expr, compiled_size
from .printer import guard_str, to_str
from .sexpr import SexprError
from .sexpr import dumps as sexpr_dumps
from .sexpr import loads as sexpr_loads
from .simplify import simplify
from .subst import (
    rename_step,
    substitute,
    substitute_values,
    to_primed,
    to_unprimed,
    transform,
)
from .types import (
    BOOL,
    BoolSort,
    EnumSort,
    IntSort,
    Sort,
    enum_sort,
    int_sort,
    sort_values,
)

__all__ = [
    "Add", "And", "BOOL", "BoolSort", "Const", "Env", "EnumSort", "Eq",
    "EvalError", "Expr", "FALSE", "Iff", "Implies", "IntSort", "Ite", "Le",
    "Lt", "Mul", "Neg", "Not", "Or", "Sort", "Sub", "TRUE", "Var",
    "add", "bool_const", "children", "coerce", "compile_expr",
    "compiled_size", "enum_const", "enum_sort", "eq", "evaluate",
    "free_vars", "ge", "gt", "guard_str", "has_primed_vars", "holds",
    "iff", "implies", "int_constants", "int_sort", "intern_table_size",
    "interval", "ite", "land", "le", "lnot", "lor", "lt", "maximum",
    "minimum", "mul", "ne", "neg", "rename_step", "simplify",
    "sort_values", "sub", "substitute", "substitute_values", "to_primed",
    "to_str", "to_unprimed", "transform", "walk", "walk_unique",
]
