"""Compiled evaluation: expressions flattened to Python code objects.

:func:`compile_expr` turns an expression into a plain Python function
``fn(env) -> int`` with the same semantics as
:func:`repro.expr.eval.evaluate` but none of its per-node interpretation
cost: the expression DAG is code-generated into a single Python
expression (shared subterms hoisted into local temporaries, variables
read straight out of the environment mapping) and compiled once.  The
result is memoised by node identity -- hash-consing guarantees each
distinct predicate is compiled exactly once per process -- which is what
makes compiled evaluation profitable for the hot consumers: the concrete
simulator (:meth:`repro.system.SymbolicSystem.step`), trace generation,
the explicit-state engine's BFS, guard evaluation during NFA runs,
predicate synthesis and counterexample splicing.

Semantics notes
---------------

* Results mirror ``evaluate`` exactly on total environments: Booleans
  come back as 0/1, integer arithmetic is unbounded, missing variables
  raise :class:`~repro.expr.eval.EvalError`.
* And/Or/Ite/Implies short-circuit like the interpreter.  The one
  intentional divergence: *hoisted* subterms -- those shared between
  several parents, plus very large single-use subterms lifted to keep
  the generated source within the parser's comfort zone -- are
  evaluated eagerly, so on a partial environment a compiled function
  may raise ``EvalError`` for a variable the interpreter's
  short-circuiting would have skipped.  All shipped callers evaluate
  over total environments (observations bind every observable).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

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
    children,
    walk_unique,
)
from .eval import EvalError

Env = Mapping[str, int]

# Compiled functions, keyed by eid (append-only, like the intern table:
# each distinct expression is compiled at most once; the int key cannot
# pin node objects or go stale across spawn re-interning).
_COMPILED: dict[int, Callable[[Env], int]] = {}

# Hoist subterms whose rendered source exceeds this many characters even
# when used once: keeps generated expressions within CPython's parser
# comfort zone for pathologically deep trees.
_HOIST_LENGTH = 2000


def _missing_var(exc: KeyError, env: Env) -> EvalError:
    (name,) = exc.args
    return EvalError(
        f"variable {name!r} not bound (have: {sorted(env)})"
    )


def _count_parents(roots: tuple[Expr, ...]) -> dict[Expr, int]:
    refs: dict[Expr, int] = {}
    for root in roots:
        refs[root] = refs.get(root, 0) + 1
    seen: set[Expr] = set()
    for root in roots:
        for node in walk_unique(root):
            if node in seen:
                continue
            seen.add(node)
            for child in children(node):
                refs[child] = refs.get(child, 0) + 1
    return refs


def _generate(roots: Expr | tuple[Expr, ...]) -> str:
    """Source of a module defining ``_fn(E)`` evaluating ``roots``: one
    value for a single expression, the tuple of their values for a tuple
    of them (a subterm shared between roots is evaluated once)."""
    many = isinstance(roots, tuple)
    tops = roots if many else (roots,)
    refs = _count_parents(tops)
    lines: list[str] = []
    names: dict[Expr, str] = {}

    def emit(node: Expr) -> str:
        name = names.get(node)
        if name is not None:
            return name
        text = _render(node, emit)
        if refs[node] > 1 or len(text) > _HOIST_LENGTH:
            name = f"_t{len(names)}"
            lines.append(f"{name} = {text}")
            names[node] = name
            return name
        return text

    results = [emit(root) for root in tops]
    result = "(" + "".join(f"{text}, " for text in results) + ")" if many else results[0]
    body = ["def _fn(E):", "    try:"]
    body.extend(f"        {line}" for line in lines)
    body.append(f"        return {result}")
    body.append("    except KeyError as exc:")
    body.append("        raise _missing_var(exc, E) from None")
    return "\n".join(body) + "\n"


def _render(node: Expr, emit: Callable[[Expr], str]) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"E[{node.qualified_name!r}]"
    if isinstance(node, Not):
        return f"(0 if {emit(node.arg)} else 1)"
    # Empty n-ary nodes are unreachable through the smart constructors
    # but constructible raw; mirror evaluate()'s neutral elements.
    if isinstance(node, And):
        if not node.args:
            return "1"
        inner = " and ".join(emit(a) for a in node.args)
        return f"(1 if {inner} else 0)"
    if isinstance(node, Or):
        if not node.args:
            return "0"
        inner = " or ".join(emit(a) for a in node.args)
        return f"(1 if {inner} else 0)"
    if isinstance(node, Implies):
        return f"((1 if {emit(node.rhs)} else 0) if {emit(node.lhs)} else 1)"
    if isinstance(node, Iff):
        return f"(1 if bool({emit(node.lhs)}) == bool({emit(node.rhs)}) else 0)"
    if isinstance(node, Eq):
        return f"(1 if {emit(node.lhs)} == {emit(node.rhs)} else 0)"
    if isinstance(node, Lt):
        return f"(1 if {emit(node.lhs)} < {emit(node.rhs)} else 0)"
    if isinstance(node, Le):
        return f"(1 if {emit(node.lhs)} <= {emit(node.rhs)} else 0)"
    if isinstance(node, Add):
        if not node.args:
            return "0"
        return "(" + " + ".join(emit(a) for a in node.args) + ")"
    if isinstance(node, Sub):
        return f"({emit(node.lhs)} - {emit(node.rhs)})"
    if isinstance(node, Neg):
        return f"(-{emit(node.arg)})"
    if isinstance(node, Mul):
        return f"({emit(node.lhs)} * {emit(node.rhs)})"
    if isinstance(node, Ite):
        return f"({emit(node.then)} if {emit(node.cond)} else {emit(node.other)})"
    raise TypeError(f"cannot compile node {type(node).__name__}")


def _compile(roots: Expr | tuple[Expr, ...], label: str) -> Callable:
    namespace: dict[str, object] = {"_missing_var": _missing_var}
    exec(compile(_generate(roots), label, "exec"), namespace)
    return namespace["_fn"]  # type: ignore[return-value]


def compile_expr(expr: Expr) -> Callable[[Env], int]:
    """Compile ``expr`` once into a fast ``fn(env) -> int`` (memoised)."""
    fn = _COMPILED.get(expr.eid)
    if fn is None:
        fn = _COMPILED[expr.eid] = _compile(expr, f"<expr-eid-{expr.eid}>")
    return fn


def compile_tuple(
    roots: tuple[Expr, ...], label: str
) -> Callable[[Env], tuple[int, ...]]:
    """Compile ``roots`` into one ``fn(env) -> tuple`` of their values.

    A subterm shared between roots is hoisted once, so it is evaluated
    once per call however many roots contain it.  Not memoised: the
    caller keeps the function (a system keeps its stepping kernel).
    """
    return _compile(roots, label)


def compiled_size() -> int:
    """Number of expressions compiled so far (introspection/benchmarks)."""
    return len(_COMPILED)


def generated_source(expr: Expr) -> str:
    """The Python source :func:`compile_expr` would execute for ``expr``
    (introspection/benchmarks: its length tracks evaluator size)."""
    return _generate(expr)
