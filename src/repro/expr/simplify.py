"""Local simplification of expressions.

The smart constructors in :mod:`repro.expr.ast` already fold constants
as expressions are built; :func:`simplify` re-runs that folding over a
whole tree (useful after substitution) and applies the algebraic rules
that keep learned guards and extracted invariants readable.

The rules themselves are **data**: see the rule tables in
:mod:`repro.expr.rules` (``DEFAULT_RULES`` is the authoritative list of
what the default pass does, rule by rule, including the
context-threaded nested-contradiction pruning) and the matching engine
in :mod:`repro.expr.rewrite`.  :func:`simplify` runs ``DEFAULT_RULES``
on the discrimination-net engine; it is output-compatible with the
legacy pass on the golden differential workloads, plus nested
contradiction pruning.  Two more entry points sit beside it:

* :func:`legacy_simplify` -- the original hand-coded pass, kept
  callable as the reference for differential testing.
* :func:`deep_simplify` -- ``EXTENDED_RULES``: ITE lifting/merging, NNF
  pushing, comparison chaining, constant-range propagation,
  absorption/subsumption.  It changes expression *shapes* (while
  preserving semantics), so it runs only through explicit presimplify
  hooks.

Every entry point is memoised by node identity (hash-consed core) and
*idempotent*: rules are iterated to a fixpoint, the fixpoint is
recorded for every intermediate form, and ``simplify(simplify(e)) is
simplify(e)`` always holds, so repeated simplification of shared
predicates costs one dictionary lookup.
"""

from __future__ import annotations

from .ast import And, Const, Eq, Expr, FALSE, Not, Or, TRUE, Var, land, lnot, lor
from .rules import default_engine, extended_engine
from .subst import transform
from .types import EnumSort


def simplify(expr: Expr) -> Expr:
    """Simplify ``expr`` with the default rule table (see module docs)."""
    return default_engine().simplify(expr)


def deep_simplify(expr: Expr) -> Expr:
    """Simplify with the extended rule tier."""
    return extended_engine().simplify(expr)


# ---------------------------------------------------------------------------
# the legacy hand-coded pass (differential baseline)
# ---------------------------------------------------------------------------

# legacy_simplify() results, keyed by eid (identity ≡ structure for
# interned nodes, and integer keys survive spawn re-interning).
# Append-only, like the intern table itself; every entry maps its
# node's (also memoised) fixpoint.
_SIMPLIFY_MEMO: dict[int, Expr] = {}


def legacy_simplify(expr: Expr) -> Expr:
    """The pre-engine pass: rebuild through smart constructors, then
    apply the four original local rules, iterated to a fixpoint.

    Kept callable for differential testing against the rule-table
    engine; new rules go in ``expr/rules.py``, not here.
    """
    cached = _SIMPLIFY_MEMO.get(expr.eid)
    if cached is not None:
        return cached
    chain = [expr]
    visited = {expr}
    current = expr
    while True:
        cached = _SIMPLIFY_MEMO.get(current.eid)
        if cached is not None:
            current = cached
            break
        step = _rules(transform(current, lambda leaf: leaf))
        if step is current or step in visited:
            break
        chain.append(step)
        visited.add(step)
        current = step
    for seen in chain:
        _SIMPLIFY_MEMO[seen.eid] = current
    _SIMPLIFY_MEMO[current.eid] = current
    return current


def _as_var_eq_const(expr: Expr) -> tuple[Var, int] | None:
    if isinstance(expr, Eq) and isinstance(expr.lhs, Var) and isinstance(expr.rhs, Const):
        return expr.lhs, expr.rhs.value
    if isinstance(expr, Eq) and isinstance(expr.rhs, Var) and isinstance(expr.lhs, Const):
        return expr.rhs, expr.lhs.value
    return None


# contract: ignore[C007] legacy differential baseline kept verbatim; the live rules are table entries in expr/rules.py
def _rules(expr: Expr) -> Expr:
    if isinstance(expr, And):
        args = [_rules(a) for a in expr.args]
        # Contradicting equalities on the same variable.
        seen: dict[Var, int] = {}
        for arg in args:
            pair = _as_var_eq_const(arg)
            if pair is not None:
                var, value = pair
                if var in seen and seen[var] != value:
                    return FALSE
                seen[var] = value
        # Complement pair detection.  Probe structurally -- building
        # lnot(arg) per argument would intern a garbage Not node per
        # probe and grow the intern table on every pass.
        present = set(args)
        for arg in args:
            if isinstance(arg, Not) and arg.arg in present:
                return FALSE
        return land(*args)
    if isinstance(expr, Or):
        args = [_rules(a) for a in expr.args]
        present = set(args)
        for arg in args:
            if isinstance(arg, Not) and arg.arg in present:
                return TRUE
        # Enum sweep: disjunction of equalities covering every member.
        by_var: dict[Var, set[int]] = {}
        for arg in args:
            pair = _as_var_eq_const(arg)
            if pair is not None and isinstance(pair[0].sort, EnumSort):
                by_var.setdefault(pair[0], set()).add(pair[1])
        for var, values in by_var.items():
            if len(values) == var.sort.cardinality:
                return TRUE
        return lor(*args)
    if isinstance(expr, Not):
        return lnot(_rules(expr.arg))
    return expr


def is_trivially_true(expr: Expr) -> bool:
    return simplify(expr) is TRUE


def is_trivially_false(expr: Expr) -> bool:
    return simplify(expr) is FALSE
