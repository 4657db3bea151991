"""Sort inference and well-formedness checking over the hash-consed DAG.

The smart constructors in :mod:`repro.expr.ast` enforce sort discipline
*at construction time* for the paths they cover, but nothing stops a
user-authored system (or a raw node constructor, or a future
deserializer) from assembling a tree whose stored sorts disagree with
its structure — and such a tree only fails deep inside the Tseitin
encoder or as a wrong-width bitvector model.  :class:`SortChecker`
re-derives every node's expected sort bottom-up and reports each
disagreement as a structured :class:`~repro.analysis.diagnostics.
Diagnostic` instead.

The walk is **eid-memoised**: every distinct DAG node is checked once
per checker instance (the hash-consed core guarantees ``eid`` *is* the
structural identity), so checking a whole system is linear in the DAG
even when the tree unfolding is exponential.  Scope checking
(undeclared variables) is part of the same walk; primed-ness
restrictions (init predicates and condition bodies must be unprimed)
are a separate O(free-vars) pass because they vary per context while
the memo must not.

Range analysis (:func:`expr_bounds`) is deliberately sharper than the
sorts stored on the nodes: the stored sorts are the smart constructors'
per-operator intervals, which lose correlations.  The chart compiler's
two standard idioms — saturating counters ``min(x + 1, cap)`` and
guarded increments ``ite(x < cap, x + 1, x)`` — both carry stored
branch-union sorts one wider than the values they can actually take, so
:func:`expr_bounds` propagates simple comparison constraints from ITE
conditions into the branches (and recognises the ``minimum``/
``maximum`` comparison patterns) before unioning.  Without this, every
dwell counter in the benchmark library would be a false R101.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..expr.ast import (
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
    free_vars,
    has_primed_vars,
)
from ..expr.printer import to_str
from ..expr.types import EnumSort, IntSort, Sort
from .diagnostics import Diagnostic, Severity


def _numeric(sort: Sort) -> bool:
    return sort.is_int() or sort.is_enum()


def _range_of(sort: Sort) -> tuple[int, int] | None:
    if isinstance(sort, IntSort):
        return (sort.lo, sort.hi)
    if isinstance(sort, EnumSort):
        return (0, sort.cardinality - 1)
    return None


def _intersect(
    a: tuple[int, int], b: tuple[int, int]
) -> tuple[int, int] | None:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo > hi:
        return None
    return (lo, hi)


# ---------------------------------------------------------------------------
# constraint-aware range analysis
# ---------------------------------------------------------------------------

# Environments map variables to known value bounds (always within the
# variable's sort); they are function-local and short-lived, so keying
# them on the interned Var nodes themselves is fine.


def _linear(expr: Expr) -> tuple[Var | None, int] | None:
    """Decompose ``expr`` as ``var + offset`` (var may be None).

    Only the shapes the chart compiler emits in guards are recognised;
    anything else returns None and contributes no narrowing.
    """
    if isinstance(expr, Const) and _numeric(expr.sort):
        return (None, expr.value)
    if isinstance(expr, Var) and _numeric(expr.sort):
        return (expr, 0)
    if isinstance(expr, Add):
        var: Var | None = None
        offset = 0
        for arg in expr.args:
            if isinstance(arg, Const):
                offset += arg.value
            elif isinstance(arg, Var) and var is None:
                var = arg
            else:
                return None
        return (var, offset)
    if isinstance(expr, Sub) and isinstance(expr.rhs, Const):
        head = _linear(expr.lhs)
        if head is None:
            return None
        return (head[0], head[1] - expr.rhs.value)
    return None


def _bound_var(env: dict, var: Var, lo: int, hi: int) -> dict | None:
    base = _range_of(var.sort)
    if base is None:
        return env
    current = env.get(var, base)
    refined = _intersect(current, (max(lo, base[0]), min(hi, base[1])))
    if refined is None:
        return None  # infeasible branch
    out = dict(env)
    out[var] = refined
    return out


_BIG = 1 << 62


def _narrow(env: dict, cond: Expr, positive: bool) -> dict | None:
    """Refine ``env`` under ``cond`` (or its negation); None = infeasible."""
    if isinstance(cond, Not):
        return _narrow(env, cond.arg, not positive)
    if (positive and isinstance(cond, And)) or (
        not positive and isinstance(cond, Or)
    ):
        for arg in cond.args:
            env = _narrow(env, arg, positive)
            if env is None:
                return None
        return env
    if isinstance(cond, (Lt, Le)):
        lhs, rhs = _linear(cond.lhs), _linear(cond.rhs)
        if lhs is None or rhs is None:
            return env
        strict = isinstance(cond, Lt)
        if not positive:
            # not(a < b) is b <= a; not(a <= b) is b < a.
            lhs, rhs = rhs, lhs
            strict = not strict
        (lvar, loff), (rvar, roff) = lhs, rhs
        adjust = 1 if strict else 0
        if lvar is not None and rvar is None:
            # lvar + loff (<|<=) roff
            return _bound_var(env, lvar, -_BIG, roff - loff - adjust)
        if lvar is None and rvar is not None:
            # loff (<|<=) rvar + roff
            return _bound_var(env, rvar, loff - roff + adjust, _BIG)
        return env
    if isinstance(cond, Eq) and positive:
        for side, other in ((cond.lhs, cond.rhs), (cond.rhs, cond.lhs)):
            if isinstance(side, Var) and isinstance(other, Const) and _numeric(
                side.sort
            ):
                return _bound_var(env, side, other.value, other.value)
        return env
    return env


def expr_bounds(
    expr: Expr, env: dict | None = None
) -> tuple[int, int]:
    """Value bounds of a numeric expression, constraint-refined.

    Inner nodes are trusted up to their declared sorts (each node's own
    declared-vs-derived consistency is checked separately by
    :class:`SortChecker`); ITE conditions narrow the environment seen by
    each branch, and the ``minimum``/``maximum`` identity patterns clamp
    the union.
    """
    declared = _range_of(expr.sort)
    if declared is None:
        raise TypeError(f"no interval for sort {expr.sort}")
    if env is None:
        env = {}
    if isinstance(expr, Const):
        return (expr.value, expr.value)
    if isinstance(expr, Var):
        bounded = env.get(expr)
        if bounded is None:
            return declared
        return _intersect(bounded, declared) or declared
    if isinstance(expr, (Add, Sub, Neg, Mul)):
        derived = _derived_bounds(expr, env)
        if derived is None:
            return declared
        return _intersect(derived, declared) or declared
    if isinstance(expr, Ite):
        derived = _ite_bounds(expr, env)
        if derived is None:
            return declared
        return _intersect(derived, declared) or declared
    return declared


def _ite_bounds(expr: Ite, env: dict) -> tuple[int, int] | None:
    then, other = expr.then, expr.other
    if _range_of(then.sort) is None or _range_of(other.sort) is None:
        return None
    env_then = _narrow(env, expr.cond, True)
    env_other = _narrow(env, expr.cond, False)
    if env_then is None and env_other is None:
        return None
    branches = []
    if env_then is not None:
        branches.append(expr_bounds(then, env_then))
    if env_other is not None:
        branches.append(expr_bounds(other, env_other))
    lo = min(b[0] for b in branches)
    hi = max(b[1] for b in branches)
    cond = expr.cond
    if (
        isinstance(cond, (Lt, Le))
        and env_then is not None
        and env_other is not None
    ):
        lo_t, hi_t = branches[0]
        lo_e, hi_e = branches[1]
        # ite(a <= b, a, b) is min(a, b); ite(a >= b, a, b) is
        # max(a, b) and reaches here as ite(b <= a, a, b).
        if cond.lhs is then and cond.rhs is other:
            lo, hi = min(lo_t, lo_e), min(hi_t, hi_e)
        elif cond.rhs is then and cond.lhs is other:
            lo, hi = max(lo_t, lo_e), max(hi_t, hi_e)
    return (lo, hi)


def _derived_bounds(expr: Expr, env: dict) -> tuple[int, int] | None:
    """Result interval implied by the children (no declared-sort clamp),
    or None if a child is non-numeric (reported as a kind mismatch)."""
    if isinstance(expr, Ite):
        return _ite_bounds(expr, env)
    ranges = []
    for kid in children(expr):
        if _range_of(kid.sort) is None:
            return None
        ranges.append(expr_bounds(kid, env))
    if isinstance(expr, Add):
        return (sum(r[0] for r in ranges), sum(r[1] for r in ranges))
    if isinstance(expr, Sub):
        (lo1, hi1), (lo2, hi2) = ranges
        return (lo1 - hi2, hi1 - lo2)
    if isinstance(expr, Neg):
        ((lo, hi),) = ranges
        return (-hi, -lo)
    if isinstance(expr, Mul):
        (lo1, hi1), (lo2, hi2) = ranges
        corners = (lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2)
        return (min(corners), max(corners))
    return None


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


class SortChecker:
    """Diagnostics-grade sort/well-formedness checking of expressions.

    Parameters
    ----------
    scope:
        Declared variables by *name* (``None`` disables scope checking).
        A variable node is in scope iff its name is declared **and** its
        sort equals the declaration — same name at a different sort is
        the classic copy-paste error the encoder turns into a wrong
        width, so it is R001 here.
    """

    def __init__(self, scope: Mapping[str, Var] | None = None):
        self._scope = dict(scope) if scope is not None else None
        # Context-free findings per distinct DAG node, keyed on eid.
        self._memo: dict[int, tuple[Diagnostic, ...]] = {}

    # ------------------------------------------------------------------
    def check(
        self, expr: Expr, context: str = "", allow_primed: bool = True
    ) -> list[Diagnostic]:
        """All findings for ``expr``, tagged with ``context``."""
        out: list[Diagnostic] = []
        stack = [expr]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node.eid in seen:
                continue
            seen.add(node.eid)
            cached = self._memo.get(node.eid)
            if cached is None:
                cached = tuple(self._node_diags(node))
                self._memo[node.eid] = cached
            out.extend(cached)
            stack.extend(children(node))
        if not allow_primed and has_primed_vars(expr):
            for var in sorted(free_vars(expr), key=lambda v: v.qualified_name):
                if var.primed:
                    out.append(
                        Diagnostic(
                            code="R004",
                            severity=Severity.ERROR,
                            message=(
                                "primed variable "
                                f"{var.qualified_name!r} is not allowed here "
                                "(this position is evaluated at a single "
                                "observation)"
                            ),
                            subject=to_str(expr),
                        )
                    )
        return [d.with_context(context) for d in out]

    # ------------------------------------------------------------------
    def _node_diags(self, node: Expr) -> list[Diagnostic]:
        diags: list[Diagnostic] = []

        def report(code: str, message: str) -> None:
            diags.append(
                Diagnostic(
                    code=code,
                    severity=Severity.ERROR,
                    message=message,
                    subject=to_str(node),
                )
            )

        if isinstance(node, Var):
            if self._scope is not None:
                declared = self._scope.get(node.name)
                if declared is None:
                    report(
                        "R001",
                        f"undeclared variable {node.qualified_name!r}",
                    )
                elif declared.sort != node.sort:
                    report(
                        "R001",
                        f"variable {node.qualified_name!r} used at sort "
                        f"{node.sort}, declared at sort {declared.sort}",
                    )
            return diags
        if isinstance(node, Const):
            # Value/sort agreement is enforced by the constructor (and
            # interning makes it impossible to bypass); nothing to do.
            return diags

        if isinstance(node, (Not, And, Or, Implies, Iff)):
            for kid in children(node):
                if not kid.sort.is_bool():
                    report(
                        "R002",
                        "boolean connective applied to operand of sort "
                        f"{kid.sort}: {to_str(kid)}",
                    )
            return diags

        if isinstance(node, Eq):
            lhs, rhs = node.lhs, node.rhs
            if lhs.sort.is_bool() != rhs.sort.is_bool():
                report(
                    "R002",
                    f"equality mixes sorts {lhs.sort} and {rhs.sort}",
                )
            elif (
                isinstance(lhs.sort, EnumSort)
                and isinstance(rhs.sort, EnumSort)
                and lhs.sort != rhs.sort
            ):
                report(
                    "R006",
                    "equality compares distinct enum sorts "
                    f"{lhs.sort} and {rhs.sort}",
                )
            else:
                for enum_side, other in ((lhs, rhs), (rhs, lhs)):
                    if (
                        isinstance(enum_side.sort, EnumSort)
                        and isinstance(other, Const)
                        and isinstance(other.sort, IntSort)
                    ):
                        hi = enum_side.sort.cardinality - 1
                        if other.value < 0 or other.value > hi:
                            report(
                                "R006",
                                f"enum {enum_side.sort} compared against "
                                f"out-of-range index {other.value}",
                            )
            return diags

        if isinstance(node, (Lt, Le)):
            for kid in (node.lhs, node.rhs):
                if not _numeric(kid.sort):
                    report(
                        "R002",
                        "integer comparison applied to operand of sort "
                        f"{kid.sort}: {to_str(kid)}",
                    )
            return diags

        if isinstance(node, (Add, Sub, Neg, Mul)):
            bad_kind = False
            for kid in children(node):
                if not _numeric(kid.sort):
                    bad_kind = True
                    report(
                        "R002",
                        "arithmetic applied to operand of sort "
                        f"{kid.sort}: {to_str(kid)}",
                    )
            if not isinstance(node.sort, IntSort):
                report(
                    "R002",
                    f"arithmetic node carries non-integer sort {node.sort}",
                )
            elif not bad_kind:
                derived = _derived_bounds(node, {})
                declared = _range_of(node.sort)
                if derived is not None and (
                    derived[0] < declared[0] or derived[1] > declared[1]
                ):
                    report(
                        "R003",
                        f"declared sort {node.sort} cannot represent the "
                        f"operand range [{derived[0]},{derived[1]}] "
                        "(arithmetic would wrap)",
                    )
            return diags

        if isinstance(node, Ite):
            if not node.cond.sort.is_bool():
                report(
                    "R002",
                    f"ite condition has sort {node.cond.sort}: "
                    f"{to_str(node.cond)}",
                )
            then, other = node.then, node.other
            if then.sort.is_bool() != other.sort.is_bool():
                report(
                    "R005",
                    f"ite branches disagree: {to_str(then)} has sort "
                    f"{then.sort}, {to_str(other)} has sort {other.sort}",
                )
                return diags
            if then.sort.is_bool():
                if not node.sort.is_bool():
                    report(
                        "R005",
                        "ite over boolean branches carries sort "
                        f"{node.sort}",
                    )
                return diags
            declared = _range_of(node.sort)
            if declared is None:
                report(
                    "R005",
                    f"ite over numeric branches carries sort {node.sort}",
                )
                return diags
            derived = _ite_bounds(node, {})
            if derived is not None and (
                derived[0] < declared[0] or derived[1] > declared[1]
            ):
                report(
                    "R003",
                    f"declared sort {node.sort} cannot represent the "
                    f"branch range [{derived[0]},{derived[1]}]",
                )
            return diags

        report(  # pragma: no cover - future node types
            "R002", f"unknown expression node {type(node).__name__}"
        )
        return diags


def check_expr(
    expr: Expr,
    scope: Mapping[str, Var] | None = None,
    context: str = "",
    allow_primed: bool = True,
) -> list[Diagnostic]:
    """One-shot expression check (fresh memo); see :class:`SortChecker`."""
    return SortChecker(scope).check(
        expr, context=context, allow_primed=allow_primed
    )
