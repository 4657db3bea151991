"""Local simplification of expressions: the one home of algebraic rules.

The smart constructors in :mod:`repro.expr.ast` already fold constants
as expressions are built; :func:`simplify` re-runs that folding over a
whole tree (useful after substitution) and applies six algebraic rules
that keep learned guards and extracted invariants readable.

Rules
-----

Each rule is a function of ``(node, facts)`` that returns the
replacement or ``None``.  :data:`_RULES` dispatches them by node type
and tries them in order; the first that returns a node wins:

* ``And`` -- ``and_contradiction`` (``x = c1 ∧ x = c2``, ``c1 ≠ c2``
  → false), then ``and_complement`` (``a ∧ ¬a`` → false);
* ``Or`` -- ``or_complement`` (``a ∨ ¬a`` → true), then
  ``or_enum_sweep`` (``x = A ∨ x = B ∨ …`` over every member of an enum
  → true);
* ``Implies`` -- ``implies_refl`` (``a ⇒ a`` → true);
* ``Eq`` -- ``eq_ctx_contradiction`` (``x = c`` → false when a sibling
  conjunct states ``x = d``, ``d ≠ c``).

A new rule is one more function and one more table entry here.  The
contract linter (C007) reports an algebraic rewrite pass anywhere else.

Conjunct facts
--------------

While rebuilding a conjunction, every immediate ``x = c`` conjunct over
a non-Boolean variable becomes a *fact* for its siblings, threaded down
through them as ``{Var: value}``, so ``x = 1 ∧ (y ∨ x = 2)`` drops the
contradicting disjunct.  A rebuild repeats this at most
:data:`MAX_FACT_ROUNDS` times.  Facts only ever fold a node to false.
A conjunct is never folded to true from its siblings' facts: in
``x = 3 ∧ 3 = x`` each conjunct entails the other, and folding both to
true would drop the constraint.

Memo and fixpoint
-----------------

Results are memoised in :data:`_MEMO`, keyed by ``eid`` when no fact
applies to a node's free variables and by ``(eid, facts)`` otherwise.
Rules and the rebuild are iterated to a fixpoint, and the fixpoint is
recorded for every intermediate form, so ``simplify(simplify(e)) is
simplify(e)`` always holds and re-simplifying a shared predicate costs
one dictionary lookup.  The memo is append-only, like the intern table.

When a telemetry session is active, each rule counts
``rewrite.rule.<name>.attempts`` and ``rewrite.rule.<name>.fires``, and
every fixpoint adds its rounds to ``rewrite.fixpoint_iterations``;
``repro profile`` ranks the rules by them.  Memo hits count nothing.
"""

from __future__ import annotations

from collections.abc import Callable

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
    children,
    eq,
    free_vars,
    iff,
    implies,
    ite,
    land,
    le,
    lnot,
    lor,
    lt,
    mul,
    neg,
    sub,
)
from .types import EnumSort

#: ``x = c`` facts from sibling conjuncts, by variable; ``None`` when
#: no fact applies.
Facts = dict[Var, int] | None

#: Bound on sibling-fact propagation rounds inside one conjunction
#: rebuild; two rounds reach the fixpoint in practice.
MAX_FACT_ROUNDS = 4

# Fixpoints keyed by eid, or by (eid, facts key) under facts.
_MEMO: dict[object, Expr] = {}


def simplify(expr: Expr) -> Expr:
    """Memoised idempotent fixpoint of the rules over ``expr``."""
    cached = _MEMO.get(expr.eid)
    if cached is not None:
        return cached
    return _simplify(expr, None, _metrics())


def _metrics():
    """Metrics registry when telemetry is active, else ``None``.

    Imported lazily: the expression core must not import
    ``repro.core`` at module load (layering, import cycle).
    """
    from ..core.telemetry import active

    session = active()
    return session.metrics if session is not None else None


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------


def _var_eq_const(expr: Expr) -> tuple[Var, int] | None:
    if isinstance(expr, Eq):
        if isinstance(expr.lhs, Var) and isinstance(expr.rhs, Const):
            return expr.lhs, expr.rhs.value
        if isinstance(expr.rhs, Var) and isinstance(expr.lhs, Const):
            return expr.rhs, expr.lhs.value
    return None


def _and_contradiction(node: And, facts: Facts) -> Expr | None:
    seen: dict[Var, int] = {}
    for arg in node.args:
        pair = _var_eq_const(arg)
        if pair is not None:
            var, value = pair
            if var in seen and seen[var] != value:
                return FALSE
            seen[var] = value
    return None


def _has_complement(args: tuple[Expr, ...]) -> bool:
    # Probe structurally instead of building lnot(arg): that would
    # intern a garbage Not node per probe.
    present = set(args)
    return any(type(arg) is Not and arg.arg in present for arg in args)


def _and_complement(node: And, facts: Facts) -> Expr | None:
    return FALSE if _has_complement(node.args) else None


def _or_complement(node: Or, facts: Facts) -> Expr | None:
    return TRUE if _has_complement(node.args) else None


def _or_enum_sweep(node: Or, facts: Facts) -> Expr | None:
    by_var: dict[Var, set[int]] = {}
    for arg in node.args:
        pair = _var_eq_const(arg)
        if pair is not None and isinstance(pair[0].sort, EnumSort):
            by_var.setdefault(pair[0], set()).add(pair[1])
    for var, values in by_var.items():
        if len(values) == var.sort.cardinality:
            return TRUE
    return None


def _implies_refl(node: Implies, facts: Facts) -> Expr | None:
    return TRUE if node.lhs is node.rhs else None


def _eq_ctx_contradiction(node: Eq, facts: Facts) -> Expr | None:
    pair = _var_eq_const(node)
    if pair is None or facts is None:
        return None
    known = facts.get(pair[0])
    if known is not None and known != pair[1]:
        return FALSE
    return None


Rule = Callable[[Expr, Facts], Expr | None]

#: Rules per node type, in the order they are tried.
_RULES: dict[type, tuple[tuple[str, Rule], ...]] = {
    And: (
        ("and_contradiction", _and_contradiction),
        ("and_complement", _and_complement),
    ),
    Or: (
        ("or_complement", _or_complement),
        ("or_enum_sweep", _or_enum_sweep),
    ),
    Implies: (("implies_refl", _implies_refl),),
    Eq: (("eq_ctx_contradiction", _eq_ctx_contradiction),),
}


def _apply_rules(node: Expr, facts: Facts, metrics) -> Expr:
    for name, rule in _RULES.get(type(node), ()):
        if metrics is not None:
            metrics.inc(f"rewrite.rule.{name}.attempts")
        result = rule(node, facts)
        if result is not None:
            if metrics is not None:
                metrics.inc(f"rewrite.rule.{name}.fires")
            return result
    return node


# ---------------------------------------------------------------------------
# the fixpoint over a bottom-up rebuild
# ---------------------------------------------------------------------------

#: Smart constructor per composite node type, applied to the node's
#: simplified children (``And`` threads facts: :func:`_rebuild_and`).
_BUILDERS: dict[type, Callable[..., Expr]] = {
    Not: lnot,
    Or: lor,
    Implies: implies,
    Iff: iff,
    Eq: eq,
    Lt: lt,
    Le: le,
    Ite: ite,
    Add: add,
    Sub: sub,
    Neg: neg,
    Mul: mul,
}


def _restrict(facts: Facts, expr: Expr) -> Facts:
    """The facts on ``expr``'s free variables (``None`` when none)."""
    if not facts:
        return None
    free = free_vars(expr)
    if not free:
        return None
    return {var: value for var, value in facts.items() if var in free} or None


def _simplify(expr: Expr, facts: Facts, metrics) -> Expr:
    facts = _restrict(facts, expr)
    if facts is None:
        def key_of(e: Expr) -> object:
            return e.eid
    else:
        facts_key = tuple(sorted((var.eid, value) for var, value in facts.items()))

        def key_of(e: Expr) -> object:
            return (e.eid, facts_key)
    key = key_of(expr)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    chain = [key]
    visited = {expr}
    current = expr
    iterations = 0
    while True:
        step = _apply_rules(_rebuild(current, facts, metrics), facts, metrics)
        iterations += 1
        if step is current or step in visited:
            break
        visited.add(step)
        step_key = key_of(step)
        cached = _MEMO.get(step_key)
        if cached is not None:
            current = cached
            break
        chain.append(step_key)
        current = step
    if metrics is not None:
        metrics.inc("rewrite.fixpoint_iterations", iterations)
    for seen in chain:
        _MEMO[seen] = current
    _MEMO[key_of(current)] = current
    return current


def _rebuild(expr: Expr, facts: Facts, metrics) -> Expr:
    """One bottom-up rebuild through the smart constructors, children
    simplified under ``facts``."""
    if type(expr) is And:
        return _rebuild_and(expr, facts, metrics)
    build = _BUILDERS.get(type(expr))
    if build is None:
        return expr
    return build(*[_simplify(kid, facts, metrics) for kid in children(expr)])


def _assume(facts: dict[Var, int], conjunct: Expr) -> dict[Var, int]:
    """``facts`` plus ``conjunct`` when it is a usable ``x = c``.

    A fact that conflicts with one already held is skipped: the
    conjunct stating it folds to false under the other fact
    (``eq_ctx_contradiction``), and fewer facts stay sound."""
    pair = _var_eq_const(conjunct)
    if pair is None or pair[0].sort.is_bool():
        return facts
    var, value = pair
    if facts.get(var, value) != value:
        return facts
    out = dict(facts)
    out[var] = value
    return out


def _rebuild_and(expr: And, facts: Facts, metrics) -> Expr:
    node = land(*[_simplify(arg, facts, metrics) for arg in expr.args])
    # Thread each conjunct's siblings' facts into it; re-simplifying a
    # conjunct no fact bites on is a memo hit.
    for _ in range(MAX_FACT_ROUNDS):
        if type(node) is not And:
            return node
        args = node.args
        base = facts or {}
        new_args = []
        for i, arg in enumerate(args):
            env = base
            for j, sibling in enumerate(args):
                if j != i:
                    env = _assume(env, sibling)
            new_args.append(_simplify(arg, env, metrics) if env else arg)
        if all(new is old for new, old in zip(new_args, args, strict=True)):
            return node
        node = land(*new_args)
    return node
