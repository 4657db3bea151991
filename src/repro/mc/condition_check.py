"""The Fig. 3a condition check: ``assume(r); X' = f(X); assert(s)``.

Each extracted completeness condition describes a *single* system
transition, so (as the paper observes) k-induction with ``k = 1`` --
i.e. one symbolic step from an arbitrary ``r``-state -- suffices: if the
one-step query is unsatisfiable, the condition holds for any number of
transitions from anywhere in the state space.

The query posed to the SAT back-end is::

    sorts(X) ∧ sorts(X') ∧ r(X) ∧ R(X, X') ∧ ¬s(X')

A model is a counterexample pair ``(v_t, v_t+1)``; unsatisfiability means
the condition is an invariant of the implementation.
"""

from __future__ import annotations

from ..expr.ast import Const, Expr, eq, lnot
from ..expr.subst import to_primed
from ..expr.types import sort_values
from ..smt.solver import SmtSolver
from ..system.transition_system import SymbolicSystem
from ..system.valuation import Valuation
from .verdicts import ConditionCheckResult


def _tel_metrics():
    """Live metrics registry, or ``None`` (lazy import: this module is
    inside the core package's import closure, see telemetry docstring)."""
    from ..core.telemetry import active

    session = active()
    return None if session is None else session.metrics


class IncrementalConditionChecker:
    """Condition checker over one persistent incremental solver.

    The active loop checks tens of conditions per iteration over the
    same system, and spurious-counterexample strengthening re-checks the
    same condition with a growing assumption ``r ← r ∧ ¬s'``.  This
    checker asserts ``sorts(X, X') ∧ R(X, X')`` (plus any base
    constraints) once on a single :class:`~repro.smt.solver.SmtSolver`
    and poses each query in a push/pop scope: the query's ``assume`` and
    ``¬s'`` become assumption literals on the *same* backing CDCL
    instance, so watch lists, saved phases, variable activity and --
    crucially -- every clause learned about ``R`` in earlier queries and
    earlier strengthening rounds carry over.  Because the encoder
    memoises by expression node, a strengthened assumption re-uses the
    literals of all its earlier conjuncts, and lemmas mentioning them
    re-apply immediately.
    """

    def __init__(self, system: SymbolicSystem):
        self._system = system
        self._solver = SmtSolver()
        for var in system.variables:
            self._solver.declare(var)
            self._solver.declare(var.prime())
        self._solver.add(system.trans)
        self._sealed = False

    @property
    def backing_solver(self):
        """The persistent CDCL solver (identity is stable across checks)."""
        return self._solver.solver

    def add_base_constraint(self, expr: Expr) -> None:
        """Permanently assert ``expr`` (over the declared variables).

        Used for domain-knowledge guidance (paper §IV-B.1): e.g. "v_t is
        a reachable state", which steers the checker away from spurious
        counterexamples.  Must be called before the first query.
        """
        if self._sealed:
            raise RuntimeError("base constraints must precede queries")
        self._solver.add(expr)

    def check(
        self, assume: Expr, conclusion: Expr, canonical: bool = False
    ) -> ConditionCheckResult:
        """Same query as :func:`check_condition`, on the shared solver.

        With ``canonical=True`` a satisfiable query returns the
        *lexicographically minimal* counterexample (see
        :meth:`_minimise_model`) instead of whichever model the CDCL
        search happened to land on.  The verdict is unaffected.
        """
        self._sealed = True
        solver = self._solver
        solver.push()
        try:
            solver.add(assume)
            solver.add(lnot(to_primed(conclusion)))
            if not solver.check():
                return ConditionCheckResult(holds=True, solver_checks=1)
            model = solver.model()
            if canonical:
                # Deliberately NOT added to solver_checks: the probe
                # count depends on the arbitrary model the CDCL search
                # started from, so including it would make outcomes
                # history-dependent again.  solver_checks counts logical
                # queries; raw solve effort is in SmtSolver.stats.
                model, probes = self._minimise_model(model)
                registry = _tel_metrics()
                if registry is not None:
                    registry.inc("oracle.canonical_probes", probes)
                    registry.observe("oracle.canonical_probes_per_cex", probes)
            v_t = Valuation(
                {var.name: model[var.name] for var in self._system.variables}
            )
            v_t1 = Valuation(
                {
                    var.name: model[f"{var.name}'"]
                    for var in self._system.variables
                }
            )
            return ConditionCheckResult(
                holds=False, counterexample=(v_t, v_t1), solver_checks=1
            )
        finally:
            solver.pop()

    def _minimise_model(
        self, model: dict[str, int]
    ) -> tuple[dict[str, int], int]:
        """Lexicographically minimal model of the current query scope.

        The counterexample a CDCL search returns depends on its clause
        database, saved phases and activity scores -- so it differs
        between solver histories.  The *minimal* model
        under a fixed variable order is a pure function of the query,
        which is what makes canonical reports a deterministic reference
        (see the canonical-counterexample section of
        ``docs/engines.md``).

        Order: the system's observables as declared (inputs, then state),
        current frame before primed frame; values ascending.  Each
        variable is driven to its smallest satisfiable value by binary
        search over its (contiguous) sort range -- O(log |domain|) solver
        probes instead of one per rejected value -- then pinned in a
        retractable scope before the next variable is minimised.

        Returns the minimal model and the number of solver probes spent.
        """
        solver = self._solver
        pinned = 0
        probes = 0
        try:
            variables = list(self._system.variables)
            for var in variables + [v.prime() for v in variables]:
                name = var.qualified_name
                floor = sort_values(var.sort)[0]
                while model[name] > floor:
                    if var.sort.is_bool():
                        probe: Expr = eq(var, Const(0, var.sort))
                        midpoint = 0
                    else:
                        midpoint = (floor + model[name] - 1) // 2
                        probe = var <= midpoint
                    solver.push()
                    pinned += 1
                    solver.add(probe)
                    probes += 1
                    if solver.check():
                        model = solver.model()
                    else:
                        solver.pop()
                        pinned -= 1
                        floor = midpoint + 1
                # Fix the chosen value before minimising later variables.
                solver.push()
                pinned += 1
                solver.add(eq(var, Const(model[name], var.sort)))
            return model, probes
        finally:
            for _ in range(pinned):
                solver.pop()


def check_condition(
    system: SymbolicSystem, assume: Expr, conclusion: Expr
) -> ConditionCheckResult:
    """Check ``v_t |= assume ∧ (v_t, v_t+1) |= R  ⟹  v_t+1 |= conclusion``.

    ``assume`` and ``conclusion`` are predicates over the observables
    ``X``; the conclusion is evaluated at the next observation by priming.
    """
    solver = SmtSolver()
    # Declare all observables in both time frames so counterexample
    # valuations are total.
    for var in system.variables:
        solver.declare(var)
        solver.declare(var.prime())
    solver.add(assume)
    solver.add(system.trans)
    solver.add(lnot(to_primed(conclusion)))
    if not solver.check():
        return ConditionCheckResult(holds=True, solver_checks=1)
    model = solver.model()
    v_t = Valuation(
        {var.name: model[var.name] for var in system.variables}
    )
    v_t1 = Valuation(
        {var.name: model[f"{var.name}'"] for var in system.variables}
    )
    return ConditionCheckResult(
        holds=False, counterexample=(v_t, v_t1), solver_checks=1
    )


def check_init_condition(
    system: SymbolicSystem, conclusion: Expr
) -> ConditionCheckResult:
    """Condition (1): from any initial state, one step satisfies the
    disjunction of the initial automaton state's outgoing predicates.

    The counterexample's first element ``v_0`` satisfies ``Init``; it is a
    genuine pre-first-observation state, so these counterexamples are
    never spurious (paper §III-B).
    """
    return check_condition(system, system.init, conclusion)
