"""SMT-style solver facade over the bit-blaster and the CDCL solver.

The model checker formulates queries as conjunctions of expression-level
assertions; :class:`SmtSolver` bit-blasts them and solves.  Satisfying
assignments decode back into valuations of the original variables, which
become counterexample observations.

The facade is genuinely incremental: it keeps **one** backing
:class:`~repro.sat.solver.Solver` for its whole lifetime and feeds it
only the clauses encoded since the previous ``check``.  Scoped queries
use :meth:`push`/:meth:`pop`: assertions inside a scope are *not* turned
into unit clauses but into assumption literals for the next solve, so
popping a scope costs nothing and everything the SAT core learned --
including lemmas about the scoped assertions themselves, which the
encoder memoises by expression node -- is reused by later queries.

A scoped conjunction becomes one assumption literal per conjunct, not
one literal for a fresh n-ary AND gate.  The Fig. 3b strengthening loop
re-checks ``r ∧ ¬s'_1 ∧ … ∧ ¬s'_n`` after every spurious counterexample;
each conjunct is memoised by node, so round n encodes only its new
``¬s'_n`` and a condition costs O(R) clauses over R rounds instead of
O(R²).
"""

from __future__ import annotations

from ..expr.ast import And, Expr, Var
from ..sat.solver import Solver
from .encoder import Encoder


def _tel_metrics():
    """Live metrics registry, or ``None`` (lazy import: this module is
    inside the core package's import closure, see telemetry docstring)."""
    from ..core.telemetry import active

    session = active()
    return None if session is None else session.metrics


class SmtSolver:
    """Assert expressions, check satisfiability, extract models."""

    def __init__(self) -> None:
        self._encoder = Encoder()
        self._solver = Solver()
        self._fed_clauses = 0
        # Stack of open scopes: each holds the assumption literals of its
        # scoped assertions and whether one of them encoded to constant
        # false.
        self._scopes: list[tuple[list[int], bool]] = []
        self._last_model: dict[str, int] | None = None
        self.stats = {"checks": 0, "conflicts": 0, "decisions": 0}

    @property
    def solver(self) -> Solver:
        """The persistent backing SAT solver (stable across checks)."""
        return self._solver

    @property
    def encoder(self) -> Encoder:
        return self._encoder

    def declare(self, var: Var) -> None:
        """Pre-declare a variable (useful so models mention all of X)."""
        self._encoder.declare(var)

    # ------------------------------------------------------------------
    # assertions and scopes
    # ------------------------------------------------------------------
    def add(self, expr: Expr) -> None:
        """Assert ``expr`` (Boolean) as a constraint.

        Outside any scope the assertion is permanent; inside the
        innermost scope it lives until the matching :meth:`pop`, and each
        conjunct of an ``And`` is its own assumption literal.
        """
        if not self._scopes:
            self._encoder.gates.assert_true(self._encoder.encode_literal(expr))
            return
        for conjunct in expr.args if isinstance(expr, And) else (expr,):
            self._assume(conjunct)

    def _assume(self, expr: Expr) -> None:
        """Add ``expr`` to the innermost scope's assumption literals."""
        lit = self._encoder.encode_literal(expr)
        const = self._encoder.gates.is_const(lit)
        lits, _unsat = self._scopes[-1]
        if const is True:
            return
        if const is False:
            self._scopes[-1] = (lits, True)
            return
        lits.append(lit)

    def literal(self, expr: Expr) -> int:
        """Encode ``expr`` to a guard literal without asserting it.

        The literal is constrained to be *equivalent* to the expression;
        pass it to ``check(assuming=...)`` to enable the constraint for
        a single query.  Unlike scoped assertions, guard literals are
        caller-managed, which lets consumers keep stable per-constraint
        switches across many scopes (e.g. the unroller's per-frame
        transition guards).
        """
        return self._encoder.encode_literal(expr)

    def push(self) -> None:
        """Open a retractable assertion scope."""
        self._scopes.append(([], False))

    def pop(self) -> None:
        """Drop the innermost scope and its assertions."""
        if not self._scopes:
            raise RuntimeError("pop without matching push")
        self._scopes.pop()

    @property
    def scope_depth(self) -> int:
        return len(self._scopes)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Feed the solver every clause encoded since the last sync."""
        cnf = self._encoder.cnf
        self._solver.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses[self._fed_clauses :]:
            self._solver.add_clause(clause)
        self._fed_clauses = self._encoder.clause_cursor()

    @property
    def clauses_fed(self) -> int:
        """Total clauses handed to the backing solver so far."""
        return self._fed_clauses

    def check(self, assuming: "list[int] | tuple[int, ...]" = ()) -> bool:
        """True iff the asserted constraints are satisfiable.

        ``assuming`` adds guard literals from :meth:`literal` for this
        query only.
        """
        self.stats["checks"] += 1
        self._sync()
        for _lits, unsat in self._scopes:
            if unsat:
                # A scoped assertion simplified to constant false; popping
                # its scope restores satisfiability.
                self._last_model = None
                return False
        assumptions = [
            lit for lits, _unsat in self._scopes for lit in lits
        ] + list(assuming)
        conflicts_before = self._solver.conflicts
        decisions_before = self._solver.decisions
        result = self._solver.solve(assumptions)
        self.stats["conflicts"] += self._solver.conflicts - conflicts_before
        self.stats["decisions"] += self._solver.decisions - decisions_before
        registry = _tel_metrics()
        if registry is not None:
            registry.inc("smt.checks")
            registry.inc("smt.conflicts", result.conflicts_delta)
            registry.inc("smt.decisions", result.decisions_delta)
            registry.gauge_max("smt.clauses_fed_peak", self._fed_clauses)
        if result.satisfiable:
            self._last_model = self._encoder.decode_model(result.model)
        else:
            self._last_model = None
        return result.satisfiable

    def model(self) -> dict[str, int]:
        """Valuation (by qualified name) from the last sat check."""
        if self._last_model is None:
            raise RuntimeError("no model available (last check was unsat?)")
        return dict(self._last_model)


def is_satisfiable(*exprs: Expr) -> bool:
    """One-shot satisfiability of a conjunction of expressions."""
    solver = SmtSolver()
    for expr in exprs:
        solver.add(expr)
    return solver.check()


def get_model(*exprs: Expr) -> dict[str, int] | None:
    """One-shot model of a conjunction, or None if unsat."""
    solver = SmtSolver()
    for expr in exprs:
        solver.add(expr)
    if solver.check():
        return solver.model()
    return None


def is_valid(expr: Expr) -> bool:
    """Validity of a Boolean expression (no free-var constraints beyond sorts)."""
    from ..expr.ast import lnot

    return not is_satisfiable(lnot(expr))


def implies_semantically(lhs: Expr, rhs: Expr) -> bool:
    """True iff ``lhs -> rhs`` is valid over the variable sorts."""
    from ..expr.ast import land, lnot

    return not is_satisfiable(land(lhs, lnot(rhs)))
