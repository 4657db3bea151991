"""Word-level to bit-level encoder (bit-blaster).

Turns expressions from :mod:`repro.expr` into CNF over a
:class:`~repro.sat.tseitin.GateBuilder`.  Integer and enum variables are
declared with range constraints taken from their sorts, which mirrors
what CBMC sees for the generated C code (typed variables with
code-generator-chosen widths).

The encoder is memoised per expression node, so shared sub-expressions
(ubiquitous in priority-encoded transition relations) are encoded once.
With the hash-consed expression core the memo is keyed on the node's
``eid`` (interning makes structural equality object identity, so the
stable integer id *is* the structural key) -- cache probes cost a small
int hash instead of a deep structural hash, and the same interned
predicate asserted in different scopes or strengthening rounds always
hits the same literal.
"""

from __future__ import annotations

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
    interval,
)
from ..expr.types import BoolSort, EnumSort, IntSort
from ..sat.cnf import CNF
from ..sat.tseitin import GateBuilder
from .bitvec import (
    BitVec,
    add_bitvec,
    const_bitvec,
    decode_bits,
    eq_bitvec,
    ite_bitvec,
    mul_bitvec,
    negate_bitvec,
    signed_leq,
    signed_less,
    sub_bitvec,
    width_for_range,
)


class Encoder:
    """Encodes expressions into a shared CNF."""

    def __init__(self) -> None:
        self.cnf = CNF()
        self.gates = GateBuilder(self.cnf)
        self._bool_vars: dict[str, int] = {}
        self._int_vars: dict[str, BitVec] = {}
        self._var_sorts: dict[str, object] = {}
        # eid-keyed (interned exprs: eid is the structural identity).
        self._bool_cache: dict[int, int] = {}
        self._int_cache: dict[int, BitVec] = {}

    # ------------------------------------------------------------------
    # variable declaration
    # ------------------------------------------------------------------
    def declare(self, var: Var) -> None:
        """Declare a variable (idempotent); adds range constraints."""
        name = var.qualified_name
        if name in self._var_sorts:
            if self._var_sorts[name] != var.sort:
                raise ValueError(
                    f"variable {name!r} redeclared with different sort"
                )
            return
        self._var_sorts[name] = var.sort
        if isinstance(var.sort, BoolSort):
            self._bool_vars[name] = self.cnf.new_var()
            return
        if isinstance(var.sort, IntSort):
            lo, hi = var.sort.lo, var.sort.hi
        elif isinstance(var.sort, EnumSort):
            lo, hi = 0, var.sort.cardinality - 1
        else:
            raise TypeError(f"cannot declare variable of sort {var.sort}")
        width = width_for_range(lo, hi)
        vec = BitVec(self.cnf.new_vars(width))
        self._int_vars[name] = vec
        # Range constraints lo <= x <= hi.
        lo_vec = const_bitvec(lo, width, self.gates)
        hi_vec = const_bitvec(hi, width, self.gates)
        self.gates.assert_true(signed_leq(lo_vec, vec, self.gates))
        self.gates.assert_true(signed_leq(vec, hi_vec, self.gates))

    def _declare_all(self, expr: Expr) -> None:
        """Declare ``expr``'s free variables in ``eid`` order.

        ``free_vars`` is an identity-hashed frozenset, so iterating it
        directly would number the CNF variables by memory address.
        """
        from ..expr.ast import free_vars

        for var in sorted(free_vars(expr), key=lambda v: v.eid):
            self.declare(var)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_bool(self, expr: Expr) -> int:
        """Encode a Boolean expression; returns its output literal."""
        if not expr.sort.is_bool():
            raise TypeError(f"expected bool expression, got {expr.sort}")
        cached = self._bool_cache.get(expr.eid)
        if cached is not None:
            return cached
        lit = self._encode_bool(expr)
        self._bool_cache[expr.eid] = lit
        return lit

    def _encode_bool(self, expr: Expr) -> int:
        gates = self.gates
        if isinstance(expr, Const):
            return gates.const(bool(expr.value))
        if isinstance(expr, Var):
            self.declare(expr)
            return self._bool_vars[expr.qualified_name]
        if isinstance(expr, Not):
            return gates.not_gate(self.encode_bool(expr.arg))
        if isinstance(expr, And):
            return gates.and_gate(*(self.encode_bool(a) for a in expr.args))
        if isinstance(expr, Or):
            return gates.or_gate(*(self.encode_bool(a) for a in expr.args))
        if isinstance(expr, Implies):
            return gates.implies_gate(
                self.encode_bool(expr.lhs), self.encode_bool(expr.rhs)
            )
        if isinstance(expr, Iff):
            return gates.xnor_gate(
                self.encode_bool(expr.lhs), self.encode_bool(expr.rhs)
            )
        if isinstance(expr, Eq):
            if expr.lhs.sort.is_bool():
                return gates.xnor_gate(
                    self.encode_bool(expr.lhs), self.encode_bool(expr.rhs)
                )
            return eq_bitvec(
                self.encode_int(expr.lhs), self.encode_int(expr.rhs), gates
            )
        if isinstance(expr, Lt):
            return signed_less(
                self.encode_int(expr.lhs), self.encode_int(expr.rhs), gates
            )
        if isinstance(expr, Le):
            return signed_leq(
                self.encode_int(expr.lhs), self.encode_int(expr.rhs), gates
            )
        if isinstance(expr, Ite):
            return gates.ite_gate(
                self.encode_bool(expr.cond),
                self.encode_bool(expr.then),
                self.encode_bool(expr.other),
            )
        raise TypeError(f"cannot encode boolean node {type(expr).__name__}")

    def encode_int(self, expr: Expr) -> BitVec:
        """Encode an int/enum expression; returns its bit-vector."""
        cached = self._int_cache.get(expr.eid)
        if cached is not None:
            return cached
        vec = self._encode_int(expr)
        self._int_cache[expr.eid] = vec
        return vec

    def _encode_int(self, expr: Expr) -> BitVec:
        gates = self.gates
        if isinstance(expr, Const):
            lo, hi = interval(expr)
            width = width_for_range(min(lo, expr.value), max(hi, expr.value))
            return const_bitvec(expr.value, width, gates)
        if isinstance(expr, Var):
            self.declare(expr)
            return self._int_vars[expr.qualified_name]
        lo, hi = interval(expr)
        width = width_for_range(lo, hi)
        if isinstance(expr, Add):
            accum = self.encode_int(expr.args[0])
            for arg in expr.args[1:]:
                accum = add_bitvec(accum, self.encode_int(arg), width, gates)
            return accum
        if isinstance(expr, Sub):
            return sub_bitvec(
                self.encode_int(expr.lhs), self.encode_int(expr.rhs), width, gates
            )
        if isinstance(expr, Neg):
            return negate_bitvec(self.encode_int(expr.arg), width, gates)
        if isinstance(expr, Mul):
            return mul_bitvec(
                self.encode_int(expr.lhs), self.encode_int(expr.rhs), width, gates
            )
        if isinstance(expr, Ite):
            return ite_bitvec(
                self.encode_bool(expr.cond),
                self.encode_int(expr.then),
                self.encode_int(expr.other),
                width,
                gates,
            )
        raise TypeError(f"cannot encode integer node {type(expr).__name__}")

    def assert_expr(self, expr: Expr) -> None:
        """Assert a Boolean expression as a permanent constraint."""
        self.gates.assert_true(self.encode_literal(expr))

    def encode_literal(self, expr: Expr) -> int:
        """Encode ``expr`` (declaring its free variables) without asserting.

        The returned literal is constrained to be *equivalent* to the
        expression, never to hold.  This is the incremental-query
        primitive: :class:`~repro.smt.solver.SmtSolver` passes scoped
        assertion literals as solver assumptions, so a query is retracted
        by simply dropping its literal -- the gate definitions (which are
        satisfiable on their own) stay behind and are shared with every
        later query, as are all clauses the SAT core learned about them.
        """
        cached = self._bool_cache.get(expr.eid)
        if cached is not None:
            return cached  # encoding it declared every variable it has
        self._declare_all(expr)
        return self.encode_bool(expr)

    def clause_cursor(self) -> int:
        """Number of clauses encoded so far (for incremental feeding).

        A consumer that keeps a persistent SAT solver remembers the
        cursor after each sync and feeds only ``cnf.clauses[cursor:]``
        next time; the encoder itself never discards clauses.
        """
        return len(self.cnf.clauses)

    # ------------------------------------------------------------------
    # model decoding
    # ------------------------------------------------------------------
    def decode_model(self, model: dict[int, bool]) -> dict[str, int]:
        """Map a SAT model back to a valuation by qualified variable name."""
        result: dict[str, int] = {}
        for name, lit in self._bool_vars.items():
            result[name] = 1 if model.get(lit, False) else 0
        for name, vec in self._int_vars.items():
            values = [model.get(abs(bit), False) ^ (bit < 0) for bit in vec.bits]
            result[name] = decode_bits(values)
        return result

    @property
    def declared_names(self) -> list[str]:
        return sorted(self._var_sorts)
