"""Expression AST (hash-consed).

Expressions are immutable, **interned** (hash-consed) nodes: every
constructor -- the node classes themselves as well as the smart
constructors (:func:`land`, :func:`lor`, :func:`lnot`, ...) -- returns
the canonical shared instance for its structure, so two structurally
equal expressions are always the *same object*.  Equality and hashing
are therefore identity-based and O(1) (``object.__eq__`` /
``object.__hash__`` are deliberately not overridden), which the rest of
the code relies on: every ``dict``/``set`` keyed on expressions
(memoisation tables, predicate deduplication, encoder caches, ...) is
an identity table that behaves exactly like the old deep-structural one
at pointer-comparison cost.  ``__eq__`` is *not* overloaded to build
equality expressions; use :func:`eq` / :func:`ne` or the ``.eq()`` /
``.ne()`` methods instead.  Arithmetic and ordering operators *are*
overloaded, so chart guards read naturally, e.g.
``(temp > 30) & coil.eq(ON)``.

Every interned node carries metadata computed once at intern time:

* ``eid`` -- a small process-unique integer, stable for the node's
  lifetime; caches that outlive an expression graph (SAT/BDD encoders)
  key on it instead of on the node object;
* ``sort`` -- the node's sort, as before;
* its free-variable set (:func:`free_vars` is now O(1)) and whether any
  free variable is primed (:func:`has_primed_vars`).

Interning is pickle-safe: ``__reduce__`` rebuilds through the
constructors, so unpickled expressions re-intern into the receiving
process's table and identity semantics survive process boundaries (the
segmented learner's worker pool ships guard-carrying models back
through pickle).  ``copy``/``deepcopy`` return the node itself for the
same reason.  The intern table is append-only
for the life of the process; see ``docs/expr_core.md`` for the
lifecycle discussion.

Smart constructors perform light normalisation -- flattening nested
conjunctions, folding constants -- so that predicates extracted from
learned automata stay readable.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from typing import Union

from .types import BOOL, BoolSort, EnumSort, IntSort, Sort

ExprLike = Union["Expr", int, bool]

# The intern (hash-consing) table: structural key -> canonical node.
# Composite keys reference children by eid, so a key is a flat tuple of
# small ints/strings/sorts and never recurses into subtrees.
_INTERN: dict[tuple, "Expr"] = {}
_EIDS = itertools.count()
_NO_VARS: frozenset = frozenset()


def intern_table_size() -> int:
    """Number of canonical expression nodes interned in this process."""
    return len(_INTERN)


class Expr:
    """Base class for expression nodes (interned; see module docstring)."""

    __slots__ = ("eid", "sort", "_free", "_has_primed")

    eid: int
    sort: Sort
    _free: frozenset
    _has_primed: bool

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable (hash-consed); "
            "build a new expression instead"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # Interning guarantees canonical instances, so copies must be the
    # object itself -- a structural copy with identity equality would
    # silently break every memo table keyed on expressions.
    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo: dict) -> "Expr":
        return self

    # -- boolean connectives -------------------------------------------------
    def __and__(self, other: ExprLike) -> "Expr":
        return land(self, coerce_bool(other))

    def __rand__(self, other: ExprLike) -> "Expr":
        return land(coerce_bool(other), self)

    def __or__(self, other: ExprLike) -> "Expr":
        return lor(self, coerce_bool(other))

    def __ror__(self, other: ExprLike) -> "Expr":
        return lor(coerce_bool(other), self)

    def __invert__(self) -> "Expr":
        return lnot(self)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return add(self, coerce(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return add(coerce(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return sub(self, coerce(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return sub(coerce(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return mul(self, coerce(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return mul(coerce(other), self)

    def __neg__(self) -> "Expr":
        return neg(self)

    # -- comparisons (NOT __eq__/__ne__: those stay identity) ------------------
    def __lt__(self, other: ExprLike) -> "Expr":
        return lt(self, coerce(other))

    def __le__(self, other: ExprLike) -> "Expr":
        return le(self, coerce(other))

    def __gt__(self, other: ExprLike) -> "Expr":
        return gt(self, coerce(other))

    def __ge__(self, other: ExprLike) -> "Expr":
        return ge(self, coerce(other))

    def eq(self, other: ExprLike) -> "Expr":
        """Equality *expression* (identity ``==`` is left untouched)."""
        return eq(self, coerce_like(other, self))

    def ne(self, other: ExprLike) -> "Expr":
        return ne(self, coerce_like(other, self))

    def __str__(self) -> str:  # pragma: no cover - convenience
        from .printer import to_str

        return to_str(self)

    # Subclasses define ``_repr_fields`` naming their fields in the old
    # dataclass order; __repr__ reproduces the frozen-dataclass format
    # exactly.  That is load-bearing, not cosmetic: several components
    # (APT canonical orders, NFA isomorphism signatures, minimisation
    # block splitting) sort by ``repr`` to get an insertion-order-free
    # deterministic ordering, and the hash-consing refactor must not
    # perturb those orders.
    _repr_fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._repr_fields
        )
        return f"{type(self).__name__}({inner})"


def _intern(
    cls: type,
    key: tuple,
    fields: tuple[tuple[str, object], ...],
    sort: Sort,
    children: tuple["Expr", ...],
) -> "Expr":
    """Return the canonical node for ``key``, creating it on first use."""
    node = _INTERN.get(key)
    if node is not None:
        return node
    node = object.__new__(cls)
    _set = object.__setattr__
    for name, value in fields:
        _set(node, name, value)
    var_sets = [child._free for child in children if child._free]
    if not var_sets:
        free = _NO_VARS
    elif len(var_sets) == 1:
        free = var_sets[0]
    else:
        free = frozenset().union(*var_sets)
    _set(node, "sort", sort)
    _set(node, "_free", free)
    _set(node, "_has_primed", any(child._has_primed for child in children))
    _set(node, "eid", next(_EIDS))
    _INTERN[key] = node
    return node


class Var(Expr):
    """A named variable.  ``primed`` marks the next-state copy ``x'``."""

    __slots__ = ("name", "primed")
    _repr_fields = ('name', 'sort', 'primed')

    def __new__(cls, name: str, sort: Sort, primed: bool = False):
        primed = bool(primed)
        key = ("var", name, sort, primed)
        node = _INTERN.get(key)
        if node is not None:
            return node
        node = object.__new__(cls)
        _set = object.__setattr__
        _set(node, "name", name)
        _set(node, "sort", sort)
        _set(node, "primed", primed)
        _set(node, "_free", frozenset((node,)))
        _set(node, "_has_primed", primed)
        _set(node, "eid", next(_EIDS))
        _INTERN[key] = node
        return node

    def __reduce__(self):
        return (Var, (self.name, self.sort, self.primed))

    @property
    def qualified_name(self) -> str:
        """Name used in valuations/environments (``x`` or ``x'``)."""
        return self.name + "'" if self.primed else self.name

    def prime(self) -> "Var":
        if self.primed:
            raise ValueError(f"variable {self.name!r} is already primed")
        return Var(self.name, self.sort, primed=True)

    def unprime(self) -> "Var":
        if not self.primed:
            raise ValueError(f"variable {self.name!r} is not primed")
        return Var(self.name, self.sort, primed=False)


class Const(Expr):
    """A constant.  Booleans use ``value in (0, 1)`` with :data:`BOOL` sort;
    enum constants store the member index."""

    __slots__ = ("value",)
    _repr_fields = ('value', 'sort')

    def __new__(cls, value: int, sort: Sort):
        if isinstance(sort, BoolSort) and value not in (0, 1):
            raise ValueError(f"boolean constant must be 0/1, got {value}")
        if isinstance(sort, EnumSort) and not (0 <= value < sort.cardinality):
            raise ValueError(
                f"enum constant index {value} out of range for {sort}"
            )
        return _intern(
            cls, ("const", value, sort), (("value", value),), sort, ()
        )

    def __reduce__(self):
        return (Const, (self.value, self.sort))


class Not(Expr):
    __slots__ = ("arg",)
    _repr_fields = ('arg', 'sort')

    def __new__(cls, arg: Expr):
        return _intern(cls, ("not", arg.eid), (("arg", arg),), BOOL, (arg,))

    def __reduce__(self):
        return (Not, (self.arg,))


class And(Expr):
    __slots__ = ("args",)
    _repr_fields = ('args', 'sort')

    def __new__(cls, args: tuple[Expr, ...]):
        args = tuple(args)
        key = ("and",) + tuple(a.eid for a in args)
        return _intern(cls, key, (("args", args),), BOOL, args)

    def __reduce__(self):
        return (And, (self.args,))


class Or(Expr):
    __slots__ = ("args",)
    _repr_fields = ('args', 'sort')

    def __new__(cls, args: tuple[Expr, ...]):
        args = tuple(args)
        key = ("or",) + tuple(a.eid for a in args)
        return _intern(cls, key, (("args", args),), BOOL, args)

    def __reduce__(self):
        return (Or, (self.args,))


class _BoolBinary(Expr):
    """Shared shape of the Boolean binary connectives."""

    __slots__ = ("lhs", "rhs")
    _repr_fields = ('lhs', 'rhs', 'sort')

    _tag: str

    def __new__(cls, lhs: Expr, rhs: Expr):
        key = (cls._tag, lhs.eid, rhs.eid)
        return _intern(
            cls, key, (("lhs", lhs), ("rhs", rhs)), BOOL, (lhs, rhs)
        )

    def __reduce__(self):
        return (type(self), (self.lhs, self.rhs))


class Implies(_BoolBinary):
    __slots__ = ()
    _tag = "=>"


class Iff(_BoolBinary):
    __slots__ = ()
    _tag = "<=>"


class Eq(_BoolBinary):
    __slots__ = ()
    _tag = "="


class Lt(_BoolBinary):
    __slots__ = ()
    _tag = "<"


class Le(_BoolBinary):
    __slots__ = ()
    _tag = "<="


class Add(Expr):
    __slots__ = ("args",)
    _repr_fields = ('args', 'sort')

    def __new__(cls, args: tuple[Expr, ...], sort: Sort):
        args = tuple(args)
        key = ("+", sort) + tuple(a.eid for a in args)
        return _intern(cls, key, (("args", args),), sort, args)

    def __reduce__(self):
        return (Add, (self.args, self.sort))


class Sub(Expr):
    __slots__ = ("lhs", "rhs")
    _repr_fields = ('lhs', 'rhs', 'sort')

    def __new__(cls, lhs: Expr, rhs: Expr, sort: Sort):
        key = ("-", lhs.eid, rhs.eid, sort)
        return _intern(
            cls, key, (("lhs", lhs), ("rhs", rhs)), sort, (lhs, rhs)
        )

    def __reduce__(self):
        return (Sub, (self.lhs, self.rhs, self.sort))


class Neg(Expr):
    __slots__ = ("arg",)
    _repr_fields = ('arg', 'sort')

    def __new__(cls, arg: Expr, sort: Sort):
        key = ("neg", arg.eid, sort)
        return _intern(cls, key, (("arg", arg),), sort, (arg,))

    def __reduce__(self):
        return (Neg, (self.arg, self.sort))


class Mul(Expr):
    __slots__ = ("lhs", "rhs")
    _repr_fields = ('lhs', 'rhs', 'sort')

    def __new__(cls, lhs: Expr, rhs: Expr, sort: Sort):
        key = ("*", lhs.eid, rhs.eid, sort)
        return _intern(
            cls, key, (("lhs", lhs), ("rhs", rhs)), sort, (lhs, rhs)
        )

    def __reduce__(self):
        return (Mul, (self.lhs, self.rhs, self.sort))


class Ite(Expr):
    """If-then-else; branches must share a compatible sort kind."""

    __slots__ = ("cond", "then", "other")
    _repr_fields = ('cond', 'then', 'other', 'sort')

    def __new__(cls, cond: Expr, then: Expr, other: Expr, sort: Sort):
        key = ("ite", cond.eid, then.eid, other.eid, sort)
        return _intern(
            cls,
            key,
            (("cond", cond), ("then", then), ("other", other)),
            sort,
            (cond, then, other),
        )

    def __reduce__(self):
        return (Ite, (self.cond, self.then, self.other, self.sort))


TRUE = Const(1, BOOL)
FALSE = Const(0, BOOL)


# ---------------------------------------------------------------------------
# coercion helpers
# ---------------------------------------------------------------------------


def coerce(value: ExprLike) -> Expr:
    """Coerce a Python value to an expression (ints get a singleton range)."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, int):
        return Const(value, IntSort(value, value))
    raise TypeError(f"cannot coerce {value!r} to an expression")


def coerce_bool(value: ExprLike) -> Expr:
    expr = coerce(value)
    if not expr.sort.is_bool():
        raise TypeError(f"expected boolean expression, got sort {expr.sort}")
    return expr


def coerce_like(value: ExprLike, template: Expr) -> Expr:
    """Coerce ``value`` using ``template``'s sort for bare ints/strs.

    This is what lets ``mode.eq("On")`` work for enum variables and
    ``flag.eq(True)`` for Boolean ones.
    """
    if isinstance(value, Expr):
        return value
    sort = template.sort
    if isinstance(sort, EnumSort):
        if isinstance(value, str):
            return Const(sort.index_of(value), sort)
        if isinstance(value, int):
            return Const(value, sort)
    if isinstance(sort, BoolSort):
        if isinstance(value, (bool, int)):
            return TRUE if value else FALSE
    return coerce(value)


def enum_const(sort: EnumSort, member: str) -> Const:
    """Constant for an enum member by name."""
    return Const(sort.index_of(member), sort)


def bool_const(value: bool) -> Const:
    return TRUE if value else FALSE


# ---------------------------------------------------------------------------
# interval analysis (exact ranges; drives bit widths in the bit-blaster)
# ---------------------------------------------------------------------------


def interval(expr: Expr) -> tuple[int, int]:
    """Exact value interval of an int/enum-sorted expression."""
    sort = expr.sort
    if isinstance(sort, IntSort):
        return (sort.lo, sort.hi)
    if isinstance(sort, EnumSort):
        return (0, sort.cardinality - 1)
    raise TypeError(f"no interval for sort {sort}")


def _int_sort_for(lo: int, hi: int) -> IntSort:
    return IntSort(lo, hi)


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


def land(*args: ExprLike) -> Expr:
    """Conjunction; flattens, drops ``true``, short-circuits on ``false``."""
    flat: list[Expr] = []
    for raw in args:
        arg = coerce_bool(raw)
        if isinstance(arg, Const):
            if arg.value == 0:
                return FALSE
            continue
        if isinstance(arg, And):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    # Order-preserving identity dedup (nodes are interned).
    deduped = list(dict.fromkeys(flat))
    if not deduped:
        return TRUE
    if len(deduped) == 1:
        return deduped[0]
    return And(tuple(deduped))


def lor(*args: ExprLike) -> Expr:
    """Disjunction; flattens, drops ``false``, short-circuits on ``true``."""
    flat: list[Expr] = []
    for raw in args:
        arg = coerce_bool(raw)
        if isinstance(arg, Const):
            if arg.value == 1:
                return TRUE
            continue
        if isinstance(arg, Or):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    # Order-preserving identity dedup (nodes are interned).
    deduped = list(dict.fromkeys(flat))
    if not deduped:
        return FALSE
    if len(deduped) == 1:
        return deduped[0]
    return Or(tuple(deduped))


def lnot(arg: ExprLike) -> Expr:
    expr = coerce_bool(arg)
    if isinstance(expr, Const):
        return FALSE if expr.value else TRUE
    if isinstance(expr, Not):
        return expr.arg
    return Not(expr)


def implies(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = coerce_bool(lhs), coerce_bool(rhs)
    if lhs_e is TRUE:
        return rhs_e
    if lhs_e is FALSE or rhs_e is TRUE:
        return TRUE
    if rhs_e is FALSE:
        return lnot(lhs_e)
    return Implies(lhs_e, rhs_e)


def iff(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = coerce_bool(lhs), coerce_bool(rhs)
    if lhs_e is rhs_e:
        return TRUE
    if lhs_e is TRUE:
        return rhs_e
    if rhs_e is TRUE:
        return lhs_e
    if lhs_e is FALSE:
        return lnot(rhs_e)
    if rhs_e is FALSE:
        return lnot(lhs_e)
    return Iff(lhs_e, rhs_e)


def _numeric(sort: Sort) -> bool:
    # Enum values are member indices, so enums are int-compatible.
    return sort.is_int() or sort.is_enum()


def _check_same_kind(lhs: Expr, rhs: Expr, what: str) -> None:
    ok = (
        (lhs.sort.is_bool() and rhs.sort.is_bool())
        or (_numeric(lhs.sort) and _numeric(rhs.sort))
        or (lhs.sort == rhs.sort)
    )
    if not ok:
        raise TypeError(f"{what}: incompatible sorts {lhs.sort} and {rhs.sort}")


def eq(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e = coerce(lhs)
    rhs_e = coerce_like(rhs, lhs_e)
    _check_same_kind(lhs_e, rhs_e, "eq")
    if isinstance(lhs_e, Const) and isinstance(rhs_e, Const):
        return TRUE if lhs_e.value == rhs_e.value else FALSE
    if lhs_e is rhs_e:
        return TRUE
    return Eq(lhs_e, rhs_e)


def ne(lhs: ExprLike, rhs: ExprLike) -> Expr:
    return lnot(eq(lhs, rhs))


def _int_operands(lhs: ExprLike, rhs: ExprLike, what: str) -> tuple[Expr, Expr]:
    lhs_e, rhs_e = coerce(lhs), coerce(rhs)
    for side in (lhs_e, rhs_e):
        if not _numeric(side.sort):
            raise TypeError(f"{what}: expected int operands, got {side.sort}")
    return lhs_e, rhs_e


def lt(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = _int_operands(lhs, rhs, "lt")
    if isinstance(lhs_e, Const) and isinstance(rhs_e, Const):
        return TRUE if lhs_e.value < rhs_e.value else FALSE
    lo1, hi1 = interval(lhs_e)
    lo2, hi2 = interval(rhs_e)
    if hi1 < lo2:
        return TRUE
    if lo1 >= hi2:
        return FALSE
    return Lt(lhs_e, rhs_e)


def le(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = _int_operands(lhs, rhs, "le")
    if isinstance(lhs_e, Const) and isinstance(rhs_e, Const):
        return TRUE if lhs_e.value <= rhs_e.value else FALSE
    lo1, hi1 = interval(lhs_e)
    lo2, hi2 = interval(rhs_e)
    if hi1 <= lo2:
        return TRUE
    if lo1 > hi2:
        return FALSE
    return Le(lhs_e, rhs_e)


def gt(lhs: ExprLike, rhs: ExprLike) -> Expr:
    return lt(coerce(rhs), coerce(lhs))


def ge(lhs: ExprLike, rhs: ExprLike) -> Expr:
    return le(coerce(rhs), coerce(lhs))


def add(*args: ExprLike) -> Expr:
    terms: list[Expr] = []
    const_sum = 0
    for raw in args:
        term = coerce(raw)
        if not _numeric(term.sort):
            raise TypeError(f"add: expected int operand, got {term.sort}")
        if isinstance(term, Const):
            const_sum += term.value
        elif isinstance(term, Add):
            terms.extend(term.args)
        else:
            terms.append(term)
    if const_sum != 0 or not terms:
        terms.append(Const(const_sum, IntSort(const_sum, const_sum)))
    if len(terms) == 1:
        return terms[0]
    lo = sum(interval(t)[0] for t in terms)
    hi = sum(interval(t)[1] for t in terms)
    return Add(tuple(terms), _int_sort_for(lo, hi))


def sub(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = _int_operands(lhs, rhs, "sub")
    if isinstance(lhs_e, Const) and isinstance(rhs_e, Const):
        value = lhs_e.value - rhs_e.value
        return Const(value, IntSort(value, value))
    if isinstance(rhs_e, Const) and rhs_e.value == 0:
        return lhs_e
    lo1, hi1 = interval(lhs_e)
    lo2, hi2 = interval(rhs_e)
    return Sub(lhs_e, rhs_e, _int_sort_for(lo1 - hi2, hi1 - lo2))


def neg(arg: ExprLike) -> Expr:
    expr = coerce(arg)
    if not _numeric(expr.sort):
        raise TypeError(f"neg: expected int operand, got {expr.sort}")
    if isinstance(expr, Const):
        return Const(-expr.value, IntSort(-expr.value, -expr.value))
    lo, hi = interval(expr)
    return Neg(expr, _int_sort_for(-hi, -lo))


def mul(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = _int_operands(lhs, rhs, "mul")
    if isinstance(lhs_e, Const) and isinstance(rhs_e, Const):
        value = lhs_e.value * rhs_e.value
        return Const(value, IntSort(value, value))
    for const, other in ((lhs_e, rhs_e), (rhs_e, lhs_e)):
        if isinstance(const, Const):
            if const.value == 0:
                return Const(0, IntSort(0, 0))
            if const.value == 1:
                return other
    lo1, hi1 = interval(lhs_e)
    lo2, hi2 = interval(rhs_e)
    corners = [lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2]
    return Mul(lhs_e, rhs_e, _int_sort_for(min(corners), max(corners)))


def ite(cond: ExprLike, then: ExprLike, other: ExprLike) -> Expr:
    cond_e = coerce_bool(cond)
    then_e, other_e = coerce(then), coerce(other)
    if isinstance(then_e, Const) and not isinstance(other_e, Expr):
        other_e = coerce_like(other, then_e)
    _check_same_kind(then_e, other_e, "ite")
    if isinstance(cond_e, Const):
        return then_e if cond_e.value else other_e
    if then_e is other_e:
        return then_e
    if then_e.sort.is_bool():
        sort: Sort = BOOL
    else:
        lo1, hi1 = interval(then_e)
        lo2, hi2 = interval(other_e)
        lo, hi = min(lo1, lo2), max(hi1, hi2)
        # Prefer an enum branch sort when the union stays in its range,
        # so mode updates like ite(c, 1, mode) keep their enum typing.
        sort = _int_sort_for(lo, hi)
        for branch in (then_e, other_e):
            if isinstance(branch.sort, EnumSort) and 0 <= lo and hi < branch.sort.cardinality:
                sort = branch.sort
                break
    return Ite(cond_e, then_e, other_e, sort)


def minimum(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = _int_operands(lhs, rhs, "minimum")
    return ite(le(lhs_e, rhs_e), lhs_e, rhs_e)


def maximum(lhs: ExprLike, rhs: ExprLike) -> Expr:
    lhs_e, rhs_e = _int_operands(lhs, rhs, "maximum")
    return ite(ge(lhs_e, rhs_e), lhs_e, rhs_e)


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------


def children(expr: Expr) -> tuple[Expr, ...]:
    """Direct children of a node (empty for leaves)."""
    if isinstance(expr, (Var, Const)):
        return ()
    if isinstance(expr, (Not, Neg)):
        return (expr.arg,)
    if isinstance(expr, (And, Or, Add)):
        return expr.args
    if isinstance(expr, (Implies, Iff, Eq, Lt, Le, Sub, Mul)):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, Ite):
        return (expr.cond, expr.then, expr.other)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def walk(expr: Expr) -> Iterable[Expr]:
    """Pre-order traversal of all nodes (tree semantics: shared
    subexpressions are yielded once per occurrence)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def walk_unique(expr: Expr) -> Iterable[Expr]:
    """Traversal of all *distinct* nodes of the expression DAG.

    With hash-consing, shared subexpressions are physically shared;
    consumers that only need each node once (encoders, analyses) should
    prefer this over :func:`walk` -- it is linear in the DAG size even
    when the tree unfolding is exponential.
    """
    seen: set[Expr] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        stack.extend(children(node))


def free_vars(expr: Expr) -> frozenset[Var]:
    """All variables occurring in ``expr`` (O(1): cached at intern time)."""
    return expr._free


def has_primed_vars(expr: Expr) -> bool:
    """True iff any variable of ``expr`` is primed (cached at intern time)."""
    return expr._has_primed


def int_constants(expr: Expr) -> set[int]:
    """All integer constants occurring in ``expr`` (for predicate pools)."""
    return {
        node.value
        for node in walk_unique(expr)
        if isinstance(node, Const) and node.sort.is_int()
    }
