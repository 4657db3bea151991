"""Enumerative predicate synthesis for transition guards.

This is the reproduction's stand-in for T2M's program-synthesis
component: given positive and negative example observations for an edge,
find a small predicate over the data variables that covers every
positive and excludes every negative.

The grammar is deliberately the one the paper's models exhibit
(cf. Fig. 2): threshold atoms ``v > c`` and their negations, equalities
for small domains, Boolean literals, and conjunctions/disjunctions of at
most a few atoms.  Candidates are enumerated smallest-first and the
search is deterministic, so learned guards are stable across runs.
Thresholds come from the observed data, which is why guards sharpen as
the active loop feeds counterexample traces back in (boundary examples
move the learned cut points toward the true ones).

Implementation notes.  Every atom mentions exactly one variable, so its
truth on an example depends only on that variable's value there.  One
pass over the (deduplicated) examples groups them into *value classes*
per variable -- value -> (positive mask, negative mask), one bit per
example -- and an atom's masks are the OR of the classes whose value
satisfies it: one compiled evaluation per distinct value instead of one
per example.  The same classes supply the atoms: the observed values
give the equality atoms, and an integer variable contributes threshold
cuts only at *label boundaries* (after a value that occurs on both
sides, or on other sides than the next value along the sorted axis),
which keeps the atom pool small even for wide domains; this is the
classic decision-tree reduction and loses no separating power for
single atoms.  With the masks in hand, testing a conjunction or
disjunction is two integer ops.  Variables are the unprimed observables
the examples bind.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Iterable, Sequence

from ..expr.ast import Expr, Var, eq, gt, land, lnot, lor
from ..expr.compiled import compile_expr
from ..expr.types import BoolSort, IntSort
from ..system.valuation import Valuation, column

_MAX_EQ_DOMAIN = 6   # enumerate equality atoms only for small domains
_MAX_PAIR_ATOMS = 64  # cap for the 2-atom search
_MAX_TRIPLE_ATOMS = 28  # cap for the 3-atom search


def _value_classes(
    var: Var, pos: Sequence[Valuation], neg: Sequence[Valuation]
) -> dict[int, list[int]]:
    """``value -> [pos_mask, neg_mask]``: bit i of a mask is set iff
    ``pos[i]`` (``neg[i]``) binds ``var`` to that value."""
    classes: dict[int, list[int]] = {}
    for side, examples in enumerate((pos, neg)):
        bit = 1
        for value in column(examples, var.name):
            masks = classes.get(value)
            if masks is None:
                classes[value] = masks = [0, 0]
            masks[side] |= bit
            bit <<= 1
    return classes


def _variable_atoms(var: Var, classes: dict[int, list[int]]) -> list[Expr]:
    """Atoms over ``var`` suggested by its value classes, in order."""
    if isinstance(var.sort, BoolSort):
        return [eq(var, True), eq(var, False)]
    values = sorted(classes)
    atoms: list[Expr] = []
    if isinstance(var.sort, IntSort):
        # Threshold atoms at label boundaries, written with > so the
        # rendered guards match the paper's ``(inp.temp > T_thresh)``.
        sides = [(classes[v][0] != 0, classes[v][1] != 0) for v in values]
        for value, here, after in zip(values, sides, sides[1:], strict=False):
            if here != after or all(here):
                cut = gt(var, value)
                atoms += (cut, lnot(cut))
        if len(values) > _MAX_EQ_DOMAIN:
            return atoms
    for value in values:
        equality = eq(var, value)
        atoms += (equality, lnot(equality))
    return atoms


def _classed_atoms(
    variables: Sequence[Var],
    pos: Sequence[Valuation],
    neg: Sequence[Valuation],
) -> dict[Expr, list[tuple[dict[str, int], list[int]]]]:
    """Candidate atoms in deterministic order, each mapped to its
    variable's classes as ``(single-binding environment, masks)``."""
    atoms: dict[Expr, list[tuple[dict[str, int], list[int]]]] = {}
    for var in variables:
        classes = _value_classes(var, pos, neg)
        envs = [
            ({var.qualified_name: value}, masks)
            for value, masks in classes.items()
        ]
        for atom in _variable_atoms(var, classes):
            # Atoms are interned, so duplicates (a re-suggested literal,
            # a variable listed twice) are the *same object*: identity
            # dedup, keeping the deterministic first-occurrence order the
            # search relies on.
            atoms.setdefault(atom, envs)
    return atoms


def candidate_atoms(
    variables: Sequence[Var],
    pos: Sequence[Valuation],
    neg: Sequence[Valuation],
) -> list[Expr]:
    """Atomic predicates suggested by the data, in deterministic order."""
    return list(_classed_atoms(variables, pos, neg))


def _atom_masks(
    variables: Sequence[Var],
    pos: Sequence[Valuation],
    neg: Sequence[Valuation],
) -> list[tuple[Expr, int, int]]:
    """Every candidate atom with its bitmask semantics: bit i of the
    positive (negative) mask is set iff the atom holds on ``pos[i]``
    (``neg[i]``) -- the OR of the value classes on which it holds."""
    evaluated: list[tuple[Expr, int, int]] = []
    for atom, envs in _classed_atoms(variables, pos, neg).items():
        atom_holds = compile_expr(atom)
        pos_mask = neg_mask = 0
        for env, (value_pos, value_neg) in envs:
            if atom_holds(env):
                pos_mask |= value_pos
                neg_mask |= value_neg
        evaluated.append((atom, pos_mask, neg_mask))
    return evaluated


def synthesize_separator(
    pos: Iterable[Valuation],
    neg: Iterable[Valuation],
    variables: Sequence[Var],
    max_atoms: int = 3,
) -> Expr | None:
    """Smallest predicate true on all of ``pos`` and false on all of ``neg``.

    Searches single atoms, then conjunctions, then disjunctions of up to
    ``max_atoms`` atoms; returns ``None`` when the grammar cannot separate
    (the caller then falls back to an unconstrained guard, which keeps
    the learned model a sound over-approximation).
    """
    pos_list = list(dict.fromkeys(pos))
    neg_list = list(dict.fromkeys(neg))
    if not pos_list or not neg_list:
        # Nothing to separate from; the weakest guard is the right one.
        return None
    evaluated = _atom_masks(variables, pos_list, neg_list)
    if not evaluated:
        return None
    pos_full = (1 << len(pos_list)) - 1
    neg_full = (1 << len(neg_list)) - 1

    # Single atoms.
    for atom, pos_mask, neg_mask in evaluated:
        if pos_mask == pos_full and neg_mask == 0:
            return atom

    # Conjunctions need atoms covering all positives; disjunctions need
    # atoms excluding all negatives.
    covers_pos = [e for e in evaluated if e[1] == pos_full]
    excludes_neg = [e for e in evaluated if e[2] == 0]

    def conj_search(size: int, pool: list[tuple[Expr, int, int]]) -> Expr | None:
        for combo in combinations(pool, size):
            neg_mask = neg_full
            for _atom, _pm, nm in combo:
                neg_mask &= nm
            if neg_mask == 0:
                return land(*(atom for atom, _pm, _nm in combo))
        return None

    def disj_search(size: int, pool: list[tuple[Expr, int, int]]) -> Expr | None:
        for combo in combinations(pool, size):
            pos_mask = 0
            for _atom, pm, _nm in combo:
                pos_mask |= pm
            if pos_mask == pos_full:
                return lor(*(atom for atom, _pm, _nm in combo))
        return None

    for size in range(2, max_atoms + 1):
        cap = _MAX_PAIR_ATOMS if size == 2 else _MAX_TRIPLE_ATOMS
        found = conj_search(size, covers_pos[:cap])
        if found is not None:
            return found
        found = disj_search(size, excludes_neg[:cap])
        if found is not None:
            return found
    return None
