"""Spurious-counterexample classification (paper §III-C, Fig. 3b).

A condition-check counterexample ``(v_t, v_t+1)`` starts from an
*arbitrary* state satisfying the assumption, so ``v_t`` may be
unreachable.  The paper encodes ``s' := ⋀ (x_i = v_t(x_i))`` and proves
``¬s'`` invariant by k-induction with ``k > 1``:

* proof succeeds            → counterexample is **spurious**;
* base case fails           → ``v_t`` is reachable, counterexample **valid**;
* only the step case fails  → **inconclusive** (treated as valid, recorded).

Two engines implement this interface:

:class:`KInductionSpuriousness`
    The literal Fig. 3b check on the SAT back-end.  Faithful including the
    weak-induction inconclusive outcomes; practical for small ``k``.

:class:`ExplicitSpuriousness`
    Exact reachability of the state projection of ``v_t`` (inputs are
    free, so an observation is reachable iff its state part is).  With
    ``respect_k=True`` it reports what a k-bounded analysis would see:
    reachable within ``k`` → valid, reachable only beyond ``k`` →
    inconclusive, unreachable → spurious.  With ``respect_k=False`` it is
    a strictly stronger oracle that never returns inconclusive.

A third engine lives in its own module and registers here by name:
:class:`~repro.mc.symbolic.SymbolicSpuriousness` (``"bdd"``, exact BDD
fixpoint).
"""

from __future__ import annotations

from typing import Protocol

from ..expr.ast import Expr, eq, land
from ..system.transition_system import SymbolicSystem
from ..system.valuation import Valuation
from .explicit import ExplicitReachability
from .kinduction import KInductionEngine
from .verdicts import InductionOutcome, SpuriousVerdict


def state_equality_formula(
    system: SymbolicSystem, v_t: Valuation, state_only: bool = False
) -> Expr:
    """The paper's ``s' := ⋀ (x_i = v_t(x_i))`` over the observables.

    With ``state_only=True`` only state variables are pinned.  This is
    the "strengthen the assumption with domain knowledge" optimisation
    the paper suggests for runtime (§IV-B): since inputs are free, pinning
    them makes the checker enumerate astronomically many spurious
    counterexamples differing only in input values.
    """
    variables = system.state_vars if state_only else system.variables
    return land(*(eq(var, v_t[var.name]) for var in variables))


class SpuriousnessChecker(Protocol):
    """Classifies a counterexample's first observation ``v_t``."""

    def classify(self, v_t: Valuation, k: int) -> SpuriousVerdict:
        """Verdict for the counterexample (``k`` is the Fig. 3b bound)."""
        ...


class KInductionSpuriousness:
    """Fig. 3b verbatim: k-induction proof that ``s'`` never holds.

    Every classification pins a different counterexample state, but the
    unrollings underneath are identical, so one persistent
    :class:`~repro.mc.kinduction.KInductionEngine` serves all calls and
    only the tiny pinned-state assertions change per query.
    """

    def __init__(
        self,
        system: SymbolicSystem,
        state_only: bool = True,
        engine: KInductionEngine | None = None,
    ):
        self._system = system
        self._state_only = state_only
        self._engine = engine or KInductionEngine(system)

    def classify(self, v_t: Valuation, k: int) -> SpuriousVerdict:
        bad = state_equality_formula(self._system, v_t, self._state_only)
        result = self._engine.k_induction(~bad, k)
        if result.outcome is InductionOutcome.PROVED:
            return SpuriousVerdict.SPURIOUS
        if result.outcome is InductionOutcome.BASE_VIOLATED:
            return SpuriousVerdict.VALID
        return SpuriousVerdict.INCONCLUSIVE


#: Engine names accepted by :func:`build_spurious_checker` (and therefore
#: by every oracle/learner constructor that takes a ``spurious_engine``).
#: See ``docs/engines.md`` for when each wins.
SPURIOUS_ENGINES = ("explicit", "bdd", "kinduction", "none")


def build_spurious_checker(
    system: SymbolicSystem,
    engine: str,
    respect_k: bool = True,
    state_only: bool = True,
) -> "SpuriousnessChecker | None":
    """Construct a spuriousness checker from an engine *name*.

    The name-based factory backs :func:`~repro.core.oracle.make_oracle`
    and the CLI's ``--engine`` flag.  Every stateful engine is shared
    per-system (``shared_reachability`` / ``shared_kinduction`` /
    ``shared_symbolic_reachability``), so repeated construction over one
    system instance reuses the explored tables, unrollings and learned
    clauses instead of rebuilding them.
    """
    if engine == "explicit":
        from .explicit import shared_reachability

        return ExplicitSpuriousness(
            system, respect_k=respect_k, reach=shared_reachability(system)
        )
    if engine == "bdd":
        from .symbolic import SymbolicSpuriousness

        return SymbolicSpuriousness(system, respect_k=respect_k)
    if engine == "kinduction":
        from .kinduction import shared_kinduction

        return KInductionSpuriousness(
            system, state_only=state_only, engine=shared_kinduction(system)
        )
    if engine == "none":
        return None
    raise ValueError(unknown_engine_message(engine))


def unknown_engine_message(engine: str) -> str:
    expected = ", ".join(repr(name) for name in SPURIOUS_ENGINES[:-1])
    return (
        f"unknown spurious_engine {engine!r} "
        f"(expected {expected} or {SPURIOUS_ENGINES[-1]!r})"
    )


class ExplicitSpuriousness:
    """Exact reachability oracle (see module docstring)."""

    def __init__(
        self,
        system: SymbolicSystem,
        respect_k: bool = True,
        reach: ExplicitReachability | None = None,
    ):
        self._system = system
        self._respect_k = respect_k
        self._reach = reach or ExplicitReachability(system)

    @property
    def reachability(self) -> ExplicitReachability:
        return self._reach

    def classify(self, v_t: Valuation, k: int) -> SpuriousVerdict:
        depth = self._reach.reachable_depth(v_t)
        if depth is None:
            return SpuriousVerdict.SPURIOUS
        if self._respect_k and depth > k:
            return SpuriousVerdict.INCONCLUSIVE
        return SpuriousVerdict.VALID
