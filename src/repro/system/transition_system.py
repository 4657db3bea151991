"""The formal system model ``S = (X, X', R, Init)`` of paper §II-A.

A :class:`SymbolicSystem` is the reproduction's stand-in for "an
instrumented C implementation":

* the observables ``X`` are the union of *input* variables (free at every
  step) and *state* variables (updated by the step function);
* the transition relation ``R(X, X')`` is given functionally, exactly as
  in Fig. 3a's ``X' = f(X)``: one next-state expression per state
  variable, over the current state and the *next* observation's inputs;
* ``Init(X)`` characterises the pre-first-observation states.

Time indexing follows the paper: an observation ``v_t`` records the
inputs consumed at step ``t`` together with the state *after* step ``t``.
Hence ``R(v_t, v_{t+1})`` constrains ``state_{t+1} = f(state_t,
inputs_{t+1})`` and leaves inputs unconstrained.

The same next-state expressions drive both the bit-precise model checker
and the concrete simulator (:meth:`SymbolicSystem.step` simply evaluates
them), so the checker and the trace generator can never diverge.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import InitVar, dataclass, field
from dataclasses import fields as dataclass_fields
from collections.abc import Callable, Iterable, Mapping, Sequence

from ..expr.ast import Expr, Var, eq, free_vars, land
from ..expr.eval import holds
from ..expr.types import BoolSort, EnumSort, IntSort
from .valuation import Valuation

InputSampler = Callable[[random.Random], dict[str, int]]


def _sort_values(sort) -> list[int]:
    if isinstance(sort, BoolSort):
        return [0, 1]
    if isinstance(sort, IntSort):
        return list(range(sort.lo, sort.hi + 1))
    if isinstance(sort, EnumSort):
        return list(range(sort.cardinality))
    raise TypeError(f"not a finite sort: {sort!r}")


@dataclass
class SymbolicSystem:
    """A transition system over typed observables.

    Parameters
    ----------
    name:
        Identifier used in reports.
    state_vars:
        Observable state variables (updated by the step function).
    input_vars:
        Observable input variables (havocked each step).
    init_state:
        The concrete initial valuation of the state variables (charts have
        a unique initial configuration; ``Init(X)`` is derived from it).
    next_exprs:
        For each state variable ``x``, the expression for ``x'`` over the
        unprimed state variables and the *primed* input variables.
    input_samples:
        Optional list of "interesting" concrete input valuations.  Used by
        the explicit-state engine; guard-boundary values belong here.  If
        empty, the full input space is enumerated when small enough.
    validate:
        Opt-in: run the full static analyzer
        (:func:`repro.analysis.validate_system`) at construction and
        raise :class:`~repro.analysis.diagnostics.AnalysisError` --
        carrying every diagnostic, not just the first -- on any ERROR
        finding.  The default keeps construction cheap; boundaries that
        accept *untrusted* systems (the oracle specs, ``run_active``,
        the CLI) turn it on.
    """

    name: str
    state_vars: tuple[Var, ...]
    input_vars: tuple[Var, ...]
    init_state: Valuation
    next_exprs: dict[Var, Expr]
    input_samples: list[Valuation] = field(default_factory=list)
    validate: InitVar[bool] = False

    def __post_init__(self, validate: bool = False) -> None:
        if validate:
            # Lazy import: analysis sits above the system layer.
            from ..analysis.system_check import validate_system

            validate_system(self)
        state_names = {v.name for v in self.state_vars}
        input_names = {v.name for v in self.input_vars}
        if state_names & input_names:
            raise ValueError(
                f"state/input overlap: {sorted(state_names & input_names)}"
            )
        missing = [v.name for v in self.state_vars if v not in self.next_exprs]
        if missing:
            raise ValueError(f"no next-state expression for {missing}")
        for var, expr in self.next_exprs.items():
            for ref in free_vars(expr):
                if ref.primed and ref.name not in input_names:
                    raise ValueError(
                        f"next({var.name}) references primed non-input "
                        f"{ref.qualified_name!r}"
                    )
                if not ref.primed and ref.name not in state_names:
                    # Unprimed inputs would mean "the input consumed one
                    # step earlier"; charts must latch that in a state
                    # variable, keeping step() and R(X,X') in lock-step.
                    raise ValueError(
                        f"next({var.name}) references {ref.name!r}, which is "
                        "not a state variable (inputs must appear primed)"
                    )
        for var in self.state_vars:
            if var.name not in self.init_state:
                raise ValueError(f"init_state missing {var.name!r}")

    def __getstate__(self) -> dict:
        """Pickle only the declared fields.

        Process-local caches accumulate in ``__dict__`` as the system is
        used -- compiled step functions (exec-generated, unpicklable)
        and the shared analysis engines (solvers, BDD managers, huge BFS
        tables).  None of them belong on the wire; everything rebuilds
        lazily on the receiving side.
        """
        declared = {f.name for f in dataclass_fields(self)}
        return {k: v for k, v in self.__dict__.items() if k in declared}

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[Var, ...]:
        """The observables ``X`` (inputs first, then state)."""
        return self.input_vars + self.state_vars

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.state_vars)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.input_vars)

    @property
    def init(self) -> Expr:
        """``Init(X)``: the state part equals the initial configuration."""
        return land(
            *(
                eq(var, self.init_state[var.name])
                for var in self.state_vars
            )
        )

    @property
    def trans(self) -> Expr:
        """``R(X, X')`` as a characteristic function."""
        return land(
            *(
                eq(var.prime(), expr)
                for var, expr in sorted(
                    self.next_exprs.items(), key=lambda kv: kv[0].name
                )
            )
        )

    def var_by_name(self, name: str) -> Var:
        for var in self.variables:
            if var.name == name:
                return var
        raise KeyError(name)

    # ------------------------------------------------------------------
    # concrete semantics
    # ------------------------------------------------------------------
    @property
    def _step_fns(self) -> "list[tuple[str, Callable[[Mapping[str, int]], int]]]":
        """Compiled next-state functions, built once per instance.

        The next-state expressions are interned, so
        :func:`~repro.expr.compiled.compile_expr` hands back one shared
        compiled function per distinct expression process-wide; the
        per-instance list only pins the (name, fn) pairing.  Stored in
        ``__dict__`` like the shared analysis engines.
        """
        cached = self.__dict__.get("_compiled_step_fns")
        if cached is None:
            from ..expr.compiled import compile_expr

            cached = [
                (var.name, compile_expr(expr))
                for var, expr in self.next_exprs.items()
            ]
            self.__dict__["_compiled_step_fns"] = cached
        return cached

    def step(self, state: Mapping[str, int], inputs: Mapping[str, int]) -> Valuation:
        """One step: returns the new state valuation.

        ``state`` binds the state variables, ``inputs`` the inputs consumed
        during this step (they appear primed in the next-state expressions).
        Evaluation uses the compiled next-state functions (identical
        semantics to :func:`repro.expr.evaluate`, differentially tested).
        """
        env = dict(state)
        env.update({f"{name}'": value for name, value in inputs.items()})
        next_state = {name: fn(env) for name, fn in self._step_fns}
        return Valuation(next_state)

    def observe(self, state: Mapping[str, int], inputs: Mapping[str, int]) -> Valuation:
        """Observation ``v_t``: inputs at step t plus the state after step t."""
        merged = dict(inputs)
        merged.update(state)
        return Valuation(merged)

    def run(
        self, input_seq: Sequence[Mapping[str, int]]
    ) -> list[Valuation]:
        """Execute from the initial state; returns observations v_1..v_n."""
        state = self.init_state
        observations: list[Valuation] = []
        for inputs in input_seq:
            state = self.step(state, inputs)
            observations.append(self.observe(state, inputs))
        return observations

    def is_execution(self, observations: Sequence[Valuation]) -> bool:
        """True iff the observation sequence is a system execution trace."""
        if not observations:
            return True
        state = self.init_state.as_dict()
        for obs in observations:
            inputs = {name: obs[name] for name in self.input_names}
            new_state = self.step(state, inputs)
            if any(obs[name] != new_state[name] for name in self.state_names):
                return False
            state = new_state.as_dict()
        return True

    def satisfies_init(self, state: Mapping[str, int]) -> bool:
        return holds(self.init, dict(state))

    # ------------------------------------------------------------------
    # input enumeration / sampling
    # ------------------------------------------------------------------
    def random_inputs(self, rng: random.Random) -> dict[str, int]:
        """Uniformly random input valuation (the paper's random sampling)."""
        return {
            var.name: rng.choice(_sort_values(var.sort))
            for var in self.input_vars
        }

    def enumerate_inputs(self, limit: int = 4096) -> list[Valuation]:
        """Representative input valuations for the explicit-state engine.

        Prefers the declared ``input_samples``; otherwise enumerates the
        full input space if it has at most ``limit`` points.
        """
        if self.input_samples:
            return list(self.input_samples)
        if not self.input_vars:
            return [Valuation()]
        spaces = [_sort_values(var.sort) for var in self.input_vars]
        total = 1
        for space in spaces:
            total *= len(space)
            if total > limit:
                raise ValueError(
                    f"input space of {self.name} too large to enumerate "
                    f"({total}+ points); provide input_samples"
                )
        names = [var.name for var in self.input_vars]
        return [
            Valuation(dict(zip(names, combo, strict=True)))
            for combo in itertools.product(*spaces)
        ]

    def state_space_size(self) -> int:
        total = 1
        for var in self.state_vars:
            total *= len(_sort_values(var.sort))
        return total


def shared_analysis(
    system: SymbolicSystem, attr: str, factory: Callable[[SymbolicSystem], object]
) -> object:
    """Per-system memo for analysis engines, keyed by object identity.

    The engine is stored on the system instance itself rather than in a
    module-level ``id()``-keyed dict: ids are recycled after garbage
    collection, so a global table could hand a fresh system a dead
    system's engine, and it would grow without bound.  The attribute
    gives WeakValueDictionary-style lifetime (the cache entry dies
    exactly when the system does) with exact identity semantics; the
    ``engine._system is system`` guard detects copied instances that
    inherited the attribute via ``__dict__`` duplication and gives them
    their own engine.  Used by ``shared_reachability``,
    ``shared_kinduction``, ``shared_ic3``, ``shared_bdd_context`` and
    ``shared_symbolic_reachability``.
    """
    engine = getattr(system, attr, None)
    if engine is None or getattr(engine, "_system", None) is not system:
        engine = factory(system)
        setattr(system, attr, engine)
    return engine


def make_system(
    name: str,
    state_vars: Iterable[Var],
    input_vars: Iterable[Var],
    init_state: Mapping[str, int],
    next_exprs: Mapping[Var, Expr],
    input_samples: Iterable[Mapping[str, int]] = (),
    validate: bool = False,
) -> SymbolicSystem:
    """Convenience constructor accepting plain mappings."""
    return SymbolicSystem(
        name=name,
        state_vars=tuple(state_vars),
        input_vars=tuple(input_vars),
        init_state=Valuation(dict(init_state)),
        next_exprs=dict(next_exprs),
        input_samples=[Valuation(dict(s)) for s in input_samples],
        validate=validate,
    )
