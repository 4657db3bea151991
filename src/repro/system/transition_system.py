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
and the concrete simulator, so the checker and the trace generator can
never diverge.  The simulator is the system's :class:`StepKernel`: the
next-state expressions of all state variables compiled into one
function from an environment to the next-state tuple, built on first
use.  :meth:`SymbolicSystem.run`, trace generation, the explicit
engine's BFS and the ground-truth witness search step on state tuples
through it and build :class:`Valuation` objects only where values leave
their loops.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import InitVar, dataclass, field
from dataclasses import fields as dataclass_fields
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from ..expr.ast import Expr, Var, eq, free_vars, land
from ..expr.compiled import compile_tuple
from ..expr.eval import holds
from ..expr.types import sort_values
from .valuation import Valuation, valuation_schema

InputSampler = Callable[[random.Random], dict[str, int]]
#: (state tuple, input value tuple) -> (next-state tuple, observation);
#: see :meth:`SymbolicSystem.iter_run`.
StepMemo = dict[
    tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], Valuation]
]


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
        declared = set(self.state_vars)
        extra = [v.qualified_name for v in self.next_exprs if v not in declared]
        if extra:
            raise ValueError(
                f"next-state expression for non-state variables {extra}"
            )
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
        used -- the stepping kernel (exec-generated, unpicklable) and
        the shared analysis engines (solvers, BDD managers, huge BFS
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
    def kernel(self) -> "StepKernel":
        """The compiled stepping kernel, built on first use.

        Stored in ``__dict__`` like the shared analysis engines, so
        pickling drops it and the receiving side rebuilds it lazily.
        """
        kernel = self.__dict__.get("_kernel")
        if kernel is None:
            kernel = self.__dict__["_kernel"] = StepKernel(self)
        return kernel

    def step(self, state: Mapping[str, int], inputs: Mapping[str, int]) -> Valuation:
        """One step: returns the new state valuation.

        ``state`` binds the state variables, ``inputs`` the inputs consumed
        during this step (they appear primed in the next-state expressions).
        Evaluation goes through the :attr:`kernel`, which agrees with
        :func:`repro.expr.evaluate` on environments binding every state
        and input variable (differentially tested).  The kernel evaluates
        subterms shared between state variables eagerly, so when
        ``inputs`` leaves a declared input unbound it may raise
        :class:`~repro.expr.eval.EvalError` even where ``evaluate`` would
        short-circuit past the read (``docs/expr_core.md``, "Compiled
        evaluation").
        """
        kernel = self.kernel
        env = dict(state)
        env.update({f"{name}'": value for name, value in inputs.items()})
        return kernel.state_valuation(kernel.next_state(env))

    def observe(self, state: Mapping[str, int], inputs: Mapping[str, int]) -> Valuation:
        """Observation ``v_t``: inputs at step t plus the state after step t."""
        merged = dict(inputs)
        merged.update(state)
        return Valuation(merged)

    def run(
        self,
        input_seq: Sequence[Mapping[str, int]],
        memo: StepMemo | None = None,
    ) -> list[Valuation]:
        """Execute from the initial state; returns observations v_1..v_n.

        ``memo`` is :meth:`iter_run`'s.
        """
        return list(self.iter_run(input_seq, memo))

    def iter_run(
        self,
        input_seq: Iterable[Mapping[str, int]],
        memo: StepMemo | None = None,
    ) -> Iterator[Valuation]:
        """Execute from the initial state, yielding v_1, v_2, ... lazily.

        One environment dict serves the whole execution: each step
        writes the state and the primed inputs into it and takes the
        next state from the kernel.  An input mapping that lists exactly
        the input names in ``input_vars`` order (as :meth:`random_inputs`
        does) becomes its observation through the kernel's presorted
        schema; any other (a hand-written sequence, a custom sampler) is
        bound and merged as :meth:`step` and :meth:`observe` do, extra
        keys included.

        ``memo``, when given, maps (state tuple, input value tuple) to
        (next-state tuple, observation) for the steps on the schema
        path.  A step found in it skips the kernel call and the
        observation build and yields the stored, immutable observation
        again; a step not found is stepped and stored.  One memo serves
        one system, across as many executions as its caller likes:
        :func:`~repro.traces.generate.random_traces` shares one across
        the traces of a sample.  Without one nothing is kept between
        steps, which streams of any length rely on.
        """
        kernel = self.kernel
        next_state = kernel.next_state
        observe = kernel.observe_values
        input_names = kernel.input_names
        state_names = kernel.state_names
        primed_names = kernel.primed_names
        state = kernel.initial
        env: dict[str, int] = {}
        for inputs in input_seq:
            if tuple(inputs) == input_names:
                values = tuple(inputs.values())
                if memo is not None:
                    hit = memo.get((state, values))
                    if hit is not None:
                        state, observation = hit
                        yield observation
                        continue
                env.update(zip(state_names, state))
                env.update(zip(primed_names, values))
                after = next_state(env)
                observation = observe(values + after)
                if memo is not None:
                    memo[state, values] = after, observation
            else:
                # Bind exactly what is given, as step() does.
                env = dict(zip(state_names, state))
                env.update({f"{name}'": value for name, value in inputs.items()})
                after = next_state(env)
                observation = kernel.observation(inputs, after)
            state = after
            yield observation

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
        """Uniformly random input valuation (the paper's random sampling).

        One ``rng.choice`` per input, in ``input_vars`` order, over the
        kernel's value tables.
        """
        kernel = self.kernel
        return dict(zip(kernel.input_names, map(rng.choice, kernel.tables)))

    def enumerate_inputs(self, limit: int = 4096) -> list[Valuation]:
        """Representative input valuations for the explicit-state engine.

        Prefers the declared ``input_samples``; otherwise enumerates the
        full input space if it has at most ``limit`` points.
        """
        if self.input_samples:
            return list(self.input_samples)
        if not self.input_vars:
            return [Valuation()]
        spaces = [sort_values(var.sort) for var in self.input_vars]
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
            total *= len(sort_values(var.sort))
        return total


class StepKernel:
    """A system's compiled step: one generated function and the tables
    every stepping loop needs, each computed once.

    * ``next_state(env)`` maps an environment binding the state
      variables and the primed inputs to the tuple of next-state values
      in ``state_vars`` order.  It is generated from all next-state
      expressions at once, so a subterm shared between state variables
      (a chart transition's firing condition drives the mode, every
      action it performs and the dwell counter) is evaluated once.
    * ``tables`` holds each input's values, in ``input_vars`` order, and
      ``input_points`` is the size of the input space they span.
    * ``primed_names`` are the inputs' primed names, in the same order.
    * ``initial`` is the initial state as a tuple.
    * ``observe_values`` and ``state_valuation`` build observations and
      states from value tuples through presorted schemas
      (:func:`~repro.system.valuation.valuation_schema`).
    """

    def __init__(self, system: SymbolicSystem):
        self.input_names = system.input_names
        self.state_names = system.state_names
        self.primed_names = tuple(f"{name}'" for name in self.input_names)
        self.tables = tuple(sort_values(var.sort) for var in system.input_vars)
        self.input_points = math.prod(map(len, self.tables))
        self.initial = tuple(system.init_state[name] for name in self.state_names)
        self.next_state = compile_tuple(
            tuple(system.next_exprs[var] for var in system.state_vars),
            f"<kernel-{system.name}>",
        )
        #: Observation from input values followed by state values.
        self.observe_values = valuation_schema(self.input_names + self.state_names)
        self.state_valuation = valuation_schema(self.state_names)

    def observation(
        self, inputs: Mapping[str, int], state: tuple[int, ...]
    ) -> Valuation:
        """Observation of ``inputs`` and the next-state tuple ``state``.

        Input mappings that do not list exactly the input names in
        ``input_vars`` order keep what they bind, in their order and
        extra keys included, through the general constructor.
        """
        if tuple(inputs) != self.input_names:
            merged = dict(inputs)
            merged.update(zip(self.state_names, state))
            return Valuation(merged)
        return self.observe_values(tuple(inputs.values()) + state)


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
