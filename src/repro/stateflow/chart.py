"""Stateflow-like chart DSL.

The evaluation dataset of the paper is a set of Simulink Stateflow demo
models compiled to C by Embedded Coder.  This module provides the
modelling layer: charts consisting of

* typed **inputs** (sampled each tick),
* typed **data** variables (outputs/locals with initial values),
* one or more **machines** -- flat FSAs that execute in declaration order
  within a tick (Stateflow's sequential semantics for parallel states):
  a machine declared later reads the *updated* states/data of earlier
  ones.  Hierarchical charts are modelled as an outer machine plus inner
  machines, which is also how the paper reports them (one Table I row per
  FSA).

Within a machine, the first enabled transition out of the active state
fires (priority = declaration order); its actions update data variables.
If nothing fires, the active state's ``during`` actions run.  Temporal
logic (``after(n, tick)``) is supported through an implicit saturating
dwell counter per machine (``max_dwell`` bounds it, keeping the state
space finite).

:meth:`Chart.build` is the **code generator** (the Embedded Coder
stand-in): it compiles the chart into a :class:`~repro.system.
SymbolicSystem` -- one next-state expression per variable, produced by
symbolic sequential composition of the machines.  The same expressions
drive simulation and model checking, mirroring how the paper's generated
C code is both executed for traces and handed to CBMC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..expr.ast import (
    Expr,
    TRUE,
    Var,
    coerce,
    eq,
    free_vars,
    int_constants,
    ite,
    land,
    lnot,
    lor,
    minimum,
)
from ..expr.compiled import compile_expr
from ..expr.subst import substitute
from ..expr.types import BoolSort, EnumSort, IntSort, Sort
from ..system.transition_system import SymbolicSystem
from ..system.valuation import Valuation


@dataclass(frozen=True)
class SfTransition:
    """One chart transition: ``src --[guard]{actions}--> dst``."""

    src: str
    dst: str
    guard: Expr
    actions: tuple[tuple[Var, Expr], ...]
    label: str


class Machine:
    """A flat FSA within a chart.

    ``max_dwell`` enables the implicit dwell counter (needed by
    :meth:`after`); it should be at least ``n - 1`` for the largest
    ``after(n)`` used.
    """

    def __init__(
        self,
        name: str,
        states: list[str],
        initial: str,
        max_dwell: int | None = None,
    ):
        if initial not in states:
            raise ValueError(f"initial state {initial!r} not in {states}")
        self.name = name
        self.states = list(states)
        self.initial = initial
        self.sort = EnumSort(name, tuple(states))
        self.var = Var(name, self.sort)
        self.max_dwell = max_dwell
        self.dwell_var: Var | None = (
            Var(f"{name}_t", IntSort(0, max_dwell))
            if max_dwell is not None
            else None
        )
        self.transitions: list[SfTransition] = []
        self.during_actions: dict[str, tuple[tuple[Var, Expr], ...]] = {}

    # ------------------------------------------------------------------
    # authoring helpers
    # ------------------------------------------------------------------
    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ValueError(
                f"machine {self.name!r} has no state {state!r}"
            ) from None

    def in_state(self, state: str) -> Expr:
        """Guard helper: the machine is currently in ``state``."""
        return eq(self.var, self.state_index(state))

    def after(self, n: int) -> Expr:
        """Stateflow's ``after(n, tick)``: n ticks elapsed in this state.

        First true on the n-th tick after entry (guards are evaluated
        before the dwell increment, so the comparison is ``>= n - 1``).
        """
        if self.dwell_var is None:
            raise ValueError(
                f"machine {self.name!r} needs max_dwell for after()"
            )
        if n < 1:
            raise ValueError(f"after(n) needs n >= 1, got {n}")
        if n - 1 > self.max_dwell:
            raise ValueError(
                f"after({n}) exceeds max_dwell={self.max_dwell} "
                f"of machine {self.name!r}"
            )
        return self.dwell_var >= (n - 1)

    def transition(
        self,
        src: str,
        dst: str,
        guard: Expr | bool | None = None,
        actions: dict[Var, Expr | int | bool] | None = None,
        label: str | None = None,
    ) -> SfTransition:
        """Add a transition; earlier transitions have higher priority."""
        self.state_index(src)
        self.state_index(dst)
        guard_expr = TRUE if guard is None else coerce(guard)
        if not guard_expr.sort.is_bool():
            raise TypeError(f"guard must be boolean, got {guard_expr.sort}")
        action_items = tuple(
            (var, coerce(value)) for var, value in (actions or {}).items()
        )
        transition = SfTransition(
            src=src,
            dst=dst,
            guard=guard_expr,
            actions=action_items,
            label=label or f"{src}->{dst}",
        )
        self.transitions.append(transition)
        return transition

    def during(self, state: str, actions: dict[Var, Expr | int | bool]) -> None:
        """Actions applied each tick the machine stays in ``state``."""
        self.state_index(state)
        self.during_actions[state] = tuple(
            (var, coerce(value)) for var, value in actions.items()
        )


@dataclass
class CompiledTransition:
    """A chart transition with its compiled firing condition.

    ``condition`` is over unprimed state variables and primed inputs,
    with earlier machines' same-tick updates already substituted in, so
    evaluating it on ``(state, inputs')`` tells exactly whether this
    transition fires.
    """

    machine: str
    index: int
    transition: SfTransition
    condition: Expr


@dataclass
class CodegenInfo:
    """Compilation artefacts beyond the symbolic system itself."""

    compiled: dict[str, list[CompiledTransition]] = field(default_factory=dict)

    def fired(
        self, machine: str, state: dict[str, int], primed_inputs: dict[str, int]
    ) -> CompiledTransition | None:
        """Which transition of ``machine`` fires from this state/input:
        the first, in priority order, whose compiled condition holds."""
        env = dict(state)
        env.update(primed_inputs)
        for compiled in self.compiled.get(machine, []):
            if compile_expr(compiled.condition)(env):
                return compiled
        return None


class Chart:
    """A chart: inputs + data + ordered machines."""

    def __init__(self, name: str):
        self.name = name
        self.inputs: list[Var] = []
        self.input_samples: dict[str, list[int]] = {}
        self.data: list[Var] = []
        self.data_init: dict[str, int] = {}
        self.machines: list[Machine] = []

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def add_input(
        self, name: str, sort: Sort, samples: list[int] | None = None
    ) -> Var:
        var = Var(name, sort)
        self._check_fresh(name)
        self.inputs.append(var)
        if samples is not None:
            self.input_samples[name] = list(samples)
        return var

    def add_data(self, name: str, sort: Sort, init: int = 0) -> Var:
        var = Var(name, sort)
        self._check_fresh(name)
        self.data.append(var)
        self.data_init[name] = init
        return var

    def add_machine(self, machine: Machine) -> Machine:
        self._check_fresh(machine.name)
        if machine.dwell_var is not None:
            self._check_fresh(machine.dwell_var.name)
        self.machines.append(machine)
        return machine

    def machine(
        self,
        name: str,
        states: list[str],
        initial: str,
        max_dwell: int | None = None,
    ) -> Machine:
        """Create and register a machine in one call."""
        return self.add_machine(Machine(name, states, initial, max_dwell))

    def _check_fresh(self, name: str) -> None:
        taken = {v.name for v in self.inputs} | {v.name for v in self.data}
        for machine in self.machines:
            taken.add(machine.name)
            if machine.dwell_var is not None:
                taken.add(machine.dwell_var.name)
        if name in taken:
            raise ValueError(f"name {name!r} already used in chart {self.name!r}")

    def machine_by_name(self, name: str) -> Machine:
        for machine in self.machines:
            if machine.name == name:
                return machine
        raise KeyError(name)

    # ------------------------------------------------------------------
    # code generation (the Embedded Coder stand-in)
    # ------------------------------------------------------------------
    def build(self) -> tuple[SymbolicSystem, CodegenInfo]:
        """Compile the chart into a symbolic transition system."""
        self._validate()
        info = CodegenInfo()
        # ``current`` maps every chart variable to its value-so-far this
        # tick; machines later in the order observe earlier updates
        # (Stateflow's sequential execution of parallel states).
        current: dict[Var, Expr] = {}
        for machine in self.machines:
            current[machine.var] = machine.var
            if machine.dwell_var is not None:
                current[machine.dwell_var] = machine.dwell_var
        for var in self.data:
            current[var] = var
        input_subst = {var: var.prime() for var in self.inputs}

        for machine in self.machines:
            subst = dict(current)
            subst.update(input_subst)

            compiled: list[CompiledTransition] = []
            # Firing condition per transition, with in-machine priority:
            # a transition fires if its guard holds, the machine is in its
            # source state, and no higher-priority transition fired.
            blocked_by: dict[str, Expr] = {}
            for index, transition in enumerate(machine.transitions):
                guard = substitute(transition.guard, subst)
                in_src = eq(
                    current[machine.var], machine.state_index(transition.src)
                )
                earlier = blocked_by.get(transition.src, TRUE)
                condition = land(in_src, earlier, guard)
                blocked_by[transition.src] = land(earlier, lnot(guard))
                compiled.append(
                    CompiledTransition(
                        machine=machine.name,
                        index=index,
                        transition=transition,
                        condition=condition,
                    )
                )
            info.compiled[machine.name] = compiled

            fired_any = lor(*(c.condition for c in compiled))

            # Next state: priority ite-chain (innermost = stay put).
            next_state: Expr = current[machine.var]
            for item in reversed(compiled):
                next_state = ite(
                    item.condition,
                    machine.state_index(item.transition.dst),
                    next_state,
                )

            # Data updates: transition actions first (by priority), then
            # during actions of the (unfired) active state.
            assigned: dict[Var, Expr] = {}
            acted_vars: list[Var] = []
            for item in compiled:
                for var, _expr in item.transition.actions:
                    if var not in acted_vars:
                        acted_vars.append(var)
            for state, actions in machine.during_actions.items():
                for var, _expr in actions:
                    if var not in acted_vars:
                        acted_vars.append(var)
            for var in acted_vars:
                if var not in current:
                    raise ValueError(
                        f"action assigns unknown data variable {var.name!r}"
                    )
                update: Expr = current[var]
                for state, actions in machine.during_actions.items():
                    for action_var, action_expr in actions:
                        if action_var == var:
                            during_cond = land(
                                eq(
                                    current[machine.var],
                                    machine.state_index(state),
                                ),
                                lnot(fired_any),
                            )
                            update = ite(
                                during_cond,
                                substitute(action_expr, subst),
                                update,
                            )
                for item in reversed(compiled):
                    for action_var, action_expr in item.transition.actions:
                        if action_var == var:
                            update = ite(
                                item.condition,
                                substitute(action_expr, subst),
                                update,
                            )
                assigned[var] = update

            # Commit this machine's updates for later machines to read.
            current[machine.var] = next_state
            if machine.dwell_var is not None:
                dwell = current[machine.dwell_var]
                ticked = minimum(dwell + 1, machine.max_dwell)
                current[machine.dwell_var] = ite(fired_any, 0, ticked)
            current.update(assigned)

        state_vars: list[Var] = []
        init_state: dict[str, int] = {}
        for machine in self.machines:
            state_vars.append(machine.var)
            init_state[machine.name] = machine.state_index(machine.initial)
            if machine.dwell_var is not None:
                state_vars.append(machine.dwell_var)
                init_state[machine.dwell_var.name] = 0
        for var in self.data:
            state_vars.append(var)
            init_state[var.name] = self.data_init[var.name]

        next_exprs = {var: current[var] for var in state_vars}
        system = SymbolicSystem(
            name=self.name,
            state_vars=tuple(state_vars),
            input_vars=tuple(self.inputs),
            init_state=Valuation(init_state),
            next_exprs=next_exprs,
            input_samples=self._derive_input_samples(),
        )
        return system, info

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.machines:
            raise ValueError(f"chart {self.name!r} has no machines")
        known = {v for v in self.inputs} | {v for v in self.data}
        for machine in self.machines:
            known.add(machine.var)
            if machine.dwell_var is not None:
                known.add(machine.dwell_var)
        for machine in self.machines:
            for transition in machine.transitions:
                for ref in free_vars(transition.guard):
                    if ref.primed or ref not in known:
                        raise ValueError(
                            f"guard of {machine.name}:{transition.label} "
                            f"references unknown variable {ref.qualified_name!r}"
                        )
                for _var, expr in transition.actions:
                    for ref in free_vars(expr):
                        if ref.primed or ref not in known:
                            raise ValueError(
                                f"action of {machine.name}:{transition.label} "
                                f"references unknown {ref.qualified_name!r}"
                            )

    def _derive_input_samples(self) -> list[Valuation]:
        """Representative inputs for the explicit-state engine.

        Declared samples win; otherwise guard constants (and their
        successors, to cover strict-inequality boundaries) plus the sort
        extremes are used for int inputs, and full enumeration for
        bool/enum inputs.
        """
        import itertools

        guard_constants: dict[str, set[int]] = {}
        for machine in self.machines:
            for transition in machine.transitions:
                constants = int_constants(transition.guard)
                for ref in free_vars(transition.guard):
                    if any(ref.name == inp.name for inp in self.inputs):
                        guard_constants.setdefault(ref.name, set()).update(
                            constants
                        )
        spaces: list[list[int]] = []
        for var in self.inputs:
            if var.name in self.input_samples:
                spaces.append(self.input_samples[var.name])
                continue
            sort = var.sort
            if isinstance(sort, BoolSort):
                spaces.append([0, 1])
            elif isinstance(sort, EnumSort):
                spaces.append(list(range(sort.cardinality)))
            elif isinstance(sort, IntSort):
                values = {sort.lo, sort.hi}
                for constant in guard_constants.get(var.name, ()):
                    for candidate in (constant, constant + 1, constant - 1):
                        if sort.lo <= candidate <= sort.hi:
                            values.add(candidate)
                spaces.append(sorted(values))
            else:  # pragma: no cover - unreachable with current sorts
                raise TypeError(f"unsupported input sort {sort}")
        total = 1
        for space in spaces:
            total *= len(space)
        if total > 4096:
            raise ValueError(
                f"chart {self.name!r}: {total} representative input "
                "combinations; declare input samples to narrow them"
            )
        names = [var.name for var in self.inputs]
        return [
            Valuation(dict(zip(names, combo, strict=True)))
            for combo in itertools.product(*spaces)
        ]
