"""Ground-truth extraction: flattened FSAs and transition witnesses.

For the paper's quality score ``d`` we need, per benchmark FSA, the set
of chart transitions and -- for the behavioural matching described in
:mod:`repro.automata.compare` -- a *witness* execution trace per
transition: a concrete run that ends by exercising exactly that
transition.

Witnesses are found by breadth-first exploration of the compiled system
using its representative inputs, on state tuples through the system's
stepping kernel (:attr:`~repro.system.SymbolicSystem.kernel`): one
kernel call per (state, input).  Each target machine's firing
conditions (:class:`~repro.stateflow.chart.CodegenInfo`), compiled once
per search and tried in priority order on the same environment,
identify which chart transition a concrete step exercised, and
observations are built only for the witnesses.  The search is the system's own semantics, not the
learner's or the oracle's.  Transitions with no witness within the
explored space are dead in the implementation (or unreachable with the
sampled inputs) and are reported separately rather than silently
dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..automata.compare import TransitionWitness
from ..expr.compiled import compile_expr
from ..system.transition_system import SymbolicSystem
from ..system.valuation import Valuation
from ..traces.trace import Trace
from .chart import Chart, CodegenInfo, Machine


@dataclass
class GroundTruth:
    """Witnessed chart transitions for one FSA (one Table I row)."""

    machine: str
    witnesses: list[TransitionWitness] = field(default_factory=list)
    unwitnessed: list[str] = field(default_factory=list)  # transition labels

    @property
    def num_transitions(self) -> int:
        return len(self.witnesses) + len(self.unwitnessed)


def ground_truth_witnesses(
    system: SymbolicSystem,
    info: CodegenInfo,
    chart: Chart,
    machines: list[str] | None = None,
    max_states: int = 200_000,
) -> dict[str, GroundTruth]:
    """Witnesses for every transition of the requested machines."""
    wanted = machines or [m.name for m in chart.machines]
    targets: dict[str, Machine] = {
        name: chart.machine_by_name(name) for name in wanted
    }
    total = sum(len(machine.transitions) for machine in targets.values())
    found: dict[tuple[str, int], Trace] = {}

    kernel = system.kernel
    next_state = kernel.next_state
    observation = kernel.observation
    state_names = kernel.state_names
    steps = [(inputs, inputs.primed()) for inputs in system.enumerate_inputs()]
    firing = [
        (name, [(c, compile_expr(c.condition)) for c in info.compiled.get(name, [])])
        for name in targets
    ]
    # BFS over state tuples with parent pointers for witness reconstruction.
    table: dict[tuple[int, ...], tuple[tuple[int, ...] | None, Valuation | None]] = {
        kernel.initial: (None, None)
    }
    frontier: deque[tuple[int, ...]] = deque([kernel.initial])

    def path_to(state_key: tuple[int, ...]) -> list[Valuation]:
        observations: list[Valuation] = []
        cursor = state_key
        while True:
            parent, used_inputs = table[cursor]
            if parent is None:
                break
            observations.append(observation(used_inputs, cursor))
            cursor = parent
        observations.reverse()
        return observations

    while frontier and len(found) < total:
        state_key = frontier.popleft()
        state = dict(zip(state_names, state_key))
        prefix: list[Valuation] | None = None
        for input_valuation, primed in steps:
            env = dict(state)
            env.update(primed)
            next_key = next_state(env)
            for name, transitions in firing:
                for compiled, condition in transitions:
                    if not condition(env):
                        continue
                    key = (name, compiled.index)
                    if key not in found:
                        if prefix is None:
                            prefix = path_to(state_key)
                        found[key] = Trace(
                            prefix + [observation(input_valuation, next_key)]
                        )
                    break
            if next_key not in table:
                if len(table) >= max_states:
                    raise RuntimeError(
                        f"{system.name}: witness search exceeded "
                        f"{max_states} states"
                    )
                table[next_key] = (state_key, input_valuation)
                frontier.append(next_key)

    result: dict[str, GroundTruth] = {}
    for name, machine in targets.items():
        truth = GroundTruth(machine=name)
        for index, transition in enumerate(machine.transitions):
            witness = found.get((name, index))
            if witness is None:
                truth.unwitnessed.append(transition.label)
            else:
                truth.witnesses.append(
                    TransitionWitness(
                        src=transition.src,
                        dst=transition.dst,
                        label=f"{name}:{transition.label}",
                        witness=witness,
                    )
                )
        result[name] = truth
    return result


def flatten_product(chart: Chart, machines: list[str]) -> list[str]:
    """Names of the product states of several machines (for reports)."""
    names = [""]
    for machine_name in machines:
        machine = chart.machine_by_name(machine_name)
        names = [
            f"{prefix}|{state}" if prefix else state
            for prefix in names
            for state in machine.states
        ]
    return names
