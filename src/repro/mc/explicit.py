"""Explicit-state reachability engine.

The paper's spuriousness checks (Fig. 3b) run k-induction with ``k`` up to
the system diameter -- for benchmarks like FrameSyncController that means
``k = 530`` transition unrollings, which is far beyond what a pure-Python
SAT solver can absorb.  For the finite systems in this reproduction we
therefore also provide an *exact* reachability oracle: breadth-first
search over the (finite) state space, with inputs drawn from a
representative sample set covering every guard region (the code generator
emits guard-boundary samples; see ``repro.stateflow.codegen``).

The engine answers the same question k-induction answers -- "is this
counterexample state reachable?" -- with exact yes/no instead of
yes/no/inconclusive.  DESIGN.md discusses why this substitution preserves
the algorithm's behaviour; the SAT k-induction engine remains available
for small ``k`` and for the k-sensitivity ablation.

The BFS steps through the system's compiled stepping kernel
(:attr:`~repro.system.SymbolicSystem.kernel`) on state tuples: the
frontier and the table hold tuples in ``state_vars`` order, each
representative input's primed bindings are built once, and a successor
is one kernel call.  Observations are built only when a witness leaves
the engine.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Mapping

from ..expr.ast import TRUE, Expr, eq, land, lor
from ..expr.types import sort_values
from ..system.transition_system import SymbolicSystem, shared_analysis
from ..system.valuation import Valuation


class StateSpaceLimitExceeded(RuntimeError):
    """Raised when BFS touches more states than the configured budget."""


def shared_reachability(system: SymbolicSystem) -> "ExplicitReachability":
    """Per-system cache of reachability engines, keyed by object identity.

    Active-learning runs, baselines and witness generation all need the
    same BFS; benchmark systems live for the whole process (the library
    caches them), so sharing the explored table avoids re-exploration.
    Lifetime and copied-instance semantics come from
    :func:`~repro.system.transition_system.shared_analysis`.
    """
    return shared_analysis(
        system, "_shared_reachability_engine", ExplicitReachability
    )


class ExplicitReachability:
    """Exact forward reachability over the state projection.

    The state space is explored once and cached; queries then run on the
    cached table.  Witness traces are reconstructed from BFS parents and
    include the inputs that drove each step, so they are valid system
    execution traces.
    """

    def __init__(self, system: SymbolicSystem, max_states: int = 500_000):
        self._system = system
        self._max_states = max_states
        self._state_names = system.state_names
        self._inputs = system.enumerate_inputs()
        # state key -> (depth, parent key | None, inputs used | None)
        self._table: dict[tuple[int, ...], tuple[int, tuple[int, ...] | None, Valuation | None]] = {}
        self._explored = False

    # ------------------------------------------------------------------
    def _key(self, state: Mapping[str, int]) -> tuple[int, ...]:
        return tuple(state[name] for name in self._state_names)

    def explore(self) -> None:
        """Run the BFS (idempotent).

        The frontier holds state tuples.  Each representative input's
        primed bindings are built once; a state's successors come from
        one kernel call per input.
        """
        if self._explored:
            return
        system = self._system
        kernel = system.kernel
        next_state = kernel.next_state
        state_names = self._state_names
        steps = [(inputs, inputs.primed()) for inputs in self._inputs]
        table = self._table
        init_key = kernel.initial
        table[init_key] = (0, None, None)
        frontier: deque[tuple[int, ...]] = deque([init_key])
        while frontier:
            key = frontier.popleft()
            next_depth = table[key][0] + 1
            state = dict(zip(state_names, key))
            for inputs, primed in steps:
                env = dict(state)
                env.update(primed)
                next_key = next_state(env)
                if next_key in table:
                    continue
                if len(table) >= self._max_states:
                    raise StateSpaceLimitExceeded(
                        f"{system.name}: more than {self._max_states} states"
                    )
                table[next_key] = (next_depth, key, inputs)
                frontier.append(next_key)
        self._explored = True

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        self.explore()
        return len(self._table)

    @property
    def diameter(self) -> int:
        """Maximum BFS depth over reachable states."""
        self.explore()
        return max(depth for depth, _p, _i in self._table.values())

    def reachable_depth(self, state: Mapping[str, int]) -> int | None:
        """BFS depth of the state projection, or None if unreachable.

        ``state`` may be a full observation; only state variables are read.
        Depth 0 is the pre-first-observation initial state.
        """
        self.explore()
        entry = self._table.get(self._key(state))
        return entry[0] if entry is not None else None

    def is_state_reachable(self, state: Mapping[str, int]) -> bool:
        return self.reachable_depth(state) is not None

    def reachable_keys(self) -> list[tuple[int, ...]]:
        """Reachable states as value tuples in ``system.state_vars`` order."""
        self.explore()
        return list(self._table)

    def reachable_states(self) -> list[Valuation]:
        return [
            Valuation(dict(zip(self._state_names, key, strict=True)))
            for key in self.reachable_keys()
        ]

    # ------------------------------------------------------------------
    def witness(self, state: Mapping[str, int]) -> list[Valuation] | None:
        """Observation sequence v_1..v_d reaching the given state part.

        Returns None if unreachable; the empty list if the target is the
        initial (depth-0) state.
        """
        self.explore()
        key = self._key(state)
        if key not in self._table:
            return None
        steps: list[tuple[tuple[int, ...], Valuation]] = []
        cursor = key
        while True:
            depth, parent, inputs = self._table[cursor]
            if parent is None:
                break
            steps.append((cursor, inputs))
            cursor = parent
        steps.reverse()
        observation = self._system.kernel.observation
        return [observation(inputs, state_key) for state_key, inputs in steps]

    def find_observation(
        self, predicate: Callable[[Valuation], bool]
    ) -> list[Valuation] | None:
        """Shortest observation sequence whose last element satisfies
        ``predicate``, scanning reachable states in BFS order with every
        representative input.

        Single pass over the BFS parents: each candidate state's final
        observation is rebuilt directly from its own table entry, and a
        full witness is reconstructed only for the first hit -- O(states
        + diameter) instead of reconstructing a witness per state.
        """
        self.explore()
        observe = self._system.kernel.observation
        ordered = sorted(self._table.items(), key=lambda kv: kv[1][0])
        for key, (depth, _parent, inputs) in ordered:
            if depth == 0:
                # Initial state: observations start after the first step.
                continue
            observation = observe(inputs, key)
            if predicate(observation):
                return self.witness(observation)
        return None


def reachable_formula(
    system: SymbolicSystem, reach: "ExplicitReachability | None" = None
) -> Expr:
    """Characteristic formula of the reachable state set, exact at any size.

    This is the "domain knowledge" the paper suggests for guiding the
    model checker towards valid counterexamples (§IV-B.1): assumed on
    ``v_t`` in the Fig. 3a harness, it admits exactly the states the
    explicit engine reaches, so every counterexample it leaves is
    reachable and each condition is decided in one solve -- no
    ``r ∧ ¬s'`` rounds, no strengthening cap to hit.

    The formula is a reduced multi-valued decision diagram over
    ``system.state_vars`` in declared order.  The node for a set of
    state suffixes groups them by the value of the next variable,
    recurses on each group, and joins the values that lead to the same
    child into one edge; an edge covering the variable's whole sort is
    dropped, since the encoder's range constraints already imply it.
    Nodes are memoised on ``(depth, suffix set)``, so equal suffix sets
    become one interned subformula and, through the encoder's memo, one
    set of Tseitin gates.  That sharing, not a state-count cap, keeps the
    formula small, so no size needs an over-approximation: on the
    library systems it is never larger than the flat
    one-disjunct-per-state DNF, and for ModelingASecuritySystem (561
    states) it is 268 clauses against 5,651.
    """
    if reach is None:
        reach = shared_reachability(system)
    variables = system.state_vars
    memo: dict[tuple[int, frozenset[tuple[int, ...]]], Expr] = {}

    def node(depth: int, suffixes: frozenset[tuple[int, ...]]) -> Expr:
        if depth == len(variables):
            return TRUE
        cached = memo.get((depth, suffixes))
        if cached is not None:
            return cached
        groups: dict[int, list[tuple[int, ...]]] = {}
        for suffix in suffixes:
            groups.setdefault(suffix[0], []).append(suffix[1:])
        var = variables[depth]
        edges: dict[Expr, list[int]] = {}
        for value in sorted(groups):
            child = node(depth + 1, frozenset(groups[value]))
            edges.setdefault(child, []).append(value)
        whole_sort = len(sort_values(var.sort))
        formula = lor(
            *(
                land(lor(*(eq(var, v) for v in values)), child)
                if len(values) < whole_sort
                else child
                for child, values in edges.items()
            )
        )
        memo[(depth, suffixes)] = formula
        return formula

    return node(0, frozenset(reach.reachable_keys()))
