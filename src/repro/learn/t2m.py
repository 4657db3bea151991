"""T2M-style model learner (the paper's choice of pluggable component).

Reproduces the observable behaviour of Trace2Model [Jeppu et al., DAC'20]
on the paper's benchmarks: from execution traces alone it builds a
compact symbolic NFA whose states correspond to observed *modes* (the
valuations of the state-like observables) and whose edges carry

* a mode predicate ``⋀ (m = value)`` -- rendered primed, ``(s' = On)``,
  because observations record post-step state -- and,
* for mode-*changing* edges, a synthesised predicate over the data
  variables (``(inp.temp > T_thresh)``), obtained by enumerative
  synthesis from the edge's positive/negative example observations
  (:mod:`repro.learn.predicates`).

The initial automaton state is merged into an observed-mode state when
one subsumes its behaviour, which is how Fig. 2's two-state model arises
(the pre-step "Off" configuration and the observed Off mode coincide).

Guarantee required by the active loop (§II-B): the returned NFA admits
every input trace.  Mode states admit every observed consecutive pair by
construction; synthesised guards are only conjoined when they cover all
of the edge's examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..automata.nfa import SymbolicNFA
from ..expr.ast import Expr, Var, eq, land
from ..expr.types import EnumSort
from ..system.valuation import Valuation
from ..traces.trace import TraceSet
from .base import detect_mode_variables, infer_variables
from .predicates import synthesize_separator

_INIT = -1  # pseudo-source for first observations


@dataclass
class _EdgeData:
    """Collected examples for one (source state, target mode) edge."""

    examples: list[Valuation] = field(default_factory=list)
    seen: set[Valuation] = field(default_factory=set)

    def add(self, observation: Valuation) -> None:
        if observation not in self.seen:
            self.seen.add(observation)
            self.examples.append(observation)


class T2MLearner:
    """Learn a symbolic NFA from execution traces.

    Parameters
    ----------
    mode_vars:
        Names of the state-like observables whose valuations become
        automaton states.  Defaults to auto-detection
        (:func:`~repro.learn.base.detect_mode_variables`).
    variables:
        Typed declarations for the observables (enables enum rendering
        and tighter predicate pools).  Defaults to inference from data.
    synthesize_guards:
        Whether to run predicate synthesis on mode-changing edges.
    max_atoms:
        Size budget for synthesised predicates.
    merge_initial:
        Whether to merge the initial pseudo-state into a behaviourally
        subsuming mode state (Fig. 2's shape).  When off, the model keeps
        an explicit ``init`` state.
    prefer_vars:
        Variables to try first in guard synthesis -- typically the
        system's *inputs*.  The paper's models predicate mode switches on
        inputs (Fig. 2's ``inp.temp > T_thresh``); without the hint, any
        correlated output would serve as a separator just as well.
    """

    def __init__(
        self,
        mode_vars: list[str] | None = None,
        variables: dict[str, Var] | None = None,
        synthesize_guards: bool = True,
        max_atoms: int = 3,
        merge_initial: bool = True,
        max_distinct: int = 8,
        prefer_vars: list[str] | None = None,
    ):
        self._mode_vars = list(mode_vars) if mode_vars else None
        self._variables = dict(variables) if variables else None
        self._synthesize_guards = synthesize_guards
        self._max_atoms = max_atoms
        self._merge_initial = merge_initial
        self._max_distinct = max_distinct
        self._prefer_vars = list(prefer_vars) if prefer_vars else None

    # ------------------------------------------------------------------
    def learn(self, traces: TraceSet) -> SymbolicNFA:
        variables, mode_names = self._basis(traces)
        modes: dict[tuple[int, ...], int] = {}  # mode tuple -> dense id
        edges: dict[tuple[int, tuple[int, ...]], _EdgeData] = {}
        self._scan_into(traces, mode_names, modes, edges)
        return self._finish(modes, edges, variables, mode_names)

    def start_session(self, traces: TraceSet) -> "T2MSession":
        """Open an incremental session over a growing trace set."""
        return T2MSession(self, traces)

    # ------------------------------------------------------------------
    def _basis(self, traces: TraceSet) -> tuple[dict[str, Var], list[str]]:
        """(variables, mode names) for a trace set, with sanity checks."""
        variables = self._variables or infer_variables(traces)
        mode_names = self._mode_vars or detect_mode_variables(
            traces, self._max_distinct
        )
        missing = [name for name in mode_names if name not in variables]
        if missing:
            raise ValueError(f"mode variables not in data: {missing}")
        return variables, mode_names

    @staticmethod
    def _scan_into(
        traces,
        mode_names: list[str],
        modes: dict[tuple[int, ...], int],
        edges: dict[tuple[int, tuple[int, ...]], _EdgeData],
    ) -> None:
        """Fold traces into the mode/edge structures (incremental-safe:
        scanning a delta continues exactly where the full scan left off,
        so dense mode ids and example orders match a one-shot scan).

        A sampled trace set repeats most of its observations, and
        :func:`~repro.traces.generate.random_traces` builds a repeated
        transition's observation once, so the ``seen`` tests mostly hit
        by identity.
        """
        for trace in traces:
            source = _INIT
            for observation in trace:
                mode = observation.key(mode_names)
                target = modes.get(mode)
                if target is None:
                    target = modes[mode] = len(modes)
                edge = edges.get((source, mode))
                if edge is None:
                    edge = edges[source, mode] = _EdgeData()
                edge.add(observation)
                source = target

    def _finish(
        self,
        modes: dict[tuple[int, ...], int],
        edges: dict[tuple[int, tuple[int, ...]], _EdgeData],
        variables: dict[str, Var],
        mode_names: list[str],
    ) -> SymbolicNFA:
        """Build the NFA from (copies of) the merge structures."""
        if not modes:
            # No observations at all: the trivial accepting point.
            nfa = SymbolicNFA()
            nfa.add_state("init", initial=True)
            return nfa
        data_vars = [
            var for name, var in sorted(variables.items())
            if name not in mode_names
        ]
        if self._prefer_vars:
            preferred = [
                variables[name]
                for name in self._prefer_vars
                if name in variables and name not in mode_names
            ]
            rest = [var for var in data_vars if var not in preferred]
            data_pools = [preferred, rest] if preferred else [data_vars]
        else:
            data_pools = [data_vars]
        mode_vars = [variables[name] for name in mode_names]
        # _resolve_initial mutates the edge map (it folds _INIT edges
        # into the chosen state), so sessions hand over a copy and keep
        # their persistent structures pristine.
        edges = {
            key: _EdgeData(examples=list(data.examples), seen=set(data.seen))
            for key, data in edges.items()
        }
        initial_source = self._resolve_initial(modes, edges)
        return self._build_nfa(
            modes, edges, initial_source, mode_names, mode_vars, data_pools
        )

    # ------------------------------------------------------------------
    def _resolve_initial(
        self,
        modes: dict[tuple[int, ...], int],
        edges: dict[tuple[int, tuple[int, ...]], _EdgeData],
    ) -> int:
        """Merge the initial pseudo-state into a subsuming mode state.

        A mode state subsumes the initial state when its outgoing target
        modes include all the modes seen as first observations.  Among
        candidates, prefer the one reached by most first observations
        (ties: lowest id).  Returns the state id to use as initial, or
        ``_INIT`` if no merge happens.
        """
        init_targets = {
            mode for (source, mode) in edges if source == _INIT
        }
        if not self._merge_initial:
            return _INIT
        votes: dict[tuple[int, ...], int] = {}
        for (source, mode), data in edges.items():
            if source == _INIT:
                votes[mode] = votes.get(mode, 0) + len(data.examples)
        candidates = []
        for mode, state in modes.items():
            targets = {m for (src, m) in edges if src == state}
            if init_targets <= targets:
                candidates.append((-votes.get(mode, 0), state, mode))
        if not candidates:
            return _INIT
        _votes, state, mode = min(candidates)
        # Fold the initial examples into the chosen state's edges.
        for (source, target_mode) in list(edges):
            if source == _INIT:
                data = edges.pop((source, target_mode))
                merged = edges.setdefault((state, target_mode), _EdgeData())
                for example in data.examples:
                    merged.add(example)
        return state

    # ------------------------------------------------------------------
    def _build_nfa(
        self,
        modes: dict[tuple[int, ...], int],
        edges: dict[tuple[int, tuple[int, ...]], _EdgeData],
        initial_source: int,
        mode_names: list[str],
        mode_vars: list[Var],
        data_pools: list[list[Var]],
    ) -> SymbolicNFA:
        nfa = SymbolicNFA()
        state_ids: dict[int, int] = {}
        for mode, dense in sorted(modes.items(), key=lambda kv: kv[1]):
            state_ids[dense] = nfa.add_state(
                self._mode_name(mode, mode_names, mode_vars)
            )
        if initial_source == _INIT:
            init_id = nfa.add_state("init", initial=True)
            state_ids[_INIT] = init_id
        else:
            nfa.mark_initial(state_ids[initial_source])

        mode_by_state = {dense: mode for mode, dense in modes.items()}
        # Group edges by source for sibling-aware guard synthesis.
        by_source: dict[int, list[tuple[tuple[int, ...], _EdgeData]]] = {}
        for (source, mode), data in edges.items():
            by_source.setdefault(source, []).append((mode, data))

        for source, targets in sorted(by_source.items()):
            targets.sort(key=lambda item: modes[item[0]])
            for mode, data in targets:
                guard = self._mode_guard(mode, mode_names, mode_vars)
                if self._wants_synthesis(source, mode, mode_by_state, targets):
                    negatives = [
                        example
                        for other_mode, other in targets
                        if other_mode != mode
                        for example in other.examples
                    ]
                    for pool in data_pools:
                        separator = synthesize_separator(
                            data.examples,
                            negatives,
                            pool,
                            max_atoms=self._max_atoms,
                        )
                        if separator is not None:
                            guard = land(separator, guard)
                            break
                nfa.add_transition(state_ids[source], guard, state_ids[modes[mode]])
        return nfa

    def _wants_synthesis(
        self,
        source: int,
        target_mode: tuple[int, ...],
        mode_by_state: dict[int, tuple[int, ...]],
        siblings: list[tuple[tuple[int, ...], _EdgeData]],
    ) -> bool:
        """Synthesise only for mode-changing edges with competition."""
        if not self._synthesize_guards or len(siblings) < 2:
            return False
        if source == _INIT:
            return False
        return mode_by_state.get(source) != target_mode

    @staticmethod
    def _mode_guard(
        mode: tuple[int, ...], mode_names: list[str], mode_vars: list[Var]
    ) -> Expr:
        return land(
            *(
                eq(var, value)
                for var, value in zip(mode_vars, mode, strict=True)
            )
        )

    @staticmethod
    def _mode_name(
        mode: tuple[int, ...], mode_names: list[str], mode_vars: list[Var]
    ) -> str:
        if len(mode_vars) == 1 and isinstance(mode_vars[0].sort, EnumSort):
            return mode_vars[0].sort.member_name(mode[0])
        return ",".join(
            f"{name}={_render_value(var, value)}"
            for name, var, value in zip(mode_names, mode_vars, mode, strict=True)
        )


def _render_value(var: Var, value: int) -> str:
    if isinstance(var.sort, EnumSort):
        return var.sort.member_name(value)
    return str(value)


class T2MSession:
    """Incremental re-learning session for :class:`T2MLearner`.

    The mode table and edge/example structures -- the part of learning
    that scans every observation and deduplicates examples -- persist
    across iterations; ``add_traces`` folds only the delta in.  Initial-
    state resolution and guard synthesis still run per model (they are
    global decisions), but on copies, so the accumulated structures are
    never mutated.  Dense mode ids are assigned in first-seen order, so
    a warm model is identical to a fresh ``learn`` on the full set.

    If mode-variable auto-detection drifts under new data the session
    rebuilds cold (``warm`` reads ``False`` for that iteration).
    """

    def __init__(self, learner: T2MLearner, traces: TraceSet):
        self._learner = learner
        self._traces = traces.copy()
        self.warm = False
        self._rebuild()

    def _rebuild(self) -> None:
        learner = self._learner
        self._variables, self._mode_names = learner._basis(self._traces)
        self._modes: dict[tuple[int, ...], int] = {}
        self._edges: dict[tuple[int, tuple[int, ...]], _EdgeData] = {}
        learner._scan_into(
            self._traces, self._mode_names, self._modes, self._edges
        )
        self.model = learner._finish(
            self._modes, self._edges, self._variables, self._mode_names
        )
        self.warm = False

    def add_traces(self, delta) -> SymbolicNFA:
        new = [trace for trace in delta if self._traces.add(trace)]
        if not new:
            return self.model
        learner = self._learner
        variables, mode_names = learner._basis(self._traces)
        if mode_names != self._mode_names:
            self._rebuild()
            return self.model
        self._variables = variables
        learner._scan_into(new, mode_names, self._modes, self._edges)
        self.model = learner._finish(
            self._modes, self._edges, self._variables, self._mode_names
        )
        self.warm = True
        return self.model

    def reset(self) -> None:
        """Drop all warm state; rebuild from the accumulated traces."""
        self._rebuild()
