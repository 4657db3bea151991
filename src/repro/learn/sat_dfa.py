"""SAT-based minimal DFA identification (Heule-Verwer style encoding).

The third pluggable learning component, and the one closest to the SAT
core of the real Trace2Model: find the smallest deterministic automaton
over a finite event alphabet consistent with labelled example sequences.

With positive examples only (the active-learning setting: execution
traces, prefix-closed) the minimal consistent DFA is the single-state
automaton with one self-loop per observed event -- maximally permissive
but still structurally informative (it records which events occur at
all), and it satisfies the active loop's contract of admitting every
input trace.  Supplying *negative* sequences (e.g. from a teacher, or
from the spuriousness checker's proved-unreachable states) makes the
identification non-trivial; tests exercise both regimes.

The encoding, for ``n`` colours over the augmented prefix tree (APT):

* ``x[v,i]``  -- APT node ``v`` has colour ``i`` (exactly-one per node);
* ``y[a,i,j]`` -- the DFA moves ``i --a--> j`` (at-most-one ``j``);
* parent constraints tie node colours to transitions;
* accepting and rejecting nodes may not share a colour.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from collections.abc import Hashable, Sequence

from ..automata.nfa import SymbolicNFA
from ..expr.ast import Expr, Var, eq, land
from ..sat.solver import Solver
from ..traces.trace import TraceSet
from .base import detect_mode_variables, infer_variables


def _tel_metrics():
    """Live metrics registry, or ``None`` (lazy import: this module is
    inside the core package's import closure, see telemetry docstring)."""
    from ..core.telemetry import active

    session = active()
    return None if session is None else session.metrics

Event = Hashable


@dataclass
class IdentifiedDfa:
    """A DFA over an abstract event alphabet."""

    num_states: int
    initial: int
    transitions: dict[tuple[int, Event], int]
    accepting: frozenset[int]

    def accepts(self, word: Sequence[Event]) -> bool:
        state = self.initial
        for event in word:
            key = (state, event)
            if key not in self.transitions:
                return False
            state = self.transitions[key]
        return state in self.accepting


class _Apt:
    """Augmented prefix tree over positive/negative words.

    The tree is append-only (inserting a word never renumbers existing
    nodes), which is what lets a learner session extend a live SAT
    encoding in place.  ``label_log`` records every ``None -> True/False``
    label transition as ``(node, positive)`` so incremental consumers
    can discover which *existing* nodes acquired a label from a later
    insertion (an interior node of a negative word becomes accepting
    when a positive trace runs through it).
    """

    def __init__(self) -> None:
        self.parent: list[tuple[int, Event] | None] = [None]
        self.label: list[bool | None] = [None]  # True acc, False rej
        self.label_log: list[tuple[int, bool]] = []
        self._index: dict[tuple[int, Event], int] = {}

    def insert(
        self, word: Sequence[Event], positive: bool, prefix_closed: bool = False
    ) -> None:
        node = 0
        path = [0]
        for event in word:
            key = (node, event)
            if key not in self._index:
                self._index[key] = len(self.parent)
                self.parent.append(key)
                self.label.append(None)
            node = self._index[key]
            path.append(node)
        if positive:
            # With prefix_closed (execution traces), every node on the
            # path is accepting; otherwise only the word's own node.
            to_mark = path if prefix_closed else [node]
            for visited in to_mark:
                if self.label[visited] is False:
                    raise ValueError(f"contradictory labels for {word!r}")
                if self.label[visited] is None:
                    self.label[visited] = True
                    self.label_log.append((visited, True))
        else:
            if self.label[node] is True:
                raise ValueError(f"contradictory labels for {word!r}")
            if self.label[node] is None:
                self.label[node] = False
                self.label_log.append((node, False))

    @property
    def size(self) -> int:
        return len(self.parent)

    def alphabet(self) -> list[Event]:
        return sorted({key[1] for key in self._index}, key=repr)

    def canonical_order(self) -> list[int]:
        """Node ids in insertion-order-independent BFS order.

        Root first, then breadth-first with each node's children visited
        in ``repr``-sorted event order.  Two APTs built from the same
        *set* of words (in any insertion order) enumerate structurally
        identical trees, so canonical DFA extraction keyed to this order
        yields the same automaton regardless of how the words arrived.
        """
        children: dict[int, list[tuple[str, int]]] = {}
        for (parent, event), child in self._index.items():
            children.setdefault(parent, []).append((repr(event), child))
        order = [0]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for _key, child in sorted(children.get(node, ())):
                order.append(child)
        return order


def identify_dfa(
    positive: Sequence[Sequence[Event]],
    negative: Sequence[Sequence[Event]] = (),
    max_states: int = 12,
    prefix_closed: bool = False,
    canonical: bool = False,
) -> IdentifiedDfa | None:
    """Smallest consistent DFA with at most ``max_states`` states.

    ``prefix_closed=True`` marks every prefix of a positive word as
    accepting (the execution-trace setting); leave it off for classic
    DFA identification where a rejected word may extend an accepted one.

    The ``n → n+1`` search is incremental: one SAT solver instance
    persists across sizes, the APT-structure clauses for colours
    ``< n`` are never re-encoded, and refutations learned while proving
    ``n`` colours insufficient carry over to the ``n+1`` search.

    ``canonical=True`` additionally pins the *witness*: among all
    minimal consistent DFAs, return the one given by the
    lexicographically least colouring along the APT's canonical node
    order.  That makes the result a pure function of the word *set*
    (independent of insertion order and of the solver's clause
    history), at the cost of extra assumption solves -- the same
    trade-off as the oracle's canonical counterexamples.
    """
    apt = _Apt()
    for word in positive:
        apt.insert(word, positive=True, prefix_closed=prefix_closed)
    for word in negative:
        apt.insert(word, positive=False)
    search = _IncrementalDfaSearch(apt, canonical=canonical)
    return search.search_up_to(max_states)


class _IncrementalDfaSearch:
    """Heule-Verwer encoding grown one colour at a time.

    All clauses are over a single persistent :class:`Solver`.  The only
    size-dependent constraint -- "every node takes one of the first
    ``n`` colours" -- cannot be widened in place, so each size adds a
    fresh *at-least-one* clause block in a retractable clause group
    that is retracted when the size is refuted.  Everything else
    (colour exclusivity, determinism, parent constraints,
    accepting/rejecting separation) is monotone in ``n`` and persists,
    together with the solver's learned clauses.

    The search is also incremental in the *APT*: :meth:`extend` encodes
    nodes, events and label changes appended after construction without
    touching the existing clauses.  Since adding words only ever adds
    constraints, every refuted size stays refuted, so a learner session
    resumes at the previously found size instead of restarting at 1 --
    the cross-iteration warm start the active loop exploits.
    """

    def __init__(self, apt: _Apt, canonical: bool = False):
        self._apt = apt
        self._canonical = canonical
        self._alphabet = apt.alphabet()
        self._accepting = [v for v in range(apt.size) if apt.label[v] is True]
        self._rejecting = [v for v in range(apt.size) if apt.label[v] is False]
        self.solver = Solver()
        self._n = 0
        self._group: int | None = None  # active at-least-one block
        self._encoded_nodes = apt.size
        # x[v][i]: node v coloured i.
        self._x: list[list[int]] = [[] for _ in range(apt.size)]
        # y[a][i][j]: transition i --a--> j exists.
        self._y: dict[Event, list[list[int]]] = {e: [] for e in self._alphabet}

    def _add_colour(self) -> None:
        """Encode colour ``n`` on top of the existing ``n`` colours."""
        apt, solver, n = self._apt, self.solver, self._n
        for v in range(apt.size):
            self._x[v].append(solver.new_var())
        for event in self._alphabet:
            grid = self._y[event]
            for i in range(n):
                grid[i].append(solver.new_var())  # old row, new column
            grid.append([solver.new_var() for _ in range(n + 1)])  # new row
        if n == 0:
            solver.add_clause([self._x[0][0]])  # symmetry: root is colour 0
        for v in range(apt.size):
            for i in range(n):  # at most one colour: new pairs only
                solver.add_clause([-self._x[v][i], -self._x[v][n]])
        # Determinism: at most one target colour per (event, source).
        for event in self._alphabet:
            grid = self._y[event]
            for i in range(n):
                for j in range(n):
                    solver.add_clause([-grid[i][j], -grid[i][n]])
            for j, l in combinations(range(n + 1), 2):
                solver.add_clause([-grid[n][j], -grid[n][l]])
        # Parent constraints: pairs (i, j) touching the new colour.
        for v in range(1, apt.size):
            parent, event = apt.parent[v]
            grid = self._y[event]
            for i in range(n + 1):
                for j in range(n + 1):
                    if i != n and j != n:
                        continue
                    # x[parent,i] ∧ x[v,j] -> y[event,i,j]
                    solver.add_clause(
                        [-self._x[parent][i], -self._x[v][j], grid[i][j]]
                    )
                    # y[event,i,j] ∧ x[parent,i] -> x[v,j]
                    solver.add_clause(
                        [-grid[i][j], -self._x[parent][i], self._x[v][j]]
                    )
        # Accepting/rejecting separation on the new colour.
        for acc in self._accepting:
            for rej in self._rejecting:
                solver.add_clause([-self._x[acc][n], -self._x[rej][n]])
        self._n = n + 1

    def extend(self, label_changes: Sequence[tuple[int, bool]]) -> None:
        """Encode APT growth in place: every node appended since the
        last encoding (tracked by ``_encoded_nodes``), any events they
        introduced, and label transitions on existing nodes.

        New clauses only reference the current ``n`` colours; the active
        at-least-one group is widened with the new nodes so the current
        size stays a candidate (it is re-solved, and refuted sizes grow
        the colour count exactly as in the initial search).
        """
        apt, solver, n = self._apt, self.solver, self._n
        old_size = self._encoded_nodes
        assert n > 0, "extend requires an initially solved encoding"
        # New events first: parent constraints below reference the grids.
        for v in range(old_size, apt.size):
            _parent, event = apt.parent[v]
            if event in self._y:
                continue
            grid = [[solver.new_var() for _ in range(n)] for _ in range(n)]
            self._y[event] = grid
            self._alphabet.append(event)
            for i in range(n):
                for j, l in combinations(range(n), 2):
                    solver.add_clause([-grid[i][j], -grid[i][l]])
        # New nodes: colour variables, exclusivity, parent constraints.
        # Parents always precede children in the APT numbering, so a new
        # node's parent is already encoded when the node is reached.
        for v in range(old_size, apt.size):
            self._x.append([solver.new_var() for _ in range(n)])
            for i, j in combinations(range(n), 2):
                solver.add_clause([-self._x[v][i], -self._x[v][j]])
            parent, event = apt.parent[v]
            grid = self._y[event]
            for i in range(n):
                for j in range(n):
                    solver.add_clause(
                        [-self._x[parent][i], -self._x[v][j], grid[i][j]]
                    )
                    solver.add_clause(
                        [-grid[i][j], -self._x[parent][i], self._x[v][j]]
                    )
            if self._group is not None:
                solver.add_clause(self._x[v], group=self._group)
        self._encoded_nodes = apt.size
        # Label transitions (new nodes and newly relabelled old ones).
        for v, positive in label_changes:
            others = self._rejecting if positive else self._accepting
            for other in others:
                for i in range(n):
                    solver.add_clause([-self._x[v][i], -self._x[other][i]])
            (self._accepting if positive else self._rejecting).append(v)

    def search_up_to(self, max_states: int) -> IdentifiedDfa | None:
        """Resume the minimal-size search; None if ``max_states`` falls."""
        while True:
            if self._group is not None:
                dfa = self._solve_current()
                if dfa is not None:
                    return dfa
            if self._n >= max_states:
                return None
            self._add_size()

    def try_next_size(self) -> IdentifiedDfa | None:
        """Search with one more colour; None if still unsatisfiable."""
        self._add_size()
        return self._solve_current()

    def _add_size(self) -> None:
        self._add_colour()
        # "At least one of the first n colours" is the only constraint
        # that shrinks colour sets, so each size gets its own group,
        # retracted on refutation so the stale block leaves the search.
        self._group = self.solver.new_group()
        for v in range(self._apt.size):
            self.solver.add_clause(self._x[v], group=self._group)

    def _solve_current(self) -> IdentifiedDfa | None:
        """Solve at the current size; retracts the group on refutation."""
        apt, solver, n = self._apt, self.solver, self._n
        assert self._group is not None
        result = solver.solve()
        if not result.satisfiable:
            solver.retract_group(self._group)
            self._group = None
            return None
        if self._canonical:
            colour = self._canonical_colours()
        else:
            colour = [
                next(i for i in range(n) if result.value(self._x[v][i]))
                for v in range(apt.size)
            ]
        transitions: dict[tuple[int, Event], int] = {}
        for v in range(1, apt.size):
            parent, event = apt.parent[v]
            transitions[(colour[parent], event)] = colour[v]
        accepting = frozenset(colour[v] for v in self._accepting)
        return IdentifiedDfa(
            num_states=n,
            initial=0,
            transitions=transitions,
            accepting=accepting or frozenset(range(n)),
        )

    def _canonical_colours(self) -> list[int]:
        """The lexicographically least feasible colouring along the
        canonical node order (see :meth:`_Apt.canonical_order`).

        Each node is pinned to its smallest jointly feasible colour by
        assumption solves on the persistent solver, so the witness DFA
        depends only on the word set -- not on insertion order or the
        solver's accumulated clause history.
        """
        solver, n = self.solver, self._n
        fixed: list[int] = []
        colour = [0] * self._apt.size
        for v in self._apt.canonical_order():
            for i in range(n):
                if solver.solve(fixed + [self._x[v][i]]).satisfiable:
                    fixed.append(self._x[v][i])
                    colour[v] = i
                    break
            else:  # pragma: no cover - the joint model guarantees a colour
                raise RuntimeError("no feasible colour for a SAT instance")
        return colour


class SatDfaLearner:
    """Pluggable learner built on :func:`identify_dfa`.

    Events are mode valuations; optional negative event sequences make
    the identification non-trivial.  See the module docstring for the
    positive-only degeneracy discussion.

    ``canonical`` pins the identified minimal DFA to the canonical
    witness (see :func:`identify_dfa`), making ``learn`` and a warmed
    :meth:`start_session` produce *identical* models for the same trace
    set -- the property the session differential suite asserts exactly.
    It is forced on whenever ``negative_sequences`` are supplied: with
    negatives the minimal consistent DFA is not unique, and a
    non-canonical witness depends on the solver's clause history, so a
    warm session and a fresh ``learn`` could legitimately return
    *different* (equally minimal) models -- violating the session
    contract.  Without negatives identification is deterministic (the
    single-state permissive automaton), so the flag is free to stay off.
    """

    def __init__(
        self,
        mode_vars: list[str] | None = None,
        variables: dict[str, Var] | None = None,
        negative_sequences: Sequence[Sequence[tuple[int, ...]]] = (),
        max_states: int = 12,
        max_distinct: int = 8,
        canonical: bool = False,
    ):
        self._mode_vars = list(mode_vars) if mode_vars else None
        self._variables = dict(variables) if variables else None
        self._negatives = [tuple(map(tuple, seq)) for seq in negative_sequences]
        self._max_states = max_states
        self._max_distinct = max_distinct
        # Canonical identification is what makes the learner a pure
        # function of the trace set; with negatives that is required for
        # the session contract.
        self._canonical = canonical or bool(self._negatives)

    # ------------------------------------------------------------------
    def _basis(self, traces: TraceSet) -> tuple[dict[str, Var], list[str]]:
        """(variables, mode names) for a trace set -- the event basis."""
        variables = self._variables or infer_variables(traces)
        mode_names = self._mode_vars or detect_mode_variables(
            traces, self._max_distinct
        )
        return variables, mode_names

    @staticmethod
    def _word(trace, mode_names: list[str]) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(observation[name] for name in mode_names)
            for observation in trace
        )

    def learn(self, traces: TraceSet) -> SymbolicNFA:
        from .base import LearningError

        variables, mode_names = self._basis(traces)
        words = [self._word(trace, mode_names) for trace in traces]
        dfa = identify_dfa(
            words,
            self._negatives,
            self._max_states,
            prefix_closed=True,
            canonical=self._canonical,
        )
        if dfa is None:
            raise LearningError(
                f"no consistent DFA with <= {self._max_states} states"
            )
        return self._to_nfa(dfa, mode_names, variables)

    def start_session(self, traces: TraceSet) -> "SatDfaSession":
        """Open an incremental session over a growing trace set."""
        return SatDfaSession(self, traces)

    def _to_nfa(
        self,
        dfa: IdentifiedDfa,
        mode_names: list[str],
        variables: dict[str, Var],
    ) -> SymbolicNFA:
        from .base import LearningError

        mode_vars = [variables[name] for name in mode_names]
        # SymbolicNFA semantics make every state accepting (rejection is
        # running into a dead end).  Prefix-closure guarantees rejecting
        # DFA states have no accepting descendants, so dropping them (and
        # their edges) preserves the identified language exactly.
        nfa = SymbolicNFA()
        ids: dict[int, int] = {}
        for state in sorted(dfa.accepting):
            ids[state] = nfa.add_state(f"q{state}")
        if dfa.initial not in ids:
            raise LearningError("identified DFA rejects the empty trace")
        nfa.mark_initial(ids[dfa.initial])
        for (src, event), dst in sorted(
            dfa.transitions.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
        ):
            if src not in ids or dst not in ids:
                continue
            guard: Expr = land(
                *(eq(var, value) for var, value in zip(mode_vars, event, strict=True))
            )
            nfa.add_transition(ids[src], guard, ids[dst])
        return nfa


class SatDfaSession:
    """Incremental re-learning session for :class:`SatDfaLearner`.

    Owns a persistent APT and one persistent :class:`Solver` whose
    colour/transition variables and learned clauses survive loop
    iterations.  ``add_traces`` splices only the *delta* into the APT,
    extends the live encoding in place (new nodes, new events, label
    transitions), and resumes the minimal-size search at the previously
    found size -- sound because adding traces only adds constraints, so
    refuted sizes stay refuted.

    If the auto-detected mode-variable basis drifts (a delta changes
    which observables look mode-like), the session rebuilds cold; the
    returned model is always exactly what a fresh ``learn`` on the
    accumulated set would produce (bit-identical under ``canonical``).
    """

    def __init__(self, learner: SatDfaLearner, traces: TraceSet):
        self._learner = learner
        self._traces = traces.copy()
        self.warm = False
        self._rebuild()

    def _rebuild(self) -> None:
        learner = self._learner
        self._variables, self._mode_names = learner._basis(self._traces)
        self._apt = _Apt()
        for trace in self._traces:
            self._apt.insert(
                learner._word(trace, self._mode_names),
                positive=True,
                prefix_closed=True,
            )
        for word in learner._negatives:
            self._apt.insert(word, positive=False)
        self._search = _IncrementalDfaSearch(
            self._apt, canonical=learner._canonical
        )
        self._log_pos = len(self._apt.label_log)
        self._solve()
        self.warm = False
        registry = _tel_metrics()
        if registry is not None:
            registry.inc("learn.cold_learns")
            registry.gauge_max("learn.dfa_size", self._search._n)

    def _solve(self) -> None:
        from .base import LearningError

        dfa = self._search.search_up_to(self._learner._max_states)
        if dfa is None:
            raise LearningError(
                f"no consistent DFA with <= {self._learner._max_states} states"
            )
        self.model = self._learner._to_nfa(
            dfa, self._mode_names, self._variables
        )

    def add_traces(self, delta) -> SymbolicNFA:
        new = [trace for trace in delta if self._traces.add(trace)]
        if not new:
            return self.model
        learner = self._learner
        variables, mode_names = learner._basis(self._traces)
        if mode_names != self._mode_names:
            # The event basis drifted: the live encoding speaks the
            # wrong alphabet.  Fall back to a cold rebuild.
            self._rebuild()
            return self.model
        self._variables = variables
        for trace in new:
            self._apt.insert(
                learner._word(trace, self._mode_names),
                positive=True,
                prefix_closed=True,
            )
        self._search.extend(self._apt.label_log[self._log_pos:])
        self._log_pos = len(self._apt.label_log)
        self._search.solver.maintain()
        self._solve()
        self.warm = True
        registry = _tel_metrics()
        if registry is not None:
            registry.inc("learn.warm_learns")
            # The size the resumed search settled at: warm iterations
            # restart from here instead of size 1.
            registry.gauge_max("learn.dfa_size", self._search._n)
        return self.model

    def reset(self) -> None:
        """Drop all warm state; rebuild from the accumulated traces."""
        self._rebuild()
