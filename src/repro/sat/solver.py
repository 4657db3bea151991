"""CDCL SAT solver.

A compact but complete conflict-driven clause-learning solver:

* two-watched-literal propagation,
* first-UIP conflict analysis with basic clause minimisation,
* VSIDS activity heuristics (lazy heap) with phase saving,
* Luby-sequence restarts,
* learned-clause garbage collection.

This plays the role of the SAT core inside CBMC in the original tool
chain.  It is deliberately dependency-free: the whole reproduction runs
on a stock Python install.

The solver is *incremental* in the MiniSat sense: ``solve(assumptions)``
enqueues each assumption as a decision on its own leading decision level
and retracts them all before returning, so one solver instance answers
many queries while learned clauses, watch lists, saved phases and VSIDS
activity survive between calls.  ``add_clause`` may be called between
solves, and clauses can be registered under *retractable groups*
(activation literals) so a whole block of constraints can be switched
off permanently with :meth:`Solver.retract_group`.

Because instances now live for entire active-learning *runs* (learner
sessions and the incremental condition checkers keep one solver hot
across every iteration), the learned-clause database is kept healthy
with LBD (literal block distance) scoring: each learned clause is
tagged with the number of distinct decision levels it spans, the tag is
refreshed whenever the clause participates in conflict analysis, and
periodic reductions drop the worst-scored half while always retaining
"glue" clauses (LBD <= 2), binary clauses, and clauses locked as
propagation reasons.  :meth:`Solver.maintain` exposes the same hygiene
(plus VSIDS activity rescaling and lazy-heap compaction) as an explicit
hook for session owners to call between iterations.

The assignment is one literal-indexed value table, ``_val[lit]``: 1
when ``lit`` is true, -1 when it is false, 0 when unassigned.  Negative
literals index from the end of the list (Python's own negative
indexing), so ``_val[-v]`` needs no ``abs()`` and no sign branch; the
list doubles whenever the positive and negative halves would meet.
Assigning ``lit`` writes both ``_val[lit]`` and ``_val[-lit]``.
:meth:`Solver._propagate` reads the table and enqueues implied literals
inline, and compacts each watch list in place rather than building a
new one per propagated literal.

Watch lists hold bare clauses, without MiniSat's blocker literals: a
blocker changes which literal a clause watches after a move, and so the
search and the models it returns.  The watch order and the literal
swaps are those of the plain two-watched-literal scheme.

Decisions take the unassigned variable of highest activity, lowest
index first.  Only variables some conflict has bumped live in the lazy
heap, each at most once at its current activity (``_queued``); the
never-bumped ones all have activity 0 and are taken in index order from
a cursor that backtracking lowers.  This picks exactly what one heap
entry per assignment change would, without the pushes and pops.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from .cnf import CNF


def _tel_metrics():
    """Live metrics registry, or ``None`` when telemetry is disabled.

    Imported lazily so this module stays importable on its own: a
    module-level ``from ..core import telemetry`` would execute
    ``repro.core.__init__`` while this module is still half-initialised
    (the core package transitively imports :class:`Solver`).
    """
    from ..core.telemetry import active

    session = active()
    return None if session is None else session.metrics


def luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _LearnedClause(list):
    """A learned clause with its LBD score (distinct decision levels).

    Subclasses ``list`` so watch lists and propagation treat it exactly
    like a problem clause; only the reduction policy reads the tag.
    """

    __slots__ = ("lbd",)

    def __init__(self, lits, lbd: int):
        super().__init__(lits)
        self.lbd = lbd


@dataclass
class SolveResult:
    """Outcome of a solver run."""

    satisfiable: bool
    model: dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    # Per-call attribution: the ``conflicts``/``decisions``/
    # ``propagations`` fields above are cumulative since solver
    # construction (session solvers live for whole runs), so the
    # ``*_delta`` fields carry what *this* ``solve()`` call cost.
    conflicts_delta: int = 0
    decisions_delta: int = 0
    propagations_delta: int = 0
    learned_db_size: int = 0

    def value(self, var: int) -> bool:
        return self.model[var]

    def lit_true(self, lit: int) -> bool:
        return self.model[abs(lit)] == (lit > 0)


class Solver:
    """CDCL solver over a :class:`~repro.sat.cnf.CNF` formula."""

    def __init__(self, cnf: CNF | None = None) -> None:
        self._num_vars = 0
        self._watches: dict[int, list[list[int]]] = {}
        # Literal-indexed values: _val[v] and _val[-v] (from the end).
        self._val: list[int] = [0, 0]
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        # Lazy max-heap of (-activity, var) for bumped variables; the
        # never-bumped ones are taken in index order from _first_free.
        # _queued[v]: the heap holds v's entry at its current activity.
        self._order: list[tuple[float, int]] = []
        self._queued: list[bool] = [False]
        self._first_free = 1
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._learned: list[list[int]] = []
        self._max_learned = 4000
        self._ok = True
        self._groups: dict[int, int] = {}  # group id -> activation literal
        self._retired_groups: set[int] = set()
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.solve_calls = 0
        self._solve_base = (0, 0, 0)
        if cnf is not None:
            self.add_cnf(cnf)

    @property
    def num_learned(self) -> int:
        """Learned clauses currently retained (survive across solves)."""
        return len(self._learned)

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self._num_vars += 1
        var = self._num_vars
        val = self._val
        if 2 * var >= len(val):
            # Double, keeping 1..var-1 at the front and -(var-1)..-1 at
            # the back, so the two halves never overlap.
            size = len(val)
            grown = [0] * (2 * size)
            grown[:var] = val[:var]
            grown[2 * size - var + 1 :] = val[size - var + 1 :]
            self._val = grown
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._queued.append(False)
        self._phase.append(False)
        self._watches[var] = []
        self._watches[-var] = []
        return var

    def ensure_vars(self, num_vars: int) -> None:
        while self._num_vars < num_vars:
            self.new_var()

    def add_cnf(self, cnf: CNF) -> None:
        self.ensure_vars(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # retractable clause groups
    # ------------------------------------------------------------------
    def new_group(self) -> int:
        """Open a retractable clause group; returns its (opaque) id.

        Clauses added with ``add_clause(..., group=gid)`` only constrain
        the search while the group is active; :meth:`retract_group`
        switches them off permanently.  Internally each group clause
        carries the negated activation literal, and every solve assumes
        the activation literals of all active groups, so learned clauses
        record their group dependencies explicitly and stay sound after
        retraction.
        """
        act = self.new_var()
        self._groups[act] = act
        return act

    def retract_group(self, group: int) -> None:
        """Permanently disable every clause added under ``group``."""
        act = self._groups.pop(group, None)
        if act is None:
            if group in self._retired_groups:
                return
            raise ValueError(f"unknown clause group {group!r}")
        self._retired_groups.add(group)
        self.add_clause([-act])

    def add_clause(self, lits: Iterable[int], group: int | None = None) -> bool:
        """Add a problem clause; returns False if the formula became UNSAT.

        With ``group`` the clause belongs to a retractable group from
        :meth:`new_group`.  May be called between solves; the solver
        always returns to decision level 0.
        """
        if not self._ok:
            return False
        if self._trail_lim:
            raise RuntimeError("add_clause only allowed at decision level 0")
        if group is not None:
            if group not in self._groups:
                raise ValueError(f"unknown or retired clause group {group!r}")
            lits = list(lits) + [-self._groups[group]]
        clause: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            if abs(lit) > self._num_vars:
                self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = self._val[lit]
            if value == 1:
                return True  # already satisfied at level 0
            if value == -1:
                continue  # falsified at level 0; drop the literal
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None) or self._propagate() is not None:
                self._ok = False
                return False
            return True
        self._watch(clause)
        return True

    def _watch(self, clause: list[int]) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # ------------------------------------------------------------------
    # assignment helpers
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        value = self._val[lit]
        if value:
            return value == 1
        self._val[lit] = 1
        self._val[-lit] = -1
        var = lit if lit > 0 else -lit
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None.

        The watch list of each newly false literal is compacted in place:
        ``ws[:kept]`` collects the clauses that keep watching it, in their
        original order, and the tail is cut once the scan ends.
        """
        trail = self._trail
        val = self._val
        watches = self._watches
        levels = self._level
        reasons = self._reason
        level = len(self._trail_lim)
        start = head = self._prop_head
        conflict: list[int] | None = None
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            ws = watches[false_lit]
            kept = 0
            for i, clause in enumerate(ws):
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if val[first] == 1:
                    ws[kept] = clause
                    kept += 1
                    continue
                j = 2
                size = len(clause)
                while j < size:
                    other = clause[j]
                    if val[other] != -1:
                        clause[j] = clause[1]
                        clause[1] = other
                        watches[other].append(clause)
                        break
                    j += 1
                else:
                    ws[kept] = clause
                    kept += 1
                    if val[first] == -1:
                        conflict = clause
                        ws[kept:] = ws[i + 1 :]
                        break
                    val[first] = 1
                    val[-first] = -1
                    var = first if first > 0 else -first
                    levels[var] = level
                    reasons[var] = clause
                    trail.append(first)
            else:
                del ws[kept:]
            if conflict is not None:
                break
        self.propagations += head - start
        self._prop_head = head
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._compact_order()  # every entry's activity changed
            return
        heapq.heappush(self._order, (-activity[var], var))
        self._queued[var] = True

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis; returns (learned clause, backtrack level)."""
        current_level = len(self._trail_lim)
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        resolve_lit: int | None = None
        reason: Sequence[int] = conflict
        index = len(self._trail) - 1
        while True:
            for q in reason:
                if resolve_lit is not None and q == resolve_lit:
                    continue
                var = abs(q)
                if var in seen or self._level[var] == 0:
                    continue
                seen.add(var)
                self._bump_var(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learned.append(q)
            while abs(self._trail[index]) not in seen:
                index -= 1
            resolve_lit = self._trail[index]
            index -= 1
            var = abs(resolve_lit)
            seen.discard(var)
            counter -= 1
            if counter == 0:
                learned.insert(0, -resolve_lit)
                break
            next_reason = self._reason[var]
            assert next_reason is not None, "UIP literal must have a reason"
            if isinstance(next_reason, _LearnedClause):
                # Aging refresh: a clause pulled into conflict analysis
                # is alive; re-score it so reductions keep it around.
                levels = len({
                    self._level[abs(q)]
                    for q in next_reason
                    if self._level[abs(q)] > 0
                })
                if levels and levels < next_reason.lbd:
                    next_reason.lbd = levels
            reason = next_reason
        learned = self._minimize(learned)
        if len(learned) == 1:
            return learned, 0
        # Second-highest level literal goes to slot 1 (watch invariant).
        max_i = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1])]

    def _minimize(self, learned: list[int]) -> list[int]:
        """Basic (local) clause minimisation: drop self-subsumed literals."""
        in_clause = {abs(lit) for lit in learned}
        keep = [learned[0]]
        for q in learned[1:]:
            reason = self._reason[abs(q)]
            if reason is not None and all(
                abs(other) in in_clause or self._level[abs(other)] == 0
                for other in reason
                if abs(other) != abs(q)
            ):
                continue
            keep.append(q)
        return keep

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        val = self._val
        phase = self._phase
        reasons = self._reason
        activity = self._activity
        order = self._order
        queued = self._queued
        push = heapq.heappush
        first_free = self._first_free
        for lit in reversed(self._trail[bound:]):
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            val[lit] = val[-lit] = 0
            reasons[var] = None
            if activity[var]:
                if not queued[var]:
                    queued[var] = True
                    push(order, (-activity[var], var))
            elif var < first_free:
                first_free = var
        self._first_free = first_free
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._prop_head = min(self._prop_head, len(self._trail))

    def _record_learned(self, clause: list[int], lbd: int) -> None:
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            return
        learned = _LearnedClause(clause, lbd)
        self._learned.append(learned)
        self._watch(learned)
        self._enqueue(learned[0], learned)

    def _reduce_learned(self, force: bool = False) -> None:
        """LBD-based learned-clause reduction.

        Drops the worst-scored half (high LBD, then long) of the
        database, always retaining glue clauses (LBD <= 2), binary
        clauses, and clauses currently locked as propagation reasons --
        dropping a reason would leave a dangling pointer in the
        implication graph.  ``force`` reduces even under budget (the
        session-hygiene path); organic reductions also grow the budget.
        """
        if not force and len(self._learned) < self._max_learned:
            return
        locked = {
            id(self._reason[v])
            for v in range(1, self._num_vars + 1)
            if self._reason[v] is not None
        }
        self._learned.sort(key=lambda c: (c.lbd, len(c)))
        half = len(self._learned) // 2
        dropped = {
            id(c)
            for c in self._learned[half:]
            if id(c) not in locked and len(c) > 2 and c.lbd > 2
        }
        if not dropped:
            return
        self._learned = [c for c in self._learned if id(c) not in dropped]
        for lit in self._watches:
            self._watches[lit] = [
                c for c in self._watches[lit] if id(c) not in dropped
            ]
        if not force:
            self._max_learned = int(self._max_learned * 1.3)

    # ------------------------------------------------------------------
    # long-lived-solver hygiene
    # ------------------------------------------------------------------
    def rescale_var_activity(self) -> None:
        """Normalise VSIDS activities and compact the lazy heap.

        Long-lived solvers accumulate both very large activity values
        (the increment grows geometrically) and stale heap entries (one
        per bump).  Dividing everything by the maximum activity keeps
        the ordering while restoring headroom, and rebuilding the heap
        drops the dead weight.
        """
        top = max(self._activity[1:], default=0.0)
        if top > 1e20:
            factor = 1.0 / top
            for var in range(1, self._num_vars + 1):
                self._activity[var] *= factor
            self._var_inc = max(self._var_inc * factor, 1.0)
        self._compact_order()

    def _compact_order(self) -> None:
        self._order = [
            (-self._activity[var], var)
            for var in range(1, self._num_vars + 1)
        ]
        heapq.heapify(self._order)
        self._queued = [True] * (self._num_vars + 1)

    def maintain(self) -> None:
        """Periodic hygiene hook for session-scoped solvers.

        Call between logically separate workloads (e.g. active-learning
        iterations): ages the learned-clause database once it exceeds
        half its budget and rescales/compacts the VSIDS state.  Safe to
        call at any decision level 0 point; never drops reason clauses.
        """
        if len(self._learned) > self._max_learned // 2:
            self._reduce_learned(force=True)
        self.rescale_var_activity()

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, lowest index first.

        Every unassigned bumped variable has an entry at its current
        activity in the heap, ranking above its stale ones; variables
        never bumped rank below all of them, in index order.
        """
        order = self._order
        val = self._val
        activity = self._activity
        queued = self._queued
        pop = heapq.heappop
        while order and order[0][0] < 0:
            key, var = pop(order)
            if key == -activity[var]:
                queued[var] = False
            if not val[var]:
                return var
        var = self._first_free
        last = self._num_vars
        while var <= last and val[var]:
            var += 1
        self._first_free = var
        return var if var <= last else 0

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Solve under temporary ``assumptions`` (MiniSat-style).

        Assumptions are enqueued as decisions on dedicated leading
        decision levels and are fully retracted before returning, so
        repeated calls with different (even conflicting) assumptions are
        answered independently while learned clauses, saved phases and
        activity persist.  An UNSAT answer under assumptions leaves the
        solver usable; only a contradiction in the formula itself is
        permanent.  Activation literals of active clause groups are
        assumed implicitly.
        """
        self.solve_calls += 1
        self._solve_base = (self.conflicts, self.decisions, self.propagations)
        assumed = list(assumptions) + sorted(self._groups.values())
        for lit in assumed:
            if abs(lit) > self._num_vars:
                self.ensure_vars(abs(lit))
        if not self._ok:
            return self._result(False)
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return self._result(False)
        restart_count = 0
        conflicts_since_restart = 0
        restart_budget = 64 * luby(1)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if not self._trail_lim:
                    self._ok = False
                    return self._result(False)
                learned, back_level = self._analyze(conflict)
                # LBD must be read off the pre-backtrack levels.
                lbd = len({
                    self._level[abs(q)]
                    for q in learned
                    if self._level[abs(q)] > 0
                })
                self._backtrack(back_level)
                self._record_learned(learned, lbd)
                self._var_inc *= self._var_decay
                continue
            if conflicts_since_restart >= restart_budget and self._trail_lim:
                restart_count += 1
                conflicts_since_restart = 0
                restart_budget = 64 * luby(restart_count + 1)
                self._backtrack(0)
                self._reduce_learned()
                if len(self._order) > max(1024, 4 * self._num_vars):
                    self._compact_order()
                continue
            lit = 0
            while len(self._trail_lim) < len(assumed):
                # Re-assert pending assumptions, one decision level each.
                next_assumed = assumed[len(self._trail_lim)]
                value = self._val[next_assumed]
                if value == 1:
                    self._trail_lim.append(len(self._trail))
                elif value == -1:
                    # Assumptions conflict with the formula (or each
                    # other): UNSAT *under assumptions* only.
                    result = self._result(False)
                    self._backtrack(0)
                    return result
                else:
                    lit = next_assumed
                    break
            if lit == 0:
                var = self._pick_branch_var()
                if var == 0:
                    result = self._result(True)
                    self._backtrack(0)
                    return result
                self.decisions += 1
                lit = var if self._phase[var] else -var
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _result(self, satisfiable: bool) -> SolveResult:
        model = {}
        if satisfiable:
            val = self._val
            model = {v: val[v] == 1 for v in range(1, self._num_vars + 1)}
        base_c, base_d, base_p = self._solve_base
        result = SolveResult(
            satisfiable,
            model=model,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            conflicts_delta=self.conflicts - base_c,
            decisions_delta=self.decisions - base_d,
            propagations_delta=self.propagations - base_p,
            learned_db_size=len(self._learned),
        )
        registry = _tel_metrics()
        if registry is not None:
            registry.inc("sat.solve_calls")
            registry.inc("sat.conflicts", result.conflicts_delta)
            registry.inc("sat.decisions", result.decisions_delta)
            registry.inc("sat.propagations", result.propagations_delta)
            registry.gauge_max("sat.learned_db_peak", result.learned_db_size)
        return result


def solve_cnf(cnf: CNF, assumptions: Sequence[int] = ()) -> SolveResult:
    """One-shot convenience wrapper: solve ``cnf`` under ``assumptions``."""
    return Solver(cnf).solve(assumptions)
