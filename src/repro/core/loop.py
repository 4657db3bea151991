"""The active model-learning loop (paper Fig. 1 and §III).

``ActiveLearner`` ties everything together:

1. learn a candidate NFA from the current trace set (pluggable learner);
2. extract completeness conditions from its structure;
3. model-check each condition, classifying and excluding spurious
   counterexamples along the way;
4. on violations, splice counterexamples into new traces and iterate;
5. terminate when ``α = 1`` (all behaviour admitted -- Theorem 1), when
   the time budget is exhausted (paper: 10 h; here configurable), or
   when an iteration cap is hit.

The result carries everything Table I reports: iterations ``i``, model
size ``N``, degree of completeness ``α``, total runtime ``T`` and the
share of runtime spent in model learning ``%Tm``, plus the invariants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..automata.nfa import SymbolicNFA
from ..expr.ast import Expr
from ..learn.base import LearnerSession, ModelLearner, start_session
from ..mc.explicit import reachable_formula, shared_reachability
from ..system.transition_system import SymbolicSystem
from ..traces.trace import TraceSet
from . import telemetry
from .conditions import extract_conditions
from .invariants import Invariant, extract_invariants
from .oracle import OracleReport, make_oracle
from .refine import augment_traces


@dataclass
class IterationRecord:
    """Statistics for one learn-check-refine round.

    ``warm_start`` is True when the model came out of a learner session
    reusing state from earlier iterations (False for iteration 1, for
    stateless learners, and for iterations where the session had to
    rebuild cold, e.g. after mode-variable drift) -- so benchmarks can
    separate cold from warm learning time.  Learn/check durations are
    measured with ``time.perf_counter``.
    """

    index: int
    num_states: int
    num_transitions: int
    conditions: int
    violations: int
    alpha: float
    new_traces: int
    spurious_excluded: int
    learn_seconds: float
    check_seconds: float
    warm_start: bool = False
    duplicates_skipped: int = 0


@dataclass
class ActiveLearningResult:
    """Everything the evaluation reports about one run."""

    model: SymbolicNFA
    alpha: float
    iterations: int
    records: list[IterationRecord] = field(default_factory=list)
    invariants: list[Invariant] = field(default_factory=list)
    #: Inductive invariant accumulated by a proof-based spuriousness
    #: engine (``spurious_engine="ic3"``): the conjunction of every
    #: frame clause IC3 converged on while classifying counterexamples.
    #: None for the other engines.
    proved_invariant: "Expr | None" = None
    total_seconds: float = 0.0
    learn_seconds: float = 0.0
    check_seconds: float = 0.0
    timed_out: bool = False
    converged: bool = False
    final_trace_count: int = 0
    recorded_inconclusive: int = 0
    session_mode: bool = False

    @property
    def num_states(self) -> int:
        """Table I's ``N``."""
        return self.model.num_states

    @property
    def percent_learning(self) -> float:
        """Table I's ``%Tm``."""
        if self.total_seconds == 0:
            return 0.0
        return 100.0 * self.learn_seconds / self.total_seconds

    @property
    def cold_learn_seconds(self) -> float:
        """Learning time in cold (from-scratch) iterations."""
        return sum(
            r.learn_seconds for r in self.records if not r.warm_start
        )

    @property
    def warm_learn_seconds(self) -> float:
        """Learning time in warm (session-reuse) iterations."""
        return sum(r.learn_seconds for r in self.records if r.warm_start)

    @property
    def warm_iterations(self) -> int:
        return sum(1 for r in self.records if r.warm_start)


class ActiveLearner:
    """The paper's algorithm, parameterised exactly as the evaluation.

    Parameters
    ----------
    system:
        The implementation ``S`` (grey-box: simulated for traces,
        model-checked for conditions).
    learner:
        Pluggable model-learning component (§II-B contract).
    k:
        Fig. 3b bound for counterexample-validity checks, assumed known
        a priori per benchmark (§IV-B), cf. Table I's ``k`` column.
    spurious_engine:
        ``"explicit"`` (exact reachability oracle; default), ``"bdd"``
        (exact symbolic reachability via BDD image computation),
        ``"kinduction"`` (the literal Fig. 3b SAT check), ``"ic3"``
        (unbounded IC3/PDR proofs: never inconclusive, no ``k``
        sensitivity, generalized spurious exclusions) or ``"none"``
        (skip the check; every counterexample treated as valid).  See
        ``docs/engines.md``.
    respect_k:
        For the explicit engine: report what a k-bounded analysis would
        (states deeper than ``k`` come back inconclusive).
    state_only:
        Strengthen spurious exclusions with the state projection (the
        paper's domain-knowledge runtime optimisation) instead of full
        valuations including free inputs.
    max_iterations:
        Safety cap on learn-check-refine rounds.
    budget_seconds:
        Wall-clock budget (the paper used 10 h; benchmarks here default
        to tens of seconds).  On expiry the current model is returned
        with ``timed_out=True``, like the paper's timeout rows.
    guide_with_reachable:
        Strengthen every condition check with the reachable-state
        formula (requires the explicit engine).  This is the paper's own
        mitigation for the spurious-counterexample churn that caused its
        timeouts (§IV-B.1); off by default for faithfulness, on in the
        benchmark harness for laptop-scale runtimes.  The formula is an
        exact decision diagram of the explicit engine's reachable set at
        every size, so no guided counterexample is spurious: each
        condition is decided in one solve, and the only INCONCLUSIVEs
        left are reachable states deeper than ``k``.
    canonical_counterexamples:
        Check with lexicographically minimal counterexamples, the
        deterministic reference mode (see
        :class:`~repro.core.oracle.CompletenessOracle`); off by default
        because minimisation costs extra solver probes.
    use_session:
        Learn through a :class:`~repro.learn.base.LearnerSession`
        (default).  The trace set only ever grows across iterations, so
        sessions re-learn incrementally from the per-iteration delta --
        a persistent APT + SAT solver for the SAT-DFA learner,
        persistent merge structures for T2M/k-tails -- instead of from
        scratch; the per-iteration models are the same either way
        (differentially tested), only the learning time changes.
        Learners without a native session run through the stateless
        adapter, which reproduces the pre-session behaviour exactly.
        ``False`` forces a plain ``learn()`` call every iteration.
    validate:
        Run the static analyzer over the system up front and over every
        condition before it is model-checked.  ERROR findings raise
        :class:`~repro.analysis.diagnostics.AnalysisError` with the full
        diagnostic report.
    """

    def __init__(
        self,
        system: SymbolicSystem,
        learner: ModelLearner,
        k: int,
        spurious_engine: str = "explicit",
        respect_k: bool = True,
        state_only: bool = True,
        max_iterations: int = 50,
        budget_seconds: float | None = None,
        max_strengthenings: int = 100,
        guide_with_reachable: bool = False,
        canonical_counterexamples: bool = False,
        use_session: bool = True,
        validate: bool = False,
    ):
        self._system = system
        self._learner = learner
        self._k = k
        self._max_iterations = max_iterations
        self._budget_seconds = budget_seconds
        self._use_session = use_session
        domain_assumption = None
        if guide_with_reachable:
            if spurious_engine != "explicit":
                raise ValueError(
                    "guide_with_reachable requires the explicit engine"
                )
            domain_assumption = reachable_formula(
                system, shared_reachability(system)
            )
        self._oracle = make_oracle(
            system,
            spurious_engine,
            k,
            respect_k=respect_k,
            state_only=state_only,
            max_strengthenings=max_strengthenings,
            domain_assumption=domain_assumption,
            canonical=canonical_counterexamples,
            validate=validate,
        )

    def close(self) -> None:
        """Shut down the learner's worker pool, if it owns one.

        A pooled learner (``SegmentedLearner`` with ``jobs > 1``) owns
        worker processes; closing here gives ``with ActiveLearner(...)``
        one lifetime for everything.
        """
        closer = getattr(self._learner, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "ActiveLearner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, initial_traces: TraceSet) -> ActiveLearningResult:
        """Iterate learn-check-refine until α = 1 or resources expire.

        All reported timings (``T``, learn/check splits, hence ``%Tm``
        and the cold/warm decomposition) are derived from telemetry
        spans: the run is wrapped in a ``loop.run`` span with one
        ``loop.learn`` and one ``loop.check`` child per round, plus a
        ``refine.splice`` child on rounds that splice counterexamples.
        With telemetry enabled the spans land on the active
        session (and in the ``--telemetry`` export); disabled, a
        throwaway local :class:`~repro.core.telemetry.Tracer` provides
        identical timing at identical cost, so enabling telemetry never
        changes what Table I reports.
        """
        active = telemetry.active()
        if active is not None and active.records_spans:
            tracer = active.tracer
        else:
            tracer = telemetry.Tracer()
        run_span = tracer.span("loop.run", system=self._system.name)
        with run_span:
            result = self._run_loop(initial_traces, tracer)
        run_span.set(iterations=result.iterations, converged=result.converged)
        result.total_seconds = run_span.total_seconds
        if active is not None:
            registry = active.metrics
            registry.inc("loop.runs")
            registry.inc("loop.iterations", result.iterations)
            registry.gauge_max("loop.model_states", result.model.num_states)
            registry.gauge_max(
                "loop.final_trace_count", result.final_trace_count
            )
        return result

    def _run_loop(
        self, initial_traces: TraceSet, tracer: "telemetry.Tracer"
    ) -> ActiveLearningResult:
        start = time.monotonic()
        deadline = (
            start + self._budget_seconds
            if self._budget_seconds is not None
            else None
        )
        traces = initial_traces.copy()
        records: list[IterationRecord] = []
        learn_total = 0.0
        check_total = 0.0
        model: SymbolicNFA | None = None
        report: OracleReport | None = None
        session: LearnerSession | None = None
        delta: tuple = ()
        timed_out = False
        converged = False
        inconclusive_total = 0

        for index in range(1, self._max_iterations + 1):
            with tracer.span("loop.learn", iteration=index) as learn_span:
                if self._use_session:
                    if session is None:
                        session = start_session(self._learner, traces)
                        model = session.model
                    else:
                        model = session.add_traces(delta)
                    warm_start = session.warm
                else:
                    model = self._learner.learn(traces)
                    warm_start = False
                learn_span.set(warm=warm_start, states=model.num_states)
            learn_elapsed = learn_span.total_seconds
            learn_total += learn_elapsed

            with tracer.span("loop.check", iteration=index) as check_span:
                conditions = extract_conditions(model)
                report = self._oracle.check_all(conditions, deadline=deadline)
                check_span.set(
                    conditions=len(report.outcomes),
                    violations=len(report.violations),
                )
            check_elapsed = check_span.total_seconds
            check_total += check_elapsed

            inconclusive_total += len(report.recorded_inconclusive)
            new_traces = 0
            duplicates_skipped = 0
            delta = ()
            if report.violations and not report.truncated:
                with tracer.span("refine.splice", iteration=index) as splice_span:
                    augmented = augment_traces(traces, report.violations)
                new_traces = augmented.num_added
                duplicates_skipped = augmented.duplicates_skipped
                splice_span.set(
                    new_traces=new_traces, duplicates=duplicates_skipped
                )
                delta = tuple(augmented.added)

            records.append(
                IterationRecord(
                    index=index,
                    num_states=model.num_states,
                    num_transitions=model.num_transitions,
                    conditions=len(report.outcomes),
                    violations=len(report.violations),
                    alpha=report.alpha,
                    new_traces=new_traces,
                    spurious_excluded=report.total_spurious,
                    learn_seconds=learn_elapsed,
                    check_seconds=check_elapsed,
                    warm_start=warm_start,
                    duplicates_skipped=duplicates_skipped,
                )
            )

            if report.truncated:
                timed_out = True
                break
            # Convergence is only ever declared on a fully checked
            # condition set: truncated reports broke out above, and an
            # empty-but-truncated report's alpha is 0.0, not a vacuous
            # 1.0 (see OracleReport.alpha).
            if report.alpha == 1.0:
                converged = True
                break
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                break
            if new_traces == 0:
                # No progress is impossible for genuine violations (the
                # spliced trace is rejected by the current model), but a
                # degenerate learner could loop; bail out safely.
                break

        assert model is not None and report is not None
        with tracer.span("loop.invariants", converged=converged):
            invariants = (
                extract_invariants(self._system, report.outcomes)
                if converged
                else []
            )
        proved_invariant = getattr(
            self._oracle.spurious_checker, "proved_invariant", None
        )
        # total_seconds is stamped by run() from the enclosing loop.run
        # span once it closes; learn/check splits come from the per-
        # iteration spans accumulated above.
        return ActiveLearningResult(
            model=model,
            alpha=report.alpha,
            iterations=len(records),
            records=records,
            invariants=invariants,
            proved_invariant=proved_invariant,
            learn_seconds=learn_total,
            check_seconds=check_total,
            timed_out=timed_out,
            converged=converged,
            final_trace_count=len(traces),
            recorded_inconclusive=inconclusive_total,
            session_mode=self._use_session,
        )
