"""The completeness oracle: condition checking with spuriousness handling.

Implements the §III-B/§III-C interaction: each extracted condition is
model-checked (Fig. 3a, k-induction with ``k = 1``); counterexamples are
classified (Fig. 3b); spurious counterexamples strengthen the assumption
(``r ← r ∧ ¬s'``) and the check repeats; valid or inconclusive
counterexamples surface as genuine violations.  Inconclusive ones are
*recorded* (paper: "we treat such a counterexample as valid but record it
for future reference").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..expr.ast import Expr
from ..mc.condition_check import IncrementalConditionChecker
from ..mc.harness import strengthened_assumption
from ..mc.spurious import SpuriousnessChecker, build_spurious_checker
from ..mc.verdicts import SpuriousVerdict
from ..system.transition_system import SymbolicSystem
from ..system.valuation import Valuation
from . import telemetry
from .conditions import Condition, ConditionKind


@dataclass
class ConditionOutcome:
    """Result of checking one condition to a verdict."""

    condition: Condition
    holds: bool
    final_assumption: Expr | None  # after spurious strengthenings
    counterexample: tuple[Valuation, Valuation] | None = None
    inconclusive: bool = False
    spurious_excluded: int = 0
    solver_checks: int = 0
    truncated: bool = False  # deadline expired mid-strengthening


@dataclass
class OracleReport:
    """Aggregate over all conditions of one candidate model."""

    outcomes: list[ConditionOutcome] = field(default_factory=list)
    truncated: bool = False  # budget ran out mid-check

    @property
    def alpha(self) -> float:
        """Degree of completeness: fraction of conditions that hold.

        An empty report is vacuously complete *only* if it is actually
        finished: when the deadline expired before the first condition
        was checked (``truncated`` with no outcomes) nothing is known,
        and claiming ``α = 1`` would let the active loop declare
        convergence on zero evidence -- so that case reports ``0.0``.
        """
        if not self.outcomes:
            return 0.0 if self.truncated else 1.0
        return sum(1 for o in self.outcomes if o.holds) / len(self.outcomes)

    @property
    def violations(self) -> list[ConditionOutcome]:
        return [o for o in self.outcomes if not o.holds]

    @property
    def total_spurious(self) -> int:
        return sum(o.spurious_excluded for o in self.outcomes)

    @property
    def recorded_inconclusive(self) -> list[ConditionOutcome]:
        return [o for o in self.outcomes if o.inconclusive]


class CompletenessOracle:
    """Checks candidate models against the implementation.

    Parameters
    ----------
    system:
        The implementation ``S``.
    spurious_checker:
        Strategy classifying counterexample states (Fig. 3b); ``None``
        disables the check and treats every counterexample as valid.
    k:
        The Fig. 3b bound, from domain knowledge (Table I's ``k``).
    state_only:
        Strengthen with the state projection of spurious counterexamples
        (the paper's suggested domain-knowledge optimisation) rather than
        the full valuation including free inputs.
    max_strengthenings:
        Cap on spurious-exclusion rounds per condition.  Once exhausted
        the pending counterexample is treated as valid-but-recorded,
        mirroring how the paper's timed-out benchmarks keep churning
        through invalid counterexamples (§IV-B.1).
    domain_assumption:
        Optional formula over the observables conjoined (as a base
        constraint) to every condition check -- the paper's suggested
        domain-knowledge strengthening that guides the checker towards
        valid counterexamples.  With the reachable-state formula from
        :func:`repro.mc.explicit.reachable_formula`, which is exact at
        every size, each counterexample the checker returns starts in a
        state the explicit engine reaches: the classifier never answers
        SPURIOUS and every condition is decided in one solve.
    validate:
        Run the static analyzer over the system at construction and over
        every condition before it is checked, raising
        :class:`~repro.analysis.diagnostics.AnalysisError` with the full
        diagnostic report on ERROR findings.  This is the front-door
        validation boundary: anything that feeds the oracle untrusted
        specs (the CLI, the evaluation runners) fails fast with named
        diagnostics instead of a deep engine traceback.  Condition
        validation reuses one eid-memoised checker across the oracle's
        lifetime, so re-checking the conditions of successive candidate
        models costs only the DAG nodes not seen before.
    canonical_counterexamples:
        Return the lexicographically minimal counterexample per query
        instead of the solver's first model.  Canonical counterexamples
        make every outcome a pure function of the condition --
        independent of solver history, condition order and process hash
        seed -- which makes this the deterministic reference mode the
        golden and reachable-guidance suites compare against.  Off
        by default: minimisation costs extra solver probes per
        counterexample (an order of magnitude more check time on
        churn-heavy workloads; see ``docs/engines.md``).
    """

    def __init__(
        self,
        system: SymbolicSystem,
        spurious_checker: SpuriousnessChecker | None,
        k: int,
        state_only: bool = True,
        max_strengthenings: int = 100,
        domain_assumption: Expr | None = None,
        canonical_counterexamples: bool = False,
        validate: bool = False,
    ):
        self._system = system
        self._spurious = spurious_checker
        self._k = k
        self._state_only = state_only
        self._max_strengthenings = max_strengthenings
        self._canonical = canonical_counterexamples
        self._condition_validator = None
        if validate:
            from ..analysis.diagnostics import AnalysisError, AnalysisReport
            from ..analysis.sortcheck import SortChecker
            from ..analysis.system_check import validate_system

            validate_system(system)
            scope = {v.name: v for v in system.variables}
            sort_checker = SortChecker(scope)

            def _validate_condition(condition: Condition) -> None:
                report = AnalysisReport(
                    subject=f"condition({condition.state_name})"
                )
                bodies = []
                if condition.assumption is not None:
                    bodies.append(condition.assumption)
                bodies.append(condition.conclusion)
                for body in bodies:
                    if not body.sort.is_bool():
                        from ..analysis.diagnostics import Diagnostic, Severity
                        from ..expr.printer import to_str

                        report.add(
                            Diagnostic(
                                code="R201",
                                severity=Severity.ERROR,
                                message=(
                                    f"condition body has sort {body.sort}, "
                                    "expected a Boolean predicate over one "
                                    "observation"
                                ),
                                subject=to_str(body),
                            )
                        )
                    report.extend(
                        sort_checker.check(body, allow_primed=False)
                    )
                if report.finalize().errors:
                    raise AnalysisError(report)

            self._condition_validator = _validate_condition
        self._checker = IncrementalConditionChecker(system)
        if domain_assumption is not None:
            self._checker.add_base_constraint(domain_assumption)

    # ------------------------------------------------------------------
    def check(
        self, condition: Condition, deadline: float | None = None
    ) -> ConditionOutcome:
        """Check one condition to a final verdict.

        The ``deadline`` (``time.monotonic`` scale) is consulted between
        spurious-strengthening rounds, not just between conditions: a
        single churning condition would otherwise overshoot the
        wall-clock budget by up to ``max_strengthenings`` solver rounds.
        On expiry the pending counterexample is surfaced as
        inconclusive-and-truncated, mirroring §III-C's
        valid-but-recorded treatment.
        """
        with telemetry.span(
            "oracle.check", kind=condition.kind.name.lower()
        ) as check_span:
            outcome = self._check(condition, deadline)
            registry = telemetry.metrics()
            if registry is not None:
                check_span.set(
                    holds=outcome.holds,
                    strengthened=outcome.spurious_excluded,
                )
                registry.inc("oracle.conditions_checked")
                registry.inc(
                    "oracle.strengthening_rounds", outcome.spurious_excluded
                )
                registry.inc("oracle.solver_checks", outcome.solver_checks)
                if not outcome.holds:
                    registry.inc("oracle.violations")
                if outcome.inconclusive:
                    registry.inc("oracle.inconclusive")
                if outcome.truncated:
                    registry.inc("oracle.truncated")
                elif (
                    outcome.inconclusive
                    and outcome.spurious_excluded >= self._max_strengthenings
                ):
                    # The strengthening cap, not depth > k, left it open.
                    registry.inc("oracle.cap_hits")
            return outcome

    def _check(
        self, condition: Condition, deadline: float | None = None
    ) -> ConditionOutcome:
        if self._condition_validator is not None:
            self._condition_validator(condition)
        system = self._system
        assumption = (
            system.init
            if condition.kind is ConditionKind.INIT
            else condition.assumption
        )
        spurious_excluded = 0
        solver_checks = 0
        while True:
            result = self._checker.check(
                assumption, condition.conclusion, canonical=self._canonical
            )
            solver_checks += result.solver_checks
            if result.holds:
                return ConditionOutcome(
                    condition=condition,
                    holds=True,
                    final_assumption=assumption,
                    spurious_excluded=spurious_excluded,
                    solver_checks=solver_checks,
                )
            v_t, v_t1 = result.counterexample
            if deadline is not None and time.monotonic() > deadline:
                return ConditionOutcome(
                    condition=condition,
                    holds=False,
                    final_assumption=assumption,
                    counterexample=(v_t, v_t1),
                    inconclusive=True,
                    spurious_excluded=spurious_excluded,
                    solver_checks=solver_checks,
                    truncated=True,
                )
            if condition.kind is ConditionKind.INIT:
                # v_0 |= Init is genuine by construction (§III-B).
                verdict = SpuriousVerdict.VALID
            elif self._spurious is None:
                verdict = SpuriousVerdict.VALID
            elif spurious_excluded >= self._max_strengthenings:
                verdict = SpuriousVerdict.INCONCLUSIVE
            else:
                verdict = self._spurious.classify(v_t, self._k)
            if verdict is SpuriousVerdict.SPURIOUS:
                # The paper's blind strengthening ``r ∧ ¬s'``: exclude
                # exactly the one counterexample state.
                spurious_excluded += 1
                assumption = strengthened_assumption(
                    assumption, system, v_t, self._state_only
                )
                continue
            return ConditionOutcome(
                condition=condition,
                holds=False,
                final_assumption=assumption,
                counterexample=(v_t, v_t1),
                inconclusive=verdict is SpuriousVerdict.INCONCLUSIVE,
                spurious_excluded=spurious_excluded,
                solver_checks=solver_checks,
            )

    def check_all(
        self, conditions: list[Condition], deadline: float | None = None
    ) -> OracleReport:
        """Check every condition; stops early when the deadline passes.

        A truncated report mirrors the paper's timeout rows: ``α`` is
        computed over the conditions checked so far.  The deadline also
        cuts off a condition mid-strengthening (see :meth:`check`); the
        partial outcome is kept so its counterexample is not lost.
        """
        report = OracleReport()
        for condition in conditions:
            if deadline is not None and time.monotonic() > deadline:
                report.truncated = True
                break
            outcome = self.check(condition, deadline=deadline)
            report.outcomes.append(outcome)
            if outcome.truncated:
                report.truncated = True
                break
        return report


def make_oracle(
    system: SymbolicSystem,
    spurious_engine: str,
    k: int,
    *,
    respect_k: bool = True,
    state_only: bool = True,
    max_strengthenings: int = 100,
    domain_assumption: Expr | None = None,
    canonical: bool = False,
    validate: bool = False,
) -> CompletenessOracle:
    """Build an oracle whose spuriousness strategy is named, not passed.

    ``spurious_engine`` is one of
    :data:`~repro.mc.spurious.SPURIOUS_ENGINES`; ``canonical=True``
    turns on the deterministic reference mode (see
    ``canonical_counterexamples`` on :class:`CompletenessOracle`).
    """
    return CompletenessOracle(
        system,
        build_spurious_checker(
            system, spurious_engine, respect_k=respect_k, state_only=state_only
        ),
        k,
        state_only=state_only,
        max_strengthenings=max_strengthenings,
        domain_assumption=domain_assumption,
        canonical_counterexamples=canonical,
        validate=validate,
    )
