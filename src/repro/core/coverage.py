"""Test-coverage evaluation and hole filling (paper §VI).

"The approach can also be used to evaluate test coverage for a given
test suite and generate new tests to address coverage holes."  This
module is that use-case as a library API:

* :func:`evaluate_suite` learns a model from the suite's traces and
  measures its degree of completeness α -- the fraction of the
  implementation's behaviour the suite exercises;
* each violated completeness condition describes a *hole*, and its
  counterexample is an input scenario no test covers;
* :func:`close_holes` iterates suite ← suite ∪ generated tests until the
  suite covers every behaviour (α = 1) or a round budget expires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..automata.nfa import SymbolicNFA
from ..learn.base import ModelLearner
from ..mc.explicit import reachable_formula
from ..system.transition_system import SymbolicSystem
from ..traces.trace import Trace, TraceSet
from .conditions import extract_conditions
from .oracle import CompletenessOracle, ConditionOutcome, make_oracle
from .refine import counterexample_traces


@dataclass
class CoverageHole:
    """One uncovered behaviour with generated tests reaching it."""

    description: str
    outcome: ConditionOutcome
    generated_tests: list[Trace] = field(default_factory=list)


@dataclass
class CoverageReport:
    """Coverage of a test suite, measured as the paper's α."""

    alpha: float
    conditions: int
    holes: list[CoverageHole] = field(default_factory=list)
    model: SymbolicNFA | None = None

    @property
    def complete(self) -> bool:
        return self.alpha == 1.0

    def all_generated_tests(self) -> list[Trace]:
        tests: list[Trace] = []
        for hole in self.holes:
            tests.extend(hole.generated_tests)
        return tests


def _oracle_for(
    system: SymbolicSystem, k: int, guided: bool
) -> CompletenessOracle:
    return make_oracle(
        system,
        "explicit",
        k,
        respect_k=False,
        domain_assumption=reachable_formula(system) if guided else None,
    )


def evaluate_suite(
    system: SymbolicSystem,
    suite: TraceSet,
    learner: ModelLearner,
    k: int = 10,
    guided: bool = True,
    oracle: CompletenessOracle | None = None,
) -> CoverageReport:
    """Measure how completely ``suite`` exercises ``system``.

    Pass a pre-built ``oracle`` to keep its hot solver state across
    repeated evaluations, as :func:`close_holes` does.
    """
    model = learner.learn(suite)
    if oracle is None:
        oracle = _oracle_for(system, k, guided)
    report = oracle.check_all(extract_conditions(model))
    holes = [
        CoverageHole(
            description=outcome.condition.describe(),
            outcome=outcome,
            generated_tests=counterexample_traces(suite, outcome),
        )
        for outcome in report.violations
    ]
    return CoverageReport(
        alpha=report.alpha,
        conditions=len(report.outcomes),
        holes=holes,
        model=model,
    )


@dataclass
class HoleClosingResult:
    """Outcome of iterated hole filling."""

    suite: TraceSet
    progression: list[float]
    rounds: int

    @property
    def final_alpha(self) -> float:
        return self.progression[-1]

    @property
    def closed(self) -> bool:
        return self.final_alpha == 1.0


def close_holes(
    system: SymbolicSystem,
    suite: TraceSet,
    learner: ModelLearner,
    k: int = 10,
    max_rounds: int = 25,
    guided: bool = True,
) -> HoleClosingResult:
    """Grow ``suite`` with generated tests until coverage reaches α = 1.

    Coverage may dip transiently -- newly exercised behaviour creates new
    proof obligations -- before converging; the progression records it.
    One oracle serves every round, so solver state learned in round
    ``n`` speeds up round ``n + 1``.
    """
    working = suite.copy()
    oracle = _oracle_for(system, k, guided)
    report = evaluate_suite(system, working, learner, k, guided, oracle=oracle)
    progression = [report.alpha]
    rounds = 0
    while not report.complete and rounds < max_rounds:
        added = 0
        for hole in report.holes:
            added += working.update(hole.generated_tests)
        rounds += 1
        if added == 0:
            break
        report = evaluate_suite(
            system, working, learner, k, guided, oracle=oracle
        )
        progression.append(report.alpha)
    return HoleClosingResult(
        suite=working, progression=progression, rounds=rounds
    )
