"""Counterexample-to-trace refinement (paper §III-B).

A violated condition yields a counterexample ``(v_t, v_t+1)``.  New
traces are constructed by splicing it onto the input traces: for each
trace ``σ ∈ T``, the *smallest* prefix ``σ' = v_1..v_j`` with
``v_j |= r`` is extended as ``σ_CE = v_1, ..., v_j-1, v_t, v_t+1``.
Since ``v_t |= r``, the new trace keeps the behaviour represented by the
prefix and augments it with the missing behaviour.

Condition (1) violations produce the trace ``[v_1]`` directly (the
counterexample's second observation is a genuine first observation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..expr.ast import Expr
from ..expr.compiled import compile_expr
from ..system.valuation import Valuation, first_satisfying
from ..traces.trace import Trace, TraceSet
from .conditions import ConditionKind
from .oracle import ConditionOutcome


def splice_counterexample(
    traces: TraceSet,
    assumption: Expr,
    counterexample: tuple[Valuation, Valuation],
) -> list[Trace]:
    """The σ_CE construction for a condition-(2) counterexample."""
    if not assumption.sort.is_bool():
        raise TypeError(
            f"splicing needs a Boolean assumption, got {assumption.sort}"
        )
    # Compiled once per violation, called on every scanned observation.
    satisfies_r = compile_expr(assumption)
    v_t, v_t1 = counterexample
    new_traces: list[Trace] = []
    seen: set[Trace] = set()
    for trace in traces:
        observations = trace.observations
        index = first_satisfying(observations, satisfies_r)
        if index is None:
            continue
        spliced = Trace(observations[:index] + (v_t, v_t1))
        if spliced not in seen:
            seen.add(spliced)
            new_traces.append(spliced)
    if not new_traces:
        # No input trace visits an r-observation (possible after heavy
        # strengthening): fall back to the bare counterexample pair so
        # the learner still sees the missing behaviour.
        new_traces.append(Trace([v_t, v_t1]))
    return new_traces


def counterexample_traces(
    traces: TraceSet, outcome: ConditionOutcome
) -> list[Trace]:
    """New traces ``T_CE`` for one violated condition."""
    if outcome.holds or outcome.counterexample is None:
        return []
    if outcome.condition.kind is ConditionKind.INIT:
        _v0, v1 = outcome.counterexample
        return [Trace([v1])]
    assumption = outcome.final_assumption
    assert assumption is not None
    return splice_counterexample(traces, assumption, outcome.counterexample)


@dataclass
class AugmentResult:
    """Outcome of one refinement round.

    ``added`` is the exact delta spliced into the trace set, in
    insertion order -- what a learner session consumes.  Splicing can
    reproduce a trace the set already contains (e.g. two violations
    sharing a prefix, or a counterexample re-derived in a later
    iteration); those are deduplicated against the set and counted in
    ``duplicates_skipped``, so sessions never receive a no-op delta.
    """

    added: list[Trace] = field(default_factory=list)
    duplicates_skipped: int = 0

    @property
    def num_added(self) -> int:
        return len(self.added)


def augment_traces(
    traces: TraceSet, outcomes: list[ConditionOutcome]
) -> AugmentResult:
    """Add ``T_CE`` for every violation to ``traces``.

    Returns the genuinely-new traces (the session delta) plus how many
    spliced candidates were already present.
    """
    result = AugmentResult()
    for outcome in outcomes:
        for trace in counterexample_traces(traces, outcome):
            if traces.add(trace):
                result.added.append(trace)
            else:
                result.duplicates_skipped += 1
    return result
