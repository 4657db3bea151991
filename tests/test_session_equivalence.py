"""Differential suite: session-mode learning vs. fresh-per-iteration.

The session API's contract is that incremental re-learning is purely an
optimisation: for every library system and every shipped learner, the
model a warmed session produces after each delta must be isomorphic to
what a fresh ``learn`` on the accumulated trace set produces -- and that
must survive shuffled delta order and a mid-run ``reset``.

For the SAT-DFA learner in ``canonical`` mode the guarantee is stronger:
the identified DFA is a pure function of the trace *set*, so session and
fresh models are structurally *identical*, even with negative sequences
forcing a non-trivial identification and even when the deltas arrive in
a different order than the fresh learner saw.
"""

import random

import pytest

from repro.automata.compare import nfa_isomorphic
from repro.learn import (
    FreshLearnSession,
    KTailsLearner,
    SatDfaLearner,
    T2MLearner,
    start_session,
)
from repro.stateflow.library import benchmark_names, get_benchmark
from repro.system.valuation import Valuation
from repro.traces.generate import random_traces
from repro.traces.trace import Trace, TraceSet

LEARNER_FACTORIES = {
    "t2m": lambda: T2MLearner(),
    "ktails": lambda: KTailsLearner(k=2),
    "satdfa": lambda: SatDfaLearner(),
}


def _trace_rounds(system):
    """A small initial set plus two delta rounds."""
    initial = random_traces(system, count=3, length=6, seed=0)
    deltas = [
        tuple(random_traces(system, count=2, length=6, seed=seed))
        for seed in (1, 2)
    ]
    return initial, deltas


def _transition_key(model):
    """Structure key for exact (not just isomorphic) comparison."""
    return (
        model.num_states,
        sorted(model.initial_states),
        sorted((t.src, repr(t.guard), t.dst) for t in model.transitions),
    )


@pytest.mark.parametrize("name", benchmark_names())
def test_session_matches_fresh(name):
    """Per-iteration session models are isomorphic to fresh-learn models
    on every library system, for all three learners -- including under
    shuffled delta order and a mid-run session reset."""
    system = get_benchmark(name).system
    initial, deltas = _trace_rounds(system)
    rng = random.Random(7)
    for label, factory in LEARNER_FACTORIES.items():
        session = factory().start_session(initial)
        shuffled_session = factory().start_session(initial)
        accumulated = initial.copy()
        fresh_model = factory().learn(accumulated)
        assert nfa_isomorphic(session.model, fresh_model), (
            f"{name}/{label}: initial session model differs"
        )
        assert not session.warm
        for round_index, delta in enumerate(deltas):
            model = session.add_traces(delta)
            shuffled = list(delta)
            rng.shuffle(shuffled)
            shuffled_model = shuffled_session.add_traces(shuffled)
            if round_index == 0:
                shuffled_session.reset()  # must not change the model
                assert not shuffled_session.warm
                assert nfa_isomorphic(
                    shuffled_session.model, shuffled_model
                ), f"{name}/{label}: reset changed the model"
            accumulated.update(delta)
            fresh_model = factory().learn(accumulated)
            assert nfa_isomorphic(model, fresh_model), (
                f"{name}/{label}: session model diverged on round "
                f"{round_index}"
            )
            assert nfa_isomorphic(shuffled_model, fresh_model), (
                f"{name}/{label}: shuffled-delta model diverged on round "
                f"{round_index}"
            )


def test_satdfa_canonical_sessions_are_identical():
    """With negatives forcing a multi-state DFA, canonical session and
    fresh models are structurally identical, in any delta order."""
    # Mode alphabet {0, 1}; negatives rule out the 1-state automaton.
    positives = [
        [(0,)], [(0,), (1,)], [(0,), (1,), (0,)],
        [(0,), (1,), (0,), (1,)],
    ]
    negatives = [[(1,)], [(0,), (0,)], [(0,), (1,), (1,)]]

    def trace_of(word):
        return Trace([Valuation(m=symbol) for (symbol,) in word])

    # canonical is NOT passed: supplying negatives must force it on,
    # otherwise the minimal witness would depend on solver history and
    # warm sessions could legitimately diverge from fresh learns.
    def learner():
        return SatDfaLearner(
            mode_vars=["m"],
            negative_sequences=negatives,
        )

    initial = TraceSet([trace_of(positives[0])])
    deltas = [[trace_of(positives[1])], [trace_of(w) for w in positives[2:]]]
    session = learner().start_session(initial)
    reversed_session = learner().start_session(initial)
    accumulated = initial.copy()
    for delta in deltas:
        model = session.add_traces(delta)
        reversed_model = reversed_session.add_traces(list(reversed(delta)))
        accumulated.update(delta)
        fresh = learner().learn(accumulated)
        assert fresh.num_states > 1  # identification is non-trivial
        assert _transition_key(model) == _transition_key(fresh)
        assert _transition_key(reversed_model) == _transition_key(fresh)
    assert session.warm


def test_mode_drift_triggers_cold_rebuild_and_stays_correct():
    """A delta that changes mode-variable auto-detection (a variable
    crossing ``max_distinct``) rebuilds the session cold -- warm reads
    False -- and the model still matches a fresh learn."""
    def obs(mode, data):
        return Valuation(m=mode, d=data)

    initial = TraceSet([
        Trace([obs(0, 0), obs(1, 0)]),
        Trace([obs(0, 1), obs(1, 1)]),
    ])
    # The delta makes "d" take 9 distinct values: no longer mode-like
    # under max_distinct=8, so the detected mode basis shrinks to {m}.
    drift_delta = [Trace([obs(0, d), obs(1, d)]) for d in range(2, 9)]
    for factory in (
        lambda: T2MLearner(max_distinct=8),
        lambda: KTailsLearner(k=2, max_distinct=8),
        lambda: SatDfaLearner(max_distinct=8),
    ):
        session = factory().start_session(initial)
        warm_delta = [Trace([obs(1, 0), obs(1, 1)])]
        session.add_traces(warm_delta)
        assert session.warm
        model = session.add_traces(drift_delta)
        assert not session.warm  # drift forced a cold rebuild
        accumulated = initial.copy()
        accumulated.update(warm_delta)
        accumulated.update(drift_delta)
        assert nfa_isomorphic(model, factory().learn(accumulated))


def test_active_loop_session_equals_stateless():
    """End to end: the loop walks through identical per-iteration models
    and verdicts whether the learner re-learns in its own session or,
    through FreshLearnSession, from scratch every iteration."""
    from repro.core.loop import ActiveLearner

    benchmark = get_benchmark("MealyVendingMachine")
    system = benchmark.system
    traces = random_traces(system, count=4, length=8, seed=0)

    def t2m():
        return T2MLearner(
            mode_vars=[v.name for v in system.state_vars],
            variables={v.name: v for v in system.variables},
        )

    class LearnOnly:
        """Exposes only ``learn``, so the loop wraps it in FreshLearnSession."""

        def __init__(self):
            self.calls = 0
            self._learner = t2m()

        def learn(self, trace_set):
            self.calls += 1
            return self._learner.learn(trace_set)

    def run(learner):
        with ActiveLearner(
            system,
            learner,
            k=benchmark.k,
            max_iterations=5,
            guide_with_reachable=True,
        ) as active:
            return active.run(traces)

    with_session = run(t2m())
    fresh = LearnOnly()
    without_session = run(fresh)
    assert fresh.calls == without_session.iterations  # one learn per round
    assert with_session.iterations == without_session.iterations
    assert with_session.alpha == without_session.alpha
    for ours, theirs in zip(with_session.records, without_session.records, strict=True):
        assert ours.num_states == theirs.num_states
        assert ours.num_transitions == theirs.num_transitions
        assert ours.alpha == theirs.alpha
        assert ours.violations == theirs.violations
        assert not theirs.warm_start  # fresh learns are always cold
    assert nfa_isomorphic(with_session.model, without_session.model)
    if with_session.iterations > 1:
        assert with_session.records[0].warm_start is False
        assert all(r.warm_start for r in with_session.records[1:])
        assert with_session.warm_learn_seconds >= 0.0
        assert (
            with_session.cold_learn_seconds + with_session.warm_learn_seconds
            == pytest.approx(with_session.learn_seconds)
        )


def test_stateless_adapter_wraps_plain_learners():
    """A learner without start_session runs through FreshLearnSession
    and behaves exactly like calling learn() on the growing set."""

    class PlainLearner:
        def __init__(self):
            self.calls = 0

        def learn(self, traces):
            self.calls += 1
            return T2MLearner().learn(traces)

    system = get_benchmark("MealyVendingMachine").system
    initial, deltas = _trace_rounds(system)
    plain = PlainLearner()
    session = start_session(plain, initial)
    assert isinstance(session, FreshLearnSession)
    assert not session.warm
    accumulated = initial.copy()
    for delta in deltas:
        model = session.add_traces(delta)
        accumulated.update(delta)
        assert nfa_isomorphic(model, T2MLearner().learn(accumulated))
        assert not session.warm  # the adapter never warm-starts
    # Deltas with nothing new skip the relearn entirely.
    calls_before = plain.calls
    session.add_traces(deltas[-1])
    assert plain.calls == calls_before


def test_traceset_append_log_delta_view():
    system = get_benchmark("MealyVendingMachine").system
    traces = random_traces(system, count=3, length=5, seed=0)
    snapshot = traces.version
    assert traces.since(snapshot) == ()
    delta = tuple(random_traces(system, count=2, length=5, seed=1))
    added = traces.update(delta)
    assert added == len(traces.since(snapshot))
    assert all(t in delta for t in traces.since(snapshot))
    assert traces.since(0) == tuple(traces)
    with pytest.raises(ValueError):
        traces.since(traces.version + 1)
