"""Differential suite: segmented learning vs. monolithic learning.

For every stateflow library system, learning overlapping segments
independently and unifying them (:class:`SegmentedLearner`) must give a
model isomorphic to the *minimised* monolithic model — provided the
wrapped learner's runs agree deterministically on the overlap windows
(T2M over an explicit variable basis with ``synthesize_guards=False,
merge_initial=False``; see ``docs/long_traces.md`` for why the
minimisation and the learner configuration are both required).

On top of the 28-system equivalence sweep, this suite pins down the
determinism contract: the unified model is a pure function of the
chain/segment order — shuffling the order in which distinct segments
are *learned* (the parallel completion-order degree of freedom) and
varying ``jobs`` across {1, 2, 4} must be bit-for-bit invisible.
Soundness (the unified model admits every input trace) is checked for
the precision-losing configurations too: default T2M with guard
synthesis, k-tails, and the positive-only SAT-DFA learner.

The worker-pool tests use the ``fork`` start method purely for start-up
speed; spawn-safety and the failure modes of the pool machinery are
covered by ``test_worker_pool.py``.
"""

import random
import warnings

import pytest

from repro.automata import minimize_bisimulation, nfa_isomorphic
from repro.learn import (
    KTailsLearner,
    SatDfaLearner,
    SegmentedLearner,
    T2MLearner,
)
from repro.learn.segmented import _learn_segment
from repro.stateflow.library import benchmark_names, get_benchmark
from repro.traces import (
    Trace,
    TraceSet,
    long_trace_events,
    random_traces,
    segment_count,
)

SEGMENT_LENGTH = 7
OVERLAP = 2


def basis_learner(system) -> T2MLearner:
    """T2M configured for exactness under segmentation.

    Explicit variable basis (no per-trace-set inference), no guard
    synthesis, no initial-state merging: runs are then deterministic
    after the first observation, which is what makes overlap-window
    splicing exact rather than merely sound.
    """
    return T2MLearner(
        mode_vars=[v.name for v in system.state_vars],
        variables={
            v.name: v for v in (*system.state_vars, *system.input_vars)
        },
        synthesize_guards=False,
        merge_initial=False,
    )


def fingerprint(model):
    """Bit-for-bit identity: state names, initial set, transition list."""
    return (
        tuple(model.raw_state_name(s) for s in model.states),
        tuple(sorted(model.initial_states)),
        tuple((t.src, repr(t.guard), t.dst) for t in model.transitions),
    )


def library_traces(system, count=3, length=60, seed=11) -> TraceSet:
    return random_traces(system, count=count, length=length, seed=seed)


# ---------------------------------------------------------------------------
# exactness: segmented == minimised monolithic, all 28 systems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", benchmark_names())
def test_segmented_equals_monolithic(name):
    system = get_benchmark(name).system
    traces = library_traces(system)
    monolithic = minimize_bisimulation(basis_learner(system).learn(traces))
    segmented = SegmentedLearner(
        basis_learner(system), SEGMENT_LENGTH, OVERLAP
    ).learn(traces)
    assert nfa_isomorphic(segmented, monolithic)


@pytest.mark.parametrize("length,overlap", [(4, 1), (5, 3), (9, 2)])
def test_exactness_across_segment_geometries(length, overlap):
    system = get_benchmark(benchmark_names()[0]).system
    traces = library_traces(system)
    monolithic = minimize_bisimulation(basis_learner(system).learn(traces))
    segmented = SegmentedLearner(
        basis_learner(system), length, overlap
    ).learn(traces)
    assert nfa_isomorphic(segmented, monolithic)


# ---------------------------------------------------------------------------
# soundness for precision-losing learner configurations
# ---------------------------------------------------------------------------


def sound_learners(system):
    yield T2MLearner(
        mode_vars=[v.name for v in system.state_vars],
        variables={
            v.name: v for v in (*system.state_vars, *system.input_vars)
        },
    )
    yield KTailsLearner(
        k=2,
        mode_vars=[v.name for v in system.state_vars],
        variables={
            v.name: v for v in (*system.state_vars, *system.input_vars)
        },
    )
    yield SatDfaLearner(
        mode_vars=[v.name for v in system.state_vars],
        variables={
            v.name: v for v in (*system.state_vars, *system.input_vars)
        },
    )


@pytest.mark.parametrize("name", benchmark_names()[:4])
def test_unified_model_admits_all_traces(name):
    system = get_benchmark(name).system
    traces = library_traces(system, count=2, length=40, seed=3)
    for base in sound_learners(system):
        model = SegmentedLearner(base, SEGMENT_LENGTH, OVERLAP).learn(traces)
        assert model.admits_all(traces)


# ---------------------------------------------------------------------------
# determinism: completion order and job count are invisible
# ---------------------------------------------------------------------------


def reference_model(system, traces):
    return SegmentedLearner(
        basis_learner(system), SEGMENT_LENGTH, OVERLAP
    ).learn(traces)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_segment_completion_order(seed):
    """Learning distinct segments in any order yields the same model.

    This is the completion-order degree of freedom a worker pool
    introduces, driven deterministically: the results dict is populated
    in a shuffled order, then spliced in chain order as always.
    """
    system = get_benchmark(benchmark_names()[1]).system
    traces = library_traces(system)
    expected = fingerprint(reference_model(system, traces))

    learner = SegmentedLearner(
        basis_learner(system), SEGMENT_LENGTH, OVERLAP
    )
    chains = learner._ingest(iter(trace) for trace in traces)
    order = learner._distinct_in_order(chains)
    shuffled = list(order)
    random.Random(seed).shuffle(shuffled)
    results = {
        segment: _learn_segment(learner.base, segment, learner.overlap)
        for segment in shuffled
    }
    assert fingerprint(learner._splice(chains, results)) == expected


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_parallel_bit_for_bit(jobs):
    """``jobs`` in {1, 2, 4} produce byte-identical unified models.

    Warnings are escalated so the crashed-worker serial fallback cannot
    silently mask a pool problem: this test demands the parallel path
    itself, not its recovery, to be deterministic.
    """
    system = get_benchmark("ModelingALaunchAbortSystem").system
    traces = library_traces(system, count=3, length=50, seed=23)
    expected = fingerprint(
        SegmentedLearner(basis_learner(system), 9, 2).learn(traces)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with SegmentedLearner(
            basis_learner(system), 9, 2, jobs=jobs, start_method="fork"
        ) as learner:
            model = learner.learn(traces)
            assert fingerprint(model) == expected
            # Pool reuse across calls keeps the same answer.
            if jobs > 1:
                assert fingerprint(learner.learn(traces)) == expected


def test_crashed_worker_falls_back_serially():
    """A dying worker triggers the warned serial retry, same model."""
    from repro.core.pool import PersistentWorkerPool
    from repro.learn.segmented import SegmentLearnSpec

    system = get_benchmark(benchmark_names()[0]).system
    traces = library_traces(system)
    expected = fingerprint(reference_model(system, traces))
    with SegmentedLearner(
        basis_learner(system), SEGMENT_LENGTH, OVERLAP,
        jobs=2, start_method="fork",
    ) as learner:
        # Pre-install a pool whose worker 0 dies before sending anything
        # (the spec's ``fault`` attribute is the pool's injection hook,
        # same as the oracle stress suite).
        spec = SegmentLearnSpec(learner.base, learner.overlap)
        object.__setattr__(spec, "fault", (0, 0))
        learner._pool = PersistentWorkerPool(
            spec, 2, start_method="fork", name="segment-learner"
        )
        with pytest.warns(RuntimeWarning, match="segment-learner"):
            model = learner.learn(traces)
        assert fingerprint(model) == expected


# ---------------------------------------------------------------------------
# streaming ingestion + memoisation
# ---------------------------------------------------------------------------


def test_long_trace_smoke_10k(counter):
    """Fast-tier smoke: a 10^4-event stream learns in bounded memory.

    The benchmark tier (``benchmarks/test_long_traces.py``) scales this
    to 10^6 events and asserts peak memory; here we just pin down the
    pipeline on a size CI can afford in the required tier.
    """
    total = 10_000
    learner = SegmentedLearner(basis_learner(counter), 10, 2)
    model = learner.learn_events(
        long_trace_events(counter, total, seed=0, period=6)
    )
    assert learner.stats.chains == 1
    assert learner.stats.segments == segment_count(total, 10, 2)
    # The periodic input schedule makes the log eventually periodic, so
    # the memo collapses thousands of segments to a handful of learner
    # calls -- the property the million-event benchmark relies on.
    assert learner.stats.distinct_segments < 40
    assert learner.stats.memo_hits > 1000
    events = list(long_trace_events(counter, total, seed=0, period=6))
    assert model.admits(events)


def test_learn_events_matches_learn(counter):
    events = list(long_trace_events(counter, 200, seed=5, period=4))
    via_events = SegmentedLearner(
        basis_learner(counter), SEGMENT_LENGTH, OVERLAP
    ).learn_events(iter(events))
    via_traces = SegmentedLearner(
        basis_learner(counter), SEGMENT_LENGTH, OVERLAP
    ).learn(TraceSet([Trace(events)]))
    assert fingerprint(via_events) == fingerprint(via_traces)


def test_short_chain_below_segment_length(cooler):
    """Chains shorter than one segment still learn (single-segment path)."""
    traces = library_traces(cooler, count=2, length=3, seed=1)
    model = SegmentedLearner(basis_learner(cooler), 10, 2).learn(traces)
    assert model.admits_all(traces)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_constructor_validation(counter):
    base = basis_learner(counter)
    with pytest.raises(ValueError, match="segment length"):
        SegmentedLearner(base, 1)
    with pytest.raises(ValueError, match="overlap"):
        SegmentedLearner(base, 5, 0)
    with pytest.raises(ValueError, match="overlap"):
        SegmentedLearner(base, 5, 5)
    with pytest.raises(ValueError, match="jobs"):
        SegmentedLearner(base, 5, 1, jobs=0)


def test_empty_input_raises(counter):
    learner = SegmentedLearner(basis_learner(counter), 5, 1)
    with pytest.raises(ValueError, match="no events"):
        learner.learn_streams([])
    with pytest.raises(ValueError, match="no events"):
        learner.learn_events(iter(()))
