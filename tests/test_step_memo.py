"""The sample-scoped step memo of the stepping loop.

``SymbolicSystem.run``/``iter_run`` take an optional memo from (state
tuple, input value tuple) to (next-state tuple, observation);
``random_traces`` shares one across the traces of a sample.  A memo
must change nothing a caller can see except object identity: the same
observations (``_items``, hash and ``as_dict()`` key order), the same
RNG stream, and nothing stored for inputs off the kernel's schema path.
"""

from __future__ import annotations

import io
import pickle
import random

import pytest

from repro.stateflow.library import benchmark_names, get_benchmark
from repro.system import Valuation
from repro.traces import Trace, TraceSet, random_trace, random_traces, write_json

EXECUTIONS, LENGTH = 30, 30


def _same_observations(left, right) -> None:
    """Equal observation for observation, construction order included."""
    assert len(left) == len(right)
    for a, b in zip(left, right, strict=True):
        assert a._items == b._items
        assert hash(a) == hash(b)
        assert list(a.as_dict().items()) == list(b.as_dict().items())


def _transitions(system, trace):
    """(state tuple before, input value tuple) of each step of a trace."""
    state = system.kernel.initial
    for observation in trace:
        yield state, observation.key(system.input_names)
        state = observation.key(system.state_names)


def _spy_on_run(monkeypatch, system) -> list:
    """Record the memo each ``system.run`` call of a sample receives."""
    memos = []
    run = system.run

    def spy(inputs, memo):
        memos.append(memo)
        return run(inputs, memo)

    monkeypatch.setattr(system, "run", spy)
    return memos


@pytest.mark.parametrize("name", benchmark_names())
def test_shared_memo_runs_equal_independent_runs(name):
    system = get_benchmark(name).system
    rng = random.Random(name)
    sampled = [
        [system.random_inputs(rng) for _ in range(LENGTH)]
        for _ in range(EXECUTIONS)
    ]
    memo: dict = {}
    for inputs in sampled:
        _same_observations(system.run(inputs, memo), system.run(inputs))
    distinct = {
        pair
        for inputs in sampled
        for pair in _transitions(system, system.run(inputs))
    }
    assert set(memo) == distinct


@pytest.mark.parametrize(
    "name",
    [
        "ModelingALaunchAbortSystem",
        "ModelingACdPlayerradioUsingEnumeratedDataType",
        "MealyVendingMachine",
    ],
)
def test_a_sample_steps_each_distinct_transition_once(monkeypatch, name):
    system = get_benchmark(name).system
    memos = _spy_on_run(monkeypatch, system)
    traces = random_traces(system, count=EXECUTIONS, length=LENGTH, seed=3)
    # One memo for the whole sample, one entry per distinct transition.
    assert len({id(memo) for memo in memos}) == 1
    memo = memos[0]
    by_transition: dict = {}
    steps = 0
    for trace in traces:
        for pair, observation in zip(
            _transitions(system, trace), trace, strict=True
        ):
            steps += 1
            assert by_transition.setdefault(pair, observation) is observation
            after, stored = memo[pair]
            assert stored is observation
            assert after == observation.key(system.state_names)
    assert len(memo) == len(by_transition) < steps
    # The draws and traces are those of one random_trace per trace.
    monkeypatch.undo()
    rng = random.Random(3)
    expected = TraceSet(random_trace(system, LENGTH, rng) for _ in range(EXECUTIONS))
    for got, want in zip(traces, expected, strict=True):
        _same_observations(got, want)
    assert len(traces) == len(expected)


def test_memo_shares_only_within_its_scope():
    system = get_benchmark("ModelingALaunchAbortSystem").system
    rng = random.Random(8)
    period = [system.random_inputs(rng) for _ in range(3)]
    inputs = period * 40
    memo: dict = {}
    shared = system.run(inputs, memo)
    # Without a memo nothing is kept between steps: no two steps share.
    streamed = list(system.iter_run(inputs))
    assert len({id(obs) for obs in streamed}) == len(streamed)
    _same_observations(shared, streamed)
    assert len({id(obs) for obs in shared}) == len(memo) < len(shared)


def test_wide_input_systems_keep_no_memo(monkeypatch):
    # 101 x 101 sensor readings: more input points than the sample's steps.
    system = get_benchmark(
        "ModelingARedundantSensorPairUsingAtomicSubchart"
    ).system
    assert system.kernel.input_points > EXECUTIONS * LENGTH
    memos = _spy_on_run(monkeypatch, system)
    random_traces(system, count=EXECUTIONS, length=LENGTH, seed=0)
    assert memos == [None] * EXECUTIONS


# ----------------------------------------------------------------------
# Inputs off the schema path
# ----------------------------------------------------------------------

def _cd_player():
    """A system whose declared input order is not name order, so a
    ``Valuation`` of its inputs lists them off the schema path."""
    system = get_benchmark("ModelingACdPlayerradioUsingEnumeratedDataType").system
    assert list(system.input_names) != sorted(system.input_names)
    return system


def _reversed(inputs):
    return dict(reversed(list(inputs.items())))


@pytest.mark.parametrize(
    "off_schema",
    [
        pytest.param(lambda inputs: dict(inputs, note=7), id="extra-keys"),
        pytest.param(_reversed, id="another-order"),
        pytest.param(Valuation, id="valuation"),
    ],
)
def test_inputs_off_the_schema_path_never_enter_the_memo(off_schema):
    system = _cd_player()
    rng = random.Random(12)
    sampled = [off_schema(system.random_inputs(rng)) for _ in range(60)]
    memo: dict = {}
    _same_observations(system.run(sampled, memo), system.run(sampled))
    assert memo == {}
    # Interleaved with schema-path steps, only those are stored.
    mixed = [
        inputs if index % 2 else system.random_inputs(rng)
        for index, inputs in enumerate(sampled)
    ]
    memo = {}
    _same_observations(system.run(mixed, memo), system.run(mixed))
    schema_steps = {
        pair
        for index, pair in enumerate(_transitions(system, system.run(mixed)))
        if not index % 2
    }
    assert set(memo) == schema_steps


def test_custom_sampler_off_the_schema_path_keeps_todays_traces(monkeypatch):
    system = _cd_player()

    def sampler(rng):
        return _reversed(system.random_inputs(rng))

    memos = _spy_on_run(monkeypatch, system)
    traces = random_traces(system, count=5, length=20, seed=9, sampler=sampler)
    assert memos and all(memo == {} for memo in memos)
    monkeypatch.undo()
    rng = random.Random(9)
    for trace in traces:
        _same_observations(trace, random_trace(system, 20, rng, sampler))


# ----------------------------------------------------------------------
# JSON bytes
# ----------------------------------------------------------------------

def _json_bytes(traces) -> str:
    buffer = io.StringIO()
    write_json(traces, buffer)
    return buffer.getvalue()


def test_write_json_bytes_do_not_depend_on_how_observations_were_built():
    system = _cd_player()
    traces = random_traces(system, count=2, length=3, seed=0)
    written = _json_bytes(traces)
    assert _json_bytes(pickle.loads(pickle.dumps(traces))) == written
    rebuilt = TraceSet(
        Trace(Valuation(dict(obs.as_dict())) for obs in trace) for trace in traces
    )
    assert _json_bytes(rebuilt) == written
    by_name = TraceSet(
        Trace(Valuation(dict(sorted(obs.items()))) for obs in trace)
        for trace in traces
    )
    assert _json_bytes(by_name) == written
