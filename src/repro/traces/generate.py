"""Trace generation by executing the system on sampled inputs.

This is the paper's initial-trace-set construction (§IV-B: "an initial
set of 50 traces, each of length 50, by executing the system with
randomly sampled inputs") and the random-sampling baseline (§IV-C).
Every trace runs through the system's compiled stepping kernel
(:attr:`SymbolicSystem.kernel <repro.system.SymbolicSystem.kernel>`), on
one environment dict per trace: :meth:`SymbolicSystem.run
<repro.system.SymbolicSystem.run>` and :func:`iter_trace` share one
loop.  The default sampler, :meth:`SymbolicSystem.random_inputs
<repro.system.SymbolicSystem.random_inputs>`, draws from the kernel's
value tables.  :func:`random_traces` gives that loop one step memo per
sample (unless the system has more input points than the sample has
steps), so each distinct (state, inputs) transition of the sample is
stepped once and its observation is one object wherever it recurs.

For the long-trace workload (companion paper, PAPERS.md) the module
also provides *streaming* generation: :func:`iter_trace` yields
observations one at a time without materialising the execution, and
:func:`long_trace_events` emits 10⁶+-event logs — optionally with a
periodic input schedule, the repetitive shape real logs have — in
O(1) memory, ready to feed :func:`repro.traces.segment.segment_trace`
or :func:`repro.traces.io.write_jsonl_events`.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator

from ..system.transition_system import StepMemo, SymbolicSystem
from ..system.valuation import Valuation
from .trace import Trace, TraceSet

InputSampler = Callable[[random.Random], dict[str, int]]


def random_trace(
    system: SymbolicSystem,
    length: int,
    rng: random.Random,
    sampler: InputSampler | None = None,
) -> Trace:
    """One execution trace of the given length from the initial state."""
    sample = sampler or system.random_inputs
    inputs = [sample(rng) for _ in range(length)]
    return Trace(system.run(inputs))


def random_traces(
    system: SymbolicSystem,
    count: int = 50,
    length: int = 50,
    seed: int = 0,
    sampler: InputSampler | None = None,
) -> TraceSet:
    """The paper's default initial trace set: 50 traces of length 50.

    The same draws and traces as ``count`` calls of :func:`random_trace`
    on one ``Random(seed)``, stepped with one memo for the whole sample
    (:meth:`SymbolicSystem.iter_run
    <repro.system.SymbolicSystem.iter_run>`), so a repeated
    transition's observation is one object.  A transition repeats only
    where its inputs do: a system with more input points than the
    sample has steps keeps no memo, which would cost it two more
    objects per stored step and save almost nothing.

    Traced as a ``traces.generate`` span whose ``stepped`` attribute
    counts the transitions the kernel evaluated: the memo's size, or
    every step without a memo.
    """
    from ..core import telemetry  # lazy: see repro.core.telemetry

    rng = random.Random(seed)
    sample = sampler or system.random_inputs
    steps = count * length
    memo: StepMemo | None = {} if system.kernel.input_points <= steps else None
    traces = TraceSet()
    with telemetry.span("traces.generate", traces=count, steps=steps) as generate_span:
        for _ in range(count):
            inputs = [sample(rng) for _ in range(length)]
            traces.add(Trace(system.run(inputs, memo)))
        generate_span.set(stepped=steps if memo is None else len(memo))
    return traces


def guided_trace(
    system: SymbolicSystem, input_seq: list[dict[str, int]]
) -> Trace:
    """Trace from an explicit input sequence (used by tests/examples)."""
    return Trace(system.run(input_seq))


# ----------------------------------------------------------------------
# Streaming generation (long-trace workload)
# ----------------------------------------------------------------------

def iter_trace(
    system: SymbolicSystem,
    input_seq: Iterable[dict[str, int]],
) -> Iterator[Valuation]:
    """Execute from the initial state, yielding observations lazily.

    Streaming counterpart of ``system.run``, sharing its loop
    (:meth:`~repro.system.SymbolicSystem.iter_run`): consumes the input
    iterable one step at a time and never materialises the execution,
    so trace length is bounded only by the input stream.
    """
    return system.iter_run(input_seq)


def periodic_inputs(
    system: SymbolicSystem,
    period: int,
    seed: int = 0,
    sampler: InputSampler | None = None,
) -> Iterator[dict[str, int]]:
    """An endlessly repeating input schedule of the given period.

    Samples ``period`` random inputs once, then cycles them — the
    eventually-periodic shape of real instrumentation logs, and the
    shape that makes the segment-dedup memo of
    :class:`repro.learn.segmented.SegmentedLearner` pay off.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    rng = random.Random(seed)
    sample = sampler or system.random_inputs
    cycle = [sample(rng) for _ in range(period)]
    return itertools.cycle(cycle)


def long_trace_events(
    system: SymbolicSystem,
    length: int,
    seed: int = 0,
    period: int | None = None,
    sampler: InputSampler | None = None,
) -> Iterator[Valuation]:
    """A long execution trace as a bounded-memory observation stream.

    With ``period`` set, inputs follow :func:`periodic_inputs` (a
    repetitive log); otherwise every step is sampled independently.
    Deterministic in ``seed`` either way.  Memory is O(1) in
    ``length`` — suitable for 10⁶+-event traces.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if period is not None:
        inputs: Iterator[dict[str, int]] = periodic_inputs(
            system, period, seed=seed, sampler=sampler
        )
    else:
        rng = random.Random(seed)
        sample = sampler or system.random_inputs
        inputs = (sample(rng) for _ in itertools.count())
    return iter_trace(system, itertools.islice(inputs, length))
