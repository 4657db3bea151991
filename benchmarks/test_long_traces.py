"""Macro-benchmark: long-trace learning -- monolithic blow-up vs. segmented.

Three measurements on the launch-abort system, recorded together in
``BENCH_long_traces.json`` at the repository root:

1. **Blow-up curve** -- the monolithic SAT-DFA learner (with one
   negative sequence, so identification does real SAT work) timed at
   growing trace lengths.  The fitted scaling exponent documents why a
   10^5-event log is hopeless as one giant word (the measured curve is
   ~quadratic: each doubling costs ~4x).
2. **Speedup at 10^5 events** -- the same learner run segmented
   (:class:`SegmentedLearner`: overlapping segments + dedup memo +
   unification) against the monolithic run under a wall-clock budget in
   a subprocess.  Monolithic learning blows through the budget (a
   ~17 h extrapolation), so the recorded speedup is a *lower bound*:
   budget / segmented seconds, asserted >= 5x.  The assertion is gated
   behind a measurement floor: it only runs when the monolithic side was
   either capped or took long enough to time meaningfully.
3. **10^6-event learn with bounded memory** -- a million-event stream
   (never materialised: :func:`long_trace_events` generates lazily,
   segments are sliced on the fly) learned end to end under
   ``tracemalloc``.  Peak traced memory is asserted to stay megabytes
   -- strictly below what merely *materialising* a 10x shorter event
   list costs -- which is the whole point of streaming ingestion.

Scales are environment-tunable like the rest of the harness:

``REPRO_LONG_EVENTS``     million-run length        default 1_000_000
``REPRO_SPEEDUP_EVENTS``  speedup-run length        default 100_000
``REPRO_MONO_BUDGET``     monolithic cap (seconds)  default 60

Run with ``pytest benchmarks/test_long_traces.py -s`` to see figures.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from repro.learn import SatDfaLearner, SegmentedLearner, T2MLearner
from repro.stateflow.library import get_benchmark
from repro.traces import long_trace_events

BENCH = "ModelingALaunchAbortSystem"
SEGMENT_LENGTH = 32
OVERLAP = 2
PERIOD = 11  # input-schedule period: makes the log eventually periodic
SEED = 0
BLOWUP_SIZES = (500, 1000, 2000)

LONG_EVENTS = int(os.environ.get("REPRO_LONG_EVENTS", "1000000"))
SPEEDUP_EVENTS = int(os.environ.get("REPRO_SPEEDUP_EVENTS", "100000"))
MONO_BUDGET = float(os.environ.get("REPRO_MONO_BUDGET", "60"))

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_long_traces.json"


def _record(bench_record, section: str, payload: dict) -> None:
    """Merge one section into the shared record (tests stay runnable
    individually; a full run refreshes every section)."""
    bench_record(
        RESULT_PATH,
        {
            "benchmark": BENCH,
            "segment_length": SEGMENT_LENGTH,
            "overlap": OVERLAP,
            section: payload,
        },
        merge=True,
    )


def _system():
    return get_benchmark(BENCH).system


def _events(n: int):
    return long_trace_events(_system(), n, seed=SEED, period=PERIOD)


def _sat_learner() -> SatDfaLearner:
    """SAT-DFA with one negative word: identification does real SAT work.

    The negative is a deterministic corruption of the trace's own third
    mode valuation, so it is consistent (never observed) yet forces the
    solver to separate states rather than emit the one-state permissive
    automaton for free.
    """
    system = _system()
    mode_vars = [v.name for v in system.state_vars]
    prefix = list(islice(_events(3), 3))
    word = [tuple(event[m] for m in mode_vars) for event in prefix]
    word[-1] = tuple(v + 1000 for v in word[-1])
    return SatDfaLearner(
        mode_vars=mode_vars,
        variables={
            v.name: v for v in (*system.state_vars, *system.input_vars)
        },
        negative_sequences=[word],
    )


def _t2m_learner() -> T2MLearner:
    system = _system()
    return T2MLearner(
        mode_vars=[v.name for v in system.state_vars],
        variables={
            v.name: v for v in (*system.state_vars, *system.input_vars)
        },
        synthesize_guards=False,
        merge_initial=False,
    )


def _learn_monolithic(n: int) -> float:
    """Time one monolithic SAT-DFA learn over an n-event trace."""
    from repro.traces import Trace, TraceSet

    events = list(_events(n))
    learner = _sat_learner()
    start = time.perf_counter()
    learner.learn(TraceSet([Trace(events)]))
    return time.perf_counter() - start


def _monolithic_worker(conn, n: int) -> None:
    conn.send(_learn_monolithic(n))
    conn.close()


# ---------------------------------------------------------------------------


def test_monolithic_blowup_curve(bench_record):
    """The monolithic learner scales super-linearly in trace length."""
    points = []
    for n in BLOWUP_SIZES:
        seconds = _learn_monolithic(n)
        points.append({"events": n, "seconds": round(seconds, 4)})
        print(f"\nmonolithic SAT-DFA: {n} events -> {seconds:.2f}s")
    first, last = points[0], points[-1]
    exponent = math.log(last["seconds"] / max(first["seconds"], 1e-9)) / (
        math.log(last["events"] / first["events"])
    )
    _record(
        bench_record,
        "monolithic_blowup",
        {"points": points, "scaling_exponent": round(exponent, 2)},
    )
    print(f"fitted scaling exponent: n^{exponent:.2f}")
    if last["seconds"] < 1.0:
        pytest.skip(
            f"largest monolithic run only {last['seconds']:.3f}s: "
            "below the measurement floor for a scaling fit (recorded)"
        )
    assert exponent >= 1.5, (
        f"expected super-linear monolithic scaling, measured n^{exponent:.2f}"
    )


def test_segmented_speedup_at_1e5_events(bench_record):
    """Segmented learning beats monolithic >= 5x at 10^5 events.

    The monolithic side runs in a subprocess under ``MONO_BUDGET``
    seconds; the blow-up curve extrapolates it to hours at this size, so
    the subprocess is expected to be killed at the cap and the recorded
    speedup is a lower bound.
    """
    n = SPEEDUP_EVENTS

    learner = SegmentedLearner(_sat_learner(), SEGMENT_LENGTH, OVERLAP)
    start = time.perf_counter()
    model = learner.learn_events(_events(n))
    segmented_seconds = time.perf_counter() - start
    prefix = list(islice(_events(n), 2000))
    assert model.admits(prefix)

    start_method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    ctx = multiprocessing.get_context(start_method)
    parent, child = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_monolithic_worker, args=(child, n), daemon=True
    )
    process.start()
    child.close()
    capped = not parent.poll(MONO_BUDGET)
    monolithic_seconds = MONO_BUDGET if capped else parent.recv()
    process.terminate()
    process.join()

    speedup = monolithic_seconds / max(segmented_seconds, 1e-9)
    _record(
        bench_record,
        "speedup_1e5",
        {
            "events": n,
            "segmented_seconds": round(segmented_seconds, 4),
            "monolithic_seconds": round(monolithic_seconds, 4),
            "monolithic_capped": capped,
            "monolithic_budget": MONO_BUDGET,
            "speedup_lower_bound" if capped else "speedup": round(speedup, 2),
            "segments": learner.stats.segments,
            "distinct_segments": learner.stats.distinct_segments,
            "memo_hits": learner.stats.memo_hits,
        },
    )
    print(
        f"\n{n} events: segmented {segmented_seconds:.2f}s "
        f"({learner.stats.distinct_segments} distinct of "
        f"{learner.stats.segments} segments), monolithic "
        f"{'>' if capped else ''}{monolithic_seconds:.1f}s "
        f"-> speedup {'>=' if capped else ''}{speedup:.1f}x"
    )
    if not capped and monolithic_seconds < 1.0:
        pytest.skip(
            f"monolithic finished in {monolithic_seconds:.3f}s: below the "
            "measurement floor for a speedup claim (recorded)"
        )
    assert speedup >= 5.0, (
        f"segmented learning only {speedup:.2f}x faster at {n} events "
        f"({segmented_seconds:.2f}s vs {monolithic_seconds:.2f}s)"
    )


def test_million_event_learn_bounded_memory(bench_record):
    """A 10^6-event stream learns end to end in megabytes of memory.

    The yardstick is measured, not guessed: merely materialising a 10x
    *shorter* event list must cost more traced memory than the whole
    million-event segmented learn, whose working set is one segment
    window plus the distinct-segment memo plus one key reference per
    segment occurrence.
    """
    yardstick_n = max(LONG_EVENTS // 10, 1000)
    tracemalloc.start()
    yardstick = list(_events(yardstick_n))
    _, materialise_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del yardstick

    learner = SegmentedLearner(_t2m_learner(), SEGMENT_LENGTH, OVERLAP)
    tracemalloc.start()
    start = time.perf_counter()
    model = learner.learn_events(_events(LONG_EVENTS))
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    prefix = list(islice(_events(LONG_EVENTS), 5000))
    assert model.admits(prefix)

    peak_mib = peak / 2**20
    materialise_mib = materialise_peak / 2**20
    _record(
        bench_record,
        "million_events",
        {
            "events": LONG_EVENTS,
            "seconds": round(elapsed, 2),
            "events_per_second": round(LONG_EVENTS / elapsed),
            "peak_traced_mib": round(peak_mib, 2),
            "materialise_tenth_mib": round(materialise_mib, 2),
            "num_states": model.num_states,
            "segments": learner.stats.segments,
            "distinct_segments": learner.stats.distinct_segments,
            "memo_hits": learner.stats.memo_hits,
        },
    )
    print(
        f"\n{LONG_EVENTS} events in {elapsed:.1f}s "
        f"({LONG_EVENTS / elapsed:,.0f} ev/s), peak {peak_mib:.1f} MiB "
        f"(materialising {yardstick_n} events alone: "
        f"{materialise_mib:.1f} MiB), "
        f"{learner.stats.distinct_segments} distinct of "
        f"{learner.stats.segments} segments"
    )
    assert peak_mib < 64, f"peak traced memory {peak_mib:.1f} MiB"
    assert peak < materialise_peak, (
        f"streaming learn peaked at {peak_mib:.1f} MiB, more than "
        f"materialising a {yardstick_n}-event list ({materialise_mib:.1f} MiB)"
    )
