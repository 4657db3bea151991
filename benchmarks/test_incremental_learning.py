"""Macro-benchmark: warm-session vs. fresh-per-iteration re-learning.

Replays a multi-iteration active-learning trace workload on the
launch-abort system -- an initial random trace set plus a dozen delta
rounds, the shape the learn-check-refine loop produces -- through (a)
fresh ``learn()`` calls on the accumulated set every round (the
pre-session behaviour) and (b) one warm :class:`LearnerSession` fed only
the per-round deltas.  Per-round models are asserted isomorphic, and the
record lands in ``BENCH_incremental_learning.json`` at the repo root.

The acceptance assertion is on the SAT-DFA learner, the component whose
cost the paper's ``%Tm`` column measures: its session keeps one
persistent APT + SAT solver, so per-round work is proportional to the
*delta* while the fresh path re-encodes the whole prefix tree every
round (quadratic in total).  This is a single-process warm-start
speedup, so it is asserted unconditionally -- no CPU-count gating
needed, unlike the parallel-oracle benchmark.  The T2M and k-tails
sessions are timed and recorded too (their global synthesis/quotient
steps re-run per model, so their warm advantage is smaller).

Run:  pytest benchmarks/test_incremental_learning.py -s
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.automata.compare import nfa_isomorphic
from repro.learn import KTailsLearner, SatDfaLearner, T2MLearner
from repro.stateflow.library import get_benchmark
from repro.traces.generate import random_traces

BENCH = "ModelingALaunchAbortSystem"
INITIAL_TRACES = 40
DELTA_ROUNDS = 18
DELTA_TRACES = 4
TRACE_LEN = 40
RESULT_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_incremental_learning.json"
)


def _learner_factories(system):
    """Learners pinned to the system's real mode basis (the benchmark
    configuration), so auto-detection can never drift a session cold."""
    state_names = [v.name for v in system.state_vars]
    variables = {v.name: v for v in system.variables}
    return {
        "satdfa": lambda: SatDfaLearner(
            mode_vars=state_names, variables=variables
        ),
        "t2m": lambda: T2MLearner(
            mode_vars=state_names, variables=variables,
            prefer_vars=list(system.input_names),
        ),
        "ktails": lambda: KTailsLearner(
            k=2, mode_vars=state_names, variables=variables
        ),
    }


def _workload(system):
    initial = random_traces(
        system, count=INITIAL_TRACES, length=TRACE_LEN, seed=0
    )
    deltas = [
        tuple(
            random_traces(
                system, count=DELTA_TRACES, length=TRACE_LEN, seed=seed
            )
        )
        for seed in range(1, DELTA_ROUNDS + 1)
    ]
    return initial, deltas


def test_warm_session_relearning_speedup(bench_record):
    system = get_benchmark(BENCH).system
    initial, deltas = _workload(system)
    # Accumulated snapshots the fresh path learns from, built up front so
    # set construction is outside both timed regions.
    snapshots = [initial.copy()]
    for delta in deltas:
        snapshot = snapshots[-1].copy()
        snapshot.update(delta)
        snapshots.append(snapshot)

    record = {
        "benchmark": BENCH,
        "initial_traces": INITIAL_TRACES,
        "delta_rounds": DELTA_ROUNDS,
        "delta_traces": DELTA_TRACES,
        "trace_length": TRACE_LEN,
        "total_observations": snapshots[-1].total_observations,
        "learners": {},
    }
    speedups = {}
    for label, factory in _learner_factories(system).items():
        start = time.perf_counter()
        fresh_models = [factory().learn(snapshot) for snapshot in snapshots]
        fresh_seconds = time.perf_counter() - start

        start = time.perf_counter()
        session = factory().start_session(initial)
        session_models = [session.model]
        for delta in deltas:
            session_models.append(session.add_traces(delta))
        session_seconds = time.perf_counter() - start
        assert session.warm

        for round_index, (warm, fresh) in enumerate(
            zip(session_models, fresh_models, strict=True)
        ):
            assert nfa_isomorphic(warm, fresh), (
                f"{label}: session model diverged on round {round_index}"
            )
        speedup = fresh_seconds / max(session_seconds, 1e-9)
        speedups[label] = speedup
        record["learners"][label] = {
            "fresh_seconds": round(fresh_seconds, 4),
            "session_seconds": round(session_seconds, 4),
            "speedup": round(speedup, 3),
            "models_isomorphic": True,
            "final_states": session_models[-1].num_states,
        }
        print(
            f"\n{BENCH}/{label}: {DELTA_ROUNDS + 1} rounds | "
            f"fresh {fresh_seconds:.3f}s, warm session "
            f"{session_seconds:.3f}s, speedup {speedup:.2f}x"
        )

    bench_record(RESULT_PATH, record)
    # Single-process warm-start win: safe to assert even on 1-CPU CI.
    assert speedups["satdfa"] >= 2.0, (
        f"warm SAT-DFA session only {speedups['satdfa']:.2f}x faster "
        f"than fresh-per-iteration learning"
    )
