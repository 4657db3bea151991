"""Micro-benchmark: the hash-consed expression core.

Two measurements, recorded to ``BENCH_expr_core.json``:

1. **Compiled vs tree-walk evaluation** on the launch-abort
   trace-generation workload: the exact environment stream the
   simulator sees while generating the paper's initial trace set is
   replayed through the reference interpreter
   (:func:`repro.expr.evaluate`) and the compiled evaluator
   (:func:`repro.expr.compile_expr`).  The compiled path must be at
   least **1.5x** faster (acceptance criterion; in practice it is far
   more).  Single-process, so the assertion needs no CPU-count gating.
   A third leg times the system's stepping kernel (one generated
   function for all state variables, the one the simulator runs) over
   the same environments and checks its values against the tree walk.

2. **Condition extraction under interning**: extracting the
   completeness conditions of a learned launch-abort model, cold
   (first walk: interning + simplify memos filling) and warm (all
   predicate work hitting identity-keyed memos).  The warm/cold ratio
   documents what hash-consing buys on the §III-A hot path; the
   pre-refactor core had no memo to warm up, so its every extraction
   paid the cold price with deep-structural hashing on top.

Run:  pytest benchmarks/test_expr_core.py -s
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.core.conditions import extract_conditions
from repro.evaluation import default_learner
from repro.expr import compile_expr, evaluate
from repro.stateflow.library import get_benchmark
from repro.system.transition_system import StepKernel
from repro.traces.generate import random_traces

BENCH = "ModelingALaunchAbortSystem"
TRACE_COUNT = 50
TRACE_LENGTH = 50
EVAL_REPEATS = 3
EXTRACT_REPEATS = 25
MIN_SPEEDUP = 1.5

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_expr_core.json"


def _record_step_envs(system) -> list[dict[str, int]]:
    """Environment stream of the paper's initial-trace-set generation.

    Replays ``random_traces(50, 50)`` and records every environment the
    simulator hands to the next-state expressions, so both evaluators
    answer the identical workload.
    """
    rng = random.Random(0)
    envs: list[dict[str, int]] = []
    for _ in range(TRACE_COUNT):
        state = system.init_state.as_dict()
        for _ in range(TRACE_LENGTH):
            inputs = system.random_inputs(rng)
            env = dict(state)
            env.update({f"{name}'": value for name, value in inputs.items()})
            envs.append(env)
            state = {
                var.name: evaluate(expr, env)
                for var, expr in system.next_exprs.items()
            }
    return envs


def test_compiled_eval_beats_tree_walk_by_1_5x(bench_record):
    system = get_benchmark(BENCH).system
    envs = _record_step_envs(system)
    exprs = [expr for _var, expr in sorted(
        system.next_exprs.items(), key=lambda kv: kv[0].name
    )]

    # Compile outside the timed region? No: include compilation cost so
    # the speedup is end-to-end honest; it amortises over one trace.
    start = time.perf_counter()
    compiled_values = []
    fns = [compile_expr(expr) for expr in exprs]
    for _ in range(EVAL_REPEATS):
        for env in envs:
            for fn in fns:
                compiled_values.append(fn(env))
    compiled_seconds = time.perf_counter() - start

    start = time.perf_counter()
    walked_values = []
    for _ in range(EVAL_REPEATS):
        for env in envs:
            for expr in exprs:
                walked_values.append(evaluate(expr, env))
    tree_walk_seconds = time.perf_counter() - start

    assert compiled_values == walked_values  # identical semantics
    speedup = tree_walk_seconds / max(compiled_seconds, 1e-9)

    # The stepping kernel, built fresh so its compilation is timed too.
    start = time.perf_counter()
    next_state = StepKernel(system).next_state
    kernel_tuples = []
    for _ in range(EVAL_REPEATS):
        for env in envs:
            kernel_tuples.append(next_state(env))
    kernel_seconds = time.perf_counter() - start

    by_name = sorted(
        range(len(system.state_vars)), key=lambda i: system.state_vars[i].name
    )
    kernel_values = [values[i] for values in kernel_tuples for i in by_name]
    assert kernel_values == walked_values  # identical semantics
    kernel_speedup = tree_walk_seconds / max(kernel_seconds, 1e-9)

    # Condition extraction on a learned model: cold vs memo-warm.
    benchmark = get_benchmark(BENCH)
    traces = random_traces(system, count=10, length=20, seed=3)
    model = default_learner(benchmark, benchmark.fsas[0]).learn(traces)
    start = time.perf_counter()
    conditions = extract_conditions(model)
    cold_extract_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(EXTRACT_REPEATS):
        warm = extract_conditions(model)
    warm_extract_seconds = (time.perf_counter() - start) / EXTRACT_REPEATS
    assert len(warm) == len(conditions)

    record = {
        "benchmark": BENCH,
        "trace_count": TRACE_COUNT,
        "trace_length": TRACE_LENGTH,
        "eval_repeats": EVAL_REPEATS,
        "environments": len(envs),
        "evaluations": len(compiled_values),
        "tree_walk_seconds": round(tree_walk_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "compiled_speedup": round(speedup, 3),
        "kernel_seconds": round(kernel_seconds, 4),
        "kernel_speedup": round(kernel_speedup, 3),
        "conditions_extracted": len(conditions),
        "cold_extract_seconds": round(cold_extract_seconds, 5),
        "warm_extract_seconds": round(warm_extract_seconds, 5),
        "warm_extract_speedup": round(
            cold_extract_seconds / max(warm_extract_seconds, 1e-9), 3
        ),
    }
    bench_record(RESULT_PATH, record)
    print(f"\ncompiled eval speedup: {speedup:.2f}x "
          f"(tree-walk {tree_walk_seconds:.3f}s, compiled {compiled_seconds:.3f}s, "
          f"kernel {kernel_seconds:.3f}s, {kernel_speedup:.2f}x); "
          f"condition extraction cold {cold_extract_seconds*1e3:.2f}ms, "
          f"warm {warm_extract_seconds*1e3:.2f}ms")
    assert speedup >= MIN_SPEEDUP, (
        f"compiled evaluation only {speedup:.2f}x faster "
        f"(needed {MIN_SPEEDUP}x)"
    )
