"""Cross-engine benchmark: the model-checking back-ends agree.

The reproduction ships three engines answering the Fig. 3b reachability
question -- SAT-based k-induction (the literal paper mechanism), explicit
BFS and BDD symbolic image computation (see ``docs/engines.md``).  This
benchmark (a) verifies they produce identical α = 1 results driving the
full loop, and (b) records their relative cost on a mid-sized
benchmark, so regressions in any engine are visible.

Run:  pytest benchmarks/test_engines.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.evaluation import run_active
from repro.mc import shared_reachability
from repro.mc.symbolic import SymbolicReachability
from repro.stateflow.library import get_benchmark

BENCH = "ModelingALaunchAbortSystem"
FSA = "Overall"


@pytest.mark.parametrize("engine", ["explicit", "bdd"])
def test_loop_with_engine(benchmark, engine):
    bench = get_benchmark(BENCH)

    def run():
        return run_active(
            bench,
            bench.fsa(FSA),
            initial_traces=15,
            trace_length=15,
            budget_seconds=60,
            spurious_engine=engine,
            guide_with_reachable=(engine == "explicit"),
        )

    out = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\n{engine}: α={out.row.alpha} N={out.row.num_states} "
          f"i={out.row.iterations} T={out.row.time_seconds:.2f}s")
    assert out.row.alpha == 1.0
    assert out.row.num_states == 4


def test_kinduction_engine_small_k(benchmark):
    """The literal Fig. 3b SAT path on a small-k benchmark."""
    bench = get_benchmark("MealyVendingMachine")

    def run():
        return run_active(
            bench,
            bench.fsas[0],
            initial_traces=10,
            trace_length=10,
            budget_seconds=60,
            spurious_engine="kinduction",
            guide_with_reachable=False,
        )

    out = benchmark.pedantic(run, iterations=1, rounds=1)
    assert out.row.alpha == 1.0
    assert out.row.num_states == 4


@pytest.mark.parametrize(
    "name",
    ["MealyVendingMachine", "CountEvents", "ModelingALaunchAbortSystem"],
)
def test_reachability_engines_agree(benchmark, name):
    """Explicit BFS and BDD fixpoint compute identical reachable sets."""
    bench = get_benchmark(name)

    def compare():
        explicit = shared_reachability(bench.system)
        symbolic = SymbolicReachability(bench.system)
        return (
            explicit.num_states,
            symbolic.num_reachable_states(),
            explicit.diameter,
            symbolic.diameter,
        )

    exp_n, sym_n, exp_d, sym_d = benchmark.pedantic(
        compare, iterations=1, rounds=1
    )
    assert exp_n == sym_n
    assert exp_d == sym_d
