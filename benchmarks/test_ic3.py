"""Macro-benchmark: the IC3 proof engine across its three roles.

Records to ``BENCH_ic3.json`` at the repository root:

1. **Classification timings per engine** -- one shared batch of
   counterexample states (shallow reachable, deep reachable,
   unreachable) classified by every registered engine on the
   launch-abort benchmark, with verdict-agreement asserted between the
   exact engines (``ic3`` ≡ ``explicit``/``bdd`` with
   ``respect_k=False``).  The k-induction column shows what the literal
   Fig. 3b mechanism costs at the benchmark's ``k = 22``; the recorded
   ``kinduction_inconclusive`` count is the weak-induction failures at
   that ``k`` (zero here because 22 *is* the magic bound -- the
   ``ablation_k`` benchmark shows how verdicts decay below it, which is
   exactly the sensitivity the proof engine removes).
2. **Oracle strengthening** -- a churny condition workload through the
   default serial oracle with blind single-state exclusions
   (``explicit``) vs. IC3's unsat-core-generalized region exclusions:
   spurious rounds and wall-clock for both.
3. **End-to-end loop** -- ``run_active`` with the ``ic3`` engine,
   unguided, to convergence with a proved invariant.

Always asserted: verdict agreement, equal per-condition verdicts, and
that region exclusions never need more strengthening rounds than blind
ones.

Run:  pytest benchmarks/test_ic3.py -s
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

from repro.core.conditions import Condition, ConditionKind
from repro.core.oracle import make_oracle
from repro.expr import TRUE, lnot, sort_values
from repro.evaluation import run_active
from repro.mc import build_spurious_checker, shared_reachability
from repro.mc.verdicts import SpuriousVerdict
from repro.stateflow.library import get_benchmark
from repro.system.valuation import Valuation

BENCH = "ModelingALaunchAbortSystem"
FSA = "Overall"
MAX_STRENGTHENINGS = 6
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_ic3.json"


def _classification_batch(system, reach, deep_depth: int = 8, count: int = 18):
    """Reachable (shallow + deep) and unreachable probe states."""
    table = sorted(reach._table.items(), key=lambda kv: kv[1][0])
    names = system.state_names
    states = [Valuation(dict(zip(names, key, strict=True))) for key, _ in table[:count // 3]]
    depth_cap = min(reach.diameter, deep_depth)
    states.extend(
        Valuation(dict(zip(names, key, strict=True)))
        for key, (depth, _p, _i) in table
        if depth == depth_cap
    )
    reachable_keys = {key for key, _ in table}
    spaces = [sort_values(var.sort) for var in system.state_vars]
    unreachable = []
    for combo in itertools.product(*spaces):
        if combo not in reachable_keys:
            unreachable.append(Valuation(dict(zip(names, combo, strict=True))))
            if len(unreachable) >= count // 3:
                break
    return (states + unreachable)[:count]


def _condition_workload(system):
    conditions = []
    for var in system.state_vars:
        for value in sort_values(var.sort):
            conditions.append(
                Condition(
                    kind=ConditionKind.STEP,
                    state=0,
                    state_name="q",
                    assumption=var.eq(value),
                    conclusion=var.eq(value),
                )
            )
            conditions.append(
                Condition(
                    kind=ConditionKind.STEP,
                    state=0,
                    state_name="q",
                    assumption=TRUE,
                    conclusion=lnot(var.eq(value)),
                )
            )
    return conditions


def test_ic3_engine_benchmark(bench_record):
    benchmark = get_benchmark(BENCH)
    system = benchmark.system
    reach = shared_reachability(system)
    reach.explore()
    batch = _classification_batch(system, reach)
    assert len(batch) >= 12

    # -- 1. classification timings per engine ---------------------------
    engines = {}
    verdicts = {}
    for engine_name in ("explicit", "bdd", "ic3", "kinduction"):
        checker = build_spurious_checker(
            system, engine_name, respect_k=False
        )
        start = time.perf_counter()
        verdicts[engine_name] = [
            checker.classify(state, benchmark.k) for state in batch
        ]
        engines[engine_name] = round(time.perf_counter() - start, 4)
    assert verdicts["ic3"] == verdicts["explicit"] == verdicts["bdd"]
    assert SpuriousVerdict.INCONCLUSIVE not in verdicts["ic3"]
    kinduction_inconclusive = sum(
        1
        for v in verdicts["kinduction"]
        if v is SpuriousVerdict.INCONCLUSIVE
    )
    # Warm IC3: the converged invariant answers repeats without solving.
    start = time.perf_counter()
    warm = [
        build_spurious_checker(system, "ic3").classify(state, benchmark.k)
        for state in batch
    ]
    engines["ic3_warm"] = round(time.perf_counter() - start, 4)
    assert warm == verdicts["ic3"]

    # -- 2. blind vs. region strengthening ------------------------------
    conditions = _condition_workload(system)
    blind = make_oracle(
        system,
        "explicit",
        benchmark.k,
        respect_k=False,
        max_strengthenings=MAX_STRENGTHENINGS,
    )
    start = time.perf_counter()
    blind_report = blind.check_all(conditions)
    blind_seconds = time.perf_counter() - start
    ic3_oracle = make_oracle(
        system, "ic3", benchmark.k, max_strengthenings=MAX_STRENGTHENINGS
    )
    start = time.perf_counter()
    ic3_report = ic3_oracle.check_all(conditions)
    ic3_seconds = time.perf_counter() - start
    assert [o.holds for o in ic3_report.outcomes] == [
        o.holds for o in blind_report.outcomes
    ]
    assert ic3_report.total_spurious <= blind_report.total_spurious

    # -- 3. end-to-end loop ---------------------------------------------
    start = time.perf_counter()
    out = run_active(
        benchmark,
        benchmark.fsa(FSA),
        initial_traces=15,
        trace_length=15,
        budget_seconds=90,
        spurious_engine="ic3",
        guide_with_reachable=False,
    )
    loop_seconds = time.perf_counter() - start
    assert out.row.alpha == 1.0
    assert out.row.num_states == 4
    assert out.result.proved_invariant is not None

    record = {
        "benchmark": BENCH,
        "k": benchmark.k,
        "classification_states": len(batch),
        "classify_seconds": engines,
        "kinduction_inconclusive": kinduction_inconclusive,
        "conditions": len(_condition_workload(system)),
        "strengthening": {
            "blind_spurious_rounds": blind_report.total_spurious,
            "ic3_spurious_rounds": ic3_report.total_spurious,
            "blind_seconds": round(blind_seconds, 4),
            "ic3_seconds": round(ic3_seconds, 4),
        },
        "end_to_end": {
            "alpha": out.row.alpha,
            "num_states": out.row.num_states,
            "iterations": out.row.iterations,
            "seconds": round(loop_seconds, 4),
            "invariant_proved": out.result.proved_invariant is not None,
        },
    }
    bench_record(RESULT_PATH, record)
    print(
        f"\n{BENCH}: classify {len(batch)} states | "
        + ", ".join(f"{k} {v:.3f}s" for k, v in engines.items())
        + f" | strengthening rounds blind {blind_report.total_spurious} "
        f"vs ic3 {ic3_report.total_spurious}"
    )
