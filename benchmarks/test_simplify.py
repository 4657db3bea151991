"""Micro/macro-benchmark: the rewrite engine's discrimination net.

Records to ``BENCH_simplify.json`` at the repository root:

1. **Net vs sequential matching** at a ≥100-rule table (the extended
   tier plus a generated per-constant comparison family): every unique
   subterm of the launch-abort condition-extraction workload is pushed
   through :meth:`RewriteEngine.find_match` in both modes.  The modes
   return the identical first match by construction (asserted node by
   node); the net must be at least **3x** faster once the measurement
   clears the 0.2s floor -- repeats are calibrated upward until it
   does, so the assertion always arms.

2. **Downstream deltas** of the new rule tiers against the legacy
   simplifier on the five largest library systems (the
   ``BENCH_bdd.json`` set).  The workload is the completeness-check
   shape the encoder sees per CEGIS iteration *before* any
   simplification: raw outgoing-guard disjunctions, their negations and
   ``assumption ∧ ¬disjunction`` conjunctions from a learned model.
   Per system and per backend (``legacy`` / ``engine`` / ``deep``) the
   record keeps Tseitin clause counts through
   ``Encoder(presimplify=...)``, peak BDD node allocation over a full
   reachability fixpoint through ``SharedBddContext(presimplify=...)``,
   and generated compiled-evaluator source size.  Soundness is
   cross-checked (all backends agree on diameter and reachable-state
   counts); the new rules must reduce clauses or peak nodes against
   legacy on at least **3/5** systems.

   A measured trade-off worth knowing: the context-threaded tiers prune
   nested contradictions the legacy pass cannot see (fewer clauses on
   every system here), but context-*specialised* rewriting of a shared
   subterm can duplicate DAG nodes, so the deep tier is wired to the
   BDD side (canonical node store dedups semantically) while the
   default tier is what the clause criterion runs on.

Run:  pytest benchmarks/test_simplify.py -s
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.conditions import extract_conditions
from repro.evaluation import default_learner
from repro.expr import (
    EXTENDED_RULES,
    RewriteEngine,
    deep_simplify,
    land,
    legacy_simplify,
    lnot,
    lor,
    make_const_comparison_rules,
    simplify,
    walk_unique,
)
from repro.expr.compiled import generated_source
from repro.mc.symbolic import SharedBddContext, SymbolicReachability
from repro.smt.encoder import Encoder
from repro.stateflow.library import get_benchmark
from repro.traces.generate import random_traces

WORKLOAD_BENCH = "ModelingALaunchAbortSystem"
BENCHES = [
    "ModelingASecuritySystem",
    "ModelingARedundantSensorPairUsingAtomicSubchart",
    "ModelingACdPlayerradioUsingEnumeratedDataType2",
    "ModelingAnIntersectionOfTwo1wayStreetsUsingStateflow",
    "ModelingALaunchAbortSystem",
]
CONST_FAMILY = range(25)  # 4 rules per value -> 100 generated rules
MIN_RULES = 100
MIN_SPEEDUP = 3.0
MIN_IMPROVED_SYSTEMS = 3
MIN_MEASURABLE_SECONDS = 0.2
TIMING_ROUNDS = 3
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_simplify.json"


def _workload_nodes():
    """Unique subterms of the launch-abort condition-extraction
    workload: the exprs the simplifier actually sees on the §III-A
    hot path, plus the system's own relations."""
    benchmark = get_benchmark(WORKLOAD_BENCH)
    system = benchmark.system
    traces = random_traces(system, count=10, length=20, seed=3)
    model = default_learner(benchmark, benchmark.fsas[0]).learn(traces)
    roots = [system.trans] + [
        expr for _var, expr in sorted(
            system.next_exprs.items(), key=lambda kv: kv[0].name
        )
    ]
    for condition in extract_conditions(model):
        if condition.assumption is not None:
            roots.append(condition.assumption)
        roots.append(condition.conclusion)
    seen: set[int] = set()
    nodes = []
    for root in roots:
        for node in walk_unique(root):
            if node.eid not in seen:
                seen.add(node.eid)
                nodes.append(node)
    return nodes


def _time_matching(engine, nodes, repeats, *, sequential):
    best = None
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        for _ in range(repeats):
            for node in nodes:
                engine.find_match(node, sequential=sequential)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_net_beats_sequential_matching_at_100_rules(bench_record):
    rules = list(EXTENDED_RULES) + make_const_comparison_rules(CONST_FAMILY)
    assert len(rules) >= MIN_RULES
    engine = RewriteEngine(rules, name="bench", context=None)
    nodes = _workload_nodes()

    # Warm both paths (fills the flatten memo) and pin the contract:
    # identical first match, node by node.
    for node in nodes:
        fast = engine.find_match(node)
        slow = engine.find_match(node, sequential=True)
        if fast is None:
            assert slow is None
        else:
            assert slow is not None and fast[0] is slow[0]
            assert fast[1] is slow[1]

    # Calibrate repeats until the *fast* side clears the floor; the
    # slow side is then comfortably above it too.
    repeats = 1
    while True:
        net_seconds = _time_matching(engine, nodes, repeats, sequential=False)
        if net_seconds >= MIN_MEASURABLE_SECONDS:
            break
        repeats *= 2
    sequential_seconds = _time_matching(
        engine, nodes, repeats, sequential=True
    )
    speedup = sequential_seconds / max(net_seconds, 1e-9)

    record = {
        "workload": WORKLOAD_BENCH,
        "rule_count": len(rules),
        "workload_nodes": len(nodes),
        "match_repeats": repeats,
        "net_seconds": round(net_seconds, 4),
        "sequential_seconds": round(sequential_seconds, 4),
        "net_speedup": round(speedup, 3),
    }
    bench_record(RESULT_PATH, record, merge=True)
    print(
        f"\nnet matching: {len(rules)} rules over {len(nodes)} nodes x "
        f"{repeats} | net {net_seconds:.3f}s, sequential "
        f"{sequential_seconds:.3f}s | {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"discrimination net only {speedup:.2f}x faster than sequential "
        f"matching (needed {MIN_SPEEDUP}x at {len(rules)} rules)"
    )


BACKENDS = {
    "legacy": legacy_simplify,
    "engine": simplify,   # default backend: the engine tier
    "deep": deep_simplify,
}


def _raw_condition_literals(benchmark):
    """The completeness-check shapes *before* any simplification pass:
    outgoing disjunctions, their negations, and assumption-conjoined
    negations, from a model learned on the paper's trace regime."""
    system = benchmark.system
    traces = random_traces(system, count=10, length=20, seed=3)
    model = default_learner(benchmark, benchmark.fsas[0]).learn(traces)
    literals = []
    for state in model.states:
        guards = [t.guard for t in model.outgoing(state)]
        if not guards:
            continue
        disjunction = lor(*guards)
        literals.append(disjunction)
        literals.append(lnot(disjunction))
        for transition in model.incoming(state):
            literals.append(land(transition.guard, lnot(disjunction)))
    return system, literals


def _clause_count(literals, presimplify):
    encoder = Encoder(presimplify=presimplify)
    for literal in literals:
        encoder.encode_literal(literal)
    return encoder.clause_cursor()


def _peak_nodes(system, presimplify):
    ctx = SharedBddContext(system, presimplify=presimplify)
    engine = SymbolicReachability(system, context=ctx)
    engine.explore()
    return ctx.manager.peak_nodes, engine.diameter, (
        engine.num_reachable_states()
    )


def test_new_rules_improve_downstream_encodings(bench_record):
    systems = {}
    improved = []
    for name in BENCHES:
        benchmark = get_benchmark(name)
        system, literals = _raw_condition_literals(benchmark)

        clauses = {
            key: _clause_count(literals, fn) for key, fn in BACKENDS.items()
        }
        peaks, shapes = {}, {}
        for key, fn in BACKENDS.items():
            peaks[key], *shapes[key] = _peak_nodes(system, fn)
        # Presimplification must not change the state space.
        assert shapes["engine"] == shapes["legacy"], name
        assert shapes["deep"] == shapes["legacy"], name
        source = {
            key: sum(len(generated_source(fn(l))) for l in literals)
            for key, fn in BACKENDS.items()
        }

        systems[name] = {
            "tseitin_clauses": clauses,
            "bdd_peak_nodes": peaks,
            "compiled_source_chars": source,
            "diameter": shapes["legacy"][0],
            "reachable_states": shapes["legacy"][1],
        }
        if (
            clauses["engine"] < clauses["legacy"]
            or min(peaks["engine"], peaks["deep"]) < peaks["legacy"]
        ):
            improved.append(name)

    record = {
        "downstream_systems": systems,
        "downstream_improved": sorted(improved),
    }
    bench_record(RESULT_PATH, record, merge=True)
    deltas = ", ".join(
        f"{name.removeprefix('Modeling')} "
        f"clauses {row['tseitin_clauses']['legacy']}"
        f"->{row['tseitin_clauses']['engine']} "
        f"peak {row['bdd_peak_nodes']['legacy']}"
        f"->{min(row['bdd_peak_nodes']['engine'], row['bdd_peak_nodes']['deep'])}"
        for name, row in systems.items()
    )
    print(f"\nnew-rule downstream vs legacy: {deltas}")
    assert len(improved) >= MIN_IMPROVED_SYSTEMS, (
        f"new rules reduced clauses or BDD peak vs legacy on only "
        f"{len(improved)}/{len(BENCHES)} systems: {improved}"
    )
