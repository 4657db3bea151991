"""Shared fixture logic for the expr-core differential (golden) suite.

The hash-consing refactor must be *behaviour-preserving*: learned
models, oracle reports and α must come out bit-for-bit as before.  The
only way to pin that against the pre-refactor code is a golden file:
``tests/golden/capture_expr_core.py`` ran against the **pre-refactor**
tree and froze its outputs into ``tests/golden/expr_core_golden.json``;
``tests/test_expr_core_differential.py`` recomputes the same artefacts
on the current tree and compares.

Everything here is shared between the capture script and the test so
the two can never drift apart.  All runs use canonical counterexamples:
canonical outcomes are pure functions of the condition (independent of
solver history and per-process hash salting), which is what makes a
cross-process golden comparison meaningful at all.
"""

from __future__ import annotations

from repro.core.conditions import extract_conditions
from repro.core.loop import ActiveLearner
from repro.core.oracle import make_oracle
from repro.evaluation import default_learner
from repro.expr import sexpr_dumps
from repro.traces.generate import random_traces

#: Engines the differential sweep pins (one report per engine per system).
ENGINES = ("explicit", "kinduction")

#: One-shot learn setup: small but large enough that every system's
#: learned model has real structure (multiple states, guarded edges).
LEARN_TRACES = 5
LEARN_LENGTH = 12
LEARN_SEED = 7

#: Bound spurious churn so the 28-system × 2-engine sweep stays quick.
MAX_STRENGTHENINGS = 3

#: Systems given a full active-learning loop golden (small state spaces,
#: quick convergence).
LOOP_SYSTEMS = (
    "ModelingALaunchAbortSystem",
    "HomeClimateControlUsingTheTruthtableBlock",
)
LOOP_MAX_ITERATIONS = 8
LOOP_TRACES = 10
LOOP_LENGTH = 10
LOOP_SEED = 0


def valuation_to_json(valuation) -> list:
    return [[name, int(value)] for name, value in sorted(valuation.items())]


def outcome_to_json(outcome) -> dict:
    counterexample = None
    if outcome.counterexample is not None:
        v_t, v_t1 = outcome.counterexample
        counterexample = [valuation_to_json(v_t), valuation_to_json(v_t1)]
    return {
        "holds": outcome.holds,
        "inconclusive": outcome.inconclusive,
        "truncated": outcome.truncated,
        "spurious_excluded": outcome.spurious_excluded,
        "solver_checks": outcome.solver_checks,
        "counterexample": counterexample,
        "final_assumption": (
            None
            if outcome.final_assumption is None
            else sexpr_dumps(outcome.final_assumption)
        ),
    }


def report_to_json(report) -> dict:
    return {
        "alpha": report.alpha,
        "truncated": report.truncated,
        "outcomes": [outcome_to_json(o) for o in report.outcomes],
    }


def model_to_json(model) -> dict:
    return {
        "num_states": model.num_states,
        "initial": sorted(model.initial_states),
        "names": [model.state_name(s) for s in model.states],
        "transitions": [
            [t.src, sexpr_dumps(t.guard), t.dst] for t in model.transitions
        ],
    }


def conditions_to_json(conditions) -> list:
    return [
        {
            "kind": c.kind.value,
            "state": c.state,
            "state_name": c.state_name,
            "assumption": (
                None if c.assumption is None else sexpr_dumps(c.assumption)
            ),
            "conclusion": sexpr_dumps(c.conclusion),
        }
        for c in conditions
    ]


def learn_model_and_conditions(benchmark):
    """The one-shot learn both sides of the differential perform."""
    system = benchmark.system
    traces = random_traces(
        system, count=LEARN_TRACES, length=LEARN_LENGTH, seed=LEARN_SEED
    )
    learner = default_learner(benchmark, benchmark.fsas[0])
    model = learner.learn(traces)
    return model, extract_conditions(model)


def serial_report(benchmark, engine, conditions):
    """Canonical serial oracle report (the golden reference point)."""
    oracle = make_oracle(
        benchmark.system,
        engine,
        benchmark.k,
        max_strengthenings=MAX_STRENGTHENINGS,
        canonical=True,
    )
    return oracle.check_all(conditions)


def loop_result(benchmark):
    """A short full active-learning run with canonical counterexamples."""
    system = benchmark.system
    traces = random_traces(
        system, count=LOOP_TRACES, length=LOOP_LENGTH, seed=LOOP_SEED
    )
    with ActiveLearner(
        system,
        default_learner(benchmark, benchmark.fsas[0]),
        k=benchmark.k,
        max_iterations=LOOP_MAX_ITERATIONS,
        canonical_counterexamples=True,
    ) as active:
        return active.run(traces)


def loop_to_json(result) -> dict:
    return {
        "alpha": result.alpha,
        "iterations": result.iterations,
        "converged": result.converged,
        "final_trace_count": result.final_trace_count,
        "per_iteration_alpha": [r.alpha for r in result.records],
        "per_iteration_states": [r.num_states for r in result.records],
        "model": model_to_json(result.model),
    }
