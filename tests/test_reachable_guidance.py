"""Reachable-state guidance decides every condition in one query.

:func:`~repro.mc.explicit.reachable_formula` is an exact decision
diagram of the explicit engine's reachable set at every size.  Assumed
on ``v_t``, it leaves the checker only reachable counterexample states,
so the explicit classifier never answers SPURIOUS, no condition churns
through ``r ∧ ¬s'`` rounds into the strengthening cap, and the
canonical report is the one a flat one-disjunct-per-state DNF of the
same set gives.
"""

from __future__ import annotations

import pytest

from repro.core.conditions import extract_conditions
from repro.core.oracle import make_oracle
from repro.evaluation import default_learner, run_active
from repro.expr import eq, land, lor
from repro.mc import reachable_formula, shared_reachability
from repro.stateflow.library import benchmark_names, get_benchmark
from repro.traces.generate import random_traces

ROWS = [
    (name, spec.name)
    for name in benchmark_names()
    for spec in get_benchmark(name).fsas
]


def flat_dnf(system):
    """The exact reference: one conjunction of equalities per state."""
    reach = shared_reachability(system)
    return lor(
        *(
            land(*(eq(var, value) for var, value in zip(system.state_vars, key, strict=True)))
            for key in reach.reachable_keys()
        )
    )


def learned_conditions(bench, spec):
    traces = random_traces(bench.system, count=10, length=10, seed=0)
    return extract_conditions(default_learner(bench, spec).learn(traces))


def oracle_report(bench, conditions, domain, canonical):
    oracle = make_oracle(
        bench.system,
        "explicit",
        bench.k,
        domain_assumption=domain,
        canonical=canonical,
    )
    return oracle.check_all(conditions)


def canonical_fields(report):
    return [
        (o.holds, o.inconclusive, o.spurious_excluded, o.counterexample)
        for o in report.outcomes
    ]


@pytest.mark.parametrize("name,fsa", ROWS)
def test_guided_checks_need_one_query(name, fsa):
    bench = get_benchmark(name)
    conditions = learned_conditions(bench, bench.fsa(fsa))
    domain = reachable_formula(bench.system)

    guided = oracle_report(bench, conditions, domain, canonical=False)
    assert guided.total_spurious == 0
    assert guided.recorded_inconclusive == []

    canonical = oracle_report(bench, conditions, domain, canonical=True)
    reference = oracle_report(bench, conditions, flat_dnf(bench.system), canonical=True)
    assert canonical_fields(canonical) == canonical_fields(reference)


def test_security_row_decides_every_condition():
    bench = get_benchmark("ModelingASecuritySystem")
    out = run_active(
        bench,
        bench.fsa("InMotion InActive"),
        initial_traces=30,
        trace_length=30,
        seed=0,
        budget_seconds=60,
    )
    assert out.row.alpha == 1.0
    assert out.result.recorded_inconclusive == 0
    assert all(r.spurious_excluded == 0 for r in out.result.records)
