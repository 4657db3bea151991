"""Differential suite: IC3 ≡ exact explicit reachability, all 28 systems.

For every stateflow library system the ``"ic3"`` engine must return the
same SPURIOUS/VALID verdict as the exact explicit engine with
``respect_k=False`` -- and, being a proof engine, it must *never*
return INCONCLUSIVE, for any state, with no bound involved.

States probed per system: the initial state, the shallowest few
reachable states (cheap witnesses for VALID), a deep reachable state
(depth 8 or the diameter, whichever is smaller -- a VALID verdict at
depth ``d`` forces ``d`` frames of obligation digging, and the 530-step
FrameSyncController would take minutes at full depth), and a handful of
unreachable state vectors sampled from the sort space (stresses
convergence).  Verdict
sources share one engine per system (``shared_ic3``), so the suite also
exercises cross-query frame reuse on every library system.

The oracle section routes full canonical reports through the ``"ic3"``
engine: they must be bit-for-bit the canonical explicit
(``respect_k=False``) reports, since both engines are exact and
canonical outcomes are pure functions of the condition.
"""

import itertools

import pytest

from repro.core.conditions import Condition, ConditionKind
from repro.core.oracle import make_oracle
from repro.expr import TRUE, lnot, sort_values
from repro.mc import build_spurious_checker, shared_ic3, shared_reachability
from repro.mc.verdicts import SpuriousVerdict
from repro.stateflow.library import benchmark_names, get_benchmark
from repro.system.valuation import Valuation

# The Fig. 3b bound handed to classify(); the ic3 engine must ignore it
# entirely, and explicit ignores it under respect_k=False.  Absurdly
# small on purpose: a bound-sensitive engine would go inconclusive.
K = 1


_DEEP_PROBE_DEPTH = 8


def _probe_states(system, reach):
    """Initial + shallow + deep reachable states, plus unreachable ones."""
    table = sorted(reach._table.items(), key=lambda kv: kv[1][0])
    names = system.state_names
    states = [Valuation(dict(zip(names, key, strict=True))) for key, _ in table[:3]]
    probe_depth = min(reach.diameter, _DEEP_PROBE_DEPTH)
    deep_key = next(
        key for key, (depth, _p, _i) in table if depth == probe_depth
    )
    if deep_key not in {key for key, _ in table[:3]}:
        states.append(Valuation(dict(zip(names, deep_key, strict=True))))
    reachable_keys = {key for key, _ in table}
    spaces = [sort_values(var.sort) for var in system.state_vars]
    unreachable = []
    for combo in itertools.product(*spaces):
        if combo not in reachable_keys:
            unreachable.append(Valuation(dict(zip(names, combo, strict=True))))
            if len(unreachable) >= 3:
                break
    return states, unreachable


@pytest.mark.parametrize("name", benchmark_names())
def test_ic3_matches_explicit(name):
    system = get_benchmark(name).system
    reach = shared_reachability(system)
    reach.explore()
    ic3 = build_spurious_checker(system, "ic3")
    explicit = build_spurious_checker(system, "explicit", respect_k=False)
    assert ic3.engine is shared_ic3(system)
    reachable, unreachable = _probe_states(system, reach)
    for state in reachable + unreachable:
        ic3_verdict = ic3.classify(state, K)
        explicit_verdict = explicit.classify(state, K)
        assert ic3_verdict is not SpuriousVerdict.INCONCLUSIVE
        assert ic3_verdict is explicit_verdict, (
            f"{name}: {dict(state)} ic3={ic3_verdict} explicit={explicit_verdict}"
        )
    # Sanity on the sampling itself: the two groups landed as expected.
    for state in reachable:
        assert explicit.classify(state, K) is SpuriousVerdict.VALID
    for state in unreachable:
        assert explicit.classify(state, K) is SpuriousVerdict.SPURIOUS


def _condition_workload(system):
    """Churny conditions mixing holding/violated/spurious-heavy checks."""
    conditions = []
    for var in system.state_vars:
        init_value = system.init_state[var.name]
        for kind in range(3):
            if kind == 0:
                assumption, conclusion = TRUE, lnot(var.eq(init_value))
            elif kind == 1:
                assumption = var.eq(init_value)
                conclusion = var.eq(init_value)
            else:
                assumption, conclusion = var.eq(init_value), TRUE
            conditions.append(
                Condition(
                    kind=ConditionKind.STEP,
                    state=0,
                    state_name="q",
                    assumption=assumption,
                    conclusion=conclusion,
                )
            )
    return conditions


@pytest.mark.parametrize(
    "name", ["ModelingALaunchAbortSystem", "MooreTrafficLight"]
)
def test_ic3_canonical_report_matches_explicit(name):
    bench = get_benchmark(name)
    system = bench.system
    conditions = _condition_workload(system)
    assert len(conditions) >= 4
    ic3_report = make_oracle(
        system, "ic3", bench.k, canonical=True, max_strengthenings=10
    ).check_all(conditions)
    explicit_report = make_oracle(
        system,
        "explicit",
        bench.k,
        canonical=True,
        respect_k=False,
        max_strengthenings=10,
    ).check_all(conditions)
    assert ic3_report.outcomes == explicit_report.outcomes
    assert ic3_report.alpha == explicit_report.alpha
    assert ic3_report.truncated == explicit_report.truncated
