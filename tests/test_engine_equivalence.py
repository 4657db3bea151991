"""Differential suite: the symbolic engines ≡ explicit reachability, all 28 systems.

For every stateflow library system the ``"bdd"`` and ``"kinduction"``
spuriousness engines classify the same probe states as the explicit
engine, and every verdict is checked against it:

* ``"bdd"`` with ``respect_k=False`` is exact, so it must return the
  explicit engine's (``respect_k=False``) verdict and never
  INCONCLUSIVE;
* ``"kinduction"`` is the literal Fig. 3b check.  Its base case is a
  BMC query, so it calls a state VALID exactly when the state is
  reachable within ``k`` steps, which is the ``"bdd"`` engine's
  ``respect_k=True`` VALID; a SPURIOUS verdict is an induction proof, so
  the state must be unreachable.  A failing step case alone gives
  INCONCLUSIVE.  One exception: k-induction, like a trace, observes
  the states after steps 1, 2, ..., whereas the BFS and BDD engines
  count the initial state as reached at depth 0.  So the initial state
  is VALID for k-induction only if it recurs within ``k`` steps, and
  SPURIOUS if it never recurs; it is held to the sound direction only.

Both symbolic engines range over the full input space, the explicit
engine over each system's declared input samples.  Where the samples
miss behaviour (:data:`SAMPLED_INPUT_GAP`), states unreachable under
the samples may be reachable under the full space, so there only the
sound direction is asserted: explicitly reachable ⇒ reachable.

States probed per system: the initial state, the shallowest few
reachable states, a deep reachable state (depth 8 or the diameter,
whichever is smaller) and a handful of unreachable state vectors
sampled from the sort space.

The oracle section routes full reports through the ``"bdd"`` engine:
both engines are exact and the strengthening is the blind ``r ∧ ¬s'``
whichever engine classifies, so the reports must be the explicit
engine's, canonical and not.
"""

import itertools

import pytest

from repro.core.conditions import Condition, ConditionKind
from repro.core.oracle import make_oracle
from repro.expr import TRUE, lnot, sort_values
from repro.mc import build_spurious_checker, shared_kinduction, shared_reachability
from repro.mc.verdicts import SpuriousVerdict
from repro.stateflow.library import benchmark_names, get_benchmark
from repro.system.valuation import Valuation

#: Systems whose declared input samples reach fewer states than the
#: full input space (see ``tests/test_symbolic_reach.py``).
SAMPLED_INPUT_GAP = {"ModelingARedundantSensorPairUsingAtomicSubchart"}

#: The bound handed to classify().  The exact engines ignore it; for
#: k-induction it is small so that the deep probe lies beyond it and
#: the bounded verdicts differ from the exact ones.
K = 2

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


def _explored(name):
    system = get_benchmark(name).system
    reach = shared_reachability(system)
    reach.explore()
    return system, reach


@pytest.mark.parametrize("name", benchmark_names())
def test_bdd_matches_explicit(name):
    system, reach = _explored(name)
    bdd = build_spurious_checker(system, "bdd", respect_k=False)
    explicit = build_spurious_checker(system, "explicit", respect_k=False)
    reachable, unreachable = _probe_states(system, reach)
    for state in reachable + unreachable:
        bdd_verdict = bdd.classify(state, K)
        explicit_verdict = explicit.classify(state, K)
        assert bdd_verdict is not SpuriousVerdict.INCONCLUSIVE
        if name in SAMPLED_INPUT_GAP and (
            explicit_verdict is SpuriousVerdict.SPURIOUS
        ):
            continue
        assert bdd_verdict is explicit_verdict, (
            f"{name}: {dict(state)} bdd={bdd_verdict} explicit={explicit_verdict}"
        )
    # Sanity on the sampling itself: the two groups landed as expected.
    for state in reachable:
        assert explicit.classify(state, K) is SpuriousVerdict.VALID
    for state in unreachable:
        assert explicit.classify(state, K) is SpuriousVerdict.SPURIOUS


@pytest.mark.parametrize("name", benchmark_names())
def test_kinduction_agrees_with_bounded_bdd(name):
    system, reach = _explored(name)
    induction = build_spurious_checker(system, "kinduction")
    bounded = build_spurious_checker(system, "bdd", respect_k=True)
    exact = build_spurious_checker(system, "explicit", respect_k=False)
    assert induction._engine is shared_kinduction(system)
    reachable, unreachable = _probe_states(system, reach)
    initial, observed = reachable[0], reachable[1:]
    assert dict(initial) == dict(system.init_state)
    for state in reachable + unreachable:
        induction_verdict = induction.classify(state, K)
        bounded_verdict = bounded.classify(state, K)
        context = (
            f"{name}: {dict(state)} kinduction={induction_verdict} "
            f"bdd={bounded_verdict}"
        )
        # A BMC witness is never contradicted.
        if induction_verdict is SpuriousVerdict.VALID:
            assert bounded_verdict is SpuriousVerdict.VALID, context
        if state is initial:
            continue
        # Base case ≡ bounded reachability for every other state.
        if bounded_verdict is SpuriousVerdict.VALID:
            assert induction_verdict is SpuriousVerdict.VALID, context
        # A proof of unreachability is never contradicted.
        if induction_verdict is SpuriousVerdict.SPURIOUS:
            assert bounded_verdict is SpuriousVerdict.SPURIOUS, context
            assert exact.classify(state, K) is SpuriousVerdict.SPURIOUS, context
        if name not in SAMPLED_INPUT_GAP and (
            exact.classify(state, K) is SpuriousVerdict.SPURIOUS
        ):
            assert induction_verdict is not SpuriousVerdict.VALID, context
    # The shallow probes lie within the bound.
    assert induction.classify(observed[0], K) is SpuriousVerdict.VALID


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


ORACLE_SYSTEMS = ["ModelingALaunchAbortSystem", "MooreTrafficLight"]


def _reports(name, canonical):
    bench = get_benchmark(name)
    system = bench.system
    conditions = _condition_workload(system)
    assert len(conditions) >= 4
    return [
        make_oracle(
            system,
            engine,
            bench.k,
            canonical=canonical,
            respect_k=False,
            max_strengthenings=10,
        ).check_all(conditions)
        for engine in ("bdd", "explicit")
    ]


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_bdd_canonical_report_matches_explicit(name):
    bdd_report, explicit_report = _reports(name, canonical=True)
    assert bdd_report.outcomes == explicit_report.outcomes
    assert bdd_report.alpha == explicit_report.alpha
    assert bdd_report.truncated == explicit_report.truncated


@pytest.mark.parametrize("name", ORACLE_SYSTEMS)
def test_bdd_oracle_strengthens_as_explicit(name):
    """Same verdicts, same blind strengthening rounds, in search order."""
    bdd_report, explicit_report = _reports(name, canonical=False)
    assert [o.holds for o in bdd_report.outcomes] == [
        o.holds for o in explicit_report.outcomes
    ]
    assert bdd_report.alpha == explicit_report.alpha
    assert bdd_report.total_spurious == explicit_report.total_spurious
    assert bdd_report.total_spurious > 0
