#!/usr/bin/env python3
"""Use-case from paper §VI: test-coverage evaluation and hole filling.

Scenario: a test suite for the launch-abort system exercises only
nominal missions (launch -> ascend -> orbit).  We evaluate how complete
that suite is -- the degree of completeness α of a model learned from
its traces -- and then let the model checker *generate the missing
tests*: each counterexample trace from a violated completeness condition
is precisely an input scenario the suite never covered (aborts,
failures, pad escapes).

Run:  python examples/coverage_holes.py
"""

from repro.core import (
    CompletenessOracle,
    counterexample_traces,
    extract_conditions,
)
from repro.evaluation import default_learner
from repro.mc import ExplicitSpuriousness, shared_reachability
from repro.stateflow.library import get_benchmark
from repro.traces import TraceSet, guided_trace


def nominal_test_suite(system) -> TraceSet:
    """Hand-written tests: power through a clean mission, twice."""
    launch = {"cmd": 1, "fail": 0}
    coast = {"cmd": 0, "fail": 0}
    suite = TraceSet()
    suite.add(guided_trace(system, [launch] + [coast] * 10))
    suite.add(guided_trace(system, [coast] * 3 + [launch] + [coast] * 9))
    return suite


def main() -> None:
    benchmark = get_benchmark("ModelingALaunchAbortSystem")
    system = benchmark.system
    spec = benchmark.fsa("Overall")

    suite = nominal_test_suite(system)
    learner = default_learner(benchmark, spec)
    model = learner.learn(suite)

    oracle = CompletenessOracle(
        system,
        ExplicitSpuriousness(system, reach=shared_reachability(system)),
        k=benchmark.k,
    )
    report = oracle.check_all(extract_conditions(model))
    print(f"test-suite coverage of system behaviour: α = {report.alpha:.2f}")
    print(f"({len(report.violations)} of {len(report.outcomes)} "
          "completeness conditions violated)\n")

    print("Generated tests for the coverage holes:")
    for outcome in report.violations:
        for trace in counterexample_traces(suite, outcome):
            final = trace[-1]
            scenario = {
                name: final[name] for name in ("cmd", "fail", "Overall")
            }
            print(f"  condition: {outcome.condition.describe()}")
            print(f"    new test reaches: {scenario}")
            break  # one representative test per hole

    # Close the loop: keep adding generated tests until the suite covers
    # every behaviour.  Coverage may dip transiently -- new behaviours
    # create new proof obligations -- before reaching 1.
    improved = suite.copy()
    progression = [report.alpha]
    current = report
    for _round in range(15):
        if current.alpha == 1.0:
            break
        for outcome in current.violations:
            improved.update(counterexample_traces(improved, outcome))
        model = learner.learn(improved)
        current = oracle.check_all(extract_conditions(model))
        progression.append(current.alpha)
    trail = " -> ".join(f"{alpha:.2f}" for alpha in progression)
    print(f"\ncoverage progression while filling holes: {trail}")
    print(f"final suite: {len(improved)} traces (from {len(suite)})")
    assert current.alpha == 1.0


if __name__ == "__main__":
    main()
