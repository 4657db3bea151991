"""Differential suite: hash-consed expr core ≡ pre-refactor behaviour.

``tests/golden/expr_core_golden.json`` was captured by
``tests/golden/capture_expr_core.py`` running against the *pre-refactor*
expression core (structural frozen-dataclass equality, tree-walking
evaluation).  This suite replays the same computations on the current
tree and demands bit-for-bit equality:

* the learned model (states, names, guards) per library system,
* the extracted completeness conditions,
* the canonical oracle report -- every outcome field and α -- per
  system for each of the two engines {explicit, kinduction},
* two full active-learning loops (per-iteration α/N and final model),
* explicit reports for a subset of systems whose conditions and
  outcomes round-trip through pickle, as the segment workers' models
  do, which exercises the ``__reduce__`` → re-intern path end to end.

All reference reports use canonical counterexamples, making every
outcome a pure function of its condition -- the property that lets a
golden file pin behaviour across processes, hash seeds and refactors.
"""

import json
import pathlib
import pickle

import pytest

from expr_golden_common import (
    ENGINES,
    LOOP_SYSTEMS,
    conditions_to_json,
    learn_model_and_conditions,
    loop_result,
    loop_to_json,
    model_to_json,
    report_to_json,
    serial_report,
)

from repro.stateflow.library import benchmark_names, get_benchmark

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "expr_core_golden.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Systems whose conditions and report are also round-tripped through
#: pickle.
PICKLE_SYSTEMS = (
    "ModelingALaunchAbortSystem",
    "HomeClimateControlUsingTheTruthtableBlock",
    "ModelingASecuritySystem",
    "CountEvents",
)


def _assert_reports_equal(actual: dict, expected: dict, context: str):
    assert len(actual["outcomes"]) == len(expected["outcomes"]), (
        f"{context}: outcome count"
    )
    for i, (act, exp) in enumerate(
        zip(actual["outcomes"], expected["outcomes"], strict=True)
    ):
        assert act == exp, f"{context}: outcome [{i}]"
    assert actual["alpha"] == expected["alpha"], f"{context}: alpha"
    assert actual["truncated"] == expected["truncated"], f"{context}: truncated"


@pytest.mark.parametrize("name", benchmark_names())
def test_models_and_reports_match_prerefactor(name):
    benchmark = get_benchmark(name)
    golden = GOLDEN["systems"][name]
    model, conditions = learn_model_and_conditions(benchmark)
    assert model_to_json(model) == golden["model"], "learned model drifted"
    assert conditions_to_json(conditions) == golden["conditions"], (
        "extracted conditions drifted"
    )
    for engine in ENGINES:
        report = serial_report(benchmark, engine, conditions)
        _assert_reports_equal(
            report_to_json(report), golden["reports"][engine], engine
        )


@pytest.mark.parametrize("name", LOOP_SYSTEMS)
def test_active_loop_matches_prerefactor(name):
    result = loop_result(get_benchmark(name))
    assert loop_to_json(result) == GOLDEN["loops"][name]


@pytest.mark.parametrize("name", PICKLE_SYSTEMS)
def test_pickled_conditions_match_prerefactor_golden(name):
    """Unpickled conditions re-intern and check to the golden report.

    Pickle rebuilds every expression through its interning constructor,
    so each unpickled expression must be the very node it was pickled
    from: a duplicate would change ``final_assumption`` identity,
    predicate dedup, or the dataclass equality of outcomes.
    """
    benchmark = get_benchmark(name)
    golden = GOLDEN["systems"][name]
    _model, conditions = learn_model_and_conditions(benchmark)
    restored = pickle.loads(pickle.dumps(conditions))
    for before, after in zip(conditions, restored, strict=True):
        assert after == before
        assert after.assumption is before.assumption
        assert after.conclusion is before.conclusion
    report = serial_report(benchmark, "explicit", restored)
    returned = pickle.loads(pickle.dumps(report))
    assert returned.outcomes == report.outcomes
    for before, after in zip(report.outcomes, returned.outcomes, strict=True):
        assert after.final_assumption is before.final_assumption
    _assert_reports_equal(
        report_to_json(returned), golden["reports"]["explicit"], "pickled"
    )
