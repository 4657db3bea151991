"""Truncation and canonical determinism of the completeness oracle.

* the ``α`` of an empty-but-truncated report (deadline expired before
  the first condition) must not claim completeness, and a partial
  truncated report keeps the fraction it measured;
* a deadline that has already expired checks *nothing*;
* a deadline that expires midway leaves a truncated *prefix* of the
  condition list in its original order, never a sample;
* canonical outcomes do not depend on condition order or on what the
  oracle's solver checked before -- on every library system, with every
  outcome field compared, since canonical reports are the deterministic
  reference the golden and reachable-guidance suites compare against.
"""

import random
import time
from types import SimpleNamespace

import pytest

from repro.core import oracle as oracle_module
from repro.core.conditions import Condition, ConditionKind
from repro.core.oracle import OracleReport, make_oracle
from repro.expr import FALSE, TRUE, land, lnot, lor, sort_values
from repro.stateflow.library import benchmark_names, get_benchmark


def _step(assumption, conclusion) -> Condition:
    return Condition(
        kind=ConditionKind.STEP,
        state=0,
        state_name="q",
        assumption=assumption,
        conclusion=conclusion,
    )


def library_conditions(system) -> list[Condition]:
    """A discriminating condition list over a system's observables.

    Mixes conditions that hold (sort-range conclusions), ones violated
    with genuine counterexamples, ones that churn through spurious
    strengthenings, and an initial-state condition (1).
    """
    conditions = [
        Condition(
            kind=ConditionKind.INIT,
            state=0,
            state_name="q0",
            assumption=None,
            conclusion=FALSE,
        ),
        _step(TRUE, TRUE),
        _step(TRUE, FALSE),
    ]
    for var in system.state_vars:
        init_value = system.init_state[var.name]
        values = sort_values(var.sort)
        if var.sort.is_bool():
            in_range = lor(var, lnot(var))
        else:
            in_range = land(var >= values[0], var <= values[-1])
        conditions.append(_step(TRUE, in_range))
        conditions.append(_step(var.eq(init_value), var.eq(init_value)))
        conditions.append(_step(TRUE, lnot(var.eq(init_value))))
    return conditions


class TestTruncatedAlpha:
    def test_empty_untruncated_report_is_vacuously_complete(self):
        assert OracleReport().alpha == 1.0

    def test_empty_truncated_report_claims_nothing(self):
        report = OracleReport(truncated=True)
        assert report.alpha == 0.0

    def test_partial_truncated_report_keeps_measured_fraction(self, cooler):
        benchmark_conditions = library_conditions(cooler)
        oracle = make_oracle(cooler, "explicit", 4)
        full = oracle.check_all(benchmark_conditions)
        partial = OracleReport(outcomes=full.outcomes[:3], truncated=True)
        expected = sum(1 for o in partial.outcomes if o.holds) / 3
        assert partial.alpha == expected


class TestDeadlines:
    def test_expired_deadline_checks_nothing(self):
        benchmark = get_benchmark("MealyVendingMachine")
        conditions = library_conditions(benchmark.system)
        expired = time.monotonic() - 1.0
        oracle = make_oracle(benchmark.system, "explicit", benchmark.k)
        report = oracle.check_all(conditions, deadline=expired)
        assert report.outcomes == []
        assert report.truncated
        assert report.alpha == 0.0

    def test_midway_deadline_yields_truncated_prefix(self, monkeypatch):
        benchmark = get_benchmark("ModelingALaunchAbortSystem")
        system = benchmark.system
        conditions = library_conditions(system)
        oracle = make_oracle(system, "explicit", benchmark.k)
        # The oracle's clock reads the number of finished checks, so a
        # deadline of 5.5 passes right after the sixth on any host.
        finished: list = []
        check = oracle.check

        def counting_check(condition, deadline=None):
            finished.append(check(condition, deadline=deadline))
            return finished[-1]

        monkeypatch.setattr(oracle, "check", counting_check)
        monkeypatch.setattr(
            oracle_module,
            "time",
            SimpleNamespace(monotonic=lambda: float(len(finished))),
        )
        report = oracle.check_all(conditions, deadline=5.5)
        assert len(conditions) > 6
        assert report.truncated
        assert len(report.outcomes) == 6
        # The report is a prefix in the original order, never a sample.
        assert [o.condition for o in report.outcomes] == conditions[:6]


class TestCanonicalDeterminism:
    def test_outcomes_independent_of_order_and_history(self):
        benchmark = get_benchmark("MealyVendingMachine")
        system = benchmark.system
        conditions = library_conditions(system)

        def oracle():
            return make_oracle(
                system, "explicit", benchmark.k, max_strengthenings=3,
                canonical=True,
            )

        expected = {o.condition: o for o in oracle().check_all(conditions).outcomes}
        # One oracle for every shuffle: its solver carries the clauses
        # learned on earlier orders into the later ones.
        warm = oracle()
        for seed in (0, 1):
            shuffled = list(conditions)
            random.Random(seed).shuffle(shuffled)
            report = warm.check_all(shuffled)
            assert [o.condition for o in report.outcomes] == shuffled
            assert {o.condition: o for o in report.outcomes} == expected


def assert_reports_identical(actual: OracleReport, expected: OracleReport):
    """Field-for-field equality, with targeted asserts for diagnosis."""
    assert len(actual.outcomes) == len(expected.outcomes), "report length"
    for i, (act, exp) in enumerate(
        zip(actual.outcomes, expected.outcomes, strict=True)
    ):
        assert act.condition == exp.condition, f"[{i}] ordering"
        assert act.holds == exp.holds, f"[{i}] verdict"
        assert act.counterexample == exp.counterexample, f"[{i}] counterexample"
        assert act.final_assumption == exp.final_assumption, f"[{i}] assumption"
        assert act.spurious_excluded == exp.spurious_excluded, f"[{i}] spurious"
        assert act.inconclusive == exp.inconclusive, f"[{i}] inconclusive"
        assert act.truncated == exp.truncated, f"[{i}] truncated"
        assert act == exp, f"[{i}] outcome dataclass equality"
    assert actual.truncated == expected.truncated
    assert actual.alpha == expected.alpha
    assert actual.total_spurious == expected.total_spurious


@pytest.mark.parametrize("name", benchmark_names())
def test_canonical_report_independent_of_history(name):
    """A warm oracle reproduces a fresh one's canonical report exactly.

    The warm oracle first checks the list in reverse, so its solver
    holds the clauses, blocked counterexamples and strengthenings of
    every other condition when it re-checks each one.
    """
    benchmark = get_benchmark(name)
    system = benchmark.system
    conditions = library_conditions(system)

    def oracle():
        return make_oracle(
            system, "explicit", benchmark.k, max_strengthenings=3,
            canonical=True,
        )

    expected = oracle().check_all(conditions)
    # The list must exercise both verdicts to be discriminating.
    assert expected.violations
    assert any(o.holds for o in expected.outcomes)

    warm = oracle()
    reversed_report = warm.check_all(conditions[::-1])
    assert reversed_report.outcomes == expected.outcomes[::-1]
    assert_reports_identical(warm.check_all(conditions), expected)
