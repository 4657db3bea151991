"""Tests for the incremental condition checker and checker guidance.

The incremental checker must be observationally identical to the
one-shot :func:`check_condition`; hypothesis drives that comparison over
random assumptions/conclusions.  Rollback must leave no residue between
queries, and base constraints must restrict counterexamples.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import FALSE, TRUE, Var, holds, int_sort, land, lnot, lor
from repro.expr.ast import And
from repro.mc import check_condition, reachable_formula, shared_reachability
from repro.mc.condition_check import IncrementalConditionChecker
from repro.smt.encoder import Encoder
from repro.stateflow.library import benchmark_names, get_benchmark
from test_reachable_guidance import flat_dnf


class TestEquivalence:
    def test_holding_condition(self, cooler):
        mode = cooler.var_by_name("s")
        temp = cooler.var_by_name("temp")
        conclusion = lor(
            land(temp <= 30, mode.eq("Off")), land(temp > 30, mode.eq("On"))
        )
        checker = IncrementalConditionChecker(cooler)
        incremental = checker.check(mode.eq("Off"), conclusion)
        oneshot = check_condition(cooler, mode.eq("Off"), conclusion)
        assert incremental.holds == oneshot.holds is True

    def test_violated_condition(self, cooler):
        mode = cooler.var_by_name("s")
        checker = IncrementalConditionChecker(cooler)
        result = checker.check(mode.eq("Off"), mode.eq("Off"))
        assert not result.holds
        v_t, v_t1 = result.counterexample
        # The pair is a genuine R-step.
        assert cooler.step({"s": v_t["s"]}, {"temp": v_t1["temp"]})["s"] == v_t1["s"]

    def test_many_queries_no_residue(self, counter):
        """Earlier queries must not constrain later ones."""
        count = counter.var_by_name("c")
        checker = IncrementalConditionChecker(counter)
        # A contradictory query first...
        first = checker.check(TRUE, FALSE)
        assert not first.holds
        # ...must not make a satisfiable query unsat or vice versa.
        second = checker.check(count.eq(0), count <= 5)
        assert second.holds
        third = checker.check(count.eq(0), count.eq(1))
        assert not third.holds  # run=0 resets to 0

    @settings(max_examples=25, deadline=None)
    @given(
        assume_pin=st.integers(0, 5),
        conclude_lo=st.integers(0, 5),
        conclude_hi=st.integers(0, 5),
    )
    def test_agrees_with_oneshot(self, assume_pin, conclude_lo, conclude_hi):
        system = _saturating_counter()
        count = system.var_by_name("c")
        assume = count.eq(assume_pin)
        conclusion = land(count >= min(conclude_lo, conclude_hi),
                          count <= max(conclude_lo, conclude_hi))
        checker = IncrementalConditionChecker(system)
        incremental = checker.check(assume, conclusion)
        oneshot = check_condition(system, assume, conclusion)
        assert incremental.holds == oneshot.holds

    def test_base_constraint_restricts_counterexamples(self, counter):
        count = counter.var_by_name("c")
        unguided = IncrementalConditionChecker(counter)
        result = unguided.check(count >= 0, count <= 4)
        assert not result.holds  # c=4 -> c=5 violates, also c=5 itself

        guided = IncrementalConditionChecker(counter)
        guided.add_base_constraint(count <= 3)  # pretend only c<=3 reachable
        result = guided.check(count >= 0, count <= 4)
        assert result.holds  # from c<=3 one step keeps c<=4

    def test_base_constraint_after_query_rejected(self, counter):
        count = counter.var_by_name("c")
        checker = IncrementalConditionChecker(counter)
        checker.check(TRUE, count <= 5)
        with pytest.raises(RuntimeError):
            checker.add_base_constraint(count <= 3)


class TestSolverReuse:
    def test_one_backing_solver_across_queries(self, counter):
        """The whole point of the incremental checker: every query --
        including strengthening re-checks -- runs on one CDCL instance."""
        count = counter.var_by_name("c")
        checker = IncrementalConditionChecker(counter)
        backing = checker.backing_solver
        assumption = count >= 0
        for excluded in range(3):
            result = checker.check(assumption, count <= 3)
            assert checker.backing_solver is backing
            if result.holds:
                break
            v_t, _v_t1 = result.counterexample
            # Strengthen exactly like the oracle does on spurious verdicts.
            assumption = land(assumption, lnot(count.eq(v_t["c"])))
        assert backing.solve_calls == excluded + 1

    def test_learned_clauses_survive_strengthening_rounds(self, two_phase):
        phase = two_phase.var_by_name("phase")
        cycles = two_phase.var_by_name("cycles")
        checker = IncrementalConditionChecker(two_phase)
        backing = checker.backing_solver
        assumption = cycles >= 0
        learned_seen = []
        for _round in range(4):
            result = checker.check(assumption, land(cycles <= 2, phase.eq("A")))
            learned_seen.append(backing.num_learned)
            if result.holds:
                break
            v_t, _ = result.counterexample
            assumption = land(
                assumption,
                lnot(land(cycles.eq(v_t["cycles"]), phase.eq(v_t["phase"]))),
            )
        # Lemmas accumulated in earlier rounds are still loaded later.
        assert all(b >= a for a, b in zip(learned_seen, learned_seen[1:], strict=False))

    def test_oracle_strengthening_reuses_one_solver(self):
        """End-to-end: the completeness oracle's spurious-exclusion loop
        must not rebuild solver state between rounds."""
        from repro.core import Condition, ConditionKind, CompletenessOracle
        from repro.expr import int_sort, ite
        from repro.mc import ExplicitSpuriousness
        from repro.system import make_system

        x = Var("x", int_sort(0, 3))
        evens = make_system(
            "evens_reuse", [x], [], {"x": 0}, {x: ite(x < 2, x + 2, x)}
        )
        condition = Condition(
            kind=ConditionKind.STEP,
            state=0,
            state_name="odd",
            assumption=x.eq(1) | x.eq(3),
            conclusion=x.eq(0),
        )
        oracle = CompletenessOracle(
            evens, ExplicitSpuriousness(evens, respect_k=False), k=4
        )
        backing = oracle._checker.backing_solver
        outcome = oracle.check(condition)
        assert outcome.holds and outcome.spurious_excluded == 2
        assert oracle._checker.backing_solver is backing
        # One solve per round: initial check + one per exclusion.
        assert backing.solve_calls == 3

    def test_blind_strengthening_encodes_only_the_new_exclusion(
        self, monkeypatch
    ):
        """Each Fig. 3b round ``r ← r ∧ ¬s'`` costs the clauses of its new
        ``¬s'`` alone: a round whose exclusion is new to the solver adds
        the same number of clauses however long the assumption has
        grown (the n-ary gate of the whole conjunction grew by one
        clause per round)."""
        from repro.evaluation import run_active

        rounds = []
        original = IncrementalConditionChecker.check

        def recording(self, assume, conclusion, canonical=False):
            before = self._solver.encoder.clause_cursor()
            result = original(self, assume, conclusion, canonical)
            added = self._solver.encoder.clause_cursor() - before
            rounds.append((conclusion, assume, added))
            return result

        monkeypatch.setattr(IncrementalConditionChecker, "check", recording)
        bench = get_benchmark("ModelingALaunchAbortSystem")
        spec = next(s for s in bench.fsas if s.name == "Overall")
        out = run_active(
            bench, spec, initial_traces=30, trace_length=30, seed=0,
            budget_seconds=60, spurious_engine="bdd",
        )
        assert out.row.alpha == 1.0

        def conjuncts(expr):
            return expr.args if isinstance(expr, And) else (expr,)

        strengthening = [
            added
            for (conclusion, previous, _), (again, assume, added) in zip(
                rounds, rounds[1:], strict=False
            )
            if again is conclusion
            and conjuncts(assume)[:-1] == conjuncts(previous)
        ]
        assert len(strengthening) >= 10
        assert len({added for added in strengthening if added}) == 1



def _saturating_counter():
    from repro.expr import BOOL, ite
    from repro.system import make_system

    run = Var("run", BOOL)
    count = Var("c", int_sort(0, 5))
    return make_system(
        "counter_hyp", [count], [run], {"c": 0},
        {count: ite(run.prime(), ite(count < 5, count + 1, count), 0)},
    )


class TestReachableFormula:
    def test_exact_dnf_for_small_sets(self, counter):
        formula = reachable_formula(counter, shared_reachability(counter))
        for value in range(6):
            assert holds(formula, {"c": value})

    def test_excludes_unreachable(self):
        from repro.expr import ite
        from repro.system import make_system

        x = Var("x", int_sort(0, 7))
        evens = make_system(
            "evens2", [x], [], {"x": 0}, {x: ite(x < 6, x + 2, 0)}
        )
        formula = reachable_formula(evens)
        assert holds(formula, {"x": 4})
        assert not holds(formula, {"x": 3})

    def test_exact_on_the_largest_library_system(self):
        """Security's 561 reachable states all satisfy the formula; none
        of the 9,807 other states in the product of the per-variable
        value sets does."""
        system = get_benchmark("ModelingASecuritySystem").system
        reach = shared_reachability(system)
        reachable = set(reach.reachable_keys())
        formula = reachable_formula(system, reach)
        names = system.state_names
        values = [sorted({key[i] for key in reachable}) for i in range(len(names))]
        product = set(itertools.product(*values))
        admitted = {
            key for key in product if holds(formula, dict(zip(names, key, strict=True)))
        }
        assert len(reachable) == 561
        assert len(product - reachable) == 9_807
        assert admitted == reachable

    @pytest.mark.parametrize("name", benchmark_names())
    def test_never_larger_than_the_flat_dnf(self, name):
        system = get_benchmark(name).system
        assert _clauses(system, reachable_formula(system)) <= _clauses(
            system, flat_dnf(system)
        )


def _clauses(system, formula) -> int:
    """Tseitin clauses ``formula`` adds on top of the variables' ranges."""
    encoder = Encoder()
    for var in system.state_vars:
        encoder.declare(var)
    before = encoder.clause_cursor()
    encoder.encode_literal(formula)
    return encoder.clause_cursor() - before
