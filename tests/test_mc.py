"""Tests for the model-checking engines.

Strategy: every engine is cross-checked against either concrete
simulation or another engine.  The explicit-state engine is exact on
these finite systems and serves as the reference oracle.
"""

import pytest

from repro.expr import Var, eq, int_sort, land, lnot
from repro.mc import (
    SPURIOUS_ENGINES,
    ExplicitReachability,
    ExplicitSpuriousness,
    InductionOutcome,
    KInductionEngine,
    KInductionSpuriousness,
    SpuriousVerdict,
    bmc,
    bmc_single_query,
    build_spurious_checker,
    check_condition,
    check_init_condition,
    condition_harness,
    k_induction,
    run_spurious_harness,
    shared_kinduction,
    spurious_harness,
    state_equality_formula,
    step_case_holds,
    strengthened_assumption,
)
from repro.system import Valuation, make_system


def _mode_var(system, name="s"):
    return system.var_by_name(name)


class TestConditionCheck:
    def test_holding_condition(self, cooler):
        temp = cooler.var_by_name("temp")
        mode = _mode_var(cooler)
        # From anywhere: if next temp > 30 then next mode is On.  This is
        # vacuous as a single-step check only through the conclusion's
        # input constraint -- phrase it as the paper does: assume mode Off,
        # conclude next observation is (temp<=30 ∧ Off) ∨ (temp>30 ∧ On).
        conclusion = (land(temp <= 30, mode.eq("Off"))) | (
            land(temp > 30, mode.eq("On"))
        )
        result = check_condition(cooler, mode.eq("Off"), conclusion)
        assert result.holds
        assert result.counterexample is None

    def test_violated_condition_returns_ce(self, cooler):
        mode = _mode_var(cooler)
        # Claim: from Off the system always stays Off.  False.
        result = check_condition(cooler, mode.eq("Off"), mode.eq("Off"))
        assert not result.holds
        v_t, v_t1 = result.counterexample
        assert v_t["s"] == 0
        assert v_t1["s"] == 1
        assert v_t1["temp"] > 30  # the input that drove the switch

    def test_ce_pair_satisfies_transition(self, counter):
        count = counter.var_by_name("c")
        result = check_condition(counter, count.eq(2), count.eq(2))
        assert not result.holds
        v_t, v_t1 = result.counterexample
        # The pair must be a genuine R-step.
        stepped = counter.step(
            {"c": v_t["c"]}, {"run": v_t1["run"]}
        )
        assert stepped["c"] == v_t1["c"]

    def test_init_condition(self, cooler):
        temp = cooler.var_by_name("temp")
        mode = _mode_var(cooler)
        conclusion = (land(temp <= 30, mode.eq("Off"))) | (
            land(temp > 30, mode.eq("On"))
        )
        assert check_init_condition(cooler, conclusion).holds

    def test_init_condition_violated(self, cooler):
        mode = _mode_var(cooler)
        result = check_init_condition(cooler, mode.eq("Off"))
        assert not result.holds
        v0, v1 = result.counterexample
        assert v0["s"] == 0  # v_0 satisfies Init
        assert v1["s"] == 1

    def test_unsatisfiable_assumption_holds_vacuously(self, counter):
        count = counter.var_by_name("c")
        result = check_condition(
            counter, land(count.eq(0), count.eq(5)), count.eq(3)
        )
        assert result.holds


class TestBmc:
    def test_reaches_shallow_state(self, counter):
        count = counter.var_by_name("c")
        result = bmc(counter, count.eq(2), k=5)
        assert result.reachable
        assert result.depth == 2
        assert [o["c"] for o in result.trace] == [1, 2]

    def test_trace_is_execution(self, counter):
        count = counter.var_by_name("c")
        result = bmc(counter, count.eq(3), k=6)
        assert counter.is_execution(result.trace)

    def test_respects_bound(self, counter):
        count = counter.var_by_name("c")
        assert not bmc(counter, count.eq(4), k=3).reachable
        assert bmc(counter, count.eq(4), k=4).reachable

    def test_unreachable_state(self, two_phase):
        cycles = two_phase.var_by_name("cycles")
        # One full cycle takes two ticks; cycles=1 while phase=B after
        # three ticks... but cycles=3 within 2 steps is impossible.
        assert not bmc(two_phase, cycles.eq(3), k=4).reachable
        assert bmc(two_phase, cycles.eq(1), k=4).reachable

    def test_zero_bound(self, counter):
        count = counter.var_by_name("c")
        assert not bmc(counter, count.eq(0), k=0).reachable

    def test_single_query_agrees(self, counter):
        count = counter.var_by_name("c")
        for target in range(6):
            multi = bmc(counter, count.eq(target), k=6)
            single = bmc_single_query(counter, count.eq(target), k=6)
            assert multi.reachable == single.reachable

    def test_bad_over_inputs(self, cooler):
        temp = cooler.var_by_name("temp")
        mode = _mode_var(cooler)
        result = bmc(cooler, land(temp > 50, mode.eq("On")), k=2)
        assert result.reachable
        assert result.trace[-1]["temp"] > 50


class TestKInduction:
    def test_proves_true_invariant(self, counter):
        count = counter.var_by_name("c")
        result = k_induction(counter, count <= 5, k=2)
        assert result.outcome is InductionOutcome.PROVED

    def test_base_violation(self, counter):
        count = counter.var_by_name("c")
        result = k_induction(counter, count < 3, k=5)
        assert result.outcome is InductionOutcome.BASE_VIOLATED
        assert result.bmc.reachable
        assert result.bmc.trace[-1]["c"] == 3

    def test_step_violation_for_weak_k(self, counter):
        # "c != 5" is false but only violated at depth 5; with k=2 the
        # base case passes and the step case must fail.
        count = counter.var_by_name("c")
        result = k_induction(counter, lnot(count.eq(5)), k=2)
        assert result.outcome is InductionOutcome.STEP_VIOLATED

    def test_deep_k_finds_violation(self, counter):
        count = counter.var_by_name("c")
        result = k_induction(counter, lnot(count.eq(5)), k=5)
        assert result.outcome is InductionOutcome.BASE_VIOLATED

    def test_inductive_invariant_proved_with_k1(self, cooler):
        mode = _mode_var(cooler)
        temp = cooler.var_by_name("temp")
        # "mode=On implies temp>30" holds in every observation.
        safe = eq(mode.eq("On"), temp > 30)
        result = k_induction(cooler, safe, k=1)
        assert result.proved

    def test_rejects_k_zero(self, counter):
        count = counter.var_by_name("c")
        with pytest.raises(ValueError):
            k_induction(counter, count <= 5, k=0)

    def test_step_case_direct(self, counter):
        count = counter.var_by_name("c")
        assert step_case_holds(counter, count <= 5, k=1)
        assert not step_case_holds(counter, lnot(count.eq(5)), k=1)


class TestExplicitReachability:
    def test_counter_states(self, counter):
        reach = ExplicitReachability(counter)
        assert reach.num_states == 6
        assert reach.diameter == 5

    def test_depths(self, counter):
        reach = ExplicitReachability(counter)
        for value in range(6):
            assert reach.reachable_depth({"c": value}) == value

    def test_accepts_full_observation(self, counter):
        reach = ExplicitReachability(counter)
        assert reach.is_state_reachable(Valuation({"c": 3, "run": 1}))

    def test_witness_is_execution(self, two_phase):
        reach = ExplicitReachability(two_phase)
        witness = reach.witness({"phase": 1, "cycles": 2})
        assert witness is not None
        assert two_phase.is_execution(witness)
        assert witness[-1]["phase"] == 1 and witness[-1]["cycles"] == 2

    def test_witness_of_initial_state_is_empty(self, counter):
        reach = ExplicitReachability(counter)
        assert reach.witness({"c": 0}) == []

    def test_unreachable_returns_none(self):
        x = Var("x", int_sort(0, 3))
        system = make_system(
            "stuck", [x], [], {"x": 0}, {x: x}  # never moves
        )
        reach = ExplicitReachability(system)
        assert reach.witness({"x": 2}) is None
        assert reach.num_states == 1

    def test_agrees_with_bmc(self, two_phase):
        reach = ExplicitReachability(two_phase)
        phase = two_phase.var_by_name("phase")
        cycles = two_phase.var_by_name("cycles")
        for p in range(2):
            for c in range(4):
                depth = reach.reachable_depth({"phase": p, "cycles": c})
                bad = land(phase.eq(p), cycles.eq(c))
                result = bmc(two_phase, bad, k=10)
                assert result.reachable == (depth is not None and depth > 0) or (
                    depth == 0 and result.reachable
                )
                if result.reachable and depth is not None and depth > 0:
                    assert result.depth == depth

    def test_find_observation(self, counter):
        reach = ExplicitReachability(counter)
        trace = reach.find_observation(lambda o: o["c"] == 4)
        assert trace is not None
        assert trace[-1]["c"] == 4
        assert counter.is_execution(trace)

    def test_state_space_budget(self, counter):
        from repro.mc import StateSpaceLimitExceeded

        reach = ExplicitReachability(counter, max_states=2)
        with pytest.raises(StateSpaceLimitExceeded):
            reach.explore()

    def test_persistent_engine_sound_for_partial_relations(self):
        """Regression: a probe at depth d on a persistent engine must not
        be constrained by frames unrolled for an earlier, deeper query.

        With a *partial* R (state 1 below has no in-range successor), a
        permanently asserted deeper frame would force depth-d models to
        be extendable and wrongly report dead-end states unreachable."""
        from repro.expr import BOOL, eq, int_sort, ite
        from repro.mc import BoundedModelChecker
        from repro.system import make_system

        x = Var("x", int_sort(0, 7))
        b = Var("b", BOOL)
        # 0 -> 1 or 2; 1 -> x+10 (out of range: dead end); 2 -> 2.
        system = make_system(
            "partial", [x], [b], {"x": 0},
            {x: ite(eq(x, 0), ite(b.prime(), 1, 2), ite(eq(x, 1), x + 10, x))},
        )
        engine = BoundedModelChecker(system)
        # Deep query first: unrolls the shared frames to depth 4.
        assert not engine.check(eq(x, 7), k=4).reachable
        # Shallow query after: x=1 is reachable in one step even though
        # it has no successor.
        result = engine.check(eq(x, 1), k=4)
        assert result.reachable and result.depth == 1

    def test_step_case_sound_after_larger_k(self):
        """Same root cause on the step-case unroller: shrinking k must
        not leave deeper frames active."""
        from repro.expr import BOOL, eq, int_sort, ite, lnot
        from repro.mc import KInductionEngine
        from repro.system import make_system

        x = Var("x", int_sort(0, 15))
        b = Var("b", BOOL)
        # 3 -> 0 -> {1, 2}; 1 -> x+20 (out of range: dead end); else stay.
        system = make_system(
            "partial_step", [x], [b], {"x": 3},
            {
                x: ite(
                    eq(x, 0),
                    ite(b.prime(), 1, 2),
                    ite(eq(x, 1), x + 20, ite(eq(x, 3), 0, x)),
                )
            },
        )
        engine = KInductionEngine(system)
        safe = lnot(eq(x, 1))
        engine.step_case_holds(safe, k=3)  # unrolls step frames to 4
        # The k=1 step case genuinely fails (3 -> 0 -> 1 with 0 |= safe),
        # but the counterexample ends in the dead-end state 1: a stale
        # active frame would demand a successor and flip the verdict.
        from repro.mc import step_case_holds

        assert not step_case_holds(system, safe, k=1)  # fresh reference
        assert not engine.step_case_holds(safe, k=1)

    def test_find_observation_returns_shortest(self, two_phase):
        reach = ExplicitReachability(two_phase)
        trace = reach.find_observation(lambda o: o["cycles"] == 2)
        assert trace is not None
        assert trace[-1]["cycles"] == 2
        assert two_phase.is_execution(trace)
        assert len(trace) == reach.reachable_depth(
            {name: trace[-1][name] for name in ("phase", "cycles")}
        )


class TestSharedReachability:
    def test_identity_cache(self, counter, two_phase):
        from repro.mc import shared_reachability

        assert shared_reachability(counter) is shared_reachability(counter)
        assert shared_reachability(counter) is not shared_reachability(
            two_phase
        )

    def test_cache_dies_with_the_system(self):
        """Regression: the engine cache must not outlive its system.

        The old module-level dict keyed by ``id(system)`` leaked every
        engine forever, and a recycled id could hand a fresh system a
        dead system's reachability table."""
        import gc
        import weakref

        from repro.expr import Var, int_sort, ite
        from repro.mc import shared_reachability
        from repro.system import make_system

        x = Var("x", int_sort(0, 3))
        system = make_system(
            "ephemeral", [x], [], {"x": 0}, {x: ite(x < 3, x + 1, 0)}
        )
        engine = shared_reachability(system)
        assert engine.num_states == 4
        engine_ref = weakref.ref(engine)
        del system, engine
        gc.collect()
        assert engine_ref() is None

    def test_copied_system_gets_its_own_engine(self, counter):
        import copy

        from repro.mc import shared_reachability

        original_engine = shared_reachability(counter)
        clone = copy.copy(counter)
        # A shallow copy duplicates __dict__, including the cached
        # engine attribute; the cache must detect the identity mismatch.
        assert shared_reachability(clone) is not original_engine
        assert shared_reachability(clone)._system is clone


class TestEngineRegistry:
    def test_shared_kinduction_identity(self, counter, latch):
        engine = shared_kinduction(counter)
        assert isinstance(engine, KInductionEngine)
        assert shared_kinduction(counter) is engine
        assert shared_kinduction(latch) is not engine

    def test_kinduction_factory_uses_shared_engine(self, counter):
        first = build_spurious_checker(counter, "kinduction")
        second = build_spurious_checker(counter, "kinduction")
        assert first._engine is second._engine
        assert first._engine is shared_kinduction(counter)

    @pytest.mark.parametrize("engine", ["pdr2", "ic3"])
    def test_unknown_engine_message_lists_the_engines(self, counter, engine):
        assert SPURIOUS_ENGINES == ("explicit", "bdd", "kinduction", "none")
        with pytest.raises(ValueError) as excinfo:
            build_spurious_checker(counter, engine)
        assert str(excinfo.value) == (
            f"unknown spurious_engine {engine!r} "
            "(expected 'explicit', 'bdd', 'kinduction' or 'none')"
        )


class TestSpuriousness:
    def test_state_equality_formula(self, cooler):
        v = Valuation({"temp": 40, "s": 1})
        full = state_equality_formula(cooler, v, state_only=False)
        part = state_equality_formula(cooler, v, state_only=True)
        from repro.expr import holds

        assert holds(full, {"temp": 40, "s": 1})
        assert not holds(full, {"temp": 39, "s": 1})
        assert holds(part, {"temp": 0, "s": 1})

    def test_explicit_valid_for_reachable(self, counter):
        checker = ExplicitSpuriousness(counter)
        verdict = checker.classify(Valuation({"c": 3, "run": 1}), k=5)
        assert verdict is SpuriousVerdict.VALID

    def test_explicit_spurious_for_unreachable(self, two_phase):
        # cycles can only advance when phase flips B->A; phase=A with
        # cycles=1 IS reachable, but nothing is unreachable in this tiny
        # system -- use a corrupted composite instead.
        x = Var("x", int_sort(0, 3))
        from repro.expr import ite

        system = make_system(
            "evens", [x], [], {"x": 0}, {x: ite(x < 2, x + 2, x)}
        )
        checker = ExplicitSpuriousness(system)
        assert checker.classify(Valuation({"x": 1}), k=4) is SpuriousVerdict.SPURIOUS
        assert checker.classify(Valuation({"x": 2}), k=4) is SpuriousVerdict.VALID

    def test_explicit_inconclusive_beyond_k(self, counter):
        checker = ExplicitSpuriousness(counter, respect_k=True)
        verdict = checker.classify(Valuation({"c": 5, "run": 1}), k=2)
        assert verdict is SpuriousVerdict.INCONCLUSIVE

    def test_explicit_exact_mode_ignores_k(self, counter):
        checker = ExplicitSpuriousness(counter, respect_k=False)
        verdict = checker.classify(Valuation({"c": 5, "run": 1}), k=2)
        assert verdict is SpuriousVerdict.VALID

    def test_kinduction_valid(self, counter):
        checker = KInductionSpuriousness(counter)
        verdict = checker.classify(Valuation({"c": 2, "run": 1}), k=3)
        assert verdict is SpuriousVerdict.VALID

    def test_kinduction_spurious(self):
        x = Var("x", int_sort(0, 3))
        from repro.expr import ite

        system = make_system(
            "evens", [x], [], {"x": 0}, {x: ite(x < 2, x + 2, x)}
        )
        checker = KInductionSpuriousness(system)
        # x=1 unreachable AND 1-step-inductively so: from x even you reach even.
        # With state pinning only, x=3 is also never reachable; induction from
        # arbitrary x=1 state steps to x=3, then stays -- check verdicts.
        assert checker.classify(Valuation({"x": 1}), k=2) in (
            SpuriousVerdict.SPURIOUS,
            SpuriousVerdict.INCONCLUSIVE,
        )

    def test_kinduction_agrees_with_explicit_on_valid(self, counter):
        explicit = ExplicitSpuriousness(counter, respect_k=False)
        induction = KInductionSpuriousness(counter)
        for c in range(6):
            v = Valuation({"c": c, "run": 1})
            explicit_verdict = explicit.classify(v, k=6)
            induction_verdict = induction.classify(v, k=6)
            # k = diameter+1: k-induction must agree exactly.
            assert explicit_verdict == induction_verdict == SpuriousVerdict.VALID


class TestHarnesses:
    def test_condition_harness_render(self, cooler):
        mode = _mode_var(cooler)
        harness = condition_harness(mode.eq("Off"), mode.eq("On"))
        text = harness.render()
        assert "assume(" in text and "assert(" in text and "X' = f(X)" in text

    def test_spurious_harness_asserts_negation(self, cooler):
        harness = spurious_harness(cooler, Valuation({"temp": 40, "s": 1}))
        assert "Fig. 3b" in harness.kind

    def test_run_spurious_harness(self, counter):
        result = run_spurious_harness(
            counter, Valuation({"c": 2, "run": 0}), k=3
        )
        assert result.outcome is InductionOutcome.BASE_VIOLATED

    def test_strengthened_assumption_excludes_state(self, counter):
        from repro.expr import holds

        count = counter.var_by_name("c")
        stronger = strengthened_assumption(
            count <= 4, counter, Valuation({"c": 2, "run": 0})
        )
        assert not holds(stronger, {"c": 2, "run": 1})
        assert holds(stronger, {"c": 3, "run": 1})
