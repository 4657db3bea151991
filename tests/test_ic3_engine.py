"""Unit tests for the IC3/PDR proof engine and its ``"ic3"`` registration.

Covers: definite verdicts (never inconclusive, no bound), inductiveness
of extracted invariants, unsat-core-driven generalization producing
region exclusions that respect reachability, frame persistence and the
invariant fast path across queries, the shared per-system engine memos
(``shared_ic3`` / ``shared_kinduction``), the input-space semantics
switch, and the oracle's proof-driven strengthening path.
"""

import pytest

from repro.core.conditions import Condition, ConditionKind
from repro.core.oracle import make_oracle
from repro.expr import TRUE, land, lnot
from repro.expr.eval import holds
from repro.expr.subst import to_primed
from repro.mc import (
    SPURIOUS_ENGINES,
    build_spurious_checker,
    shared_ic3,
    shared_kinduction,
    shared_reachability,
)
from repro.mc.ic3 import Ic3Engine, Ic3Spuriousness
from repro.mc.kinduction import KInductionEngine
from repro.mc.verdicts import SpuriousVerdict
from repro.smt.solver import is_satisfiable
from repro.stateflow.library import get_benchmark
from repro.system.valuation import Valuation


def _step(assumption, conclusion) -> Condition:
    return Condition(
        kind=ConditionKind.STEP,
        state=0,
        state_name="q",
        assumption=assumption,
        conclusion=conclusion,
    )


@pytest.fixture
def evens():
    """Counter stepping by two: odd values are unreachable."""
    from repro.expr import BOOL, Var, int_sort, ite
    from repro.system import make_system

    run = Var("run", BOOL)
    count = Var("c", int_sort(0, 6))
    next_count = ite(run.prime(), ite(count < 5, count + 2, count), 0)
    return make_system(
        name="evens",
        state_vars=[count],
        input_vars=[run],
        init_state={"c": 0},
        next_exprs={count: next_count},
    )


class TestIc3Engine:
    def test_reachable_states_are_valid(self, counter):
        engine = Ic3Engine(counter)
        for c in (0, 1, 2, 5):
            assert engine.prove_unreachable({"c": c}).reachable, c

    def test_initial_state_is_reachable_without_solving(self, counter):
        engine = Ic3Engine(counter)
        result = engine.prove_unreachable({"c": 0})
        assert result.reachable
        assert engine.stats.solver_checks == 0

    def test_two_phase_unreachable_region(self, two_phase):
        # cycles only advances while leaving phase B: phase=B/cycles=3
        # is reachable, but explicit BFS knows exactly which pairs are.
        engine = Ic3Engine(two_phase)
        reach = shared_reachability(two_phase)
        for phase in (0, 1):
            for cycles in range(4):
                state = {"phase": phase, "cycles": cycles}
                expected = reach.is_state_reachable(state)
                result = engine.prove_unreachable(state)
                assert result.reachable == expected, state

    def test_invariant_is_inductive(self, evens):
        engine = Ic3Engine(evens)
        reach = shared_reachability(evens)
        # Force at least one unreachability proof so a frame converges.
        for odd in (1, 3, 5):
            assert engine.prove_unreachable({"c": odd}).proved
        invariant = engine.invariant()
        assert invariant is not None
        # Init => INV
        assert not is_satisfiable(land(evens.init, lnot(invariant)))
        # INV /\ R => INV'
        assert not is_satisfiable(
            land(invariant, evens.trans, lnot(to_primed(invariant)))
        )
        # INV holds on every reachable state.
        for state in reach.reachable_states():
            assert holds(invariant, dict(state))

    def test_refuting_cube_is_a_sound_region(self, evens):
        engine = Ic3Engine(evens)
        reach = shared_reachability(evens)
        for odd in (1, 3, 5):
            result = engine.prove_unreachable({"c": odd})
            assert result.proved
            assert result.refuting_cube is not None
            clause = engine.clause_expr(result.refuting_cube)
            # The clause excludes the queried state...
            assert not holds(clause, {"c": odd})
            # ...but no reachable state.
            for reachable_state in reach.reachable_states():
                assert holds(clause, dict(reachable_state))

    def test_frames_persist_and_invariant_fast_path(self, evens):
        engine = Ic3Engine(evens)
        assert engine.prove_unreachable({"c": 3}).proved
        checks_after_first = engine.stats.solver_checks
        repeat = engine.prove_unreachable({"c": 3})
        assert repeat.proved and repeat.from_cache
        assert engine.stats.solver_checks == checks_after_first
        assert engine.stats.invariant_hits >= 1

    def test_frames_never_hold_duplicate_clauses(self, two_phase, evens):
        """Propagation must not re-insert a clause a frame already has
        (the lower-frame copy of a twice-blocked subcube would otherwise
        be moved forward into its sibling)."""
        import itertools

        from repro.expr.types import sort_values

        for system in (two_phase, evens):
            engine = Ic3Engine(system)
            for combo in itertools.product(
                *(sort_values(v.sort) for v in system.state_vars)
            ):
                engine.prove_unreachable(dict(zip(system.state_names, combo, strict=True)))
            for frame in engine._frames:
                assert len(frame) == len(set(frame))

    def test_queries_ignore_inputs_in_observations(self, counter):
        engine = Ic3Engine(counter)
        observation = Valuation({"run": 1, "c": 3})
        assert engine.prove_unreachable(observation).reachable

    def test_input_space_semantics(self):
        """``samples`` matches the explicit BFS; ``free`` is the full
        machine, which can reach strictly more states when the declared
        sample set under-covers the input space."""
        system = get_benchmark(
            "ModelingARedundantSensorPairUsingAtomicSubchart"
        ).system
        reach = shared_reachability(system)
        state = dict(
            zip(system.state_names, (0, 0, 0, 42), strict=True)
        )  # a latched raw reading outside the 25 sampled values
        assert not reach.is_state_reachable(state)
        sampled = shared_ic3(system)
        free = shared_ic3(system, input_space="free")
        assert sampled is not free
        assert sampled.prove_unreachable(state).proved
        assert free.prove_unreachable(state).reachable

    def test_rejects_unknown_input_space(self, counter):
        with pytest.raises(ValueError):
            Ic3Engine(counter, input_space="everything")


class TestIc3Spuriousness:
    def test_never_inconclusive(self, two_phase):
        checker = Ic3Spuriousness(two_phase)
        for phase in (0, 1):
            for cycles in range(4):
                observation = Valuation(
                    {"tick": 0, "phase": phase, "cycles": cycles}
                )
                # k is ignored; pass an absurdly small bound on purpose.
                verdict = checker.classify(observation, k=1)
                assert verdict in (
                    SpuriousVerdict.SPURIOUS,
                    SpuriousVerdict.VALID,
                )

    def test_agrees_with_exact_explicit(self, two_phase):
        checker = Ic3Spuriousness(two_phase)
        explicit = build_spurious_checker(
            two_phase, "explicit", respect_k=False
        )
        for phase in (0, 1):
            for cycles in range(4):
                observation = Valuation(
                    {"tick": 1, "phase": phase, "cycles": cycles}
                )
                assert checker.classify(observation, k=1) is explicit.classify(
                    observation, k=1
                )

    def test_exclusion_clause_follows_verdicts(self, evens):
        checker = Ic3Spuriousness(evens)
        spurious_obs = Valuation({"run": 0, "c": 3})
        assert checker.classify(spurious_obs, k=1) is SpuriousVerdict.SPURIOUS
        clause = checker.spurious_exclusion()
        assert clause is not None
        assert not holds(clause, dict(spurious_obs))
        valid_obs = Valuation({"run": 0, "c": 0})
        assert checker.classify(valid_obs, k=1) is SpuriousVerdict.VALID
        assert checker.spurious_exclusion() is None


class TestEngineRegistry:
    def test_ic3_is_registered(self):
        assert "ic3" in SPURIOUS_ENGINES

    def test_build_spurious_checker_ic3(self, counter):
        checker = build_spurious_checker(counter, "ic3")
        assert isinstance(checker, Ic3Spuriousness)
        again = build_spurious_checker(counter, "ic3")
        assert checker.engine is again.engine  # shared_ic3 memo

    def test_shared_ic3_identity(self, counter, latch):
        assert shared_ic3(counter) is shared_ic3(counter)
        assert shared_ic3(counter) is not shared_ic3(latch)

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

    def test_unknown_engine_message_lists_ic3(self, counter):
        with pytest.raises(ValueError, match="ic3"):
            build_spurious_checker(counter, "pdr2")


class TestOracleStrengthening:
    def _churny_conditions(self, system):
        conditions = []
        for var in system.state_vars:
            init_value = system.init_state[var.name]
            conditions.append(_step(var.eq(init_value), var.eq(init_value)))
            conditions.append(_step(TRUE, lnot(var.eq(init_value))))
        return conditions

    def test_ic3_oracle_agrees_and_strengthens_smarter(self):
        bench = get_benchmark("ModelingALaunchAbortSystem")
        system = bench.system
        conditions = self._churny_conditions(system)
        ic3_oracle = make_oracle(
            system, "ic3", bench.k, max_strengthenings=50
        )
        blind = make_oracle(
            system,
            "explicit",
            bench.k,
            respect_k=False,
            max_strengthenings=50,
        )
        ic3_report = ic3_oracle.check_all(conditions)
        blind_report = blind.check_all(conditions)
        assert [o.holds for o in ic3_report.outcomes] == [
            o.holds for o in blind_report.outcomes
        ]
        assert ic3_report.alpha == blind_report.alpha
        # Region exclusions must never need MORE rounds than one-state
        # exclusions, and on this workload they need strictly fewer.
        assert ic3_report.total_spurious <= blind_report.total_spurious
        assert ic3_report.total_spurious < blind_report.total_spurious

    def test_canonical_mode_stays_blind_and_deterministic(self, two_phase):
        conditions = self._churny_conditions(two_phase)
        reference = make_oracle(
            two_phase, "explicit", 5, canonical=True, respect_k=False
        ).check_all(conditions)
        ic3_canonical = make_oracle(
            two_phase, "ic3", 5, canonical=True
        ).check_all(conditions)
        # Canonical ic3 reports are bit-for-bit the canonical explicit
        # (respect_k=False) reports: same verdicts, same canonical
        # counterexamples, same blind strengthening chain.
        assert ic3_canonical.outcomes == reference.outcomes
