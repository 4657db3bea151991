"""Tests for BDD-based symbolic reachability.

The explicit-state engine is the reference: both engines must agree on
reachable sets, depths, diameters and spuriousness verdicts across the
fixture systems and a selection of benchmarks.
"""

import pytest

from repro.mc import ExplicitReachability, ExplicitSpuriousness, SpuriousVerdict
from repro.mc.symbolic import (
    SharedBddContext,
    SymbolicReachability,
    SymbolicSpuriousness,
)
from repro.system import Valuation


def _all_state_valuations(system):
    import itertools

    from repro.expr import BoolSort, IntSort

    spaces = []
    for var in system.state_vars:
        if isinstance(var.sort, BoolSort):
            spaces.append([0, 1])
        elif isinstance(var.sort, IntSort):
            spaces.append(list(range(var.sort.lo, var.sort.hi + 1)))
        else:
            spaces.append(list(range(var.sort.cardinality)))
    names = system.state_names
    return [
        Valuation(dict(zip(names, combo, strict=True)))
        for combo in itertools.product(*spaces)
    ]


class TestAgainstExplicit:
    @pytest.mark.parametrize(
        "fixture", ["cooler", "counter", "latch", "two_phase"]
    )
    def test_same_reachable_set(self, fixture, request):
        system = request.getfixturevalue(fixture)
        explicit = ExplicitReachability(system)
        symbolic = SymbolicReachability(system)
        for state in _all_state_valuations(system):
            assert symbolic.is_state_reachable(state) == explicit.is_state_reachable(
                state
            ), state

    @pytest.mark.parametrize("fixture", ["cooler", "counter", "two_phase"])
    def test_same_depths(self, fixture, request):
        system = request.getfixturevalue(fixture)
        explicit = ExplicitReachability(system)
        symbolic = SymbolicReachability(system)
        for state in _all_state_valuations(system):
            assert symbolic.reachable_depth(state) == explicit.reachable_depth(
                state
            ), state

    @pytest.mark.parametrize("fixture", ["cooler", "counter", "two_phase"])
    def test_same_counts_and_diameter(self, fixture, request):
        system = request.getfixturevalue(fixture)
        explicit = ExplicitReachability(system)
        symbolic = SymbolicReachability(system)
        assert symbolic.num_reachable_states() == explicit.num_states
        assert symbolic.diameter == explicit.diameter

    def test_unreachable_states_excluded(self):
        from repro.expr import Var, int_sort, ite
        from repro.system import make_system

        x = Var("x", int_sort(0, 7))
        evens = make_system(
            "evens_bdd", [x], [], {"x": 0}, {x: ite(x < 6, x + 2, 0)}
        )
        symbolic = SymbolicReachability(evens)
        assert symbolic.num_reachable_states() == 4
        assert symbolic.is_state_reachable({"x": 4})
        assert not symbolic.is_state_reachable({"x": 3})


def _library_names():
    from repro.stateflow.library import benchmark_names

    return benchmark_names()


class TestOnBenchmarks:
    # The explicit engine drives each system with its declared input
    # samples, the BDD engine with the full input space.  They reach the
    # same states wherever the samples cover every behaviour.  Here
    # ``out`` latches a raw sensor reading, so the 25 sampled readings
    # reach 35 of the 819 states the full 0..100 range reaches.
    FULL_INPUT_COUNTS = {"ModelingARedundantSensorPairUsingAtomicSubchart": 819}

    @pytest.mark.parametrize("name", _library_names())
    def test_counts_match_explicit(self, name):
        from repro.mc import shared_reachability
        from repro.stateflow.library import get_benchmark

        system = get_benchmark(name).system
        explicit = shared_reachability(system)
        symbolic = SymbolicReachability(system)
        for state in explicit.reachable_states():
            depth = symbolic.reachable_depth(state)
            assert depth is not None, state
            assert depth <= explicit.reachable_depth(state), state
        assert symbolic.diameter == explicit.diameter
        assert symbolic.num_reachable_states() == self.FULL_INPUT_COUNTS.get(
            name, explicit.num_states
        )


class TestPartitionedVsMonolithic:
    """The partitioned image must be *bit-identical* to the monolithic one.

    Both pipelines compute ``∃ current, inputs: R ∧ frontier`` inside one
    manager (one fixed variable order), so by ROBDD canonicity equal
    functions are equal node ids -- asserted for every onion layer of
    every library system, which makes diameters, layer contents and
    model counts identical by construction.
    """

    @pytest.mark.parametrize("name", _library_names())
    def test_bit_identical_onion_layers(self, name):
        from repro.stateflow.library import get_benchmark

        system = get_benchmark(name).system
        ctx = SharedBddContext(system)
        manager = ctx.manager
        layer = ctx.compiler.state_bdd(system.init_state)
        reached = layer
        diameter = 0
        while True:
            partitioned = ctx.image_once(layer, partitioned=True)
            monolithic = ctx.image_once(layer, partitioned=False)
            assert partitioned == monolithic, (name, diameter)
            fresh = manager.apply_and(partitioned, manager.apply_not(reached))
            if fresh == manager.FALSE:
                break
            reached = manager.apply_or(reached, fresh)
            layer = fresh
            diameter += 1
        # The shared engine (cached, partitioned path) agrees with the
        # fixpoint just computed step by step.
        engine = SymbolicReachability(system, context=ctx)
        assert engine.diameter == diameter
        assert engine.reached_bdd == reached


class TestSymbolicSpuriousness:
    def test_verdicts_match_explicit(self, counter):
        explicit = ExplicitSpuriousness(counter, respect_k=True)
        symbolic = SymbolicSpuriousness(counter, respect_k=True)
        for value in range(6):
            for k in (1, 3, 6):
                state = Valuation({"c": value, "run": 1})
                assert symbolic.classify(state, k) == explicit.classify(
                    state, k
                ), (value, k)

    def test_spurious_verdict(self):
        from repro.expr import Var, int_sort, ite
        from repro.system import make_system

        x = Var("x", int_sort(0, 7))
        evens = make_system(
            "evens_bdd2", [x], [], {"x": 0}, {x: ite(x < 6, x + 2, 0)}
        )
        checker = SymbolicSpuriousness(evens, respect_k=False)
        assert checker.classify(Valuation({"x": 5}), k=3) is SpuriousVerdict.SPURIOUS
        assert checker.classify(Valuation({"x": 6}), k=3) is SpuriousVerdict.VALID

    def test_drop_in_for_active_learning(self, cooler):
        """The BDD engine can drive the full loop via the oracle API."""
        from repro.core.oracle import CompletenessOracle
        from repro.core.conditions import extract_conditions
        from repro.learn import T2MLearner
        from repro.traces import random_traces

        learner = T2MLearner(
            mode_vars=["s"], variables={v.name: v for v in cooler.variables}
        )
        model = learner.learn(random_traces(cooler, count=20, length=20, seed=0))
        oracle = CompletenessOracle(
            cooler, SymbolicSpuriousness(cooler), k=10
        )
        report = oracle.check_all(extract_conditions(model))
        assert report.alpha == 1.0
