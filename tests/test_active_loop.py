"""End-to-end tests of the active learning loop (the paper's algorithm).

The key guarantees exercised here:

* termination with α = 1 on finite systems;
* Theorem 1: the final model admits every system execution trace;
* the language grows monotonically across iterations;
* invariants extracted from the final model hold on the implementation;
* budget expiry returns the model-so-far, like the paper's timeout rows.
"""

import random

import pytest

from repro.core import (
    ActiveLearner,
    render_invariants,
    validate_invariants,
)
from repro.learn import KTailsLearner, SatDfaLearner, T2MLearner
from repro.traces import TraceSet, random_traces


def t2m_for(system):
    return T2MLearner(
        mode_vars=list(system.state_names),
        variables={v.name: v for v in system.variables},
    )


def run_active(system, k=10, traces=None, **kwargs):
    learner = kwargs.pop("learner", None) or t2m_for(system)
    active = ActiveLearner(system, learner, k=k, **kwargs)
    if traces is None:
        traces = random_traces(system, count=10, length=10, seed=1)
    return active.run(traces)


class TestConvergence:
    def test_cooler_converges(self, cooler):
        result = run_active(cooler)
        assert result.converged
        assert result.alpha == 1.0
        assert result.num_states == 2
        assert result.iterations >= 1

    def test_counter_converges(self, counter):
        result = run_active(counter, k=6)
        assert result.converged
        assert result.num_states == 6  # one per counter value

    def test_two_phase_converges(self, two_phase):
        result = run_active(two_phase, k=10)
        assert result.converged
        assert result.alpha == 1.0

    def test_latch_converges(self, latch):
        result = run_active(latch, k=4)
        assert result.converged
        assert result.num_states == 2

    def test_converges_from_tiny_trace_set(self, cooler):
        # Starve the learner: a single length-1 trace.  Active learning
        # must recover all behaviour through counterexamples.
        traces = random_traces(cooler, count=1, length=1, seed=0)
        result = run_active(cooler, traces=traces)
        assert result.converged
        assert result.iterations >= 2  # must have refined at least once

    def test_converges_with_ktails(self, cooler):
        learner = KTailsLearner(
            k=1,
            mode_vars=list(cooler.state_names),
            variables={v.name: v for v in cooler.variables},
        )
        result = run_active(cooler, learner=learner)
        assert result.converged

    def test_converges_with_sat_dfa(self, cooler):
        learner = SatDfaLearner(
            mode_vars=list(cooler.state_names),
            variables={v.name: v for v in cooler.variables},
        )
        result = run_active(cooler, learner=learner)
        assert result.converged  # trivially permissive model: α=1 quickly

    def test_kinduction_engine_converges(self, cooler):
        result = run_active(cooler, spurious_engine="kinduction", k=3)
        assert result.converged

    def test_bdd_engine_converges(self, cooler):
        result = run_active(cooler, spurious_engine="bdd", k=3)
        assert result.converged


class TestTheorem1:
    """α = 1 implies trace inclusion (proved in the paper; tested here)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_final_model_admits_fresh_traces(self, cooler, seed):
        result = run_active(cooler)
        fresh = random_traces(cooler, count=20, length=30, seed=100 + seed)
        assert result.model.admits_all(fresh)

    def test_final_model_admits_fresh_traces_counter(self, counter):
        result = run_active(counter, k=6)
        fresh = random_traces(counter, count=30, length=40, seed=77)
        assert result.model.admits_all(fresh)

    def test_final_model_admits_fresh_traces_two_phase(self, two_phase):
        result = run_active(two_phase, k=10)
        fresh = random_traces(two_phase, count=30, length=40, seed=78)
        assert result.model.admits_all(fresh)


class TestIterationBehaviour:
    def test_language_grows_monotonically(self, counter):
        """L(M_j) ⊇ L(M_j-1) ∪ T_CE (paper §IV-B.3), observed through
        admission of all traces seen so far."""
        traces = random_traces(counter, count=3, length=3, seed=5)
        learner = t2m_for(counter)
        active = ActiveLearner(counter, learner, k=6)
        result = active.run(traces)
        # Recorded per-iteration model sizes never shrink for the mode
        # learner (states are observed modes).
        sizes = [record.num_states for record in result.records]
        assert sizes == sorted(sizes)

    def test_records_cover_iterations(self, cooler):
        result = run_active(cooler)
        assert len(result.records) == result.iterations
        assert result.records[-1].alpha == result.alpha

    def test_new_traces_zero_on_final_iteration(self, cooler):
        result = run_active(cooler)
        assert result.records[-1].violations == 0
        assert result.records[-1].new_traces == 0

    def test_time_accounting(self, cooler):
        result = run_active(cooler)
        assert result.total_seconds > 0
        assert 0 <= result.percent_learning <= 100
        assert result.learn_seconds + result.check_seconds <= result.total_seconds + 0.1


class TestInvariants:
    def test_invariants_extracted_on_convergence(self, cooler):
        result = run_active(cooler)
        assert result.invariants
        assert validate_invariants(cooler, result.invariants)

    def test_invariants_render(self, cooler):
        result = run_active(cooler)
        text = render_invariants(result.invariants)
        assert "⟹" in text
        assert "[1]" in text

    def test_no_invariants_without_convergence(self, cooler):
        result = run_active(cooler, budget_seconds=0.0)
        assert result.timed_out
        assert result.invariants == []


class TestBudget:
    def test_zero_budget_times_out(self, cooler):
        result = run_active(cooler, budget_seconds=0.0)
        assert result.timed_out
        assert not result.converged
        assert result.model is not None

    def test_max_iterations_cap(self, counter):
        traces = random_traces(counter, count=1, length=1, seed=0)
        learner = t2m_for(counter)
        active = ActiveLearner(counter, learner, k=6, max_iterations=1)
        result = active.run(traces)
        assert result.iterations == 1
        assert not result.converged

    def test_bad_spurious_engine_rejected(self, cooler):
        with pytest.raises(ValueError, match="spurious_engine"):
            ActiveLearner(cooler, t2m_for(cooler), k=5, spurious_engine="bogus")


class TestRefinement:
    def test_splice_preserves_prefix(self, cooler):
        from repro.core import splice_counterexample
        from repro.system import Valuation
        from repro.traces import Trace

        base = random_traces(cooler, count=3, length=5, seed=3)
        mode = cooler.var_by_name("s")
        v_t = Valuation({"temp": 40, "s": 1})
        v_t1 = Valuation({"temp": 10, "s": 0})
        spliced = splice_counterexample(base, mode.eq("On"), (v_t, v_t1))
        assert spliced
        for trace in spliced:
            assert trace[-1] == v_t1
            assert trace[-2] == v_t

    def test_splice_falls_back_to_pair(self, cooler):
        from repro.core import splice_counterexample
        from repro.system import Valuation
        from repro.traces import Trace, TraceSet

        v_t = Valuation({"temp": 40, "s": 1})
        v_t1 = Valuation({"temp": 10, "s": 0})
        mode = cooler.var_by_name("s")
        spliced = splice_counterexample(TraceSet(), mode.eq("On"), (v_t, v_t1))
        assert spliced == [Trace([v_t, v_t1])]

    def test_spliced_traces_rejected_by_old_model(self, cooler):
        """T_CE ∩ L(M_j-1) = ∅ (§IV-B.3)."""
        traces = random_traces(cooler, count=1, length=1, seed=0)
        learner = t2m_for(cooler)
        # Run one manual iteration.
        from repro.core import (
            CompletenessOracle,
            counterexample_traces,
            extract_conditions,
        )
        from repro.mc import ExplicitSpuriousness

        model = learner.learn(traces)
        oracle = CompletenessOracle(
            cooler, ExplicitSpuriousness(cooler), k=10
        )
        report = oracle.check_all(extract_conditions(model))
        if report.alpha == 1.0:
            pytest.skip("initial trace set already complete for this seed")
        for outcome in report.violations:
            for trace in counterexample_traces(traces, outcome):
                assert not model.admits(trace)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "name",
        ["ModelingALaunchAbortSystem", "HomeClimateControlUsingTheTruthtableBlock"],
    )
    def test_splice_matches_holds_scan(self, name, seed):
        """The compiled scan splices exactly what a ``holds()`` scan does,
        for the learned model's assumptions, strengthened variants that
        exclude one valuation, and single-valuation conjunctions."""
        from repro.core import extract_conditions, splice_counterexample
        from repro.evaluation import default_learner
        from repro.expr import eq, free_vars, land, lnot
        from repro.stateflow.library import get_benchmark

        bench = get_benchmark(name)
        traces = random_traces(bench.system, count=10, length=10, seed=seed)
        model = default_learner(bench, bench.fsas[0]).learn(traces)
        learned = [
            c.assumption
            for c in extract_conditions(model)
            if c.assumption is not None
        ]
        rng = random.Random(seed)
        observations = [o for trace in traces for o in trace]
        assumptions = list(learned)
        for sample in rng.sample(observations, 5):
            point = land(
                *(eq(var, sample[var.name]) for var in bench.system.variables)
            )
            assumptions.append(point)
            assumptions.append(land(rng.choice(learned), lnot(point)))
        assert all(len(free_vars(a)) > 1 for a in assumptions[len(learned):])
        for assumption in assumptions:
            pair = (rng.choice(observations), rng.choice(observations))
            assert splice_counterexample(
                traces, assumption, pair
            ) == reference_splice(traces, assumption, pair)

    def test_splice_rejects_non_boolean_assumption(self, cooler):
        from repro.core import splice_counterexample
        from repro.system import Valuation

        base = random_traces(cooler, count=3, length=5, seed=3)
        pair = (Valuation({"temp": 40, "s": 1}), Valuation({"temp": 10, "s": 0}))
        with pytest.raises(TypeError):
            splice_counterexample(base, cooler.var_by_name("temp"), pair)

    def test_splice_missing_variable_raises_eval_error(self, cooler):
        from repro.core import splice_counterexample
        from repro.expr import EvalError, Var, int_sort
        from repro.system import Valuation

        base = random_traces(cooler, count=3, length=5, seed=3)
        pair = (Valuation({"temp": 40, "s": 1}), Valuation({"temp": 10, "s": 0}))
        unbound = Var("pressure", int_sort(0, 9)) > 3
        with pytest.raises(EvalError):
            splice_counterexample(base, unbound, pair)


def reference_splice(traces, assumption, counterexample):
    """σ_CE with one ``holds()`` call per scanned observation."""
    from repro.expr import holds
    from repro.traces import Trace

    v_t, v_t1 = counterexample
    spliced = []
    for trace in traces:
        for index, observation in enumerate(trace):
            if holds(assumption, observation):
                candidate = Trace(trace.observations[:index] + (v_t, v_t1))
                if candidate not in spliced:
                    spliced.append(candidate)
                break
    return spliced or [Trace([v_t, v_t1])]
