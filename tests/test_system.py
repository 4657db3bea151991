"""Tests for the system substrate: valuations, semantics, simulation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import BOOL, Var, eq, holds, int_sort, ite
from repro.system import Valuation, make_system


class TestValuation:
    def test_mapping_protocol(self):
        v = Valuation({"a": 1, "b": 2})
        assert v["a"] == 1
        assert len(v) == 2
        assert set(v) == {"a", "b"}
        assert dict(v) == {"a": 1, "b": 2}

    def test_kwargs_constructor(self):
        assert Valuation(a=1)["a"] == 1

    def test_hashable_and_equal(self):
        assert Valuation({"a": 1, "b": 2}) == Valuation({"b": 2, "a": 1})
        assert hash(Valuation(a=1)) == hash(Valuation(a=1))

    def test_equality_with_plain_dict(self):
        assert Valuation(a=1) == {"a": 1}

    def test_missing_key(self):
        with pytest.raises(KeyError):
            Valuation(a=1)["b"]

    def test_project(self):
        v = Valuation({"a": 1, "b": 2, "c": 3})
        assert v.project(["a", "c"]) == Valuation({"a": 1, "c": 3})

    def test_primed_env(self):
        assert Valuation(a=1).primed() == {"a'": 1}

    def test_merged_with(self):
        merged = Valuation(a=1).merged_with({"a": 5, "b": 2})
        assert merged == Valuation({"a": 5, "b": 2})

    def test_key_tuple(self):
        v = Valuation({"a": 1, "b": 2})
        assert v.key(("b", "a")) == (2, 1)


class TestSystemConstruction:
    def test_variables_order(self, cooler):
        assert [v.name for v in cooler.variables] == ["temp", "s"]

    def test_missing_next_expr_rejected(self):
        x = Var("x", int_sort(0, 1))
        with pytest.raises(ValueError, match="no next-state"):
            make_system("bad", [x], [], {"x": 0}, {})

    def test_next_expr_for_non_state_variable_rejected(self):
        # Such a system used to construct: step() folded u into the state
        # and observe() let it shadow the input consumed, so running it on
        # u = 0, 0, 1 reported u = 1, 1, 1.
        x = Var("x", int_sort(0, 1))
        u = Var("u", BOOL)
        with pytest.raises(ValueError, match="non-state variables \\['u'\\]"):
            make_system(
                "bad", [x], [u], {"x": 0}, {x: ite(u.prime(), 1, 0), u: eq(x, 0)}
            )

    def test_state_input_overlap_rejected(self):
        x = Var("x", int_sort(0, 1))
        with pytest.raises(ValueError, match="overlap"):
            make_system("bad", [x], [x], {"x": 0}, {x: x})

    def test_unprimed_input_in_next_rejected(self):
        x = Var("x", int_sort(0, 1))
        inp = Var("i", int_sort(0, 1))
        with pytest.raises(ValueError, match="primed"):
            make_system("bad", [x], [inp], {"x": 0}, {x: inp})

    def test_primed_state_in_next_rejected(self):
        x = Var("x", int_sort(0, 1))
        y = Var("y", int_sort(0, 1))
        with pytest.raises(ValueError, match="primed non-input"):
            make_system("bad", [x, y], [], {"x": 0, "y": 0}, {x: y.prime(), y: y})

    def test_missing_init_value_rejected(self):
        x = Var("x", int_sort(0, 1))
        with pytest.raises(ValueError, match="init_state missing"):
            make_system("bad", [x], [], {}, {x: x})

    def test_var_by_name(self, cooler):
        assert cooler.var_by_name("temp").name == "temp"
        with pytest.raises(KeyError):
            cooler.var_by_name("nope")


class TestSymbolicViews:
    def test_init_characterises_initial_state(self, cooler):
        assert holds(cooler.init, {"s": 0})
        assert not holds(cooler.init, {"s": 1})

    def test_trans_is_functional(self, cooler):
        env = {"s": 0, "temp": 0, "temp'": 45, "s'": 1}
        assert holds(cooler.trans, env)
        env["s'"] = 0
        assert not holds(cooler.trans, env)

    def test_trans_matches_step(self, counter):
        # R(v, v') holds exactly when step() produces v's state part.
        env = {"c": 2, "run": 1, "run'": 1, "c'": 3}
        assert holds(counter.trans, env)
        stepped = counter.step({"c": 2}, {"run": 1})
        assert stepped["c"] == 3


class TestConcreteSemantics:
    def test_cooler_step(self, cooler):
        assert cooler.step({"s": 0}, {"temp": 45})["s"] == 1
        assert cooler.step({"s": 1}, {"temp": 10})["s"] == 0
        assert cooler.step({"s": 1}, {"temp": 30})["s"] == 0  # threshold strict

    def test_counter_saturates(self, counter):
        state = {"c": 0}
        for _ in range(8):
            state = counter.step(state, {"run": 1})
        assert state["c"] == 5

    def test_counter_resets(self, counter):
        state = counter.step({"c": 4}, {"run": 0})
        assert state["c"] == 0

    def test_run_produces_observations(self, cooler):
        trace = cooler.run([{"temp": 45}, {"temp": 10}])
        assert trace[0] == Valuation({"temp": 45, "s": 1})
        assert trace[1] == Valuation({"temp": 10, "s": 0})

    def test_is_execution_accepts_own_runs(self, two_phase):
        rng = random.Random(7)
        inputs = [{"tick": rng.randint(0, 1)} for _ in range(20)]
        trace = two_phase.run(inputs)
        assert two_phase.is_execution(trace)

    def test_is_execution_rejects_corrupted(self, two_phase):
        trace = two_phase.run([{"tick": 1}, {"tick": 1}, {"tick": 1}])
        corrupted = list(trace)
        bad = corrupted[1].as_dict()
        bad["cycles"] = 3  # cannot have 3 cycles after two ticks
        corrupted[1] = Valuation(bad)
        assert not two_phase.is_execution(corrupted)

    def test_empty_execution(self, cooler):
        assert cooler.is_execution([])

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_symbolic_concrete_agreement(self, temps):
        """R(v_t, v_t+1) holds along every concrete run (one source of truth)."""
        from repro.expr import enum_sort

        temp = Var("temp", int_sort(0, 60))
        mode = Var("s", enum_sort("Mode", "Off", "On"))
        system = make_system(
            "cooler",
            [mode],
            [temp],
            {"s": 0},
            {mode: ite(temp.prime() > 30, 1, 0)},
        )
        trace = system.run([{"temp": t} for t in temps])
        prev_state = {"s": 0}
        for obs in trace:
            env = dict(prev_state)
            env.update(obs.primed())
            assert holds(system.trans, env)
            prev_state = {"s": obs["s"]}


class TestInputEnumeration:
    def test_declared_samples_win(self, cooler):
        samples = cooler.enumerate_inputs()
        assert Valuation(temp=31) in samples
        assert len(samples) == 4

    def test_full_enumeration_when_small(self, latch):
        samples = latch.enumerate_inputs()
        assert len(samples) == 4  # 2 bools

    def test_enumeration_limit(self):
        wide = Var("w", int_sort(0, 10000))
        x = Var("x", BOOL)
        system = make_system("wide", [x], [wide], {"x": 0}, {x: x})
        with pytest.raises(ValueError, match="too large"):
            system.enumerate_inputs(limit=100)

    def test_no_inputs(self):
        x = Var("x", int_sort(0, 3))
        system = make_system(
            "auto", [x], [], {"x": 0}, {x: ite(x < 3, x + 1, 0)}
        )
        assert system.enumerate_inputs() == [Valuation()]

    def test_random_inputs_in_range(self, cooler):
        rng = random.Random(3)
        for _ in range(50):
            sample = cooler.random_inputs(rng)
            assert 0 <= sample["temp"] <= 60

    def test_state_space_size(self, two_phase):
        assert two_phase.state_space_size() == 2 * 4
