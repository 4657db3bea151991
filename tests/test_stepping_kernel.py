"""The per-system stepping kernel: pinned outputs and semantics.

Every consumer of the concrete step -- trace generation, the explicit
engine's BFS, the reachable-state formula and the ground-truth witness
search -- is pinned by a digest over the 28 library systems.  The digest
was recorded before the kernel replaced the per-variable step functions,
so any change in what these produce (a different RNG draw, a different
BFS order, a different observation) fails here.  It reads no ``hash()``
and no set order, so it is the same under every ``PYTHONHASHSEED`` and
on every supported Python version.
"""

from __future__ import annotations

import hashlib
import pickle
import random

import pytest

from repro.expr import BOOL, EvalError, Var, evaluate, int_sort, ite
from repro.expr.ast import add, eq, land
from repro.expr.types import EnumSort, sort_values
from repro.mc.explicit import ExplicitReachability, reachable_formula
from repro.stateflow.library import benchmark_names, get_benchmark
from repro.system import Valuation, make_system
from repro.traces.generate import random_traces

TRACE_SEEDS = (0, 1, 4242)
TRACE_COUNT = TRACE_LENGTH = 30

#: Per part, sha256 over the 28 library systems in Table I order.
PINNED = {
    "traces": "e9ad98bee9c96a01bffddb27eab06965cf553d7384423a3ce6e1d9f72d17ff73",
    "tables": "d5d86e7f40ffe37b11718f8e9f2addc2b20434172749c2ef5734e31583c96d65",
    "formulas": "5ecf0a7e6a05e0255504100cc3472a3acb133073c95a8aef03597bc40045754b",
    "ground_truth": "c82a4e3a434621da2979c3562de0ff59b1d8bfdfce5f40accc7bd2744c9d70d4",
}


def _items(valuation) -> tuple:
    return tuple(valuation.items())


def stepping_digests() -> dict[str, str]:
    """sha256 per consumer of the step, over every library system."""
    parts = {name: hashlib.sha256() for name in PINNED}

    def feed(part: str, *values) -> None:
        parts[part].update(repr(values).encode())
        parts[part].update(b"\n")

    for name in benchmark_names():
        bench = get_benchmark(name)
        system = bench.system
        feed("traces", name)
        for seed in TRACE_SEEDS:
            traces = random_traces(
                system, count=TRACE_COUNT, length=TRACE_LENGTH, seed=seed
            )
            for trace in traces:
                feed("traces", seed, [_items(obs) for obs in trace])
        reach = ExplicitReachability(system)
        reach.explore()
        feed("tables", name)
        for key, (depth, parent, inputs) in reach._table.items():
            feed(
                "tables",
                key,
                depth,
                parent,
                None if inputs is None else _items(inputs),
            )
        feed("formulas", name, repr(reachable_formula(system, reach)))
        for spec in bench.fsas:
            feed("ground_truth", name, spec.name)
            for truth in bench.ground_truth(spec):
                for witness in truth.witnesses:
                    feed(
                        "ground_truth",
                        witness.src,
                        witness.dst,
                        witness.label,
                        [_items(obs) for obs in witness.witness],
                    )
                feed("ground_truth", truth.machine, truth.unwitnessed)
    return {part: digest.hexdigest() for part, digest in parts.items()}


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return stepping_digests()


@pytest.mark.parametrize("part", sorted(PINNED))
def test_stepping_outputs_match_pinned_digest(digests, part):
    assert digests[part] == PINNED[part]


# ----------------------------------------------------------------------
# The kernel agrees with evaluate()
# ----------------------------------------------------------------------

POINTS = 40


def _full_sort_env(system, rng: random.Random) -> dict[str, int]:
    """A (state, input) point drawn over the full sorts, reachable or not."""
    env = {var.name: rng.choice(sort_values(var.sort)) for var in system.state_vars}
    for var in system.input_vars:
        env[f"{var.name}'"] = rng.choice(sort_values(var.sort))
    return env


def _evaluated(system, env) -> tuple[int, ...]:
    return tuple(evaluate(system.next_exprs[var], env) for var in system.state_vars)


@pytest.mark.parametrize("name", benchmark_names())
def test_kernel_agrees_with_evaluate_on_library_systems(name):
    system = get_benchmark(name).system
    rng = random.Random(name)
    for _ in range(POINTS):
        env = _full_sort_env(system, rng)
        expected = _evaluated(system, env)
        assert system.kernel.next_state(env) == expected
        state = {var.name: env[var.name] for var in system.state_vars}
        inputs = {var.name: env[f"{var.name}'"] for var in system.input_vars}
        assert system.step(state, inputs) == dict(
            zip(system.state_names, expected, strict=True)
        )


x = Var("x", int_sort(0, 3))
y = Var("y", int_sort(0, 3))
u = Var("u", BOOL)
mode = Var("mode", EnumSort("Mode", ("Idle", "Busy")))


def reordered_system():
    """``next_exprs`` lists ``y`` before ``x``; both read the shared
    wrap-around test, and ``x`` reads it twice."""
    wrap = eq(x, 3)
    return make_system(
        "reordered",
        [x, y],
        [u],
        {"x": 0, "y": 0},
        {
            y: ite(wrap, 0, x),
            x: ite(u.prime(), ite(wrap, 0, add(x, 1)), x),
        },
    )


def clock_system():
    return make_system(
        "clock", [mode], [], {"mode": 0}, {mode: ite(eq(mode, 0), 1, 0)}
    )


@pytest.mark.parametrize("make", [reordered_system, clock_system])
def test_kernel_agrees_with_evaluate_on_every_point(make):
    system = make()
    names = [var.name for var in system.state_vars]
    names += [f"{var.name}'" for var in system.input_vars]
    sorts = [var.sort for var in system.state_vars + system.input_vars]
    points = [{}]
    for name, sort in zip(names, sorts, strict=True):
        points = [dict(p, **{name: v}) for p in points for v in sort_values(sort)]
    for env in points:
        assert system.kernel.next_state(env) == _evaluated(system, env)


def test_kernel_returns_state_vars_order_not_next_exprs_order():
    system = reordered_system()
    assert system.kernel.next_state({"x": 3, "y": 1, "u'": 1}) == (0, 0)
    assert system.kernel.next_state({"x": 2, "y": 1, "u'": 1}) == (3, 2)
    trace = system.run([{"u": 1}] * 4)
    assert [(obs["x"], obs["y"]) for obs in trace] == [(1, 0), (2, 1), (3, 2), (0, 0)]


def test_system_without_inputs():
    system = clock_system()
    assert system.kernel.tables == ()
    assert system.kernel.primed_names == ()
    rng = random.Random(3)
    state = rng.getstate()
    assert system.random_inputs(rng) == {}
    assert rng.getstate() == state  # no draw for no input
    trace = system.run([{}] * 3)
    assert [obs["mode"] for obs in trace] == [1, 0, 1]
    assert trace[0] == Valuation({"mode": 1})


def test_inputs_as_valuation_or_with_extra_keys():
    system = reordered_system()
    plain = system.run([{"u": 1}, {"u": 0}, {"u": 1}])
    as_valuations = system.run([Valuation(u=1), Valuation(u=0), Valuation(u=1)])
    assert as_valuations == plain
    extra = system.run([{"u": 1, "note": 7}, {"u": 0, "note": 8}, {"u": 1, "note": 9}])
    # Extra keys ride along into the observation, as they always have.
    assert [obs["note"] for obs in extra] == [7, 8, 9]
    assert [obs.project(["u", "x", "y"]) for obs in extra] == plain
    # Mixing both kinds within one execution keeps the state in step.
    mixed = system.run([{"u": 1}, {"u": 0, "note": 8}, Valuation(u=1)])
    assert [obs.project(["u", "x", "y"]) for obs in mixed] == plain


def test_inputs_listed_in_another_order_keep_their_order():
    system = get_benchmark("ModelingALaunchAbortSystem").system
    rng = random.Random(4)
    sampled = [system.random_inputs(rng) for _ in range(20)]
    swapped = [dict(reversed(list(inputs.items()))) for inputs in sampled]
    declared_run, swapped_run = system.run(sampled), system.run(swapped)
    assert swapped_run == declared_run
    width = len(system.input_names)
    assert width > 1
    for inputs, obs in zip(swapped, swapped_run, strict=True):
        assert list(obs.as_dict())[:width] == list(inputs)
    for obs in declared_run:
        assert tuple(obs.as_dict())[:width] == system.input_names


def test_unbound_declared_input_raises_eval_error():
    system = reordered_system()
    with pytest.raises(EvalError, match="not bound"):
        system.step({"x": 0, "y": 0}, {})


def test_input_tables_are_per_input_sorts():
    wide = [Var(f"w{i}", int_sort(0, 999)) for i in range(3)]
    c = Var("c", int_sort(0, 1))
    system = make_system(
        "wide", [c], wide, {"c": 0}, {c: ite(land(*(eq(w.prime(), 0) for w in wide)), 1, 0)}
    )
    # 10^9 input points; the kernel holds three tables of 1,000 values.
    assert [len(table) for table in system.kernel.tables] == [1000, 1000, 1000]
    traces = random_traces(system, count=2, length=5, seed=0)
    assert sum(len(trace) for trace in traces) == 10


@pytest.mark.parametrize("name", ["ModelingACdPlayerradioUsingEnumeratedDataType", "Superstep"])
def test_sampled_valuations_step_as_sampled_dicts(name):
    # Dict samples take the kernel's schema path, Valuation samples the
    # general bind-and-merge path: both give the same traces and draws.
    system = get_benchmark(name).system
    as_dicts, as_valuations = random.Random(7), random.Random(7)
    for _ in range(5):
        assert system.run(
            [system.random_inputs(as_dicts) for _ in range(20)]
        ) == system.run(
            [Valuation(system.random_inputs(as_valuations)) for _ in range(20)]
        )
    assert as_dicts.getstate() == as_valuations.getstate()


def test_random_inputs_draw_choice_per_input_in_declared_order():
    system = get_benchmark("ModelingALaunchAbortSystem").system
    rng, reference = random.Random(11), random.Random(11)
    for _ in range(50):
        expected = {
            var.name: reference.choice(list(sort_values(var.sort)))
            for var in system.input_vars
        }
        drawn = system.random_inputs(rng)
        assert list(drawn.items()) == list(expected.items())


# ----------------------------------------------------------------------
# Observations and their construction
# ----------------------------------------------------------------------

def test_kernel_observation_is_the_general_constructors_valuation():
    system = get_benchmark("ModelingALaunchAbortSystem").system
    rng = random.Random(5)
    inputs = [system.random_inputs(rng) for _ in range(40)]
    state = dict(system.init_state)
    for observation, step_inputs in zip(system.run(inputs), inputs, strict=True):
        env = dict(state)
        env.update({f"{name}'": value for name, value in step_inputs.items()})
        state = dict(zip(system.state_names, _evaluated(system, env), strict=True))
        merged = dict(step_inputs)
        merged.update(state)
        reference = Valuation(merged)
        assert observation._items == reference._items
        assert hash(observation) == hash(reference)
        assert observation == reference
        assert observation.__reduce__() == reference.__reduce__()
        # Lookups keep the declared order: inputs, then state.
        assert list(observation.as_dict().items()) == list(merged.items())
        copy = pickle.loads(pickle.dumps(observation))
        assert copy._items == reference._items
        assert hash(copy) == hash(reference)


def test_step_returns_a_state_valuation_built_like_the_general_one():
    system = reordered_system()
    stepped = system.step(Valuation(x=2, y=0), {"u": 1})
    reference = Valuation({"x": 3, "y": 2})
    assert stepped._items == reference._items
    assert hash(stepped) == hash(reference)
    assert pickle.loads(pickle.dumps(stepped)) == reference


def test_kernel_is_built_on_first_use_and_not_pickled():
    bench = get_benchmark.__wrapped__("MealyVendingMachine")  # not the cached build
    system = bench.system
    assert "_kernel" not in system.__dict__
    system.run([system.random_inputs(random.Random(0))])
    assert "_kernel" in system.__dict__
    clone = pickle.loads(pickle.dumps(system))
    assert "_kernel" not in clone.__dict__
    assert clone.run([{"coin": 1}]) == system.run([{"coin": 1}])


def test_fired_uses_each_machines_compiled_conditions_in_priority_order():
    bench = get_benchmark("ModelingALaunchAbortSystem")
    system, info = bench.system, bench.info
    rng = random.Random(2)
    env_state = dict(system.init_state)
    for _ in range(200):
        inputs = system.random_inputs(rng)
        primed = {f"{name}'": value for name, value in inputs.items()}
        env = dict(env_state, **primed)
        for machine in bench.chart.machines:
            expected = next(
                (
                    compiled
                    for compiled in info.compiled[machine.name]
                    if evaluate(compiled.condition, env)
                ),
                None,
            )
            assert info.fired(machine.name, env_state, primed) is expected
        env_state = dict(system.step(env_state, inputs))
    # The compiled conditions live in compile_expr's memo, not on the
    # CodegenInfo, which stays picklable.
    assert pickle.loads(pickle.dumps(info)).compiled.keys() == info.compiled.keys()
