"""Tests for the model-learning components.

The central contract (paper §II-B): whatever the learner, the returned
NFA must admit every trace it was trained on.  Hypothesis drives that
check across random workloads for all three learners.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import BoolSort, IntSort, Var, enum_sort, eq, gt, int_sort, lnot
from repro.learn import (
    KTailsLearner,
    SatDfaLearner,
    T2MLearner,
    candidate_atoms,
    detect_mode_variables,
    identify_dfa,
    infer_variables,
    synthesize_separator,
)
from repro.learn import predicates
from repro.system import Valuation
from repro.traces import Trace, TraceSet


def obs(**kwargs):
    return Valuation(kwargs)


MODE = Var("s", enum_sort("Mode", "Off", "On"))
TEMP = Var("temp", int_sort(0, 60))
COOLER_VARS = {"s": MODE, "temp": TEMP}


class TestHelpers:
    def test_infer_variables_ranges(self):
        traces = TraceSet([Trace([obs(a=3, b=-1), obs(a=7, b=0)])])
        inferred = infer_variables(traces)
        assert inferred["a"].sort == int_sort(3, 7)
        assert inferred["b"].sort == int_sort(-1, 0)

    def test_detect_mode_variables(self):
        observations = [obs(wide=i * 10, narrow=i % 2) for i in range(20)]
        traces = TraceSet([Trace(observations)])
        assert detect_mode_variables(traces, max_distinct=4) == ["narrow"]

    def test_detect_falls_back_to_all(self):
        observations = [obs(wide=i * 10) for i in range(20)]
        traces = TraceSet([Trace(observations)])
        assert detect_mode_variables(traces, max_distinct=4) == ["wide"]


class TestPredicateSynthesis:
    def test_single_threshold(self):
        pos = [obs(temp=t) for t in (35, 45, 60)]
        neg = [obs(temp=t) for t in (0, 10, 30)]
        expr = synthesize_separator(pos, neg, [TEMP])
        assert expr is not None
        from repro.expr import holds

        assert all(holds(expr, p) for p in pos)
        assert not any(holds(expr, n) for n in neg)

    def test_threshold_uses_boundary(self):
        # max(neg)=30, min(pos)=31: the learned cut must be temp > 30.
        pos = [obs(temp=31)]
        neg = [obs(temp=30)]
        expr = synthesize_separator(pos, neg, [TEMP])
        from repro.expr import guard_str

        assert guard_str(expr) == "temp > 30"

    def test_negated_threshold(self):
        pos = [obs(temp=5)]
        neg = [obs(temp=50)]
        expr = synthesize_separator(pos, neg, [TEMP])
        from repro.expr import guard_str

        assert guard_str(expr) == "¬(temp > 5)"

    def test_conjunction_needed(self):
        band = Var("x", int_sort(0, 100))
        pos = [obs(x=40), obs(x=50)]
        neg = [obs(x=10), obs(x=90)]
        expr = synthesize_separator(pos, neg, [band])
        assert expr is not None
        from repro.expr import holds

        assert all(holds(expr, p) for p in pos)
        assert not any(holds(expr, n) for n in neg)

    def test_disjunction_needed(self):
        x = Var("x", int_sort(0, 100))
        pos = [obs(x=10), obs(x=90)]
        neg = [obs(x=40), obs(x=50)]
        expr = synthesize_separator(pos, neg, [x])
        assert expr is not None

    def test_unseparable_returns_none(self):
        pos = [obs(temp=30)]
        neg = [obs(temp=30)]
        assert synthesize_separator(pos, neg, [TEMP]) is None

    def test_no_negatives_returns_none(self):
        assert synthesize_separator([obs(temp=1)], [], [TEMP]) is None

    def test_bool_atoms(self):
        from repro.expr import BOOL

        flag = Var("f", BOOL)
        pos = [obs(f=1)]
        neg = [obs(f=0)]
        expr = synthesize_separator(pos, neg, [flag])
        assert expr is not None

    def test_enum_atoms(self):
        pos = [obs(s=1)]
        neg = [obs(s=0)]
        expr = synthesize_separator(pos, neg, [MODE])
        assert expr is not None

    def test_deterministic(self):
        pos = [obs(temp=t) for t in (35, 45)]
        neg = [obs(temp=t) for t in (0, 30)]
        first = synthesize_separator(pos, neg, [TEMP])
        second = synthesize_separator(pos, neg, [TEMP])
        assert first == second

    def test_candidate_atoms_cover_sorts(self):
        from repro.expr import BOOL

        flag = Var("f", BOOL)
        atoms = candidate_atoms(
            [TEMP, MODE, flag], [obs(temp=5, s=0, f=1)], [obs(temp=9, s=1, f=0)]
        )
        assert len(atoms) >= 6


# ---------------------------------------------------------------------------
# Value-class masks against the per-observation reference
# ---------------------------------------------------------------------------


def reference_candidate_atoms(variables, pos, neg):
    """Candidate atoms as derived before value classes: per-variable set
    comprehensions plus a sorted scan of (value, label) pairs."""
    atoms = []
    for var in variables:
        if isinstance(var.sort, BoolSort):
            atoms += [eq(var, True), eq(var, False)]
            continue
        observed = sorted(
            {o[var.name] for o in pos} | {o[var.name] for o in neg}
        )
        if isinstance(var.sort, IntSort):
            labels = {}
            for value, label in sorted(
                {(o[var.name], True) for o in pos}
                | {(o[var.name], False) for o in neg}
            ):
                labels.setdefault(value, set()).add(label)
            for left, right in zip(observed, observed[1:], strict=False):
                if labels[left] != labels[right] or len(labels[left]) > 1:
                    atoms += [gt(var, left), lnot(gt(var, left))]
            if len(observed) > 6:
                continue
        for value in observed:
            atoms += [eq(var, value), lnot(eq(var, value))]
    return list(dict.fromkeys(atoms))


def reference_atom_masks(variables, pos, neg):
    """One ``holds()`` call per (atom, example) pair."""
    from repro.expr import holds

    evaluated = []
    for atom in reference_candidate_atoms(variables, pos, neg):
        pos_mask = sum(1 << i for i, o in enumerate(pos) if holds(atom, o))
        neg_mask = sum(1 << i for i, o in enumerate(neg) if holds(atom, o))
        evaluated.append((atom, pos_mask, neg_mask))
    return evaluated


def _domain(var):
    return [0, 1] if isinstance(var.sort, BoolSort) else list(var.sort.values())


@st.composite
def separation_problems(draw):
    """Bool/Enum/Int variables (one possibly listed twice) and example
    sets with duplicates, values on both sides and sort-bound values."""
    from repro.expr import BOOL

    variables = []
    for index in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["bool", "enum", "int"]))
        if kind == "bool":
            sort = BOOL
        elif kind == "enum":
            size = draw(st.integers(2, 4))
            sort = enum_sort(f"E{size}", *(f"m{i}" for i in range(size)))
        else:
            lo = draw(st.integers(-4, 4))
            sort = int_sort(lo, lo + draw(st.integers(0, 10)))
        variables.append(Var(f"v{index}", sort))
    variables += draw(st.lists(st.sampled_from(variables), max_size=1))
    example = st.fixed_dictionaries(
        {var.name: st.sampled_from(_domain(var)) for var in variables}
    ).map(Valuation)
    pos = draw(st.lists(example, min_size=1, max_size=12))
    neg = draw(st.lists(example, min_size=1, max_size=12))
    pos += draw(st.lists(st.sampled_from(pos), max_size=3))
    neg += draw(st.lists(st.sampled_from(pos + neg), max_size=3))
    return variables, pos, neg


@settings(max_examples=300, deadline=None)
@given(separation_problems(), st.integers(1, 3))
def test_value_class_masks_match_holds_reference(problem, max_atoms):
    variables, pos, neg = problem
    pos_list = list(dict.fromkeys(pos))
    neg_list = list(dict.fromkeys(neg))
    reference = reference_atom_masks(variables, pos_list, neg_list)
    atoms = candidate_atoms(variables, pos_list, neg_list)
    assert len(atoms) == len(reference)
    assert all(a is r for a, (r, _pm, _nm) in zip(atoms, reference, strict=True))
    assert predicates._atom_masks(variables, pos_list, neg_list) == reference
    with mock.patch.object(predicates, "_atom_masks", reference_atom_masks):
        expected = synthesize_separator(pos, neg, variables, max_atoms)
    assert synthesize_separator(pos, neg, variables, max_atoms) is expected


def cooler_traces(seed=0, count=20, length=20):
    """Traces from the Fig. 2 cooler, generated by hand-rolled dynamics."""
    rng = random.Random(seed)
    traces = TraceSet()
    for _ in range(count):
        observations = []
        for _ in range(length):
            temp = rng.randint(0, 60)
            observations.append(obs(temp=temp, s=1 if temp > 30 else 0))
        traces.add(Trace(observations))
    return traces


class TestT2MLearner:
    def test_learns_fig2_shape(self):
        learner = T2MLearner(mode_vars=["s"], variables=COOLER_VARS)
        nfa = learner.learn(cooler_traces())
        assert nfa.num_states == 2
        assert nfa.num_transitions == 4
        # The initial state merges into one of the mode states (both Off
        # and On subsume the first-observation behaviour; Fig. 2 draws
        # the Off variant).
        assert len(nfa.initial_states) == 1
        assert nfa.state_by_name("Off") is not None
        assert nfa.state_by_name("On") is not None

    def test_admits_training_traces(self):
        traces = cooler_traces()
        nfa = T2MLearner(mode_vars=["s"], variables=COOLER_VARS).learn(traces)
        assert nfa.admits_all(traces)

    def test_learned_guard_has_threshold(self):
        from repro.automata import to_text

        nfa = T2MLearner(mode_vars=["s"], variables=COOLER_VARS).learn(
            cooler_traces(count=50, length=50)
        )
        text = to_text(nfa, primed_names=["s"])
        assert "temp > " in text  # synthesised input predicate on Off->On

    def test_self_loops_have_plain_guards(self):
        nfa = T2MLearner(mode_vars=["s"], variables=COOLER_VARS).learn(
            cooler_traces()
        )
        off = nfa.state_by_name("Off")
        self_loops = [t for t in nfa.outgoing(off) if t.dst == off]
        assert len(self_loops) == 1
        assert self_loops[0].guard == MODE.eq("Off")

    def test_no_merge_keeps_init_state(self):
        learner = T2MLearner(
            mode_vars=["s"], variables=COOLER_VARS, merge_initial=False
        )
        nfa = learner.learn(cooler_traces())
        init = nfa.state_by_name("init")
        assert init is not None
        assert init in nfa.initial_states
        assert nfa.num_states == 3

    def test_empty_traces(self):
        nfa = T2MLearner(mode_vars=["s"], variables=COOLER_VARS).learn(
            TraceSet()
        )
        assert nfa.num_states == 1
        assert nfa.admits(Trace([]))

    def test_auto_detection_path(self):
        nfa = T2MLearner().learn(cooler_traces())
        # 's' has 2 values, 'temp' up to 61: only 's' is mode-like.
        assert nfa.num_states <= 3
        assert nfa.admits_all(cooler_traces())

    def test_unknown_mode_var_rejected(self):
        learner = T2MLearner(mode_vars=["nope"], variables=COOLER_VARS)
        with pytest.raises(ValueError):
            learner.learn(cooler_traces())

    def test_guard_synthesis_off(self):
        learner = T2MLearner(
            mode_vars=["s"], variables=COOLER_VARS, synthesize_guards=False
        )
        nfa = learner.learn(cooler_traces())
        for transition in nfa.transitions:
            assert "temp" not in str(transition.guard)

    def test_deterministic_output(self):
        traces = cooler_traces()
        first = T2MLearner(mode_vars=["s"], variables=COOLER_VARS).learn(traces)
        second = T2MLearner(mode_vars=["s"], variables=COOLER_VARS).learn(traces)
        assert first.transitions == second.transitions


class TestKTailsLearner:
    def test_admits_training_traces(self):
        traces = cooler_traces()
        nfa = KTailsLearner(k=2, mode_vars=["s"], variables=COOLER_VARS).learn(
            traces
        )
        assert nfa.admits_all(traces)

    def test_k0_collapses_everything(self):
        traces = cooler_traces()
        nfa = KTailsLearner(k=0, mode_vars=["s"], variables=COOLER_VARS).learn(
            traces
        )
        assert nfa.num_states == 1

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            KTailsLearner(k=-1)

    def test_larger_k_refines(self):
        traces = TraceSet(
            [
                Trace([obs(s=0), obs(s=0), obs(s=1)]),
                Trace([obs(s=1), obs(s=0)]),
            ]
        )
        coarse = KTailsLearner(k=1, mode_vars=["s"]).learn(traces)
        fine = KTailsLearner(k=3, mode_vars=["s"]).learn(traces)
        assert fine.num_states >= coarse.num_states


class TestSatDfaIdentification:
    def test_positive_only_single_state(self):
        dfa = identify_dfa([("a", "b"), ("a", "a")])
        assert dfa is not None
        assert dfa.num_states == 1
        assert dfa.accepts(("a", "b", "a"))

    def test_negative_forces_states(self):
        # Language: even number of 'a's; needs 2 states.
        positive = [(), ("a", "a"), ("a", "a", "a", "a")]
        negative = [("a",), ("a", "a", "a")]
        dfa = identify_dfa(positive, negative)
        assert dfa is not None
        assert dfa.num_states == 2
        assert dfa.accepts(("a", "a"))
        assert not dfa.accepts(("a",))

    def test_three_state_language(self):
        # Multiples of 3 'a's.
        positive = [(), ("a",) * 3, ("a",) * 6]
        negative = [("a",), ("a",) * 2, ("a",) * 4, ("a",) * 5]
        dfa = identify_dfa(positive, negative)
        assert dfa is not None
        assert dfa.num_states == 3

    def test_contradictory_labels_rejected(self):
        with pytest.raises(ValueError):
            identify_dfa([("a",)], [("a",)])

    def test_unreachable_budget_returns_none(self):
        positive = [(), ("a",) * 3]
        negative = [("a",), ("a",) * 2]
        assert identify_dfa(positive, negative, max_states=2) is None

    def test_consistency_random(self):
        rng = random.Random(5)
        for _ in range(10):
            words = [
                tuple(rng.choice("ab") for _ in range(rng.randint(0, 5)))
                for _ in range(8)
            ]
            dfa = identify_dfa(words)
            assert dfa is not None
            for word in words:
                assert dfa.accepts(word)


class TestSatDfaLearner:
    def test_admits_training_traces(self):
        traces = cooler_traces(count=5, length=8)
        nfa = SatDfaLearner(mode_vars=["s"], variables=COOLER_VARS).learn(traces)
        assert nfa.admits_all(traces)

    def test_positive_only_is_single_state(self):
        traces = cooler_traces(count=5, length=8)
        nfa = SatDfaLearner(mode_vars=["s"], variables=COOLER_VARS).learn(traces)
        assert nfa.num_states == 1

    def test_negatives_refine(self):
        traces = TraceSet([Trace([obs(s=0), obs(s=1)])])
        nfa = SatDfaLearner(
            mode_vars=["s"],
            variables=COOLER_VARS,
            negative_sequences=[((1,), (1,))],
        ).learn(traces)
        assert nfa.num_states >= 2
        assert nfa.admits(Trace([obs(s=0), obs(s=1)]))
        assert not nfa.admits(Trace([obs(s=1), obs(s=1)]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 15))
def test_all_learners_admit_training_set(seed, count, length):
    """The §II-B contract, property-tested across random cooler workloads."""
    traces = cooler_traces(seed=seed, count=count, length=length)
    for learner in (
        T2MLearner(mode_vars=["s"], variables=COOLER_VARS),
        KTailsLearner(k=2, mode_vars=["s"], variables=COOLER_VARS),
        SatDfaLearner(mode_vars=["s"], variables=COOLER_VARS),
    ):
        nfa = learner.learn(traces)
        assert nfa.admits_all(traces), type(learner).__name__
