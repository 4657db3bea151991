"""Tests for the CDCL SAT solver: correctness on crafted and random CNFs."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CNF, GateBuilder, Solver, check_model, luby, solve_cnf


def brute_force_sat(cnf: CNF) -> bool:
    """Reference: enumerate all assignments (for small formulas)."""
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assignment = {v: bits[v - 1] for v in range(1, cnf.num_vars + 1)}
        if check_model(cnf, assignment):
            return True
    return False


class TestCnfContainer:
    def test_new_vars(self):
        cnf = CNF()
        assert cnf.new_vars(3) == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_add_clause_validates(self):
        cnf = CNF()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add_clause([2])
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_dimacs_roundtrip(self, tmp_path):
        cnf = CNF()
        cnf.new_vars(3)
        cnf.add_clause([1, -2])
        cnf.add_clause([2, 3])
        path = tmp_path / "f.cnf"
        with open(path, "w") as out:
            cnf.to_dimacs(out)
        with open(path) as src:
            back = CNF.from_dimacs(src)
        assert back.num_vars == 3
        assert back.clauses == [[1, -2], [2, 3]]


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestSolverBasics:
    def test_empty_formula_sat(self):
        assert solve_cnf(CNF()).satisfiable

    def test_single_unit(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([1])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert result.value(1) is True

    def test_contradictory_units(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([1])
        cnf.add_clause([-1])
        assert not solve_cnf(cnf).satisfiable

    def test_simple_implication_chain(self):
        cnf = CNF()
        cnf.new_vars(4)
        cnf.add_clause([1])
        cnf.add_clause([-1, 2])
        cnf.add_clause([-2, 3])
        cnf.add_clause([-3, 4])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert all(result.value(v) for v in range(1, 5))

    def test_unsat_pigeonhole_2_in_1(self):
        # Two pigeons, one hole.
        cnf = CNF()
        p1, p2 = cnf.new_vars(2)
        cnf.add_clause([p1])
        cnf.add_clause([p2])
        cnf.add_clause([-p1, -p2])
        assert not solve_cnf(cnf).satisfiable

    def test_model_satisfies_formula(self):
        cnf = CNF()
        cnf.new_vars(5)
        cnf.add_clause([1, 2, 3])
        cnf.add_clause([-1, -2])
        cnf.add_clause([-3, 4])
        cnf.add_clause([-4, 5, -1])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert check_model(cnf, result.model)

    def test_assumptions_force_polarity(self):
        cnf = CNF()
        cnf.new_vars(2)
        cnf.add_clause([1, 2])
        result = solve_cnf(cnf, assumptions=[-1])
        assert result.satisfiable
        assert result.value(2) is True

    def test_assumptions_can_make_unsat(self):
        cnf = CNF()
        cnf.new_vars(2)
        cnf.add_clause([1, 2])
        assert not solve_cnf(cnf, assumptions=[-1, -2]).satisfiable


def pigeonhole_cnf(pigeons: int, holes: int) -> CNF:
    """PHP(p, h): each pigeon in a hole, no two share one."""
    cnf = CNF()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf


class TestSolverHard:
    def test_php_4_3_unsat(self):
        assert not solve_cnf(pigeonhole_cnf(4, 3)).satisfiable

    def test_php_5_4_unsat(self):
        assert not solve_cnf(pigeonhole_cnf(5, 4)).satisfiable

    def test_php_4_4_sat(self):
        result = solve_cnf(pigeonhole_cnf(4, 4))
        assert result.satisfiable

    def test_random_3sat_agrees_with_brute_force(self):
        rng = random.Random(12345)
        for trial in range(40):
            num_vars = rng.randint(3, 8)
            num_clauses = rng.randint(2, 30)
            cnf = CNF()
            cnf.new_vars(num_vars)
            for _ in range(num_clauses):
                clause_vars = rng.sample(range(1, num_vars + 1), k=min(3, num_vars))
                cnf.add_clause(
                    [v if rng.random() < 0.5 else -v for v in clause_vars]
                )
            expected = brute_force_sat(cnf)
            result = solve_cnf(cnf)
            assert result.satisfiable == expected, f"trial {trial}"
            if result.satisfiable:
                assert check_model(cnf, result.model)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_hypothesis_random_cnf(self, data):
        num_vars = data.draw(st.integers(2, 7))
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, num_vars).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=4,
                ),
                min_size=1,
                max_size=20,
            )
        )
        cnf = CNF()
        cnf.new_vars(num_vars)
        for clause in clauses:
            cnf.add_clause(clause)
        expected = brute_force_sat(cnf)
        result = solve_cnf(cnf)
        assert result.satisfiable == expected
        if result.satisfiable:
            assert check_model(cnf, result.model)


class TestGateBuilder:
    def _fresh(self):
        cnf = CNF()
        return cnf, GateBuilder(cnf)

    def _check_gate(self, build, table):
        """build(gates, a, b) -> out; table maps (va, vb) -> expected."""
        for va, vb in table:
            cnf, gates = self._fresh()
            a, b = cnf.new_vars(2)
            out = build(gates, a, b)
            result = solve_cnf(
                cnf, assumptions=[a if va else -a, b if vb else -b, out]
            )
            assert result.satisfiable == table[va, vb], (va, vb)

    def test_and_gate_truth_table(self):
        table = {(0, 0): False, (0, 1): False, (1, 0): False, (1, 1): True}
        self._check_gate(lambda g, a, b: g.and_gate(a, b), table)

    def test_or_gate_truth_table(self):
        table = {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): True}
        self._check_gate(lambda g, a, b: g.or_gate(a, b), table)

    def test_xor_gate_truth_table(self):
        table = {(0, 0): False, (0, 1): True, (1, 0): True, (1, 1): False}
        self._check_gate(lambda g, a, b: g.xor_gate(a, b), table)

    def test_xnor_gate_truth_table(self):
        table = {(0, 0): True, (0, 1): False, (1, 0): False, (1, 1): True}
        self._check_gate(lambda g, a, b: g.xnor_gate(a, b), table)

    def test_constant_folding(self):
        cnf, gates = self._fresh()
        a = cnf.new_var()
        assert gates.and_gate(a, gates.false_lit) == gates.false_lit
        assert gates.and_gate(a, gates.true_lit) == a
        assert gates.or_gate(a, gates.true_lit) == gates.true_lit
        assert gates.or_gate(a, gates.false_lit) == a
        assert gates.xor_gate(a, gates.false_lit) == a
        assert gates.xor_gate(a, gates.true_lit) == -a

    def test_complement_folding(self):
        cnf, gates = self._fresh()
        a = cnf.new_var()
        assert gates.and_gate(a, -a) == gates.false_lit
        assert gates.or_gate(a, -a) == gates.true_lit
        assert gates.xor_gate(a, a) == gates.false_lit
        assert gates.xor_gate(a, -a) == gates.true_lit

    def test_gate_caching(self):
        cnf, gates = self._fresh()
        a, b = cnf.new_vars(2)
        assert gates.and_gate(a, b) == gates.and_gate(b, a)
        assert gates.or_gate(a, b) == gates.or_gate(b, a)

    def test_full_adder(self):
        for va, vb, vc in itertools.product([0, 1], repeat=3):
            cnf, gates = self._fresh()
            a, b, c = cnf.new_vars(3)
            total, carry = gates.full_adder(a, b, c)
            assumptions = [
                a if va else -a, b if vb else -b, c if vc else -c,
            ]
            result = solve_cnf(cnf, assumptions=assumptions)
            assert result.satisfiable
            expected = va + vb + vc
            assert result.lit_true(total) == bool(expected & 1)
            assert result.lit_true(carry) == bool(expected >> 1)

    def test_ite_gate(self):
        for vc, vt, ve in itertools.product([0, 1], repeat=3):
            cnf, gates = self._fresh()
            c, t, e = cnf.new_vars(3)
            out = gates.ite_gate(c, t, e)
            assumptions = [c if vc else -c, t if vt else -t, e if ve else -e]
            result = solve_cnf(cnf, assumptions=assumptions)
            assert result.satisfiable
            assert result.lit_true(out) == bool(vt if vc else ve)

    def test_assert_false_constant_makes_unsat(self):
        cnf, gates = self._fresh()
        gates.assert_true(gates.false_lit)
        assert not solve_cnf(cnf).satisfiable


class TestClauseDbHygiene:
    """LBD-scored learned-clause aging for long-lived (session) solvers."""

    def test_learned_clauses_carry_lbd_tags(self):
        from repro.sat.solver import _LearnedClause

        solver = Solver(pigeonhole_cnf(5, 4))
        assert not solver.solve().satisfiable
        assert solver.conflicts > 0
        for clause in solver._learned:
            assert isinstance(clause, _LearnedClause)
            assert clause.lbd >= 1

    def test_reduction_never_drops_reason_clauses(self):
        """Every reduction (organic and forced) must keep clauses that
        are currently locked as propagation reasons: a dropped reason
        would dangle in the implication graph."""
        solver = Solver(pigeonhole_cnf(6, 5))
        solver._max_learned = 8  # force constant reduction churn
        reductions = 0
        original = solver._reduce_learned

        def checked(force=False):
            nonlocal reductions
            original(force)
            reductions += 1
            live = {
                id(clause)
                for watch in solver._watches.values()
                for clause in watch
            }
            for var in range(1, solver._num_vars + 1):
                reason = solver._reason[var]
                if reason is not None and len(reason) > 1:
                    assert id(reason) in live, (
                        f"reduction dropped the reason of v{var}"
                    )

        solver._reduce_learned = checked
        assert not solver.solve().satisfiable
        assert reductions > 0, "workload never triggered a reduction"

    def test_forced_reduction_keeps_glue_and_binary_clauses(self):
        solver = Solver(pigeonhole_cnf(6, 5))
        assert not solver.solve().satisfiable
        protected = {
            id(c) for c in solver._learned if c.lbd <= 2 or len(c) <= 2
        }
        before = solver.num_learned
        solver._reduce_learned(force=True)
        survivors = {id(c) for c in solver._learned}
        assert protected <= survivors, "reduction dropped a glue clause"
        if before > len(protected):
            assert solver.num_learned < before

    def test_maintain_between_solves_preserves_verdicts(self):
        """The session-hygiene hook may be called between queries without
        changing any answer (clause deletion only forgets lemmas)."""
        rng = random.Random(7)
        cnf = CNF()
        cnf.new_vars(9)
        for _ in range(35):
            clause_vars = rng.sample(range(1, 10), k=3)
            cnf.add_clause(
                [v if rng.random() < 0.5 else -v for v in clause_vars]
            )
        assumption_sets = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 10), k=2)]
            for _ in range(8)
        ]
        reference = Solver(cnf)
        expected = [
            reference.solve(assumptions).satisfiable
            for assumptions in assumption_sets
        ]
        maintained = Solver(cnf)
        observed = []
        for assumptions in assumption_sets:
            observed.append(maintained.solve(assumptions).satisfiable)
            maintained.maintain()
        assert observed == expected

    def test_activity_overflow_requeues_every_variable(self):
        """Past 1e100 all activities are rescaled, so every heap key goes
        stale; the heap is rebuilt at the new scale and the search stays
        sound."""
        solver = Solver(pigeonhole_cnf(5, 4))
        solver._var_inc = 1e99  # the next bumps overflow
        assert not solver.solve().satisfiable
        assert max(solver._activity[1:]) <= 1e100
        live = set(solver._order)
        for var in range(1, solver._num_vars + 1):
            if solver._queued[var]:
                assert (-solver._activity[var], var) in live
        sat = Solver(pigeonhole_cnf(4, 4))
        sat._var_inc = 1e99
        result = sat.solve()
        assert result.satisfiable
        assert check_model(pigeonhole_cnf(4, 4), result.model)

    def test_rescale_var_activity_preserves_order_and_compacts(self):
        solver = Solver(pigeonhole_cnf(5, 4))
        assert not solver.solve().satisfiable
        # Blow up the activities artificially and bloat the lazy heap.
        for var in range(1, solver._num_vars + 1):
            solver._activity[var] *= 1e30
        ranking = sorted(
            range(1, solver._num_vars + 1),
            key=lambda v: (-solver._activity[v], v),
        )
        solver.rescale_var_activity()
        after = sorted(
            range(1, solver._num_vars + 1),
            key=lambda v: (-solver._activity[v], v),
        )
        assert after == ranking
        assert max(solver._activity[1:]) <= 1.0
        assert len(solver._order) == solver._num_vars


def _pinned_search_corpus() -> list[tuple]:
    """Every solve of a fixed incremental run, as comparable tuples.

    The formula is LaunchAbort's transition relation with both frames
    declared up front, so the CNF numbering is fixed.  The run mixes
    seeded assumption sets, clauses added between solves, one clause
    group that is later retracted and one ``maintain()`` call; no
    scopes.  A model is kept as a digest of its true variables.
    """
    import hashlib

    from repro.smt.encoder import Encoder
    from repro.stateflow.library import get_benchmark

    system = get_benchmark("ModelingALaunchAbortSystem").system
    encoder = Encoder()
    for var in system.variables:
        encoder.declare(var)
        encoder.declare(var.prime())
    declared = encoder.cnf.num_vars
    encoder.assert_expr(system.trans)
    solver = Solver(encoder.cnf)
    rng = random.Random(2024)

    def random_lits(count, top):
        return [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, top + 1), k=count)
        ]

    results = []

    def solve():
        if rng.random() < 0.75:
            assumptions = random_lits(rng.randint(3, 12), declared)
        else:
            assumptions = random_lits(rng.randint(1, 6), solver._num_vars)
        result = solver.solve(assumptions)
        model = hashlib.sha256(
            repr(sorted(v for v, true in result.model.items() if true)).encode()
        ).hexdigest()[:12]
        results.append((
            result.satisfiable, result.conflicts, result.decisions,
            result.propagations, result.conflicts_delta,
            result.decisions_delta, result.propagations_delta,
            result.learned_db_size,
            model if result.satisfiable else None,
        ))

    for _ in range(20):
        solve()
    group = solver.new_group()
    for _ in range(4):
        solver.add_clause(random_lits(3, declared), group=group)
    for round_ in range(20):
        solve()
        if round_ % 4 == 3:
            solver.add_clause(random_lits(5, declared))
    solver.retract_group(group)
    solve()
    solver.maintain()
    for _ in range(20):
        solve()
    return results


#: ``_pinned_search_corpus()`` as the plain two-watched-literal solver
#: answers it: same watch order, same literal swaps, same heap order.
PINNED_SEARCH = [
    (False, 0, 0, 250, 0, 0, 208, 0, None),
    (True, 0, 15, 549, 0, 15, 299, 0, 'cb6437b2559d'),
    (False, 1, 15, 713, 1, 0, 164, 0, None),
    (False, 1, 15, 755, 0, 0, 42, 0, None),
    (False, 1, 15, 755, 0, 0, 0, 0, None),
    (False, 1, 15, 926, 0, 0, 171, 0, None),
    (True, 2, 32, 1341, 1, 17, 415, 1, 'c52494456410'),
    (True, 3, 46, 1677, 1, 14, 336, 2, '9bcc3a6193ae'),
    (True, 3, 59, 1974, 0, 13, 297, 2, '181f1edbb5a0'),
    (True, 5, 77, 2297, 2, 18, 323, 4, 'af3509449461'),
    (True, 5, 84, 2594, 0, 7, 297, 4, 'd4f4ce444aca'),
    (False, 6, 84, 2630, 1, 0, 36, 4, None),
    (False, 6, 84, 2630, 0, 0, 0, 4, None),
    (False, 6, 84, 2783, 0, 0, 153, 4, None),
    (True, 7, 98, 3083, 1, 14, 300, 5, 'dc6cd28f8b43'),
    (False, 7, 98, 3149, 0, 0, 66, 5, None),
    (False, 7, 98, 3159, 0, 0, 10, 5, None),
    (True, 9, 114, 3511, 2, 16, 352, 7, '267cf713fee2'),
    (False, 10, 114, 3522, 1, 0, 11, 7, None),
    (False, 11, 114, 3526, 1, 0, 4, 7, None),
    (False, 11, 114, 3526, 0, 0, 0, 7, None),
    (False, 11, 114, 3591, 0, 0, 65, 7, None),
    (False, 11, 114, 3707, 0, 0, 116, 7, None),
    (False, 11, 114, 3728, 0, 0, 21, 7, None),
    (True, 12, 127, 4052, 1, 13, 324, 8, 'cada827529dc'),
    (True, 12, 144, 4345, 0, 17, 293, 8, '33167e14f6ec'),
    (False, 12, 144, 4351, 0, 0, 6, 8, None),
    (True, 12, 164, 4644, 0, 20, 293, 8, '33167e14f6ec'),
    (False, 12, 164, 4670, 0, 0, 26, 8, None),
    (False, 13, 164, 4748, 1, 0, 78, 9, None),
    (False, 13, 164, 4748, 0, 0, 0, 9, None),
    (True, 15, 174, 5119, 2, 10, 371, 11, '0587fc2f4f65'),
    (False, 15, 174, 5132, 0, 0, 13, 11, None),
    (True, 15, 187, 5425, 0, 13, 293, 11, '1c29b7b1c4cf'),
    (False, 15, 187, 5479, 0, 0, 54, 11, None),
    (False, 15, 187, 5641, 0, 0, 162, 11, None),
    (False, 15, 187, 5643, 0, 0, 2, 11, None),
    (False, 15, 187, 5647, 0, 0, 4, 11, None),
    (True, 15, 201, 5940, 0, 14, 293, 11, '1d836f053a7c'),
    (False, 15, 201, 5941, 0, 0, 1, 11, None),
    (True, 15, 215, 6234, 0, 14, 292, 11, '7952cd51d309'),
    (False, 15, 215, 6245, 0, 0, 11, 11, None),
    (False, 15, 215, 6250, 0, 0, 5, 11, None),
    (False, 15, 215, 6285, 0, 0, 35, 11, None),
    (True, 15, 231, 6577, 0, 16, 292, 11, '4bfba7648336'),
    (True, 16, 260, 7015, 1, 29, 438, 12, '0de9ea7ebedb'),
    (False, 16, 260, 7108, 0, 0, 93, 12, None),
    (True, 16, 279, 7400, 0, 19, 292, 12, '9cf8ddcd8776'),
    (False, 16, 279, 7400, 0, 0, 0, 12, None),
    (False, 17, 279, 7406, 1, 0, 6, 12, None),
    (False, 17, 279, 7406, 0, 0, 0, 12, None),
    (True, 17, 301, 7694, 0, 22, 288, 12, '9cf8ddcd8776'),
    (False, 17, 301, 7759, 0, 0, 65, 12, None),
    (False, 17, 301, 7771, 0, 0, 12, 12, None),
    (True, 17, 321, 8059, 0, 20, 288, 12, 'e4983edd3ff5'),
    (False, 17, 321, 8147, 0, 0, 88, 12, None),
    (False, 17, 321, 8155, 0, 0, 8, 12, None),
    (False, 17, 321, 8155, 0, 0, 0, 12, None),
    (False, 17, 321, 8230, 0, 0, 75, 12, None),
    (False, 19, 321, 8341, 2, 0, 111, 14, None),
    (False, 20, 321, 8457, 1, 0, 116, 15, None),
]


class TestPinnedSearch:
    def test_search_is_pinned(self):
        """Any change to propagation order, decisions, learning or
        restarts moves some counter or model here."""
        assert _pinned_search_corpus() == PINNED_SEARCH
