import copy
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigsls import _kernel
from aigsls.circuit import (
    INPUT,
    Assignment,
    CircuitError,
    ConstrainedCircuit,
    ConstraintNotOnOutput,
    CycleDetected,
    DanglingReference,
    Literal,
    build_circuit,
    evaluate,
    is_justified,
    random_complete_extension,
    verify_satisfying,
)
from aigsls.search import _moves
from oracles import (
    brute_force_justifications,
    brute_force_sat,
    random_constrained,
    random_dag,
    ref_evaluate,
    ref_topo_check,
    ref_unjust,
)


def lit(g, neg=False):
    return Literal(g, neg)


def two_input_and():
    return build_circuit([INPUT, INPUT, [lit(0), lit(1)]])


class TestBuildCircuit:
    def test_two_input_and(self):
        c = two_input_and()
        assert c.parents(0).tolist() == [2]
        assert c.parents(1).tolist() == [2]
        assert c.topo_order[-1] == 2
        assert c.inputs == (0, 1)
        assert c.outputs == (2,)

    def test_self_loop_rejected(self):
        with pytest.raises(CycleDetected):
            build_circuit([[lit(0)]])

    def test_two_gate_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_circuit([[lit(1)], [lit(0)]])

    def test_dangling_reference(self):
        with pytest.raises(DanglingReference):
            build_circuit([INPUT, [lit(0), lit(5)]])

    def test_empty_and_rejected(self):
        with pytest.raises(CircuitError):
            build_circuit([INPUT, []])

    def test_plain_int_children_read_as_packed_literals(self):
        c = build_circuit([INPUT, INPUT, (2, 1)])
        assert c == build_circuit([INPUT, INPUT, (lit(1), lit(0, True))])
        assert c.fanin[2] == (lit(1), lit(0, True))
        # packed 2 is gate 1 itself, as Literal(1) is
        for child in (2, lit(1)):
            with pytest.raises(CycleDetected, match="1 gates lie on a cycle"):
                build_circuit([INPUT, (child,)])

    def test_children_that_are_not_ints_rejected(self):
        for child in ((0, False), 0.0, True, "0"):
            with pytest.raises(CircuitError, match="^gate 1: every child must be an int literal$"):
                build_circuit([INPUT, (lit(0), child)])

    def test_forward_references_allowed_when_acyclic(self):
        c = build_circuit([[lit(1)], INPUT])
        assert c.topo_order == (1, 0)

    def test_random_dags_topologically_ordered(self):
        rng = random.Random(11)
        for _ in range(20):
            c = random_dag(rng, 100)
            assert ref_topo_check(c)

    def test_fanout_is_transpose_of_fanin(self):
        rng = random.Random(12)
        for _ in range(20):
            c = random_dag(rng, 80)
            for g in range(c.num_gates):
                for p in c.parents(g):
                    assert any(l.gate == g for l in c.fanin[p])
                kids = c.fanin[g]
                if kids is not None:
                    for l in kids:
                        assert g in c.parents(l.gate)

    def test_a_circuit_is_its_int32_csr_arrays(self):
        c = random_dag(random.Random(13), 60)
        assert type(c._csr) is _kernel.CSR
        assert all(type(a) is array and a.typecode == "i" for a in c._csr)
        assert vars(c) == {"_csr": c._csr, "num_gates": 60}


class TestLiteral:
    def test_int_value_and_fields(self):
        x = Literal(5, True)
        assert x == 11 and isinstance(x, int)
        assert (x.gate, x.complement) == (5, True)
        assert (Literal(5).gate, Literal(5).complement) == (5, False)

    def test_pickle_and_deepcopy_keep_gate_and_complement(self):
        # int's own __getnewargs__ would rebuild Literal(11, False)
        c = random_dag(random.Random(13), 40)
        assert pickle.loads(pickle.dumps(c.fanin)) == c.fanin
        x = copy.deepcopy(Literal(5, True))
        assert (x.gate, x.complement) == (5, True)


class TestEvaluate:
    def test_plain_and(self):
        c = two_input_and()
        assert evaluate(c, {0: 1, 1: 1}).values[2] == 1
        assert evaluate(c, {0: 1, 1: 0}).values[2] == 0

    def test_complemented_edge(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1, True)]])
        assert evaluate(c, {0: 1, 1: 1}).values[2] == 0
        assert evaluate(c, {0: 1, 1: 0}).values[2] == 1

    def test_random_circuits_fully_justified(self):
        rng = random.Random(21)
        for _ in range(10):
            c = random_dag(rng, 50)
            inputs = {g: rng.getrandbits(1) for g in c.inputs}
            asg = evaluate(c, inputs)
            assert asg.unjust == frozenset()
            assert all(is_justified(c, asg, g) for g in range(c.num_gates))

    def test_matches_recursive_reference(self):
        rng = random.Random(22)
        for _ in range(10):
            c = random_dag(rng, 60)
            inputs = {g: rng.getrandbits(1) for g in c.inputs}
            assert list(evaluate(c, inputs).values) == ref_evaluate(c, inputs)

    def test_idempotent(self):
        rng = random.Random(23)
        c = random_dag(rng, 40)
        inputs = {g: rng.getrandbits(1) for g in c.inputs}
        asg = evaluate(c, inputs)
        again = evaluate(c, {g: asg.values[g] for g in c.inputs})
        assert again.values == asg.values


class TestIsJustified:
    def test_input_gate_always_justified(self):
        c = two_input_and()
        for v0 in (0, 1):
            asg = Assignment(c, bytearray([v0, 1, 0]))
            assert is_justified(c, asg, 0)

    def test_and_zero_with_zero_child(self):
        c = two_input_and()
        asg = Assignment(c, bytearray([0, 1, 0]))
        assert is_justified(c, asg, 2)

    def test_and_zero_with_both_children_one(self):
        c = two_input_and()
        asg = Assignment(c, bytearray([1, 1, 0]))
        assert not is_justified(c, asg, 2)


def moves(c, values, g):
    csr = c._csr
    return _moves(csr.fin_off, csr.fin, bytearray(values), g)


class TestJustifications:
    """``_moves``: the flip lists of an unjustified gate's justifications."""

    def test_and_forced_to_zero(self):
        c = two_input_and()
        assert moves(c, [1, 1, 0], 2) == [[0], [1]]

    def test_and_forced_to_one(self):
        c = two_input_and()
        assert moves(c, [0, 1, 1], 2) == [[0]]
        assert moves(c, [0, 0, 1], 2) == [[0, 1]]

    def test_three_children_with_complement(self):
        c = build_circuit([INPUT, INPUT, INPUT,
                           [lit(0), lit(1, True), lit(2)]])
        assert moves(c, [1, 0, 1, 0], 3) == [[0], [1], [2]]
        assert moves(c, [0, 1, 1, 1], 3) == [[0, 1]]

    def test_duplicate_children_collapse(self):
        c = build_circuit([INPUT, INPUT, [lit(1), lit(0), lit(1)]])
        assert moves(c, [1, 1, 0], 2) == [[1], [0]]
        assert moves(c, [0, 0, 1], 2) == [[1, 0]]

    def test_constant_zero_gate(self):
        c = build_circuit([INPUT, [lit(0), lit(0, True)]])
        # holding 1 is impossible whatever the child holds
        assert moves(c, [0, 1], 1) == []
        assert moves(c, [1, 1], 1) == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        c = random_dag(rng, rng.randint(2, 12), max_arity=4)
        values = bytearray(rng.getrandbits(1) for _ in range(c.num_gates))
        for g in ref_unjust(c, values):
            got = moves(c, values, g)
            assert {frozenset(m) for m in got} == {
                frozenset(gt for gt, v in j if values[gt] != v)
                for j in brute_force_justifications(c, g, values[g])}
            assert len(set(map(frozenset, got))) == len(got)

    def test_applying_a_justification_justifies_the_gate(self):
        rng = random.Random(31)
        for _ in range(50):
            c = random_dag(rng, 30)
            values = bytearray(rng.getrandbits(1) for _ in range(c.num_gates))
            for g in ref_unjust(c, values):
                for m in moves(c, values, g):
                    trial = bytearray(values)
                    for gt in m:
                        trial[gt] ^= 1
                    assert g not in ref_unjust(c, trial)


class TestVerifySatisfying:
    def test_consistent_and_respected(self):
        c = two_input_and()
        cc = ConstrainedCircuit(c, {2: True})
        assert verify_satisfying(cc, evaluate(c, {0: 1, 1: 1}))

    def test_violated_constraint(self):
        c = two_input_and()
        cc = ConstrainedCircuit(c, {2: True})
        assert not verify_satisfying(cc, evaluate(c, {0: 0, 1: 1}))

    def test_inconsistent_gate(self):
        c = two_input_and()
        cc = ConstrainedCircuit(c, {})
        assert not verify_satisfying(cc, Assignment(c, bytearray([1, 1, 0])))

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(40):
            c = random_dag(rng, rng.randint(4, 20), p_input=0.5)
            if len(c.inputs) > 8:
                continue
            cc = random_constrained(rng, c)
            sat, witness = brute_force_sat(cc)
            if sat:
                hits += 1
                assert verify_satisfying(cc, Assignment(c, bytearray(witness), cc.pinned))
            # every full input sweep value must agree with verify_satisfying
            for _ in range(5):
                inputs = {g: cc.constraints.get(g, rng.getrandbits(1)) for g in c.inputs}
                asg = evaluate(c, inputs)
                expected = all(asg.values[g] == v for g, v in cc.constraints.items())
                assert verify_satisfying(cc, asg) == expected
        assert hits  # the sweep must exercise satisfiable cases too

    def test_rejects_values_other_than_zero_and_one(self):
        # read as true under either polarity, a 2 would satisfy AND(x, not x)
        c = build_circuit([INPUT, INPUT, (Literal(1), Literal(1, True))])
        cc = ConstrainedCircuit(c, {0: True, 2: True}, const_gate=0)
        with pytest.raises(ValueError):
            verify_satisfying(cc, Assignment(c, bytearray([1, 2, 1]), cc.pinned))


class TestConstrainedCircuit:
    def test_rejects_constraint_on_internal_gate(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)], [lit(2), lit(1)]])
        with pytest.raises(ConstraintNotOnOutput):
            ConstrainedCircuit(c, {2: True})

    def test_rejects_constraint_on_referenced_input(self):
        c = two_input_and()
        with pytest.raises(ConstraintNotOnOutput):
            ConstrainedCircuit(c, {0: True})

    def test_const_gate_exemption(self):
        c = two_input_and()
        cc = ConstrainedCircuit(c, {0: True}, const_gate=0)
        assert cc.pinned[0] == 1

    def test_const_gate_must_be_pinned_true(self):
        c = two_input_and()
        with pytest.raises(CircuitError):
            ConstrainedCircuit(c, {0: False}, const_gate=0)
        with pytest.raises(CircuitError):
            ConstrainedCircuit(c, {}, const_gate=0)

    def test_out_of_range_constraint(self):
        with pytest.raises(DanglingReference):
            ConstrainedCircuit(two_input_and(), {9: True})


class TestRandomCompleteExtension:
    def test_unconstrained_circuit_has_empty_unjust(self):
        c = random_dag(random.Random(51), 40)
        cc = ConstrainedCircuit(c, {})
        asg = random_complete_extension(cc, random.Random(1))
        assert asg.unjust == frozenset()

    def test_disagreeing_constraint_is_unjustified(self):
        c = two_input_and()
        cc = ConstrainedCircuit(c, {2: True})
        # inputs (0, 0) evaluate the AND to 0; the constraint forces 1
        class FixedBits:
            def getrandbits(self, _):
                return 0
        asg = random_complete_extension(cc, FixedBits())
        assert asg.values[2] == 1
        assert asg.unjust == frozenset({2})

    def test_seed_determinism(self):
        c = random_dag(random.Random(52), 60)
        cc = random_constrained(random.Random(53), c)
        a = random_complete_extension(cc, random.Random(42))
        b = random_complete_extension(cc, random.Random(42))
        assert a.values == b.values
        assert a.unjust == b.unjust

    def test_unjust_is_exactly_the_violated_constraints(self):
        rng = random.Random(54)
        for _ in range(20):
            c = random_dag(rng, 50)
            cc = random_constrained(rng, c)
            asg = random_complete_extension(cc, rng)
            assert asg.unjust == ref_unjust(c, asg.values)
            assert asg.unjust <= set(cc.constraints)


class TestIncrementalUnjust:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(0, 10**6), max_size=30))
    def test_flip_sequences_match_scratch_recomputation(self, seed, flips):
        rng = random.Random(seed)
        c = random_dag(rng, rng.randint(2, 60))
        asg = evaluate(c, {g: rng.getrandbits(1) for g in c.inputs})
        for raw in flips:
            asg.flip(raw % c.num_gates)
            assert asg.unjust == ref_unjust(c, asg.values)

    def test_rollback_restores_values_and_unjust(self):
        rng = random.Random(61)
        c = random_dag(rng, 50)
        asg = evaluate(c, {g: rng.getrandbits(1) for g in c.inputs})
        before_values = bytes(asg.values)
        before_unjust = asg.unjust
        undo = []
        for _ in range(10):
            asg.flip(rng.randrange(c.num_gates), undo)
        asg.rollback(undo)
        assert bytes(asg.values) == before_values
        assert asg.unjust == before_unjust

    def test_pins_are_fixed_at_construction(self):
        rng = random.Random(62)
        c = random_dag(rng, 40)
        cc = random_constrained(rng, c)
        asg = random_complete_extension(cc, rng)
        with pytest.raises(AttributeError):
            asg.pinned = bytes(c.num_gates)
        assert asg.pinned == cc.pinned
        with pytest.raises(CircuitError):
            Assignment(c, asg.values, bytes(c.num_gates - 1))
