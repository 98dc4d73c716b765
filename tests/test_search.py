import random
from collections import Counter

import pytest

from aigsls.aiger import generate_random_sat_aig
from aigsls.circuit import (
    INPUT,
    Assignment,
    ConstrainedCircuit,
    Literal,
    build_circuit,
    enumerate_minimal_justifications,
    evaluate,
    random_complete_extension,
    verify_satisfying,
)
from aigsls.harness import SolverConfig, crsat_solve
from aigsls.metrics import build_profile
from aigsls.search import HEURISTICS, EmptyUnjustSet, SearchEngine
from oracles import random_constrained, random_dag, ref_propagate, ref_unjust


def lit(g, neg=False):
    return Literal(g, neg)


def constrained_chain():
    # in(0) -> b(1) -> out(2), out required to be 1
    c = build_circuit([INPUT, [lit(0)], [lit(1)]])
    return ConstrainedCircuit(c, {2: True})


def pinned_evaluation(cc, input_values):
    """``evaluate``'s consistent assignment, with the constrained gates pinned."""
    return Assignment(cc.circuit, evaluate(cc.circuit, input_values).values, cc.pinned)


def engine_on(cc, asg, heuristic="rand", rng=None):
    """A search engine whose assignment (and optionally RNG) is replaced."""
    engine = SearchEngine(cc, build_profile(cc.circuit), heuristic)
    engine.assignment = asg
    if rng is not None:
        engine.rng = rng
    return engine


class TestForwardPropagation:
    def test_chain_propagates_and_stops_at_constraint(self):
        cc = constrained_chain()
        asg = pinned_evaluation(cc, {0: 1})
        assert asg.unjust == frozenset()
        asg.flip(0)
        asg.propagate_forward([0])
        # b follows the input; the constrained output must not be flipped
        assert list(asg.values) == [0, 0, 1]
        assert asg.unjust == frozenset({2})

    def test_justified_pop_stops_the_path(self):
        # c = And(a, b) with b = 0 stays 0 when a flips; nothing else moves
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        cc = ConstrainedCircuit(c, {})
        asg = pinned_evaluation(cc, {0: 1, 1: 0})
        asg.flip(0)
        undo = []
        asg.propagate_forward([0], undo)
        assert undo == []
        assert asg.unjust == frozenset()

    def test_matches_reference_propagator(self):
        rng = random.Random(17)
        for _ in range(80):
            circuit = random_dag(rng, 200)
            cc = random_constrained(rng, circuit)
            asg = random_complete_extension(cc, rng)
            candidates = [g for g in range(circuit.num_gates) if not cc.pinned[g]]
            g = rng.choice(candidates)
            expected = bytearray(asg.values)
            expected[g] ^= 1
            expected = ref_propagate(cc, expected, [g])
            asg.flip(g)
            asg.propagate_forward([g])
            assert asg.values == expected
            assert asg.unjust == ref_unjust(circuit, asg.values)

    def test_each_gate_flipped_at_most_once(self):
        rng = random.Random(18)
        for _ in range(30):
            circuit = random_dag(rng, 150)
            cc = random_constrained(rng, circuit)
            asg = random_complete_extension(cc, rng)
            g = rng.choice([x for x in range(circuit.num_gates) if not cc.pinned[x]])
            asg.flip(g)
            undo = []
            asg.propagate_forward([g], undo)
            assert len(undo) == len(set(undo))
            assert len(undo) <= circuit.num_gates


def two_branch_fixture():
    """a, b inputs; d=And(a); e=And(b); f=And(-d,-e) pinned 0; g2=And(d) pinned 0.

    With a=b=0 the evaluation gives d=e=0, f=1, g2=0; pinning f to 0 leaves
    exactly f unjustified.  Justifying <f,0> can bind d->1 (breaking the
    pinned g2, leaving {d, g2} unjustified) or e->1 (leaving only {e}).
    """
    c = build_circuit([INPUT, INPUT, [lit(0)], [lit(1)],
                       [lit(2, True), lit(3, True)], [lit(2)]])
    cc = ConstrainedCircuit(c, {4: False, 5: False})

    class ZeroBits:
        def getrandbits(self, _):
            return 0

    asg = random_complete_extension(cc, ZeroBits())
    assert asg.unjust == frozenset({4})
    return cc, asg


class TestCountUnjustAfter:
    """The greedy trial: unjust count after a justification's flips, rolled back."""

    def test_hand_traced_fixture(self):
        cc, asg = two_branch_fixture()
        assert asg._trial([2]) == 2   # d -> 1
        assert asg._trial([3]) == 1   # e -> 1

    def test_does_not_mutate_live_state(self):
        cc, asg = two_branch_fixture()
        before_values = bytes(asg.values)
        before_unjust = asg.unjust
        asg._trial([2])
        assert bytes(asg.values) == before_values
        assert asg.unjust == before_unjust

    def test_agreeing_justification_changes_nothing(self):
        cc = constrained_chain()
        asg = pinned_evaluation(cc, {0: 1})
        assert asg.values[1] == 1      # the justification (1, 1) already holds
        assert asg._trial([]) == asg.unjust_count

    def test_matches_clone_apply_oracle(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(60):
            circuit = random_dag(rng, 60)
            cc = random_constrained(rng, circuit)
            asg = random_complete_extension(cc, rng)
            if not asg.ulist:
                continue
            g = rng.choice(asg.ulist)
            for sigma in enumerate_minimal_justifications(circuit, g, asg.values[g]):
                if any(cc.constraints.get(gt, v) != v for gt, v in sigma):
                    continue
                clone = asg.copy()
                flips = [gt for gt, v in sigma if clone.values[gt] != v]
                for x in flips:
                    clone.flip(x)
                clone.propagate_forward(flips)
                assert asg._trial(flips) == clone.unjust_count
                checked += 1
        assert checked > 20


class TestSelectGate:
    """The engine's gate selection, as called by every step of ``run``."""

    def test_empty_unjust_raises(self):
        cc = constrained_chain()
        asg = evaluate(cc.circuit, {0: 1})
        with pytest.raises(EmptyUnjustSet):
            engine_on(cc, asg)._select()

    def test_singleton_unjust_any_heuristic(self):
        cc, asg = two_branch_fixture()
        for heuristic in HEURISTICS:
            engine = engine_on(cc, asg, heuristic, random.Random(0))
            assert engine._select() == 4
            # a lone candidate is taken without consuming a random draw
            assert engine.rng.getstate() == random.Random(0).getstate()

    def test_strict_argmax_on_depth(self):
        # two unjustified gates at different depths: depth-max must take the deeper
        c = build_circuit([INPUT, [lit(0)], [lit(1)], [lit(2)]])
        cc = ConstrainedCircuit(c, {})
        asg = evaluate(c, {0: 1})
        asg.flip(1)   # unjust: {1, 2}
        profile = build_profile(c)
        assert asg.unjust == frozenset({1, 2})
        assert profile.depth[1] > profile.depth[2]
        for seed in range(20):
            assert engine_on(cc, asg, "depth-max", random.Random(seed))._select() == 1
            assert engine_on(cc, asg, "depth-min", random.Random(seed))._select() == 2

    def test_cc_heuristic_uses_current_value(self):
        # one gate per polarity; cc scores must follow the gate's value
        c = build_circuit([INPUT, INPUT, INPUT, [lit(0), lit(1)], [lit(2)]])
        cc = ConstrainedCircuit(c, {3: True, 4: True})
        asg = pinned_evaluation(cc, {0: 0, 1: 0, 2: 0})
        asg.flip(3)
        asg.flip(4)
        # values are 1 at both, so scores are cc1: gate3 -> 3, gate4 -> 2
        assert engine_on(cc, asg, "cc-max")._select() == 3
        assert engine_on(cc, asg, "cc-min")._select() == 4

    def test_cc_scores_follow_a_replaced_assignment(self):
        # a = And(0, 1, 2) scores cc0 = 2 at value 0 and cc1 = 4 at value 1;
        # b = And(c), c = And(3) scores 3 at either value
        c = build_circuit([INPUT, INPUT, INPUT, INPUT,
                           [lit(0), lit(1), lit(2)], [lit(3)], [lit(5)]])
        cc = ConstrainedCircuit(c, {})
        profile = build_profile(c)
        assert (profile.cc0[4], profile.cc1[4], profile.cc0[6], profile.cc1[6]) == (2, 4, 3, 3)
        # an engine whose own first assignment has a = 1 ...
        seed = next(s for s in range(100)
                    if SearchEngine(cc, profile, "cc-max", seed=s).assignment.values[4])
        engine = SearchEngine(cc, profile, "cc-max", wp=0.0, seed=seed)
        # ... is handed one where a = 0, so a must score 2 and b (3) wins
        asg = evaluate(c, {0: 1, 1: 1, 2: 1, 3: 1})
        asg.flip(4)
        asg.flip(6)
        engine.assignment = asg
        engine.run(1)
        # justifying b sets c to 0, which c's input no longer supports;
        # picking a would have flipped one of its inputs and left only b
        assert asg.values[5] == 0
        assert asg.unjust == frozenset({4, 5})

    def test_uniform_tie_breaking(self):
        # three identical unjustified branches tied on every measure
        c = build_circuit([INPUT, [lit(0)], [lit(0)], [lit(0)]])
        cc = ConstrainedCircuit(c, {1: True, 2: True, 3: True})

        class ZeroBits:
            def getrandbits(self, _):
                return 0

        asg = random_complete_extension(cc, ZeroBits())
        assert asg.unjust == frozenset({1, 2, 3})
        rng = random.Random(12345)
        draws = 10_000
        for heuristic in ("rand", "flow-max", "depth-min"):
            select = engine_on(cc, asg, heuristic, rng)._select
            counts = Counter(select() for _ in range(draws))
            assert set(counts) == {1, 2, 3}
            # 3-sigma band around the uniform expectation
            sigma = (draws * (1 / 3) * (2 / 3)) ** 0.5
            for g in (1, 2, 3):
                assert abs(counts[g] - draws / 3) < 3 * sigma


class TestCrsatSolve:
    def test_unconstrained_circuit_sat_at_step_zero(self):
        circuit = random_dag(random.Random(20), 40)
        cc = ConstrainedCircuit(circuit, {})
        result = crsat_solve(cc, build_profile(circuit), SolverConfig(seed=7))
        assert result.status == "SAT"
        assert result.steps_used == 0

    def test_cutoff_zero_returns_unknown(self):
        cc = constrained_chain()
        config = SolverConfig("rand", 0.2, cutoff=0, seed=1)
        result = crsat_solve(cc, build_profile(cc.circuit), config)
        assert result.status == "UNKNOWN"
        assert result.witness is None
        assert result.steps_used == 0

    def test_generated_instances_all_seeds_solve(self):
        cc = generate_random_sat_aig(8, 40, random.Random(3))
        profile = build_profile(cc.circuit)
        for seed in range(25):
            result = crsat_solve(cc, profile, SolverConfig("rand", 0.2, 10**6, seed))
            assert result.status == "SAT"
            assert result.steps_used <= 10**6

    def test_witness_reverifies_externally(self):
        cc = generate_random_sat_aig(6, 30, random.Random(4))
        profile = build_profile(cc.circuit)
        result = crsat_solve(cc, profile, SolverConfig("rand", 0.2, 10**6, 9))
        from aigsls.circuit import Assignment
        assert verify_satisfying(cc, Assignment(cc.circuit, bytearray(result.witness)))

    def test_pure_random_walk_reproducible(self):
        cc = generate_random_sat_aig(10, 60, random.Random(5))
        profile = build_profile(cc.circuit)
        config = SolverConfig("rand", wp=1.0, cutoff=50_000, seed=123)
        a = crsat_solve(cc, profile, config)
        b = crsat_solve(cc, profile, config)
        assert (a.status, a.steps_used, a.witness) == (b.status, b.steps_used, b.witness)

    def test_constraints_pinned_throughout(self):
        rng = random.Random(21)
        for _ in range(10):
            circuit = random_dag(rng, 60)
            cc = random_constrained(rng, circuit)
            engine = SearchEngine(cc, build_profile(circuit), "rand", 0.3, seed=rng.randrange(10**6))
            engine.run(300)
            for g, v in cc.constraints.items():
                assert engine.assignment.values[g] == v

    def test_debug_mode_checks_pass(self):
        # conflicting constraints keep the search running; after every chunk
        # the incremental unjust set matches a recomputation and pins hold
        base = generate_random_sat_aig(12, 120, random.Random(6))
        constraints = dict(base.constraints)
        for g in list(constraints):
            if g != 0:
                constraints[g] = not constraints[g]
        cc = ConstrainedCircuit(base.circuit, constraints, const_gate=0)
        engine = SearchEngine(cc, build_profile(cc.circuit), "depth-max", 0.2, seed=1)
        asg = engine.assignment
        total = 0x4000 + 10
        while engine.steps < total:
            assert not engine.run(min(0x400, total - engine.steps))
            assert frozenset(asg.ulist) == asg.recompute_unjust()
            assert all(asg.values[g] == v for g, v in cc.constraints.items())
        assert engine.steps == total

    def test_every_heuristic_solves_a_small_instance(self):
        cc = generate_random_sat_aig(8, 50, random.Random(7))
        profile = build_profile(cc.circuit)
        for heuristic in HEURISTICS:
            result = crsat_solve(cc, profile, SolverConfig(heuristic, 0.2, 300_000, 2))
            assert result.status == "SAT", heuristic

    def test_config_validation(self):
        cc = constrained_chain()
        profile = build_profile(cc.circuit)
        with pytest.raises(ValueError):
            crsat_solve(cc, profile, SolverConfig("bogus", 0.2, 10, 0))
        with pytest.raises(ValueError):
            crsat_solve(cc, profile, SolverConfig("rand", 1.5, 10, 0))
        with pytest.raises(ValueError):
            crsat_solve(cc, profile, SolverConfig("rand", 0.2, -1, 0))

    def test_greedy_picks_the_smaller_count(self):
        cc, _ = two_branch_fixture()
        profile = build_profile(cc.circuit)
        engine = SearchEngine(cc, profile, "rand", wp=0.0, seed=0)

        class ZeroBits:
            def getrandbits(self, _):
                return 0

        engine.assignment = random_complete_extension(cc, ZeroBits())
        engine.run(1)
        # the greedy move must flip e (gate 3), leaving exactly e unjustified
        assert engine.assignment.unjust == frozenset({3})

    def test_pinned_constant_never_flipped(self):
        # AND forced to 1 while one child is the constant-false literal:
        # unsatisfiable, and the constant must keep its value throughout
        cc = ConstrainedCircuit(
            build_circuit([INPUT, INPUT, [lit(1), lit(0, True)]]),
            {0: True, 2: True}, const_gate=0)
        engine = SearchEngine(cc, build_profile(cc.circuit), "rand", 0.5, seed=3)
        found = engine.run(2000)
        assert not found
        assert engine.assignment.values[0] == 1
        assert engine.steps == 2000
