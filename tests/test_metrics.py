import io
import random
import time
import tracemalloc
from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aigsls.aiger import generate_random_sat_aig
from aigsls.circuit import INPUT, Literal, build_circuit
from aigsls.metrics import COLUMNS, build_profile, dense_ranks
from oracles import (
    random_dag,
    ref_cc,
    ref_co,
    ref_depth,
    ref_flow,
    ref_levels,
    ref_tfi_sizes,
    ref_tfo_sizes,
)


def lit(g, neg=False):
    return Literal(g, neg)


def chain():
    # in(0) -> a(1) -> out(2), unary references
    return build_circuit([INPUT, [lit(0)], [lit(1)]])


def fibonacci_chain(rng, length):
    """Each chain gate ANDs the two before it, so cc1 grows like Fibonacci
    numbers; side gates read chain gates through complemented edges."""
    definitions = [INPUT, INPUT]
    for g in range(2, length):
        definitions.append((Literal(g - 1), Literal(g - 2)))
    for _ in range(length // 3):
        definitions.append((Literal(rng.randrange(length)),
                            Literal(rng.randrange(len(definitions)), True)))
    return build_circuit(definitions)


def levels(c, alevel_mode="self"):
    p = build_profile(c, alevel_mode)
    return p.level, p.llevel, p.alevel


def scoap_cc(c):
    p = build_profile(c)
    return p.cc0, p.cc1


def assert_same_order(keys, scores):
    """``scores`` compare with each other exactly as ``keys`` do."""
    ordered = sorted(range(len(keys)), key=keys.__getitem__)
    for a, b in zip(ordered, ordered[1:]):
        assert (keys[a] == keys[b]) == (scores[a] == scores[b])
        assert (keys[a] < keys[b]) == (scores[a] < scores[b])


class TestDepth:
    def test_output_gate_is_zero(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        assert build_profile(c).depth[2] == 0

    def test_chain(self):
        depth = build_profile(chain()).depth
        assert depth == [2, 1, 0]

    def test_matches_longest_path_oracle(self):
        rng = random.Random(1)
        for _ in range(15):
            c = random_dag(rng, 100)
            assert build_profile(c).depth == ref_depth(c)

    def test_duality_along_edges(self):
        rng = random.Random(2)
        c = random_dag(rng, 120)
        depth = build_profile(c).depth
        for g in range(c.num_gates):
            parents = c.parents(g)
            if parents:
                assert all(depth[g] >= depth[p] + 1 for p in parents)
                assert any(depth[g] == depth[p] + 1 for p in parents)


class TestLevels:
    def test_input_gate_all_zero(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        level, llevel, alevel = levels(c)
        assert (level[0], llevel[0], alevel[0]) == (0, 0, 0.0)

    def test_max_min_recursion(self):
        # b sits at level 2; g = And(a, b) with a an input
        c = build_circuit([INPUT, INPUT, [lit(1)], [lit(2)], [lit(0), lit(3)]])
        level, llevel, _ = levels(c)
        assert level[3] == 2
        assert level[4] == 3
        assert llevel[4] == 1

    @pytest.mark.parametrize("mode", ["self", "level-sum"])
    def test_sandwich_property(self, mode):
        rng = random.Random(3)
        for _ in range(15):
            c = random_dag(rng, 100)
            level, llevel, alevel = levels(c, mode)
            for g in range(c.num_gates):
                assert llevel[g] <= alevel[g] + 1e-12
                assert alevel[g] <= level[g] + 1e-12

    @pytest.mark.parametrize("mode", ["self", "level-sum"])
    def test_matches_recursive_oracle(self, mode):
        rng = random.Random(4)
        for _ in range(10):
            c = random_dag(rng, 80)
            assert levels(c, mode) == ref_levels(c, mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_profile(chain(), "bogus")


class TestClosures:
    def test_output_has_empty_tfo(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        assert build_profile(c).tfo_size(2) == 0

    def test_input_feeding_everything(self):
        defs = [INPUT]
        for g in range(1, 10):
            defs.append([lit(g - 1), lit(0)] if g > 1 else [lit(0)])
        c = build_circuit(defs)
        assert build_profile(c).tfo_size(0) == 9

    def test_bulk_and_lazy_match_dfs_oracle(self):
        rng = random.Random(5)
        for _ in range(10):
            c = random_dag(rng, 90)
            tfo, tfi = ref_tfo_sizes(c), ref_tfi_sizes(c)
            profile = build_profile(c).materialize_closures()
            assert (profile._tfo, profile._tfi) == (tfo, tfi)
            profile = build_profile(c)
            assert [profile.tfo_size(g) for g in range(c.num_gates)] == tfo
            assert [profile.tfi_size(g) for g in range(c.num_gates)] == tfi

    def test_closure_bounds(self):
        rng = random.Random(6)
        c = random_dag(rng, 70)
        profile = build_profile(c).materialize_closures()
        for g in range(c.num_gates):
            kids = {p >> 1 for p in c.child_literals(g)}
            assert profile.tfi_size(g) >= len(kids)
            assert profile.tfo_size(g) >= profile.fanout_size[g]

    def test_materialized_closures_take_linear_memory(self):
        # one bitset per gate would peak near 1 MB here, on either path
        c = generate_random_sat_aig(16, 3000, random.Random(7)).circuit
        profile = build_profile(c)
        tracemalloc.start()
        try:
            profile.materialize_closures()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400_000, f"{peak} bytes at peak"
        assert min(profile._tfo) >= 0 and min(profile._tfi) >= 0


class TestScoap:
    def test_input_controllability(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        cc0, cc1 = scoap_cc(c)
        assert (cc0[0], cc1[0]) == (1, 1)

    def test_plain_and(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        cc0, cc1 = scoap_cc(c)
        assert cc0[2] == 2
        assert cc1[2] == 3

    def test_complemented_child_swaps_costs(self):
        c = build_circuit([INPUT, INPUT, [lit(0, True), lit(1)]])
        cc0, cc1 = scoap_cc(c)
        assert cc1[2] == 3
        assert cc0[2] == 2

    def test_swap_visible_past_the_inputs(self):
        # d = And(a, b) has cc = (2, 3); g = And(-d, c) must read d's pair swapped
        c = build_circuit([INPUT, INPUT, INPUT,
                           [lit(0), lit(1)],
                           [lit(3, True), lit(2)]])
        cc0, cc1 = scoap_cc(c)
        assert cc0[4] == 1 + min(cc1[3], cc0[2])  # = 1 + min(3, 1) = 2
        assert cc1[4] == 1 + cc0[3] + cc1[2]      # = 1 + 2 + 1 = 4

    def test_output_observability_zero(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        assert build_profile(c).co[2] == 0

    def test_single_parent_observability(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        p = build_profile(c)
        assert p.co[0] == 1 + 0 + p.cc1[1]  # = 2

    def test_matches_recursive_oracles(self):
        rng = random.Random(7)
        for _ in range(10):
            c = random_dag(rng, 80)
            p = build_profile(c)
            assert (p.cc0, p.cc1) == ref_cc(c)
            assert p.co == ref_co(c)


class TestFlow:
    def test_single_and_splits_evenly(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        assert build_profile(c).flow == [0.5, 0.5, 1.0]

    def test_unary_chain_conserves_the_unit(self):
        assert build_profile(chain()).flow == [1.0, 1.0, 1.0]

    def test_conservation_law(self):
        rng = random.Random(8)
        for _ in range(15):
            c = random_dag(rng, 100)
            flow = build_profile(c).flow
            assert abs(sum(flow[g] for g in c.inputs) - len(c.outputs)) < 1e-9

    @pytest.mark.parametrize("mode", ["conserving", "fanout-split"])
    def test_matches_recursive_oracle(self, mode):
        rng = random.Random(9)
        for _ in range(10):
            c = random_dag(rng, 80)
            got = build_profile(c, flow_mode=mode).flow
            want = ref_flow(c, mode)
            assert all(abs(a - b) < 1e-9 for a, b in zip(got, want))


class TestProfile:
    def test_nonnegativity_and_bounds(self):
        rng = random.Random(10)
        c = random_dag(rng, 150)
        p = build_profile(c).materialize_closures()
        for g in range(c.num_gates):
            assert p.depth[g] >= 0 and p.level[g] >= 0
            assert p.cc0[g] >= 1 and p.cc1[g] >= 1
            assert p.co[g] >= 0
            assert p.flow[g] >= 0.0

    def test_zero_markers_characterize_io(self):
        rng = random.Random(11)
        c = random_dag(rng, 100)
        p = build_profile(c)
        for g in range(c.num_gates):
            assert (p.depth[g] == 0) == (g in set(c.outputs))
            is_input = c.is_input(g)
            assert (p.level[g] == 0) == is_input
            assert (p.llevel[g] == 0) == is_input
            assert (p.alevel[g] == 0.0) == is_input

    def test_reproducible_bit_for_bit(self):
        cc = generate_random_sat_aig(6, 30, random.Random(12))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        build_profile(cc.circuit).write_csv(buf_a)
        build_profile(cc.circuit).write_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_csv_shape(self):
        c = build_circuit([INPUT, INPUT, [lit(0), lit(1)]])
        buf = io.StringIO()
        build_profile(c).write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "gate,depth,level,llevel,alevel,fo,tfo,tfi,cc0,cc1,co,flow"
        assert len(lines) == 1 + c.num_gates

    def test_scores_order_gates_as_the_measures_do(self):
        # cc is read at each gate's value; the chain's costs pass 2**63
        rng = random.Random(14)
        for circuit in (random_dag(rng, 150), fibonacci_chain(rng, 120)):
            p = build_profile(circuit)
            gates = range(circuit.num_gates)
            values = [rng.getrandbits(1) for _ in gates]
            for measure in (*COLUMNS, "cc"):
                lo, hi = p.scores(measure)
                if measure == "cc":
                    column = [(p.cc1 if v else p.cc0)[g] for g, v in zip(gates, values)]
                else:
                    column = getattr(p, COLUMNS[measure])
                assert_same_order(column, [(hi if v else lo)[g] for g, v in zip(gates, values)])
        assert max(p.cc1) > 2**63 and max(p.co) > 2**63

    def test_int_measures_score_by_their_own_values(self):
        rng = random.Random(15)
        p = build_profile(random_dag(rng, 150))
        for measure in ("depth", "level", "llevel", "fo"):
            lo, hi = p.scores(measure)
            assert lo is hi and lo.typecode == "i"
            assert lo.tolist() == getattr(p, COLUMNS[measure])
        lo, hi = p.scores("cc")
        assert (lo.tolist(), hi.tolist()) == (p.cc0, p.cc1)

    def test_floats_and_ints_past_int32_are_ranked(self):
        rng = random.Random(16)
        n = 150
        column = [rng.randrange(40) for _ in range(n)]
        for top, ranked in ((2**31 - 1, False), (2**31, True), (2**32, True), (-1, True),
                            (0.0, True)):
            p = build_profile(random_dag(rng, n))
            p.depth = [*column[:-1], top]
            lo, hi = p.scores("depth")
            assert lo is hi
            assert lo == (dense_ranks(p.depth)[0] if ranked else array("i", p.depth)), top
        for circuit, measures in ((random_dag(rng, n), ("alevel", "flow")),
                                  (fibonacci_chain(rng, 120), ("co",))):
            p = build_profile(circuit)
            for measure in measures:
                assert p.scores(measure)[0] == dense_ranks(getattr(p, COLUMNS[measure]))[0]
        # cc0 fits int32 but cc1 passes 2**63: both ranked in one space
        assert max(p.cc0) < 2**31 < max(p.cc1)
        assert p.scores("cc") == dense_ranks(p.cc0, p.cc1)

    def test_large_circuit_builds_within_budget(self):
        cc = generate_random_sat_aig(200, 100_000, random.Random(13))
        start = time.process_time()
        build_profile(cc.circuit)
        assert time.process_time() - start < 10.0


RANKED = st.one_of(st.integers(2**63 - 2, 2**63 + 2), st.integers(), st.floats(allow_nan=False))


@example([[2**63, 2**63 + 1]])
@given(st.lists(st.lists(RANKED, max_size=12), min_size=1, max_size=3))
def test_dense_ranks_order_values_exactly_as_they_compare(columns):
    # integers past 2**63 that differ by 1 round to one float
    ranks = dense_ranks(*columns)
    assert [len(r) for r in ranks] == [len(c) for c in columns]
    assert_same_order([v for c in columns for v in c], [r for c in ranks for r in c])
