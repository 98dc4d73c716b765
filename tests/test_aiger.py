import io
import os
import random
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigsls.aiger import (
    LatchesUnsupported,
    LiteralOutOfRange,
    MalformedHeader,
    TruncatedDeltaEncoding,
    UnsatisfiableConstraints,
    export_dimacs,
    generate_random_sat_aig,
    parse_aiger,
    serialize_ascii,
    serialize_binary,
)
from aigsls.circuit import (
    INPUT,
    ConstrainedCircuit,
    ConstraintNotOnOutput,
    DuplicateDefinition,
    Literal,
    build_circuit,
)
from aigsls.harness import SolverConfig, crsat_solve
from aigsls.metrics import build_profile
from aigsls.cli import run_cli
from oracles import brute_force_sat, dpll, parse_dimacs

SMALLEST_AND = b"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"


class TestParseAscii:
    def test_smallest_and_instance(self):
        cc = parse_aiger(SMALLEST_AND)
        assert cc.const_gate == 0
        assert cc.constraints == {0: True, 3: True}
        assert cc.circuit.fanin[3] == (Literal(1, False), Literal(2, False))
        assert cc.circuit.inputs == (0, 1, 2)

    def test_negated_output(self):
        cc = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n")
        assert cc.constraints == {0: True, 3: False}

    def test_complemented_children(self):
        cc = parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 3 5\n")
        assert cc.circuit.fanin[3] == (Literal(1, True), Literal(2, True))

    def test_constant_children(self):
        # gate2 = input AND constant-true, i.e. a buffer of the input
        cc = parse_aiger(b"aag 2 1 0 1 1\n2\n4\n4 2 1\n")
        assert cc.circuit.fanin[2] == (Literal(1, False), Literal(0, False))
        # constant-false child pins the AND to 0
        cc0 = parse_aiger(b"aag 2 1 0 1 1\n2\n4\n4 2 0\n")
        assert cc0.circuit.fanin[2] == (Literal(1, False), Literal(0, True))
        assert not brute_force_sat(cc0)[0]

    def test_symbols_and_comments_ignored(self):
        text = SMALLEST_AND + b"i0 foo\ni1 bar\no0 out\nc\nanything goes\n"
        assert parse_aiger(text) == parse_aiger(SMALLEST_AND)

    def test_output_on_unreferenced_input(self):
        cc = parse_aiger(b"aag 1 1 0 1 0\n2\n2\n")
        assert cc.constraints == {0: True, 1: True}

    def test_constant_output_literal_true(self):
        cc = parse_aiger(b"aag 1 1 0 1 0\n2\n1\n")
        assert cc.constraints == {0: True}

    def test_constant_output_literal_false_is_unsat(self):
        with pytest.raises(UnsatisfiableConstraints):
            parse_aiger(b"aag 1 1 0 1 0\n2\n0\n")

    def test_conflicting_outputs(self):
        with pytest.raises(UnsatisfiableConstraints):
            parse_aiger(b"aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\n")

    def test_duplicate_same_polarity_outputs_collapse(self):
        cc = parse_aiger(b"aag 3 2 0 2 1\n2\n4\n6\n6\n6 2 4\n")
        assert cc.constraints == {0: True, 3: True}

    def test_output_on_referenced_input_rejected(self):
        with pytest.raises(ConstraintNotOnOutput):
            parse_aiger(b"aag 2 1 0 1 1\n2\n2\n4 2 2\n")


class TestParseErrors:
    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            parse_aiger(b"agg 1 1 0 0 0\n2\n")

    def test_header_arithmetic(self):
        with pytest.raises(MalformedHeader):
            parse_aiger(b"aag 5 2 0 1 1\n2\n4\n6\n6 2 4\n")

    def test_latches_unsupported(self):
        with pytest.raises(LatchesUnsupported):
            parse_aiger(b"aag 4 2 1 1 1\n2\n4\n6 8\n8\n8 2 4\n")

    def test_duplicate_definition(self):
        with pytest.raises(DuplicateDefinition):
            parse_aiger(b"aag 3 2 0 1 1\n2\n2\n6\n6 2 4\n")

    def test_undefined_variable(self):
        with pytest.raises(MalformedHeader):
            parse_aiger(b"aag 3 2 0 0 1\n2\n4\n8 2 4\n")

    def test_literal_out_of_range(self):
        with pytest.raises(LiteralOutOfRange):
            parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n6 2 9\n")

    def test_truncated_and_section(self):
        with pytest.raises(MalformedHeader):
            parse_aiger(b"aag 3 2 0 1 1\n2\n4\n6\n")


class TestBinary:
    def test_handcrafted_binary(self):
        # AND 6 = 4 & 2 encodes as deltas (2, 2)
        cc = parse_aiger(b"aig 3 2 0 1 1\n6\n\x02\x02")
        assert cc.constraints == {0: True, 3: True}
        assert cc.circuit.fanin[3] == (Literal(2, False), Literal(1, False))

    def test_ascii_binary_round_trip(self):
        rng = random.Random(5)
        for _ in range(10):
            cc = generate_random_sat_aig(rng.randint(1, 6), rng.randint(1, 30), rng)
            assert parse_aiger(serialize_ascii(cc).encode()) == cc
            assert parse_aiger(serialize_binary(cc)) == cc

    def test_equality_builds_no_tuple_views(self):
        cc = generate_random_sat_aig(5, 40, random.Random(6))
        ascii_form = parse_aiger(serialize_ascii(cc).encode()).circuit
        binary_form = parse_aiger(serialize_binary(cc)).circuit
        assert ascii_form == binary_form and hash(ascii_form) == hash(binary_form)
        for circuit in (ascii_form, binary_form):
            assert set(vars(circuit)) == {"_csr", "num_gates"}

    def test_truncated_delta(self):
        with pytest.raises(TruncatedDeltaEncoding):
            parse_aiger(b"aig 3 2 0 1 1\n6\n\x82")
        with pytest.raises(TruncatedDeltaEncoding):
            parse_aiger(b"aig 3 2 0 1 1\n6\n")

    def test_out_of_order_operands(self):
        with pytest.raises(LiteralOutOfRange):
            parse_aiger(b"aig 3 2 0 1 1\n6\n\x07\x02")

    def test_multibyte_delta(self):
        # 300 ANDs force deltas beyond one 7-bit group
        rng = random.Random(6)
        cc = generate_random_sat_aig(4, 300, rng)
        assert parse_aiger(serialize_binary(cc)) == cc


class TestExportDimacs:
    def test_two_input_and_constrained(self):
        c = build_circuit([INPUT, INPUT, [Literal(0), Literal(1)]])
        cc = ConstrainedCircuit(c, {2: True})
        text = export_dimacs(cc)
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 3 4"
        assert set(lines[1:]) == {"-3 1 0", "-3 2 0", "3 -1 -2 0", "3 0"}

    def test_unconstrained_gate_clauses_only(self):
        c = build_circuit([INPUT, INPUT, [Literal(0), Literal(1)]])
        text = export_dimacs(ConstrainedCircuit(c, {}))
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 3 3"
        assert dpll(parse_dimacs(text)[1])

    def test_preserves_satisfiability(self):
        rng = random.Random(9)
        sat_seen = unsat_seen = 0
        for _ in range(60):
            base = generate_random_sat_aig(rng.randint(2, 8), rng.randint(1, 25), rng)
            circuit = base.circuit
            constraints = {0: True}
            for g in circuit.outputs:
                if not circuit.is_input(g):
                    constraints[g] = bool(rng.getrandbits(1))
            cc = ConstrainedCircuit(circuit, constraints, const_gate=0)
            expected = brute_force_sat(cc)[0]
            got = dpll(parse_dimacs(export_dimacs(cc))[1])
            assert got == expected
            sat_seen += expected
            unsat_seen += not expected
        assert sat_seen and unsat_seen


class TestGenerator:
    def test_single_and_instance_is_satisfiable(self):
        cc = generate_random_sat_aig(2, 1, random.Random(0))
        assert brute_force_sat(cc)[0]

    def test_solver_finds_generated_witness(self):
        cc = generate_random_sat_aig(8, 40, random.Random(3))
        profile = build_profile(cc.circuit)
        result = crsat_solve(cc, profile, SolverConfig("rand", 0.2, 10**6, seed=1))
        assert result.status == "SAT"

    def test_byte_identical_for_same_seed(self):
        a = serialize_ascii(generate_random_sat_aig(6, 20, random.Random(42)))
        b = serialize_ascii(generate_random_sat_aig(6, 20, random.Random(42)))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize_ascii(generate_random_sat_aig(6, 20, random.Random(1)))
        b = serialize_ascii(generate_random_sat_aig(6, 20, random.Random(2)))
        assert a != b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_random_sat_aig(0, 5, random.Random(0))
        with pytest.raises(ValueError):
            generate_random_sat_aig(3, 0, random.Random(0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 10**6))
    def test_round_trip_property(self, inputs, ands, seed):
        cc = generate_random_sat_aig(inputs, ands, random.Random(seed))
        assert parse_aiger(serialize_ascii(cc).encode()) == cc
        assert parse_aiger(serialize_binary(cc)) == cc


def _seed_files():
    rng = random.Random(3)
    files = [SMALLEST_AND]
    for inputs, ands in ((3, 8), (5, 20)):
        cc = generate_random_sat_aig(inputs, ands, rng)
        files += [serialize_ascii(cc).encode(), serialize_binary(cc)]
    return files


SEED_FILES = _seed_files()


@st.composite
def mutated_aiger(draw):
    """A small valid AIGER file with flipped bytes, cut spans and huge header counts."""
    data = bytearray(draw(st.sampled_from(SEED_FILES)))
    for cut in draw(st.lists(st.booleans(), max_size=3)):
        if cut:
            start = draw(st.integers(0, len(data)))
            del data[start:draw(st.integers(start, len(data)))]
        elif data:
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    # Header counts go last: a binary file lists no inputs, so its input count
    # is a real size, and no later flip may turn "aag" with a huge one into "aig".
    end = data.find(b"\n")
    end = len(data) if end < 0 else end
    fields = data[:end].split()
    if len(fields) == 6 and all(f.isdigit() for f in fields[1:]) and draw(st.booleans()):
        _, i, l, o, a = (int(f) for f in fields[1:])
        huge = st.integers(10**6, 10**9)
        if fields[0] == b"aag" and draw(st.booleans()):
            i = draw(huge)
        if draw(st.booleans()):
            o = draw(huge)
        if draw(st.booleans()):
            a = draw(huge)
        data[:end] = b"%s %d %d %d %d %d" % (fields[0], i + l + a, i, l, o, a)
    return bytes(data)


class TestHostileInput:
    @settings(max_examples=200, deadline=None)
    @given(mutated_aiger())
    def test_mutated_files_fail_cleanly_in_bounded_memory(self, data):
        assert len(data) < 1024
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mutant.aig")
            with open(path, "wb") as fh:
                fh.write(data)
            tracemalloc.start()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = run_cli(["export-cnf", path])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code in (0, 1)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert peak < 2_000_000, f"{peak} bytes traced for a {len(data)}-byte file"
