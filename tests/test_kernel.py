"""The C kernel against the pure-Python reference.

An ``Assignment`` (and so a ``SearchEngine``) stays on the path it was built
on; ``_kernel.lib`` is None on the pure-Python path.  The classes below
rerun the AIGER-parsing, circuit-building, verification, metric, flip,
rollback, unjust-set, propagation, trial and golden-hash tests with the
kernel turned off; their originals run on the kernel wherever it builds.
C flips, propagates and rolls back only inside ``aigsls_run``, so the
tests of those steps in C run the kernel's search loop, often one step a
call, against the Python loop or the reference propagator.
"""

import copy
import ctypes
import glob
import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate, chain, count
from operator import ne

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_aiger
import test_circuit
import test_harness
import test_metrics
import test_search
from aigsls import INPUT, Literal, _kernel, build_circuit, metrics
from aigsls.aiger import (
    export_dimacs,
    generate_random_sat_aig,
    load_aiger,
    parse_aiger,
    serialize_ascii,
    serialize_binary,
)
from aigsls.circuit import (
    Assignment,
    ConstrainedCircuit,
    CycleDetected,
    evaluate,
    is_justified,
    random_complete_extension,
    verify_satisfying,
)
from aigsls.cli import run_cli
from aigsls.harness import SolverConfig, crsat_solve, run_try
from aigsls.metrics import ALEVEL_MODES, FLOW_MODES, build_profile
from aigsls.search import HEURISTICS, SearchEngine, _moves
from oracles import (
    random_constrained,
    random_dag,
    ref_propagate,
    ref_tfi_sizes,
    ref_tfo_sizes,
    ref_unjust,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_kernel = pytest.mark.skipif(_kernel.lib is None, reason="no working C compiler")
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
needs_loop = pytest.mark.skipif(_kernel.lib is None or _kernel.lib.run is None,
                                reason="no kernel search loop")


@pytest.fixture
def python_path(monkeypatch):
    monkeypatch.setattr(_kernel, "lib", None)


@pytest.mark.usefixtures("python_path")
class TestBuildCircuitPython(test_circuit.TestBuildCircuit):
    pass


@pytest.mark.usefixtures("python_path")
class TestDepthPython(test_metrics.TestDepth):
    pass


@pytest.mark.usefixtures("python_path")
class TestLevelsPython(test_metrics.TestLevels):
    pass


@pytest.mark.usefixtures("python_path")
class TestClosuresPython(test_metrics.TestClosures):
    pass


@pytest.mark.usefixtures("python_path")
class TestScoapPython(test_metrics.TestScoap):
    pass


@pytest.mark.usefixtures("python_path")
class TestFlowPython(test_metrics.TestFlow):
    pass


@pytest.mark.usefixtures("python_path")
class TestProfilePython(test_metrics.TestProfile):
    pass


@pytest.mark.usefixtures("python_path")
class TestEvaluatePython(test_circuit.TestEvaluate):
    pass


@pytest.mark.usefixtures("python_path")
class TestVerifySatisfyingPython(test_circuit.TestVerifySatisfying):
    pass


@pytest.mark.usefixtures("python_path")
class TestConstrainedCircuitPython(test_circuit.TestConstrainedCircuit):
    pass


@pytest.mark.usefixtures("python_path")
class TestParseAsciiPython(test_aiger.TestParseAscii):
    pass


@pytest.mark.usefixtures("python_path")
class TestBinaryPython(test_aiger.TestBinary):
    pass


@pytest.mark.usefixtures("python_path")
class TestRandomCompleteExtensionPython(test_circuit.TestRandomCompleteExtension):
    pass


@pytest.mark.usefixtures("python_path")
class TestIncrementalUnjustPython(test_circuit.TestIncrementalUnjust):
    def test_flip_sequences_match_scratch_recomputation(self):
        # hypothesis binds a test to one class, so run its body on drawn examples
        test = test_circuit.TestIncrementalUnjust.test_flip_sequences_match_scratch_recomputation
        rng = random.Random(75)
        for _ in range(40):
            flips = [rng.randrange(10**6) for _ in range(rng.randint(0, 30))]
            test.hypothesis.inner_test(self, rng.randrange(10**6), flips)


@pytest.mark.usefixtures("python_path")
class TestForwardPropagationPython(test_search.TestForwardPropagation):
    pass


@pytest.mark.usefixtures("python_path")
class TestCountUnjustAfterPython(test_search.TestCountUnjustAfter):
    pass


@pytest.mark.usefixtures("python_path")
class TestSelectGatePython(test_search.TestSelectGate):
    pass


@pytest.mark.usefixtures("python_path")
class TestGoldenTrajectoryPython(test_harness.TestGoldenTrajectory):
    pass


@pytest.mark.usefixtures("python_path")
class TestCrsatSolvePython:
    test_debug_mode_checks_pass = test_search.TestCrsatSolve.test_debug_mode_checks_pass


def _on_both_paths(monkeypatch, make):
    """``make()`` on the kernel, then on the pure-Python path."""
    lib = _kernel.lib
    fast = make()
    monkeypatch.setattr(_kernel, "lib", None)
    slow = make()
    monkeypatch.setattr(_kernel, "lib", lib)
    return fast, slow


def _random_definitions(rng, n):
    """Gate definitions that reference gates of either higher or lower index:
    1 to 6 children, with repeated children and complement pairs."""
    gate_at = list(range(n))        # gate_at[rank]; ANDs read lower ranks
    rng.shuffle(gate_at)
    definitions = [INPUT] * n
    for rank in range(1, n):
        if rng.random() < 0.3:
            continue
        kids = [Literal(gate_at[rng.randrange(rank)], rng.random() < 0.5)
                for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            kids.append(kids[0])
        if rng.random() < 0.3:
            kids.append(Literal(kids[0].gate, not kids[0].complement))
        rng.shuffle(kids)
        definitions[gate_at[rank]] = tuple(kids)
    return definitions


#: the tuple views of a Circuit, which a circuit built from a CSR makes on
#: first access and the package never reads
VIEWS = ("fanin", "topo_order")
CIRCUIT_ATTRIBUTES = ("num_gates", *VIEWS, "inputs", "outputs")


def _reference_csr(circuit):
    """The CSR arrays built in Python from the circuit's two views alone."""
    def pair(rows):
        rows = [row or () for row in rows]
        return array("i", [0, *accumulate(map(len, rows))]), array("i", chain(*rows))

    kids = [tuple(dict.fromkeys(p >> 1 for p in row or ())) for row in circuit.fanin]
    parents = [[] for _ in kids]
    signs = [[] for _ in kids]
    for g, row in enumerate(kids):
        for c in row:
            parents[c].append(g)
            signs[c].append(circuit.fanin[g].count(2 * c) - circuit.fanin[g].count(2 * c + 1))
    tpos = [0] * len(kids)
    for pos, g in enumerate(circuit.topo_order):
        tpos[g] = pos
    return _kernel.CSR(*pair(circuit.fanin), *pair(parents), array("i", circuit.topo_order),
                       array("i", tpos), *pair(kids), pair(signs)[1])


PROFILE_COLUMNS = ("depth", "level", "llevel", "alevel", "fanout_size", "cc0", "cc1",
                   "co", "flow")


def _assert_same_profiles(fast, slow):
    for column in PROFILE_COLUMNS:
        # repr tells 1 from 1.0 and 0.0 from -0.0
        assert repr(getattr(fast, column)) == repr(getattr(slow, column)), column


#: AND(c, c), AND(c, !c), wide gates with both and with repeated
#: polarities, and readers of gate 0, the constant gate of a file, with the
#: sign each expects beside it in each child's fanout row
SIGNED = ([INPUT, INPUT, (Literal(0), Literal(0)), (Literal(0), Literal(0, True)),
           (Literal(1, True), Literal(0), Literal(1), Literal(1, True), Literal(2, True),
            Literal(0, True), Literal(1, True), Literal(3)),
           (Literal(0, True),), (Literal(0),), (Literal(4), Literal(4), Literal(4, True))],
          {0: [2, 0, 0, -1, 1], 1: [-2], 2: [-1], 3: [1], 4: [1]})


@needs_kernel
def test_topology_and_profile_match_on_both_paths(monkeypatch):
    definitions, signs = SIGNED
    for circuit in _on_both_paths(monkeypatch, lambda: build_circuit(definitions)):
        csr = circuit._csr
        assert {g: csr.sign[csr.fout_off[g]:csr.fout_off[g + 1]].tolist()
                for g in range(len(definitions)) if csr.fout_off[g] < csr.fout_off[g + 1]} == signs
        assert csr == _reference_csr(circuit)
    rng = random.Random(80)
    for k in range(40):
        definitions = _random_definitions(rng, rng.randint(1, 150) if k else 0)
        fast, slow = _on_both_paths(monkeypatch, lambda: build_circuit(definitions))
        assert not set(VIEWS) & set(vars(fast))
        for name in CIRCUIT_ATTRIBUTES:
            assert getattr(fast, name) == getattr(slow, name), name
        # read off the start of the topological order on both paths
        assert fast.inputs == tuple(g for g, kids in enumerate(definitions) if kids is INPUT)
        assert fast._csr == _reference_csr(slow) == slow._csr
        assert fast == slow and hash(fast) == hash(slow)
        for alevel_mode in ALEVEL_MODES:
            for flow_mode in FLOW_MODES:
                _assert_same_profiles(*_on_both_paths(
                    monkeypatch, lambda: build_profile(fast, alevel_mode, flow_mode)))


def _outcome(definitions):
    try:
        build_circuit(definitions)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@needs_kernel
def test_malformed_definitions_fail_alike_on_both_paths(monkeypatch):
    lit = Literal
    cases = [
        [INPUT, (lit(0), lit(5))],                          # dangling
        [INPUT, (lit(0), lit(2))],                          # one past the last gate
        [INPUT, (lit(-1),)],                                # negative gate
        [INPUT, (int.__new__(Literal, -1),)],               # negative packed literal
        [INPUT, (lit(2**30),)],                             # past int32 once packed
        [INPUT, (lit(2**40, True),)],
        [INPUT, ()],                                        # empty AND
        [INPUT, []],
        [INPUT, (lit(0),), (lit(7),), ()],                  # the first fault wins
        [INPUT, (lit(0),), (), (lit(7),)],
        [[lit(0)]],                                         # cycles
        [[lit(1)], [lit(0)]],
        [INPUT, (lit(0), lit(3)), (lit(1),), (lit(2, True), lit(0))],
        [INPUT, (2,)],                                      # packed int: gate 1, a cycle
        [INPUT, (lit(0), True)],                            # not literals
        [INPUT, ((0, False),)],
        [INPUT, (0.0,)],
    ]
    for definitions in cases:
        fast, slow = _on_both_paths(monkeypatch, lambda: _outcome(definitions))
        assert slow is not None
        assert fast == slow


def _built(definitions):
    """The CSR build_circuit makes of ``definitions``, or its error's class
    and message."""
    try:
        return build_circuit(definitions)._csr
    except Exception as exc:
        return type(exc), str(exc)


@needs_kernel
def test_cyclic_definitions_fail_alike_on_both_paths(monkeypatch):
    # _random_definitions' DAGs with some children redrawn from every gate:
    # back edges close cycles of every size, or leave the graph acyclic
    rng = random.Random(86)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 40)
        definitions = _random_definitions(rng, n)
        for g, kids in enumerate(definitions):
            if kids is not INPUT and rng.random() < 0.15:
                kids = list(kids)
                kids[rng.randrange(len(kids))] = Literal(rng.randrange(n), rng.random() < 0.5)
                definitions[g] = tuple(kids)
        fast, slow = _on_both_paths(monkeypatch, lambda: _built(definitions))
        assert fast == slow
        if isinstance(fast, _kernel.CSR):
            outcomes.add("acyclic")
        else:
            assert fast[0] is CycleDetected, fast
            outcomes.add(fast[1])
    # acyclic graphs and cycles through several different numbers of gates
    assert "acyclic" in outcomes and len(outcomes) > 5, outcomes


@needs_kernel
def test_unknown_profile_modes_fail_alike_on_both_paths(monkeypatch):
    circuit = build_circuit([INPUT, INPUT, (Literal(0), Literal(1))])

    def outcome(alevel_mode, flow_mode):
        try:
            build_profile(circuit, alevel_mode, flow_mode)
        except ValueError as exc:
            return str(exc)

    for modes in (("bogus", "conserving"), ("self", "bogus"), ("bogus", "bogus")):
        fast, slow = _on_both_paths(monkeypatch, lambda: outcome(*modes))
        assert fast == slow is not None


@needs_kernel
def test_metrics_csv_bytes_match_on_both_paths(monkeypatch, tmp_path, capsys):
    path = tmp_path / "m.aag"
    path.write_text(serialize_ascii(generate_random_sat_aig(12, 400, random.Random(81))))
    for alevel_mode in ALEVEL_MODES:
        for flow_mode in FLOW_MODES:
            argv = ["metrics", str(path), "--alevel-mode", alevel_mode, "--flow-mode", flow_mode]

            def dump():
                assert run_cli(argv) == 0
                return capsys.readouterr().out

            fast, slow = _on_both_paths(monkeypatch, dump)
            assert fast == slow and fast.count("\n") == 1 + 413  # header, 1 + 12 + 400 gates


#: every malformed file of test_aiger.py, plus a cycle, a delta code and a
#: field past 32 bits, binary output literals past 2M + 1, and more
#: variables than the C parsers take
MALFORMED_FILES = [
    b"aag 1 1 0 1 0\n2\n0\n",
    b"aag 3 2 0 2 1\n2\n4\n6\n7\n6 2 4\n",
    b"aag 2 1 0 1 1\n2\n2\n4 2 2\n",
    b"agg 1 1 0 0 0\n2\n",
    b"aag 5 2 0 1 1\n2\n4\n6\n6 2 4\n",
    b"aag 4 2 1 1 1\n2\n4\n6 8\n8\n8 2 4\n",
    b"aag 3 2 0 1 1\n2\n2\n6\n6 2 4\n",
    b"aag 3 2 0 0 1\n2\n4\n8 2 4\n",
    b"aag 3 2 0 1 1\n2\n4\n6\n6 2 9\n",
    b"aag 3 2 0 1 1\n2\n4\n6\n",
    b"aig 3 2 0 1 1\n6\n\x82",
    b"aig 3 2 0 1 1\n6\n",
    b"aig 3 2 0 1 1\n6\n\x07\x02",
    b"aag 2 0 0 0 2\n2 4 4\n4 2 2\n",
    b"aig 3 2 0 1 1\n6\n\x80\x80\x80\x80\x80\x01\x02",
    b"aag 3 2 0 1 1\n2\n4\n6\n6 2 99999999999999999999\n",
    b"aag 1073741824 1 0 1 1073741823\n2\n3\n",
    b"aig 3 2 0 1 1\n8\n\x02\x02",
    b"aig 3 2 0 1 1\n99999999999999999999\n\x02\x02",
]


def _parsed(data):
    """The ConstrainedCircuit parse_aiger makes of ``data``, or its error's
    class and message."""
    try:
        return parse_aiger(data)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_parse(monkeypatch, data):
    fast, slow = _on_both_paths(monkeypatch, lambda: _parsed(data))
    if not isinstance(fast, ConstrainedCircuit):
        assert fast == slow
        return
    assert isinstance(slow, ConstrainedCircuit), slow
    assert (fast.constraints, fast.const_gate) == (slow.constraints, slow.const_gate)
    for name in CIRCUIT_ATTRIBUTES:
        # repr tells a Literal from a plain int
        assert repr(getattr(fast.circuit, name)) == repr(getattr(slow.circuit, name)), name
    assert fast.circuit._csr == _reference_csr(slow.circuit) == slow.circuit._csr


@pytest.fixture
def c_parses(monkeypatch):
    """The C parsers' verdicts, True for accepted, in call order."""
    verdicts = []
    for name in ("parse_ascii", "parse_binary"):
        def spy(*args, parse=getattr(_kernel, name)):
            result = parse(*args)
            verdicts.append(result is not None)
            return result
        monkeypatch.setattr(_kernel, name, spy)
    return verdicts


@needs_kernel
def test_malformed_files_fail_alike_on_both_paths(monkeypatch):
    for data in MALFORMED_FILES:
        _assert_same_parse(monkeypatch, data)


@needs_kernel
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(test_aiger.mutated_aiger())
def test_mutated_files_parse_alike_on_both_paths(monkeypatch, data):
    _assert_same_parse(monkeypatch, data)


def _delta(value, groups):
    """``value`` as a delta code of exactly ``groups`` bytes."""
    return bytes((value >> 7 * k) & 0x7F | (0x80 if k < groups - 1 else 0)
                 for k in range(groups))


def _variants(cc):
    """(file, what the C parser says of it) for an instance in both formats,
    plainly written and with the liberties the Python parser also allows.
    The C parser accepts (``[True]``) or declines (``[False]``)."""
    text = serialize_ascii(cc).encode()
    head, body = text.split(b"\n", 1)
    binary = serialize_binary(cc)
    outputs = int(head.split()[4])
    binary_head, *output_lines, ands = binary.split(b"\n", 1 + outputs)

    def binary_with(form):
        """The binary file with every output line rewritten by ``form``."""
        return b"".join(line + b"\n" for line in (binary_head, *map(form, output_lines))) + ands

    lines = binary[:len(binary) - len(ands)]
    first = next(k for k, byte in enumerate(ands) if not byte & 0x80) + 1
    delta = sum((byte & 0x7F) << 7 * k for k, byte in enumerate(ands[:first]))
    trailer = b"i0 a\no0 out\nc\nwritten by a test\n"
    return [
        (text, [True]),
        (text + trailer, [True]),
        (head + b"\n" + re.sub(rb"(\d+)", rb"00\1", body), [True]),
        (text.replace(b"\n", b"\r\n"), [False]),
        (text.replace(b" ", b"  "), [False]),
        (text.replace(b"\n", b" \n"), [False]),
        (re.sub(rb"\n(\d)", rb"\n+\1", text), [False]),
        (text.replace(b"\n", b"\n\t"), [False]),
        (text.rstrip(b"\n"), [False]),
        (binary, [True]),
        (binary + trailer, [True]),
        (binary_with(lambda line: b"00" + line), [True]),
        (binary_with(lambda line: b"+" + line), [False]),
        (binary_with(lambda line: b" " + line), [False]),
        (binary_with(lambda line: line + b"\r"), [False]),
        # 5 bytes still hold 32 bits; the C parser takes no sixth
        (lines + _delta(delta, 5) + ands[first:], [True]),
        (lines + _delta(delta, 6) + ands[first:], [False]),
    ]


@needs_kernel
def test_valid_files_parse_alike_on_both_paths(monkeypatch, c_parses):
    rng = random.Random(82)
    for k in range(12):
        inputs, ands = rng.randint(1, 8), rng.randint(1, 200)
        # every other instance reads the constant, AIGER literals 0 and 1
        cc = (test_harness.const_reader_instance(rng, inputs, ands) if k % 2
              else generate_random_sat_aig(inputs, ands, rng))
        plain = {b"aag": parse_aiger(serialize_ascii(cc).encode()),
                 b"aig": parse_aiger(serialize_binary(cc))}
        for data, verdicts in _variants(cc):
            c_parses.clear()
            _assert_same_parse(monkeypatch, data)
            assert c_parses == verdicts, data
            assert parse_aiger(data) == plain[data[:3]]


@needs_kernel
def test_verification_matches_on_both_paths(monkeypatch):
    rng = random.Random(85)
    verdicts = set()
    for _ in range(80):
        circuit = random_dag(rng, rng.randint(1, 60))
        asg = evaluate(circuit, {g: rng.getrandbits(1) for g in circuit.inputs})
        for g in rng.sample(range(circuit.num_gates), rng.randint(0, 2)):
            asg.values[g] ^= 1
        cc = ConstrainedCircuit(circuit, {})
        fast, slow = _on_both_paths(monkeypatch, lambda: verify_satisfying(cc, asg))
        assert fast == slow == (not asg.recompute_unjust())
        verdicts.add(fast)
    assert verdicts == {False, True}
    # an assignment shorter or longer than the circuit is an error on both paths
    cc = ConstrainedCircuit(random_dag(rng, 30), {})
    for size in (29, 31):
        other = Assignment(build_circuit([INPUT] * size), bytearray(size))
        for lib in (_kernel.lib, None):
            monkeypatch.setattr(_kernel, "lib", lib)
            with pytest.raises(ValueError):
                verify_satisfying(cc, other)


@needs_kernel
def test_search_from_a_file_builds_no_tuples(tmp_path):
    # nor, on the kernel path, the pure-Python search's list copy of the CSR
    rng = random.Random(83)
    paths = [tmp_path / "a.aag", tmp_path / "a.aig"]
    cc = generate_random_sat_aig(16, 600, rng)
    paths[0].write_text(serialize_ascii(cc))
    paths[1].write_bytes(serialize_binary(cc))
    for path in paths:
        loaded = load_aiger(path)
        profile = build_profile(loaded.circuit)
        for heuristic in ("rand", "tfi-min"):
            record = run_try(loaded, profile, path.name, heuristic, 0.2, 0, 7,
                             cutoff=100_000, clock="steps")
            assert record.outcome == "SAT"      # verified, or run_try raises
        serialize_ascii(loaded)
        export_dimacs(loaded)
        profile.tfi_size(5)
        profile.tfo_size(5)
        profile.materialize_closures()
        unbuilt = set(VIEWS) if _kernel.lib is None else {*VIEWS, "_lists"}
        assert not unbuilt & set(vars(loaded.circuit))


@pytest.mark.usefixtures("python_path")
def test_search_from_a_file_builds_no_tuples_in_python(tmp_path):
    test_search_from_a_file_builds_no_tuples(tmp_path)


def test_header_sized_binary_input_count_retains_little():
    data = b"aig 100000 100000 0 0 0\n"
    assert len(data) == 24
    tracemalloc.start()
    try:
        cc = parse_aiger(data)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cc.circuit.num_gates == 100_001 and cc.constraints == {0: True}
    assert retained <= 10_000_000, f"{retained} bytes retained"


@pytest.mark.usefixtures("python_path")
def test_header_sized_binary_input_count_retains_little_in_python():
    test_header_sized_binary_input_count_retains_little()


def _observed_through_big_siblings(hops):
    """A Fibonacci chain whose top gate t has cc1 just under 2**62, and a
    chain x(i+1) = AND(-x(i), t) of ``hops`` gates: cc0/cc1 fit int64, but
    observing x(0) costs about ``hops`` times cc1 of t."""
    definitions = [INPUT, INPUT]
    for g in range(2, 89):
        definitions.append((Literal(g - 1), Literal(g - 2)))
    top = len(definitions) - 1
    definitions.append(INPUT)
    for _ in range(hops):
        definitions.append((Literal(len(definitions) - 1, True), Literal(top)))
    return build_circuit(definitions)


@needs_kernel
def test_kernel_costs_past_int64_equal_the_python_bigints(monkeypatch):
    rng = random.Random(77)
    both = _kernel.FORWARD | _kernel.BACKWARD
    cases = [(test_metrics.fibonacci_chain(rng, 120), both),
             (test_metrics.fibonacci_chain(rng, 60), 0),
             (_observed_through_big_siblings(8), _kernel.BACKWARD),
             (_observed_through_big_siblings(1), 0)]
    for circuit, passes in cases:
        # no gate here has three children, so only an overflow sets a bit
        flags, _ = _kernel.profile(circuit, False, False, True)
        assert flags == passes
        fast, slow = _on_both_paths(monkeypatch, lambda: build_profile(circuit))
        _assert_same_profiles(fast, slow)
        assert all(type(v) is int for v in fast.cc0 + fast.cc1 + fast.co)
        if passes & _kernel.FORWARD:
            assert max(fast.cc1) > 2**63
        if passes:
            assert max(fast.co) > 2**63
        else:
            assert max(fast.cc1 + fast.co) < 2**63


@needs_kernel
@pytest.mark.parametrize("compensated", [False, True])
def test_alevel_of_wide_gates_follows_the_interpreters_sum(monkeypatch, compensated):
    # CPython 3.12 compensates float sums; the kernel's plain sum matches
    # that only for two terms, so wider gates take the forward pass from
    # Python there
    monkeypatch.setattr(metrics, "COMPENSATED_SUM", compensated)
    calls = []

    def spy(*args):
        calls.append(args)
        return forward(*args)

    forward = metrics._forward
    monkeypatch.setattr(metrics, "_forward", spy)
    narrow = build_circuit([INPUT, INPUT, (Literal(0), Literal(1)),
                            (Literal(2), Literal(0, True), Literal(2, True))])
    wide = build_circuit([INPUT, INPUT, INPUT, (Literal(0), Literal(1), Literal(2))])
    for circuit, alevel_mode, routed in ((narrow, "self", False), (wide, "self", compensated),
                                         (wide, "level-sum", False)):
        level_sum = alevel_mode == "level-sum"
        calls.clear()
        profile = build_profile(circuit, alevel_mode)
        assert calls == ([(circuit, level_sum)] if routed else [])
        flags, _ = _kernel.profile(circuit, level_sum, False, compensated)
        assert flags == (_kernel.FORWARD if routed else 0)
        assert profile.alevel == forward(circuit, level_sum)[2]


@needs_cc
def test_kernel_source_compiles_without_warnings():
    # a full -O2 compile, not -fsyntax-only: only it reports unused static
    # functions
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-O2", "-c", "-o", os.devnull,
                           "-x", "c", "-"],
                          input=_kernel.SOURCE.encode(), capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_every_kernel_export_is_bound_and_used():
    # the warnings above catch a dead static function; this catches a dead
    # export: each non-static aigsls_ function has a signature and a caller
    exports = re.findall(r"^(?!static\b)\w[\w *]*\baigsls_(\w+)\(", _kernel.SOURCE, re.M)
    assert sorted(exports) == sorted(_kernel._SIGNATURES)
    package = os.path.join(SRC, "aigsls")
    text = "".join(open(os.path.join(package, name)).read()
                   for name in sorted(os.listdir(package)) if name.endswith(".py"))
    unused = [name for name in exports
              if not re.search(rf'\blib\.{name}\b|functions\["{name}"\]', text)]
    assert unused == []


def _c_fields(name) -> list:
    """The fields of the C ``typedef struct { ... } name;`` in ``_kernel.SOURCE``
    as ``(name, ctypes type)`` pairs, in order: a pointer is ``c_void_p``,
    an ``int`` ``c_int`` and a ``double`` ``c_double``."""
    body = re.search(r"typedef struct \{([^{}]*)\} %s;" % name, _kernel.SOURCE).group(1)
    fields = []
    for declaration in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        base = getattr(ctypes, "c_" + declaration.split()[0], None)
        for declarator in declaration.split(","):
            kind = ctypes.c_void_p if "*" in declarator else base
            fields.append((re.findall(r"\w+", declarator)[-1], kind))
    return fields


def test_kernel_structs_match_their_ctypes_mirrors():
    # a field missing, moved or retyped on one side shifts every later one:
    # C would read and write the wrong buffers without any error
    assert _c_fields("State") == list(_kernel._StateStruct._fields_)
    assert _c_fields("Search") == list(_kernel._SearchStruct._fields_)


SANITIZED = """
import json, random, sys
from aigsls import _kernel, aiger, circuit, generate_random_sat_aig, metrics
from aigsls.harness import SolverConfig, crsat_solve
from aigsls.metrics import build_profile
try:
    _kernel.lib = _kernel._bind(sys.argv[1])
except OSError:
    sys.exit(3)
with open(sys.argv[2]) as fh:
    corpus = [bytes.fromhex(h) for h in json.load(fh)]
for data in corpus:
    try:
        aiger.parse_aiger(data)
    except (aiger.AigerError, circuit.CircuitError):
        pass
    # the entry points themselves, with counts the bytes cannot meet: some
    # pass the wrappers' bounds on the bytes, so C reads to the end
    for pos in range(min(len(data), 6)):
        room = (len(data) - pos) // 2
        for i, o, a in ((0, 0, 1), (2, 1, 3), (1, 0, len(data)), (0, room, 0),
                        (1, 1, max(room - 1, 0))):
            _kernel.parse_binary(data, pos, i, o, a)
            _kernel.parse_ascii(data, pos, i + a, i, o, a)
assert _kernel.lib.run is not None     # the searches below run aigsls_run
cc = generate_random_sat_aig(12, 300, random.Random(5))
profile = build_profile(cc.circuit)
for heuristic in ("rand", "depth-max", "cc-min", "tfi-min", "tfo-max", "flow-min"):
    crsat_solve(cc, profile, SolverConfig(heuristic, 0.3, 3000, 1))
sys.path.insert(0, sys.argv[3])
from oracles import random_constrained, random_dag, ref_tfi_sizes, ref_tfo_sizes
from test_harness import const_reader_instance
from test_kernel import (X_AT_ZERO, _false_children, _observed_through_big_siblings,
                         _random_definitions, copy_chain, switch_loops_on_a_dag,
                         walk_a_shared_profile_in_threads)
from test_metrics import fibonacci_chain
from aigsls.search import SearchEngine
rng = random.Random(6)
# readers of the pinned constant under conflicting constraints, which burn
# steps, and gates of up to 6 children; both stamp generations restart
# inside the loop; each trajectory ends one step at a time
base = const_reader_instance(rng, 5, 60)
conflicting = circuit.ConstrainedCircuit(
    base.circuit, {g: g == 0 or not v for g, v in base.constraints.items()}, const_gate=0)
# and gates of up to 8 literals that repeat a child or read both polarities
repeated = random_constrained(rng, circuit.build_circuit(_random_definitions(rng, 300)))
burned, restarts = 0, set()
for cc in (conflicting, random_constrained(rng, random_dag(rng, 300, max_arity=6)), repeated):
    profile = build_profile(cc.circuit)
    for heuristic in ("rand", "cc-min", "depth-max", "tfi-min"):
        engine = SearchEngine(cc, profile, heuristic, 0.3, 1)
        engine.assignment._meta[1] = 0x7FFFFFFF - 40
        profile._walk[0] = 0x7FFFFFFF - 5
        assert engine.uses_kernel_loop and not engine.run(300)
        for _ in range(100):
            engine.run(1)
        assert engine.assignment.nf.tolist() == _false_children(engine.assignment)
        burned += engine.stats.burned
        if engine.assignment._meta[1] < 0x7FFFFFFF - 40:
            restarts.add("propagation")
        if profile._walk[0] < 0x7FFFFFFF - 5:
            restarts.add("walk")
assert burned and restarts == {"propagation", "walk"}
# the scores aigsls_run keeps in ulist order, to the buffer's last entry.
# wide's output, pinned to 1, reads 40 gates that copy x, all at 0 from x at
# 0: in one call the list grows from that one gate to all 41 AND gates, as
# the move flips the copies one by one, then empties.  Every AND gate of stuck
# reads x and its complement and is pinned to 1, so each call starts by
# gathering a score for every AND gate, then burns every step.
x = circuit.Literal(0)
wide = circuit.ConstrainedCircuit(circuit.build_circuit(
    [circuit.INPUT] + [(x,)] * 40 + [tuple(map(circuit.Literal, range(1, 41)))]), {41: True})
stuck = circuit.ConstrainedCircuit(circuit.build_circuit(
    [circuit.INPUT] + [(x, circuit.Literal(0, True))] * 8), dict.fromkeys(range(1, 9), True))
for heuristic in ("cc-min", "depth-max", "tfi-min"):
    engine = SearchEngine(wide, build_profile(wide.circuit), heuristic, 0.3, X_AT_ZERO)
    assert engine.assignment.ulist == [41] and engine.run(5)
    assert (engine.steps, engine.stats.forced, engine.stats.flips) == (2, 2, 41)
    engine = SearchEngine(stuck, build_profile(stuck.circuit), heuristic, 0.3, 2)
    assert engine.assignment.unjust_count == 8 and not engine.run(5)
    assert engine.stats.burned == 5
# the Python steps on the kernel's buffers, between chunks of the C loop
switch_loops_on_a_dag()
# 161 % 32 == 1: the last gate in topological order is the one bit of the
# pending bitmap's last word, which the chain's one step sets; then single
# steps on a random DAG of that size
cc = copy_chain(161)
engine = SearchEngine(cc, build_profile(cc.circuit), "rand", 0.3, X_AT_ZERO)
assert not engine.run(1) and engine.stats.flips == 160 and engine.run(1)
cc = random_constrained(rng, random_dag(rng, 161))
for heuristic in ("rand", "depth-max", "cc-min"):
    engine = SearchEngine(cc, build_profile(cc.circuit), heuristic, 0.3, 3)
    while engine.steps < 200 and not engine.run(1):
        pass
for k in range(4):
    profile = build_profile(random_dag(rng, rng.randint(1, 400)))
    if k % 2:
        profile._walk[0] = 0x7FFFFFFF - 5    # the stamps restart midway
    profile.materialize_closures()
cc = generate_random_sat_aig(32, 2000, random.Random(5))
profile = walk_a_shared_profile_in_threads(cc, 1)
assert (profile._tfi, profile._tfo) == (ref_tfi_sizes(cc.circuit), ref_tfo_sizes(cc.circuit))
# each pass handed back: costs past int64 in both, in co only, and a wide gate
wide = circuit.build_circuit([circuit.INPUT] * 3 + [[circuit.Literal(g) for g in range(3)]])
for c, compensated, passes in ((fibonacci_chain(rng, 120), False, 3),
                               (_observed_through_big_siblings(8), False, 2), (wide, True, 1)):
    metrics.COMPENSATED_SUM = compensated
    assert _kernel.profile(c, False, False, compensated)[0] == passes
    build_profile(c)
print(len(corpus))
"""


def _run_sanitized(tmp_path, flags, **env):
    """Run SANITIZED on the kernel compiled with ``flags``, ``env`` added to
    the subprocess's; skip when the sanitizer does not build or load."""
    library = tmp_path / "kernel-sanitized.so"
    proc = subprocess.run(["cc", *_kernel.FLAGS, *flags, "-x", "c", "-", "-o", str(library)],
                          input=_kernel.SOURCE.encode(), capture_output=True, timeout=300)
    if proc.returncode:
        pytest.skip(f"no sanitizer: {proc.stderr[-200:]!r}")
    corpus = [*MALFORMED_FILES, *(data for cc in (generate_random_sat_aig(
        3, 20, random.Random(84)),) for data, _ in _variants(cc))]

    @settings(max_examples=300, database=None, derandomize=True)
    @given(test_aiger.mutated_aiger())
    def collect(data):
        corpus.append(data)

    collect()
    (tmp_path / "corpus.json").write_text(json.dumps([data.hex() for data in corpus]))
    proc = _python(SANITIZED, tmp_path / "cache", library, tmp_path / "corpus.json",
                   os.path.dirname(os.path.abspath(__file__)), **env)
    stdout, stderr = proc.communicate(timeout=600)
    if proc.returncode == 3:
        pytest.skip("the sanitized library does not load")
    assert (proc.returncode, stderr) == (0, b""), stderr.decode()[-2000:]
    assert int(stdout) == len(corpus) >= 300


@needs_cc
def test_parsers_and_searches_run_clean_under_ubsan(tmp_path):
    _run_sanitized(tmp_path, ["-fsanitize=undefined", "-fno-sanitize-recover=all"])


@needs_cc
def test_parsers_and_searches_run_clean_under_asan(tmp_path):
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True, timeout=60).stdout.strip()
    if not (os.path.isabs(runtime) and os.path.isfile(runtime)):
        pytest.skip("no address sanitizer runtime")
    # pymalloc's arenas have no redzones, so Python allocates with malloc
    _run_sanitized(tmp_path, ["-fsanitize=address", "-fno-omit-frame-pointer"],
                   LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc")


#: interpreters the package supports, looked for on PATH and under pyenv
OTHER_PYTHONS = (*(f"python3.{minor}" for minor in range(10, 14)),
                 *sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.1*/bin/python"))))

GOLDEN = """
import pathlib, sys, tempfile, types
sys.path.insert(0, sys.argv[1])
sys.modules["pytest"] = types.ModuleType("pytest")  # the golden tests call none of it
from aigsls import _kernel
assert _kernel.lib is not None and _kernel.lib.run is not None, "no kernel loop"
import test_harness
golden = test_harness.TestGoldenTrajectory()
with tempfile.TemporaryDirectory() as tmp:
    golden.test_every_heuristic_reproduces_recorded_outputs(pathlib.Path(tmp))
golden.test_readers_of_the_constant_gate_reproduce_recorded_outputs()
"""


def _answering_interpreters() -> list:
    """The interpreters of OTHER_PYTHONS that answer ``--version``, one path
    per executable: a PATH shim may name no installed version."""
    found = {}
    for name in OTHER_PYTHONS:
        path = shutil.which(name)
        if path is None:
            continue
        try:
            proc = subprocess.run([path, "--version"], capture_output=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0:
            found.setdefault(os.path.realpath(path), path)
    return list(found.values())


@needs_cc
def test_every_interpreter_runs_the_kernel_loop_on_the_golden_trajectories(tmp_path):
    # the kernel's copy of random.Random must pass its check, and reproduce
    # the recorded trajectories, on each interpreter found, not only this one;
    # the cache is absolute, so no inherited XDG_CACHE_HOME can refuse it
    interpreters = _answering_interpreters()
    if not interpreters:
        pytest.skip("no other interpreter answers --version")
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), PYTHONPATH=SRC)
    for path in interpreters:
        proc = subprocess.run([path, "-c", GOLDEN, tests], env=env, capture_output=True,
                              timeout=300)
        assert (proc.returncode, proc.stderr) == (0, b""), (path, proc.stderr.decode()[-2000:])


def _snapshot(engine):
    asg = engine.assignment
    return (engine.steps, bytes(asg.values), asg.ulist, list(asg.upos), list(asg.nf),
            engine.stats, engine.rng.getstate())


def _false_children(asg) -> list:
    """``asg.nf`` by its definition: the child literals of each gate that
    read 0 in ``asg.values``, -1 for an input."""
    values, circuit = asg.values, asg.circuit
    return [sum(not values[p >> 1] ^ (p & 1) for p in circuit.child_literals(g))
            if not circuit.is_input(g) else -1 for g in range(circuit.num_gates)]


def _run_both(monkeypatch, cc, heuristic, wp, seed, chunks):
    """Run one seed on the kernel and on Python in step; assert equal states.
    Returns the two engines."""
    profile = build_profile(cc.circuit)
    fast, slow = _on_both_paths(monkeypatch,
                                lambda: SearchEngine(cc, profile, heuristic, wp, seed))
    assert _snapshot(fast) == _snapshot(slow)
    for k in chunks:
        found = fast.run(k)
        assert slow.run(k) == found
        assert _snapshot(fast) == _snapshot(slow)
        assert fast.assignment.nf.tolist() == _false_children(fast.assignment)
        assert (fast.stats.min_unjust == 0) == found
        if found:
            break
    assert slow.assignment._state is None
    return fast, slow


#: the first seed whose engine draws 0 for the first unpinned input
X_AT_ZERO = next(seed for seed in count() if not random.Random(seed).getrandbits(1))


def copy_chain(num_gates):
    """An input x (gate 0), copies 1..n-2 each reading the one before (the
    first reads x) and an output n-1 reading x, pinned to 1.  From x at 0,
    as an engine seeded ``X_AT_ZERO`` starts it, the one step is the forced
    flip of x, whose propagation flips every copy: it pushes every
    topological position, the last among them, and flips n-1 gates."""
    x = Literal(0)
    copies = [(Literal(g - 1),) for g in range(2, num_gates - 1)]
    definitions = [INPUT, *([(x,)] if num_gates > 2 else []), *copies, (x,)]
    return ConstrainedCircuit(build_circuit(definitions[:num_gates]),
                              {num_gates - 1: True} if num_gates > 1 else {})


@needs_loop
def test_an_assignment_stays_on_the_path_it_was_built_on(monkeypatch):
    # each engine runs with the module's library set for the other path:
    # the one built on the kernel keeps aigsls_run, the other its Python
    # loop, and both take the same steps, one call at a time
    rng = random.Random(87)
    cc = random_constrained(rng, random_dag(rng, 150))
    lib = _kernel.lib
    for heuristic in ("rand", "cc-min"):
        profile = build_profile(cc.circuit)
        fast, slow = _on_both_paths(monkeypatch,
                                    lambda: SearchEngine(cc, profile, heuristic, 0.3, 87))
        assert isinstance(fast.assignment._state, _kernel.State)
        assert slow.assignment._state is None
        for _ in range(300):
            monkeypatch.setattr(_kernel, "lib", None)
            found = fast.run(1)
            monkeypatch.setattr(_kernel, "lib", lib)
            assert slow.run(1) == found
            assert _snapshot(fast) == _snapshot(slow)
            if found:
                break
        assert fast.uses_kernel_loop and not slow.uses_kernel_loop
        assert fast.steps > 50
        assert slow.assignment.unjust == slow.assignment.recompute_unjust()


@needs_loop
@pytest.mark.parametrize("num_gates", [1, 2, 31, 32, 33, 63, 64, 65, 150])
def test_propagation_matches_at_the_bitmap_word_edges(monkeypatch, num_gates):
    # aigsls_run keeps the pending gates as bits over topological positions,
    # 32 to a word: the chain's one step pushes every position, so it
    # crosses every word edge and sets the last word's bits; then single
    # steps on a random DAG of the same size
    fast, _ = _run_both(monkeypatch, copy_chain(num_gates), "rand", 0.3, X_AT_ZERO, (1, 1))
    assert (fast.steps, fast.stats.flips) == (min(num_gates - 1, 1), num_gates - 1)
    rng = random.Random(num_gates)
    cc = random_constrained(rng, random_dag(rng, num_gates))
    for heuristic in ("rand", "depth-max"):
        _run_both(monkeypatch, cc, heuristic, 0.3, rng.randrange(10**6), [1] * 80)


@needs_loop
def test_the_kernel_loops_first_step_matches_the_reference_propagator():
    # a fresh extension is consistent but at the constrained gates, where
    # the propagation oracle holds: after the first step, every gate but
    # the pinned and the flipped ones reads as the reference re-evaluation
    # says.  Under rand with wp = 1 a step of several moves walks, so a copy
    # of the generator predicts the gate and the move
    rng = random.Random(94)
    kinds = set()
    for _ in range(200):
        circuit = random_dag(rng, rng.randint(2, 100), max_arity=rng.randint(1, 4))
        cc = random_constrained(rng, circuit)
        profile = build_profile(circuit)
        for seed in range(3):
            engine = SearchEngine(cc, profile, "rand", 1.0, seed)
            asg = engine.assignment
            assert engine.uses_kernel_loop
            draws = random.Random()
            draws.setstate(engine.rng.getstate())
            count = asg.unjust_count
            if not count:
                assert engine.run(1)
                continue
            g = asg.ulist[0] if count == 1 else asg.ulist[draws.randrange(count)]
            moves = _moves(circuit._csr, asg.values, asg.pinned, g)
            if not moves:
                kind, flips = "burned", []
            elif len(moves) == 1:
                kind, flips = "forced", moves[0]
            else:
                draws.random()              # below wp = 1: the step walks
                kind, flips = "walk", moves[draws.randrange(len(moves))]
            expected = bytearray(asg.values)
            for c in flips:
                expected[c] ^= 1
            expected = ref_propagate(cc, expected, flips)
            before = bytes(asg.values)
            assert not engine.run(1)
            assert asg.values == expected
            assert asg.unjust == ref_unjust(circuit, asg.values)
            assert engine.rng.getstate() == draws.getstate()
            assert getattr(engine.stats, kind) == engine.steps == 1
            assert engine.stats.flips == sum(map(ne, before, asg.values))
            kinds.add(kind)
    assert kinds >= {"walk", "forced"}


@needs_kernel
def test_random_trajectories_match_on_both_paths(monkeypatch):
    rng = random.Random(71)
    for _ in range(4):
        circuit = random_dag(rng, rng.randint(30, 120))
        cc = random_constrained(rng, circuit)
        for heuristic in HEURISTICS:
            _run_both(monkeypatch, cc, heuristic, rng.choice((0.0, 0.3, 1.0)),
                      rng.randrange(10**6), (1, 7, 40, 200))


@needs_kernel
def test_constant_readers_match_on_both_paths(monkeypatch):
    # pin-filtered justifications and burned steps
    rng = random.Random(72)
    for _ in range(3):
        cc = test_harness.const_reader_instance(rng, inputs=5, ands=40)
        for heuristic in ("rand", "depth-max", "cc-min"):
            _run_both(monkeypatch, cc, heuristic, 0.3, rng.randrange(10**6), (50, 500))


@st.composite
def search_cases(draw):
    """A constrained circuit, heuristic, noise, seed and chunk split: random
    DAGs with up to 6 children per AND (repeated children and both
    polarities of one child included), or readers of the pinned constant,
    which burn steps; chunks include runs of single steps."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        circuit = random_dag(rng, draw(st.integers(2, 120)), max_arity=draw(st.integers(1, 6)))
        cc = random_constrained(rng, circuit)
    else:
        cc = test_harness.const_reader_instance(rng, draw(st.integers(1, 6)),
                                                draw(st.integers(1, 60)))
    chunks = draw(st.lists(st.one_of(st.integers(1, 300), st.just(1)), min_size=1, max_size=12))
    return (cc, draw(st.sampled_from(HEURISTICS)), draw(st.sampled_from((0.0, 0.3, 1.0))),
            draw(st.integers(0, 10**6)), chunks)


@needs_kernel
@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(search_cases())
def test_both_search_loops_take_the_same_steps_and_draws(monkeypatch, case):
    _run_both(monkeypatch, *case)


def _selections(engine) -> list:
    """A list that gains one entry per gate the engine's Python loop selects."""
    calls = []
    select = engine._select
    engine._select = lambda: calls.append(1) or select()
    return calls


@needs_loop
def test_a_failed_generator_check_keeps_the_python_loop(monkeypatch):
    lib = _kernel.lib
    monkeypatch.setattr(_kernel, "_reference_draws", lambda rng, ns: [0] * len(ns))
    guarded = _kernel.load()
    assert guarded.run is None and lib.run is not None
    cc = generate_random_sat_aig(16, 600, random.Random(88))
    for heuristic in ("rand", "cc-min", "tfi-min"):
        profile = build_profile(cc.circuit)
        fast = SearchEngine(cc, profile, heuristic, 0.3, 6)
        monkeypatch.setattr(_kernel, "lib", guarded)
        slow = SearchEngine(cc, profile, heuristic, 0.3, 6)
        monkeypatch.setattr(_kernel, "lib", lib)
        # the slow engine's assignment is still on the kernel; only its loop is Python
        assert isinstance(slow.assignment._state, _kernel.State)
        assert fast.uses_kernel_loop and not slow.uses_kernel_loop
        selections = _selections(slow)
        for k in (1, 1, 30, 200):
            assert fast.run(k) == slow.run(k)
            assert _snapshot(fast) == _snapshot(slow)
        assert len(selections) == slow.steps > 20


class _Sub(random.Random):
    """A generator whose engine keeps the Python loop."""


class _Raising:
    """A library stub whose every function raises."""

    def __getattr__(self, name):
        def call(*args):
            raise AssertionError(f"aigsls_{name} called from the Python loop")
        return call


def switch_loops(cc, heuristic, seed, chunks):
    """Run ``heuristic`` in ``chunks`` of (budget, python) on two engines with
    profiles of their own: one on the kernel loop throughout, and one whose
    generator, its state handed over, is a ``random.Random`` subclass for
    each chunk marked python and a plain one for the others.  While the
    Python loop runs, its assignment's library is a stub that raises, and
    the propagation stamps, set near INT_MAX before its first chunk,
    restart.  Asserts equal snapshots after every chunk."""
    fast, mixed = (SearchEngine(cc, build_profile(cc.circuit), heuristic, 0.3, seed)
                   for _ in range(2))
    state = mixed.assignment._state
    lib = state.lib
    selections = _selections(mixed)
    python_steps, restarted = 0, None
    for budget, python in chunks:
        rng = _Sub() if python else random.Random()
        rng.setstate(mixed.rng.getstate())
        mixed.rng = rng
        if python and restarted is None:
            restarted = False
            fast.assignment._meta[1] = mixed.assignment._meta[1] = 0x7FFFFFFF - 10
        state.lib = _Raising() if python else lib
        assert fast.uses_kernel_loop and mixed.uses_kernel_loop != python
        steps, generation = mixed.steps, mixed.assignment._meta[1]
        found = mixed.run(budget)
        state.lib = lib
        assert fast.run(budget) == found
        assert _snapshot(fast) == _snapshot(mixed)
        assert mixed.assignment.nf.tolist() == _false_children(mixed.assignment)
        if python:
            python_steps += mixed.steps - steps
            restarted |= mixed.assignment._meta[1] < generation
        if found:
            break
    assert restarted and len(selections) == python_steps > 20


def switch_loops_on_a_dag():
    """``switch_loops`` on one 300-gate DAG, C first, under four heuristics;
    under tfi-min the Python scan walks closure sizes the C loop then reads."""
    rng = random.Random(90)
    cc = random_constrained(rng, random_dag(rng, 300))
    chunks = ((20, False), (40, True), (1, False), (1, True), (60, False), (60, True),
              (30, False))
    for heuristic in ("rand", "tfi-min", "cc-min", "depth-max"):
        switch_loops(cc, heuristic, 5, chunks)


@needs_loop
@pytest.mark.parametrize("heuristic", ["tfi-min", "tfi-max", "tfo-min", "tfo-max"])
def test_both_search_loops_leave_the_same_closure_caches(heuristic):
    # each loop walks closure sizes into a profile of its own: the C loop
    # fills the negative scores it keeps in ulist order, the Python loop
    # the negative sizes its scan meets, so both walk the same gates in the
    # same order and leave the same caches and walk generation
    rng = random.Random(91)
    cc = random_constrained(rng, random_dag(rng, 400))
    fast, slow = (SearchEngine(cc, build_profile(cc.circuit), heuristic, 0.3, 7)
                  for _ in range(2))
    rng = _Sub()
    rng.setstate(slow.rng.getstate())
    slow.rng = rng
    assert fast.uses_kernel_loop and not slow.uses_kernel_loop
    measure = heuristic[:3]
    for budget in (1, 1, 7, 40, 200):
        found = slow.run(budget)
        assert fast.run(budget) == found
        assert _snapshot(fast) == _snapshot(slow)
        assert fast.profile._scores[measure][0] == slow.profile._scores[measure][0]
        assert fast.profile._walk[0] == slow.profile._walk[0]
        if found:
            break
    assert fast.steps > 40 and fast.profile._walk[0] > 20


@needs_loop
def test_an_rng_subclass_keeps_the_python_loop():
    switch_loops(generate_random_sat_aig(16, 600, random.Random(89)), "depth-max", 4,
                 ((1, True), (50, True), (200, True)))
    switch_loops_on_a_dag()


@needs_kernel
def test_measures_past_int64_rank_exactly(monkeypatch):
    rng = random.Random(77)
    for _ in range(3):
        circuit = test_metrics.fibonacci_chain(rng, 120)
        profile = build_profile(circuit)
        assert max(profile.cc1) > 2**63 and max(profile.co) > 2**63
        cc = random_constrained(rng, circuit)
        for heuristic in ("cc-min", "cc-max", "co-min", "co-max"):
            _run_both(monkeypatch, cc, heuristic, 0.3, rng.randrange(10**6), (1, 7, 40, 200))


@needs_kernel
def test_kernel_closure_sizes_match_the_bulk_closures():
    rng = random.Random(78)
    for k in range(20):
        circuit = random_dag(rng, rng.randint(2, 300))
        n = circuit.num_gates
        profile = build_profile(circuit)
        cc = random_constrained(rng, circuit)
        if k % 2:
            profile._walk[0] = 0x7FFFFFFF - 5       # the walk stamps restart midway
        for heuristic in ("tfi-min", "tfo-min"):
            engine = SearchEngine(cc, profile, heuristic, seed=k)
            # offer every gate as a candidate, so the kernel walks them all
            asg = engine.assignment
            asg.ubuf[:] = array("i", range(n))
            asg._meta[0] = n
            assert engine._select() in range(n)
        if k % 2:
            assert 0 < profile._walk[0] <= 2 * n
        tfo, tfi = ref_tfo_sizes(circuit), ref_tfi_sizes(circuit)
        assert profile.scores("tfo")[0].tolist() == tfo
        assert profile.scores("tfi")[0].tolist() == tfi
        assert [profile.tfo_size(g) for g in range(n)] == tfo
        assert [profile.tfi_size(g) for g in range(n)] == tfi
        profile.materialize_closures()
        assert (type(profile._tfo), type(profile._tfi)) == (list, list)
        assert (profile._tfo, profile._tfi) == (tfo, tfi)


@needs_kernel
def test_selection_resolves_its_kernel_arguments_at_construction(monkeypatch):
    rng = random.Random(86)
    cc = random_constrained(rng, random_dag(rng, 300))       # unsolved after 200 steps

    def no_lookup(*args):
        raise AssertionError("selection arguments looked up during the search")

    for lib in (_kernel.lib, None):
        monkeypatch.setattr(_kernel, "lib", lib)
        for heuristic in ("depth-max", "cc-min", "tfi-min"):
            reference = SearchEngine(cc, build_profile(cc.circuit), heuristic, 0.2, 5)
            reference.run(200)
            engine = SearchEngine(cc, build_profile(cc.circuit), heuristic, 0.2, 5)
            assert (engine._search is None) == (lib is None)
            with monkeypatch.context() as patch:
                for name in ("scores", "kernel_walk"):
                    patch.setattr(metrics.StructuralProfile, name, no_lookup)
                engine.run(200)
            assert engine.steps == 200
            assert _snapshot(engine) == _snapshot(reference)


@needs_kernel
def test_closure_walks_fail_cleanly_and_restart_their_stamps():
    rng = random.Random(81)
    circuit = random_dag(rng, 200)
    n = circuit.num_gates
    profile = build_profile(circuit)
    for g in (n, -1):
        with pytest.raises(IndexError):
            profile.tfi_size(g)
    assert set(profile._tfi) == {-1}
    profile._walk[0] = 0x7FFFFFFF - 3
    profile.materialize_closures()
    assert 0 < profile._walk[0] <= 2 * n
    assert (profile._tfo, profile._tfi) == (ref_tfo_sizes(circuit), ref_tfi_sizes(circuit))


@needs_kernel
def test_closure_sizes_walked_by_selection_are_not_walked_again(monkeypatch):
    cc = generate_random_sat_aig(8, 400, random.Random(82))
    profile = build_profile(cc.circuit)
    run_try(cc, profile, "x", "tfi-min", 0.2, 0, 7, cutoff=50, clock="steps")
    sizes = profile.scores("tfi")[0]
    walked = [g for g in range(cc.circuit.num_gates) if sizes[g] >= 0]
    assert walked and len(walked) < cc.circuit.num_gates

    def no_walk(*args):
        raise AssertionError("walked again")

    monkeypatch.setattr(_kernel.lib, "closures", no_walk)
    tfi = ref_tfi_sizes(cc.circuit)
    assert [profile.tfi_size(g) for g in walked] == [tfi[g] for g in walked]


def walk_a_shared_profile_in_threads(cc, seed):
    """Four engines and a bulk walk in five threads, on one new profile of
    ``cc``; the profile once all are done."""
    profile = build_profile(cc.circuit)
    runs = [SearchEngine(cc, profile, heuristic, 0.2, seed).run
            for heuristic in ("tfi-min", "tfi-max", "tfi-min", "tfo-min")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(runs) + 1) as pool:
            futures = [pool.submit(run, 300) for run in runs]
            futures.append(pool.submit(profile.materialize_closures))
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    return profile


@needs_kernel
def test_a_shared_profile_walks_closures_right_under_threads():
    # selection and closure walks share the profile's walk scratch, so only
    # one thread at a time may walk
    cc = generate_random_sat_aig(64, 5000, random.Random(5))
    tfi, tfo = ref_tfi_sizes(cc.circuit), ref_tfo_sizes(cc.circuit)
    for seed in range(5):
        profile = walk_a_shared_profile_in_threads(cc, seed)
        assert (profile._tfi, profile._tfo) == (tfi, tfo)


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_stamps_restart_before_the_generation_overflows(kernel, monkeypatch):
    # one engine starts with its generation and every stamp two short of
    # the limit, its twin at 0: the first propagation restarts the stamps,
    # and from then on both take the same generations and stamps.  "c"
    # propagates in aigsls_run
    if kernel == "python":
        monkeypatch.setattr(_kernel, "lib", None)
    elif _kernel.lib is None or _kernel.lib.run is None:
        pytest.skip("no kernel search loop")
    rng = random.Random(73)
    cc = random_constrained(rng, random_dag(rng, 80))
    profile = build_profile(cc.circuit)
    engine, fresh = (SearchEngine(cc, profile, "rand", 0.3, 1) for _ in range(2))
    asg = engine.assignment
    asg._meta[1] = 0x7FFFFFFF - 1
    asg._stamp[:] = array("i", [0x7FFFFFFF - 1]) * cc.circuit.num_gates
    for _ in range(20):
        found = engine.run(1)
        assert fresh.run(1) == found
        assert _snapshot(engine) == _snapshot(fresh)
        if found:
            break
    assert engine.uses_kernel_loop == (kernel == "c")
    assert 0 < asg._meta[1] == fresh.assignment._meta[1] < 100
    assert asg._stamp == fresh.assignment._stamp


def test_kernel_rejects_out_of_range_gates(monkeypatch):
    # the public steps and is_justified refuse a gate out of range,
    # negative ones included, and change nothing, on an assignment built on
    # either path; aigsls_run then steps on the kernel's buffers as the
    # Python loop does on its own.  Without the kernel both run in Python
    rng = random.Random(74)
    cc = random_constrained(rng, random_dag(rng, 40))
    circuit = cc.circuit
    profile = build_profile(circuit)
    engines = _on_both_paths(monkeypatch, lambda: SearchEngine(cc, profile, "rand", 0.3, 0))
    for asg in (engine.assignment for engine in engines):
        before = (bytes(asg.values), asg.ulist, list(asg.nf))
        for call in (lambda: asg.flip(40), lambda: asg.flip(-1),
                     lambda: asg.propagate_forward([3, 40]), lambda: asg.rollback([-2]),
                     lambda: asg._trial([1, 40]), lambda: asg._trial([-1]),
                     lambda: asg._move([-1]), lambda: is_justified(circuit, asg, 40),
                     lambda: is_justified(circuit, asg, -1)):
            with pytest.raises(IndexError):
                call()
            assert (bytes(asg.values), asg.ulist, list(asg.nf)) == before
        assert asg.unjust == asg.recompute_unjust()
    fast, slow = engines
    for _ in range(40):
        found = fast.run(1)
        assert slow.run(1) == found
        assert _snapshot(fast) == _snapshot(slow)
        if found:
            break
    assert fast.steps > 0


@pytest.mark.usefixtures("python_path")
def test_a_python_trial_range_checks_its_gates_once(monkeypatch):
    calls = []
    in_range = Assignment._in_range

    def spy(self, gates):
        calls.append(gates)
        return in_range(self, gates)

    monkeypatch.setattr(Assignment, "_in_range", spy)
    cc, asg = test_search.two_branch_fixture()
    assert asg._trial([2]) == 2
    assert len(calls) == 1


def test_pickled_and_copied_assignments_stay_independent():
    rng = random.Random(76)
    circuit = random_dag(rng, 60)
    cc = random_constrained(rng, circuit)
    asg = random_complete_extension(cc, rng)
    free = [g for g in range(circuit.num_gates) if not cc.pinned[g]]
    asg.flip(free[0])
    before = (bytes(asg.values), asg.ulist)
    for twin in (pickle.loads(pickle.dumps(asg)), copy.deepcopy(asg)):
        assert (bytes(twin.values), twin.ulist) == before
        twin.flip(free[1])
        twin.propagate_forward([free[1]])
        assert twin.unjust == twin.recompute_unjust()
        assert (bytes(asg.values), asg.ulist) == before


@needs_loop
def test_false_child_counts_follow_their_definition(monkeypatch):
    # nf is built with the unjust list and kept by every flip, on either
    # path: through run chunks of both loops, copies and pickles, and an
    # assignment pickled on one path and resumed on the other
    rng = random.Random(93)
    for k in range(8):
        circuit = random_dag(rng, rng.randint(2, 200), max_arity=rng.randint(1, 6))
        cc = random_constrained(rng, circuit)
        profile = build_profile(circuit)
        free = [g for g in range(circuit.num_gates) if not cc.pinned[g]]
        for heuristic in ("rand", "depth-max", "tfi-min"):
            engines = _on_both_paths(monkeypatch, lambda: SearchEngine(cc, profile, heuristic,
                                                                         0.3, k))
            for budget in (1, 7, 40):
                for engine in engines:
                    engine.run(budget)
                    assert engine.assignment.nf.tolist() == _false_children(engine.assignment)
            fast, slow = (engine.assignment for engine in engines)
            crossed = [pickle.loads(pickle.dumps(slow))]
            monkeypatch.setattr(_kernel, "lib", None)
            crossed.append(pickle.loads(pickle.dumps(fast)))
            monkeypatch.undo()
            assert crossed[0]._state is not None and crossed[1]._state is None
            for twin in (fast.copy(), slow.copy(), copy.deepcopy(fast), *crossed):
                assert twin.nf.tolist() == _false_children(twin)
                for _ in range(5):
                    flips = rng.sample(free, min(len(free), rng.randint(1, 3)))
                    twin._move(flips)
                    twin._trial(flips)
                    assert twin.nf.tolist() == _false_children(twin)
                    assert twin.unjust == twin.recompute_unjust()


def _python(script, cache, *args, **env):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=SRC, **env)
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


FALLBACK = """
import shutil, sys
shutil.which = lambda *args, **kwargs: None
import random
import aigsls
from aigsls import _kernel
from aigsls.harness import SolverConfig, crsat_solve
from aigsls.metrics import build_profile
assert _kernel.lib is None
cc = aigsls.generate_random_sat_aig(8, 60, random.Random(3))
result = crsat_solve(cc, build_profile(cc.circuit), SolverConfig("depth-max", 0.3, 5000, 4))
with open(sys.argv[1], "w") as fh:
    fh.write(repr((result.status, result.steps_used, result.witness, result.stats)))
"""


def test_without_a_compiler_the_python_path_runs_silently(tmp_path):
    out = tmp_path / "result.txt"
    proc = _python(FALLBACK, tmp_path / "cache", out)
    stdout, stderr = proc.communicate(timeout=300)
    assert (proc.returncode, stdout, stderr) == (0, b"", b"")
    cc = generate_random_sat_aig(8, 60, random.Random(3))
    result = crsat_solve(cc, build_profile(cc.circuit), SolverConfig("depth-max", 0.3, 5000, 4))
    assert out.read_text() == repr((result.status, result.steps_used, result.witness,
                                    result.stats))


LOAD = """
import shutil, sys
if sys.argv[1] == "no-compiler":
    shutil.which = lambda *args, **kwargs: None
from aigsls import _kernel
print(_kernel.lib is not None)
"""


@needs_cc
@pytest.mark.parametrize("content", [b"", b"not a shared library\n" * 40], ids=["empty", "text"])
@pytest.mark.parametrize("compiler", ["compiler", "no-compiler"])
def test_corrupt_cached_library_is_rebuilt_or_skipped(tmp_path, monkeypatch, content, compiler):
    # a fresh process each time: the loader would reuse a library already
    # loaded from the same path
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = _kernel._library_path()
    with open(path, "wb") as fh:
        fh.write(content)
    proc = _python(LOAD, tmp_path, compiler)
    stdout, stderr = proc.communicate(timeout=300)
    assert (proc.returncode, stderr) == (0, b"")
    with open(path, "rb") as fh:
        head = fh.read(4)
    if compiler == "compiler":
        assert (stdout, head) == (b"True\n", b"\x7fELF")
    else:
        assert (stdout, head) == (b"False\n", content[:4])


def test_cache_directory_others_can_write_is_refused(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    os.mkdir(tmp_path / "aigsls")
    os.chmod(tmp_path / "aigsls", 0o777)
    assert _kernel.load() is None
    assert os.listdir(tmp_path / "aigsls") == []


@needs_cc
def test_a_build_prunes_only_the_stale_libraries_of_other_sources(tmp_path, monkeypatch):
    # a library another checkout built a day ago stays, so two checkouts of
    # different sources sharing one cache do not rebuild each other's
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "aigsls"
    os.mkdir(cache, 0o700)
    for name, age in (("kernel-stale.so", 8), ("kernel-fresh.so", 1)):
        (cache / name).write_bytes(b"another source's library")
        then = time.time() - age * 24 * 3600
        os.utime(cache / name, (then, then))
    assert _kernel.load() is not None
    built = os.path.basename(_kernel._library_path())
    assert sorted(os.listdir(cache)) == sorted([built, "kernel-fresh.so"])


BUILD = """
import random
from aigsls import _kernel, generate_random_sat_aig
from aigsls.harness import SolverConfig, crsat_solve
from aigsls.metrics import build_profile
assert _kernel.lib is not None
cc = generate_random_sat_aig(8, 60, random.Random(3))
print(crsat_solve(cc, build_profile(cc.circuit), SolverConfig("rand", 0.2, 5000, 1)).steps_used)
"""


@needs_cc
def test_concurrent_builds_both_load_a_working_library(tmp_path):
    procs = [_python(BUILD, tmp_path) for _ in range(2)]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outputs
    cc = generate_random_sat_aig(8, 60, random.Random(3))
    config = SolverConfig("rand", 0.2, 5000, 1)
    steps = crsat_solve(cc, build_profile(cc.circuit), config).steps_used
    assert [out for out, _ in outputs] == [f"{steps}\n".encode()] * 2
    assert [name.endswith(".so") and name.startswith("kernel-")
            for name in os.listdir(tmp_path / "aigsls")] == [True]
