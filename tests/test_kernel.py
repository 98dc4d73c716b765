"""The C kernel against the pure-Python reference.

An ``Assignment`` (and so a ``SearchEngine``) stays on the path it was built
on; ``_kernel.lib`` is None on the pure-Python path.  The classes below
rerun the AIGER-parsing, circuit-building, verification, metric, flip,
rollback, unjust-set, propagation, trial and golden-hash tests with the
kernel turned off; their originals run on the kernel wherever it builds.
"""

import copy
import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate, chain

import pytest
from hypothesis import HealthCheck, given, settings

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
    evaluate,
    is_justified,
    random_complete_extension,
    verify_satisfying,
)
from aigsls.cli import run_cli
from aigsls.harness import SolverConfig, crsat_solve, run_try
from aigsls.metrics import ALEVEL_MODES, FLOW_MODES, build_profile
from aigsls.search import HEURISTICS, SearchEngine
from oracles import random_constrained, random_dag, ref_tfi_sizes, ref_tfo_sizes

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_kernel = pytest.mark.skipif(_kernel.lib is None, reason="no working C compiler")
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


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
    for g, row in enumerate(kids):
        for c in row:
            parents[c].append(g)
    tpos = [0] * len(kids)
    for pos, g in enumerate(circuit.topo_order):
        tpos[g] = pos
    return _kernel.CSR(*pair(circuit.fanin), *pair(parents), array("i", circuit.topo_order),
                       array("i", tpos), *pair(kids))


PROFILE_COLUMNS = ("depth", "level", "llevel", "alevel", "fanout_size", "cc0", "cc1",
                   "co", "flow")


def _assert_same_profiles(fast, slow):
    for column in PROFILE_COLUMNS:
        # repr tells 1 from 1.0 and 0.0 from -0.0
        assert repr(getattr(fast, column)) == repr(getattr(slow, column)), column


@needs_kernel
def test_topology_and_profile_match_on_both_paths(monkeypatch):
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
#: field past 32 bits, and more variables than the C parsers take
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
    The C parser accepts (``[True]``), declines (``[False]``) or is not
    asked, when the file has fewer newlines than the header promises lines
    (``[]``)."""
    text = serialize_ascii(cc).encode()
    head, body = text.split(b"\n", 1)
    binary = serialize_binary(cc)
    outputs = int(head.split()[4])
    *lines, ands = binary.split(b"\n", 1 + outputs)
    lines = b"".join(line + b"\n" for line in lines)
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
        (text.rstrip(b"\n"), []),
        (binary, [True]),
        (binary + trailer, [True]),
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
    cases = [(_fibonacci_chain(rng, 120), _kernel.CC_OVERFLOW | _kernel.CO_OVERFLOW),
             (_fibonacci_chain(rng, 60), 0),
             (_observed_through_big_siblings(8), _kernel.CO_OVERFLOW),
             (_observed_through_big_siblings(1), 0)]
    for circuit, overflow in cases:
        flags, _ = _kernel.profile(circuit, False, False)
        assert flags & (_kernel.CC_OVERFLOW | _kernel.CO_OVERFLOW) == overflow
        fast, slow = _on_both_paths(monkeypatch, lambda: build_profile(circuit))
        _assert_same_profiles(fast, slow)
        assert all(type(v) is int for v in fast.cc0 + fast.cc1 + fast.co)
        if overflow & _kernel.CC_OVERFLOW:
            assert max(fast.cc1) > 2**63
        if overflow:
            assert max(fast.co) > 2**63
        else:
            assert max(fast.cc1 + fast.co) < 2**63


@needs_kernel
@pytest.mark.parametrize("compensated", [False, True])
def test_alevel_of_wide_gates_follows_the_interpreters_sum(monkeypatch, compensated):
    # CPython 3.12 compensates float sums; the kernel's plain sum matches
    # that only for two terms, so wider gates take alevel from Python there
    monkeypatch.setattr(metrics, "COMPENSATED_SUM", compensated)
    calls = []

    def spy(*args):
        calls.append(args)
        return compute_levels(*args)

    compute_levels = metrics.compute_levels
    monkeypatch.setattr(metrics, "compute_levels", spy)
    narrow = build_circuit([INPUT, INPUT, (Literal(0), Literal(1)),
                            (Literal(2), Literal(0, True), Literal(2, True))])
    wide = build_circuit([INPUT, INPUT, INPUT, (Literal(0), Literal(1), Literal(2))])
    for circuit, alevel_mode, routed in ((narrow, "self", False), (wide, "self", compensated),
                                         (wide, "level-sum", False)):
        calls.clear()
        profile = build_profile(circuit, alevel_mode)
        assert calls == ([(circuit,)] if routed else [])
        assert profile.alevel == compute_levels(circuit, alevel_mode)[2]


@needs_cc
def test_kernel_source_compiles_without_warnings():
    proc = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", "-x", "c", "-"],
                          input=_kernel.SOURCE.encode(), capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")


SANITIZED = """
import json, random, sys
from aigsls import _kernel, aiger, circuit, generate_random_sat_aig
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
    # the entry points themselves, with counts the bytes cannot meet
    for pos in range(min(len(data), 6)):
        for i, o, a in ((0, 0, 1), (2, 1, 3), (1, 0, len(data))):
            _kernel.parse_binary(data, pos, i, a)
            _kernel.parse_ascii(data, pos, i + a, i, o, a)
cc = generate_random_sat_aig(12, 300, random.Random(5))
profile = build_profile(cc.circuit)
for heuristic in ("rand", "depth-max", "cc-min", "tfi-min", "tfo-max", "flow-min"):
    crsat_solve(cc, profile, SolverConfig(heuristic, 0.3, 3000, 1))
sys.path.insert(0, sys.argv[3])
from oracles import random_dag
rng = random.Random(6)
for k in range(4):
    profile = build_profile(random_dag(rng, rng.randint(1, 400)))
    if k % 2:
        profile._walk[0] = 0x7FFFFFFF - 5    # the stamps restart midway
    profile.materialize_closures()
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


def _snapshot(engine):
    asg = engine.assignment
    return (engine.steps, bytes(asg.values), asg.ulist, list(asg.upos), engine.stats)


def _run_both(monkeypatch, cc, heuristic, wp, seed, chunks):
    """Run one seed on the kernel and on Python in step; assert equal states."""
    profile = build_profile(cc.circuit)
    fast, slow = _on_both_paths(monkeypatch,
                                lambda: SearchEngine(cc, profile, heuristic, wp, seed))
    assert _snapshot(fast) == _snapshot(slow)
    for k in chunks:
        found = fast.run(k)
        assert slow.run(k) == found
        assert _snapshot(fast) == _snapshot(slow)
        assert (fast.stats.min_unjust == 0) == found
        if found:
            break
    assert slow.assignment._state is None


def _buffers(asg):
    return bytes(asg.values), asg.ulist, list(asg.upos), asg.unjust_count


@needs_kernel
def test_an_assignment_stays_on_the_path_it_was_built_on(monkeypatch):
    rng = random.Random(87)
    circuit = random_dag(rng, 150)
    cc = random_constrained(rng, circuit)
    values = random_complete_extension(cc, rng).values
    fast, slow = _on_both_paths(monkeypatch, lambda: Assignment(circuit, values, cc.pinned))
    assert isinstance(fast._state, _kernel.State) and slow._state is None
    free = [g for g in range(circuit.num_gates) if not cc.pinned[g]]
    for _ in range(300):
        flips = rng.sample(free, rng.randint(0, 3))
        assert fast._trial(flips) == slow._trial(flips)
        assert _buffers(fast) == _buffers(slow)
        if rng.random() < 0.5:
            assert fast._move(flips) == slow._move(flips)
        else:
            undos = [], []
            for asg, undo in zip((fast, slow), undos):
                for g in flips:
                    asg.flip(g, undo)
                asg.propagate_forward(flips, undo)
            assert undos[0] == undos[1]
            assert _buffers(fast) == _buffers(slow)
            if rng.random() < 0.5:
                fast.rollback(undos[0])
                slow.rollback(undos[1])
        assert _buffers(fast) == _buffers(slow)
    assert slow._state is None
    assert slow.unjust == slow.recompute_unjust()


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


def _fibonacci_chain(rng, length):
    """Each chain gate ANDs the two before it, so cc1 grows like Fibonacci
    numbers; side gates read chain gates through complemented edges."""
    definitions = [INPUT, INPUT]
    for g in range(2, length):
        definitions.append((Literal(g - 1), Literal(g - 2)))
    for _ in range(length // 3):
        definitions.append((Literal(rng.randrange(length)),
                            Literal(rng.randrange(len(definitions)), True)))
    return build_circuit(definitions)


@needs_kernel
def test_measures_past_int64_rank_exactly(monkeypatch):
    rng = random.Random(77)
    for _ in range(3):
        circuit = _fibonacci_chain(rng, 120)
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

    for heuristic in ("depth-max", "tfi-min"):
        reference = SearchEngine(cc, build_profile(cc.circuit), heuristic, 0.2, 5)
        reference.run(200)
        engine = SearchEngine(cc, build_profile(cc.circuit), heuristic, 0.2, 5)
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


@needs_kernel
def test_a_shared_profile_walks_closures_right_under_threads():
    # selection and closure walks share the profile's walk scratch, so only
    # one thread at a time may walk
    cc = generate_random_sat_aig(64, 5000, random.Random(5))
    tfi, tfo = ref_tfi_sizes(cc.circuit), ref_tfo_sizes(cc.circuit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(5):
            profile = build_profile(cc.circuit)
            runs = [SearchEngine(cc, profile, heuristic, 0.2, seed).run
                    for heuristic in ("tfi-min", "tfi-max", "tfi-min", "tfo-min")]
            with ThreadPoolExecutor(len(runs) + 1) as pool:
                futures = [pool.submit(run, 300) for run in runs]
                futures.append(pool.submit(profile.materialize_closures))
                for future in futures:
                    future.result(timeout=120)
            assert (profile._tfi, profile._tfo) == (tfi, tfo)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_stamps_restart_before_the_generation_overflows(kernel, monkeypatch):
    if kernel == "python":
        monkeypatch.setattr(_kernel, "lib", None)
    elif _kernel.lib is None:
        pytest.skip("no working C compiler")
    rng = random.Random(73)
    circuit = random_dag(rng, 80)
    cc = random_constrained(rng, circuit)
    asg = random_complete_extension(cc, random.Random(1))
    fresh = asg.copy()
    asg._meta[1] = 0x7FFFFFFF - 1
    free = [g for g in range(circuit.num_gates) if not cc.pinned[g]]
    for g in free[:20]:
        asg.flip(g)
        asg.propagate_forward([g])
        fresh.flip(g)
        fresh.propagate_forward([g])
        assert asg.values == fresh.values
        assert asg.ulist == fresh.ulist
    assert 0 < asg._meta[1] < 100


def test_kernel_rejects_out_of_range_gates(monkeypatch):
    # and so does the pure-Python path, negative gates included; without
    # the kernel both rounds run in Python
    circuit = random_dag(random.Random(74), 10)
    for lib in (_kernel.lib, None):
        monkeypatch.setattr(_kernel, "lib", lib)
        asg = random_complete_extension(random_constrained(random.Random(0), circuit),
                                        random.Random(0))
        before = (bytes(asg.values), asg.ulist)
        for call in (lambda: asg.flip(10), lambda: asg.flip(-1),
                     lambda: asg.propagate_forward([3, 10]), lambda: asg.rollback([-2]),
                     lambda: asg._trial([1, 10]), lambda: asg._trial([-1]),
                     lambda: asg._move([-1]), lambda: is_justified(circuit, asg, 10),
                     lambda: is_justified(circuit, asg, -1)):
            with pytest.raises(IndexError):
                call()
            assert (bytes(asg.values), asg.ulist) == before
        assert asg.unjust == asg.recompute_unjust()


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
