"""The C search kernel against the pure-Python reference.

Both paths work on the same buffers of an ``Assignment``; ``_kernel.lib`` is
None on the pure-Python path.  The classes below rerun the flip, rollback,
unjust-set, propagation, trial and golden-hash tests with the kernel turned
off; their originals run on the kernel wherever it builds.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from array import array

import pytest

import test_circuit
import test_harness
import test_search
from aigsls import INPUT, Literal, _kernel, build_circuit
from aigsls.aiger import generate_random_sat_aig
from aigsls.circuit import random_complete_extension
from aigsls.harness import SolverConfig, crsat_solve
from aigsls.metrics import build_profile, compute_fanout_tfo_tfi
from aigsls.search import HEURISTICS, SearchEngine
from oracles import random_constrained, random_dag

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

needs_kernel = pytest.mark.skipif(_kernel.lib is None, reason="no working C compiler")


@pytest.fixture
def python_path(monkeypatch):
    monkeypatch.setattr(_kernel, "lib", None)


@pytest.mark.usefixtures("python_path")
class TestEvaluatePython(test_circuit.TestEvaluate):
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


def _snapshot(engine):
    asg = engine.assignment
    return (engine.steps, bytes(asg.values), asg.ulist, list(asg.upos), engine.stats)


def _run_both(monkeypatch, cc, heuristic, wp, seed, chunks):
    """Run one seed on the kernel and on Python in step; assert equal states."""
    profile = build_profile(cc.circuit)
    lib = _kernel.lib
    monkeypatch.setattr(_kernel, "lib", None)
    slow = SearchEngine(cc, profile, heuristic, wp, seed)
    monkeypatch.setattr(_kernel, "lib", lib)
    fast = SearchEngine(cc, profile, heuristic, wp, seed)
    assert _snapshot(fast) == _snapshot(slow)
    for k in chunks:
        found = fast.run(k)
        monkeypatch.setattr(_kernel, "lib", None)
        assert slow.run(k) == found
        monkeypatch.setattr(_kernel, "lib", lib)
        assert _snapshot(fast) == _snapshot(slow)
        stats = fast.stats
        assert stats.walk + stats.greedy + stats.forced + stats.burned == fast.steps
        assert (stats.min_unjust == 0) == found
        if found:
            break


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
        asg = random_complete_extension(random_constrained(rng, circuit), rng)
        if k % 2:
            asg._meta[2] = 0x7FFFFFFF - 5      # the walk stamps restart midway
        # offer every gate as a candidate, so the kernel walks them all
        asg.ubuf[:] = array("i", range(n))
        asg._meta[0] = n
        for measure in ("tfi", "tfo"):
            asg._select(*profile.scores(measure), False, _kernel.WALKS[measure])
        if k % 2:
            assert 0 < asg._meta[2] <= 2 * n
        _, tfo, tfi = compute_fanout_tfo_tfi(circuit)
        assert profile.scores("tfo")[0].tolist() == tfo
        assert profile.scores("tfi")[0].tolist() == tfi
        assert [profile.tfo_size(g) for g in range(n)] == tfo
        assert [profile.tfi_size(g) for g in range(n)] == tfi
        profile.materialize_closures()
        assert (type(profile._tfo), type(profile._tfi)) == (list, list)
        assert (profile._tfo, profile._tfi) == (tfo, tfi)


@needs_kernel
def test_selection_rejects_short_score_arrays():
    circuit = random_dag(random.Random(79), 30)
    asg = random_complete_extension(random_constrained(random.Random(0), circuit),
                                    random.Random(0))
    full = array("i", range(30))
    before = (bytes(asg.values), asg.ulist)
    for lo, hi in ((full[:29], full), (full, full[:29]), (array("i"), array("i")),
                   (list(full), full), (array("q", full), full)):
        with pytest.raises(ValueError):
            asg._select(lo, hi, False)
        with pytest.raises(ValueError):
            asg._select(lo, hi, True, 1)
    assert (bytes(asg.values), asg.ulist) == before
    assert full.tolist() == list(range(30))


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


@needs_kernel
def test_kernel_rejects_out_of_range_gates():
    circuit = random_dag(random.Random(74), 10)
    asg = random_complete_extension(random_constrained(random.Random(0), circuit),
                                    random.Random(0))
    before = (bytes(asg.values), asg.ulist)
    for call in (lambda: asg.flip(10), lambda: asg.flip(-1),
                 lambda: asg.propagate_forward([3, 10]), lambda: asg.rollback([-2]),
                 lambda: asg._trial([1, 10]), lambda: asg._move([-1])):
        with pytest.raises(IndexError):
            call()
        assert (bytes(asg.values), asg.ulist) == before


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


def _python(script, cache, *args):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=SRC)
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


@needs_kernel
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


@needs_kernel
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
