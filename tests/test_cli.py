import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aigsls import _kernel
from aigsls.aiger import parse_aiger
from aigsls.circuit import Assignment, verify_satisfying
from aigsls.cli import EXIT_ERROR, EXIT_SAT, EXIT_UNKNOWN, run_cli
from oracles import dpll, parse_dimacs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

UNCONSTRAINED = "aag 1 1 0 0 0\n2\n"
# And(x, not x) required to be 1: violated from the first assignment on
VIOLATED = "aag 2 1 0 1 1\n2\n4\n4 2 3\n"


@pytest.fixture
def aag(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestSolve:
    def test_unconstrained_is_sat_at_step_zero(self, aag, capsys):
        path = aag("free.aag", UNCONSTRAINED)
        code = run_cli(["solve", path, "--seed", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == EXIT_SAT
        assert out[0] == "SAT"
        assert out[1] == "steps 0"

    def test_cutoff_zero_unknown(self, aag, capsys):
        path = aag("bad.aag", VIOLATED)
        code = run_cli(["solve", path, "--cutoff", "0"])
        assert code == EXIT_UNKNOWN
        assert capsys.readouterr().out.splitlines()[0] == "UNKNOWN"

    def test_witness_file_reverifies(self, aag, tmp_path, capsys):
        gen_code = run_cli(["gen", "--inputs", "6", "--ands", "25", "--seed", "3"])
        assert gen_code == 0
        text = capsys.readouterr().out
        path = aag("gen.aag", text)
        witness_path = tmp_path / "w.txt"
        code = run_cli(["solve", path, "--witness", str(witness_path),
                        "--heuristic", "tfi-min", "--seed", "5"])
        assert code == EXIT_SAT
        cc = parse_aiger(text.encode())
        values = bytearray(cc.circuit.num_gates)
        for line in witness_path.read_text().splitlines():
            g, v = line.split(",")
            values[int(g)] = int(v)
        assert verify_satisfying(cc, Assignment(cc.circuit, values))

    def test_default_witness_path(self, aag, capsys):
        path = aag("free.aag", UNCONSTRAINED)
        assert run_cli(["solve", path]) == EXIT_SAT
        capsys.readouterr()
        import os
        assert os.path.exists(path + ".witness")

    def test_stderr_reports_the_search_counts(self, aag, capsys):
        # And(x, not x) held at 1 has no justification: every step is burned
        path = aag("bad.aag", VIOLATED)
        assert run_cli(["solve", path, "--cutoff", "50"]) == EXIT_UNKNOWN
        out, err = capsys.readouterr()
        assert out == "UNKNOWN\nsteps 50\n"
        cpu_time, search, phases = err.splitlines()
        assert cpu_time.startswith("cpu_time ")
        kernel = "python" if _kernel.lib is None else "c"
        assert search == (f"search kernel={kernel} walk=0 greedy=0 forced=0 burned=50 "
                          "trials=0 flips=0 min_unjust=1")
        # an UNKNOWN verdict is never verified
        assert re.fullmatch(r"phases parse_s=\d+\.\d{6} profile_s=\d+\.\d{6} "
                            r"search_s=\d+\.\d{6} verify_s=0\.000000", phases), phases

    def test_stderr_reports_the_phase_times(self, aag, capsys):
        path = aag("free.aag", UNCONSTRAINED)
        assert run_cli(["solve", path]) == EXIT_SAT
        phases = capsys.readouterr().err.splitlines()[-1]
        names, seconds = zip(*(field.split("=") for field in phases.split()[1:]))
        assert phases.startswith("phases ")
        assert names == ("parse_s", "profile_s", "search_s", "verify_s")
        assert all(float(s) >= 0 for s in seconds)

    def test_stdout_byte_identical_across_runs(self, aag, capsys):
        path = aag("free2.aag", "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
        argv = ["solve", path, "--heuristic", "depth-max", "--seed", "9"]
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        second = capsys.readouterr().out
        assert first == second


class TestGen:
    def test_deterministic(self, capsys):
        run_cli(["gen", "--inputs", "4", "--ands", "10", "--seed", "7"])
        first = capsys.readouterr().out
        run_cli(["gen", "--inputs", "4", "--ands", "10", "--seed", "7"])
        assert capsys.readouterr().out == first
        assert first.startswith("aag 14 4 0 ")

    def test_parses_back(self, capsys):
        run_cli(["gen", "--inputs", "3", "--ands", "8", "--seed", "1"])
        cc = parse_aiger(capsys.readouterr().out.encode())
        assert cc.circuit.num_gates == 12


class TestMetrics:
    def test_csv_header_and_rows(self, aag, capsys):
        path = aag("m.aag", "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
        assert run_cli(["metrics", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("gate,depth,level,llevel,alevel,fo,tfo,tfi")
        assert len(lines) == 1 + 4


class TestExportCnf:
    def test_header_and_satisfiability(self, aag, capsys):
        path = aag("c.aag", "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
        assert run_cli(["export-cnf", path]) == 0
        text = capsys.readouterr().out
        nvars, clauses = parse_dimacs(text)
        assert nvars == 4
        assert dpll(clauses)


class TestTune:
    def test_steps_clock_deterministic(self, aag, capsys):
        run_cli(["gen", "--inputs", "5", "--ands", "12", "--seed", "2"])
        text = capsys.readouterr().out
        path = aag("t.aag", text)
        argv = ["tune", path, "--tries", "2", "--noises", "0.1,0.4",
                "--clock", "steps", "--cutoff", "2000"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert first.startswith("# best_wp=")
        assert "instance,heuristic,wp,try,seed,outcome,steps,time" in first
        run_cli(argv)
        assert capsys.readouterr().out == first

    def test_nan_timeout_is_a_one_line_error(self, aag, capsys):
        path = aag("bad.aag", VIOLATED)
        argv = ["tune", path, "--tries", "1", "--noises", "0.2",
                "--timeout", "nan", "--cutoff", "2000"]
        assert run_cli(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1


class TestBench:
    def test_runs_config(self, tmp_path, capsys):
        config = {
            "output_dir": str(tmp_path / "out"),
            "generate": {"count": 2, "inputs": 4, "min_ands": 6,
                         "max_ands": 10, "seed": 3},
            "heuristics": ["rand", "level-min"],
            "noises": [0.2],
            "tries": 2,
            "timeout": None,
            "cutoff": 2000,
            "clock": "steps",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["bench", str(path)]) == 0
        for name in ("tries.csv", "summaries.csv", "cactus.csv", "scatter.csv"):
            assert (tmp_path / "out" / name).exists()

    @pytest.mark.parametrize("overrides", [
        pytest.param({"tries": "3"}, id="tries-3"),
        pytest.param({"generate": {"count": 2, "min_ands": 6, "max_ands": 10}},
                     id="generate-value1"),
        pytest.param({"clock": "cpu", "timeout": math.nan}, id="timeout-nan"),
        pytest.param({"clock": "cpu", "timeout": -1}, id="timeout-negative"),
        pytest.param({"cutoff": -1}, id="cutoff-negative"),
        pytest.param({"heuristics": ["rand", "rand"]}, id="heuristics-duplicate"),
        pytest.param({"noises": [1, 1.0]}, id="noises-duplicate"),
        pytest.param({"generate": {"count": 20, "inputs": 4, "min_ands": 0, "max_ands": 3,
                                   "seed": 1}}, id="generate-min-ands-0"),
        pytest.param({"generate": {"count": 2, "inputs": 4, "min_ands": 9, "max_ands": 3}},
                     id="generate-max-below-min"),
        pytest.param({"generate": {"count": 2, "inputs": 0, "min_ands": 6, "max_ands": 10}},
                     id="generate-no-inputs"),
        pytest.param({"generate": {"count": -1, "inputs": 4, "min_ands": 6, "max_ands": 10}},
                     id="generate-count-negative"),
    ])
    def test_mistyped_config_is_a_one_line_error(self, tmp_path, capsys, overrides):
        config = {
            "output_dir": str(tmp_path / "out"),
            "generate": {"count": 2, "inputs": 4, "min_ands": 6, "max_ands": 10},
            "timeout": None,
            "cutoff": 2000,
            "clock": "steps",
            **overrides,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli(["bench", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out" / "instances").exists()


#: Values swapped into a mutated config field; none of them enlarges the work.
HOSTILE = (math.nan, math.inf, -math.inf, -1, 0, 0.5, "x", True, None, [], {})


@st.composite
def hostile_config(draw):
    """A tiny valid bench config with one to three keys dropped or swapped.

    ``output_dir`` is never touched, ``tries`` and ``cutoff`` are never
    dropped and ``cutoff`` never becomes null, so no mutant runs longer than
    the original: one 10-20 AND instance, one try of at most 200 steps.
    """
    generate = {"count": 1, "inputs": 4, "min_ands": 10, "max_ands": 20, "seed": 1}
    config = {"instances": [], "generate": generate, "heuristics": ["rand"],
              "noises": [0.2], "tries": 1, "timeout": None, "cutoff": 200,
              "master_seed": 0, "clock": "steps", "scatter_pairs": [["rand", "rand"]],
              "trivial_heuristic": "rand", "trivial_threshold": 730, "jobs": 1}
    slots = [(block, key) for block in (config, generate) for key in block]
    for _ in range(draw(st.integers(1, 3))):
        block, key = draw(st.sampled_from(slots))
        value = block.get(key)
        swaps = [v for v in HOSTILE if not (key == "cutoff" and v is None)]
        if isinstance(value, list):
            swaps += [value * 2] + [[v] for v in HOSTILE]
        if key == "clock":
            swaps.append("cpu")
        if key not in ("tries", "cutoff") and draw(st.booleans()):
            block.pop(key, None)
        else:
            block[key] = draw(st.sampled_from(swaps))
    return config


class TestHostileConfig:
    @settings(max_examples=100, deadline=None)
    @given(hostile_config())
    def test_mutated_configs_fail_cleanly(self, config):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config["output_dir"] = os.path.join(tmp, "out")
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            with redirect_stdout(out), redirect_stderr(err):
                code = run_cli(["bench", path])
            assert code in (0, EXIT_ERROR)
            if code == EXIT_ERROR:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), lines
            else:
                with open(os.path.join(tmp, "out", "tries.csv"), newline="") as fh:
                    times = [float(row["time"]) for row in csv.DictReader(fh)]
                assert all(math.isfinite(t) and t >= 0 for t in times), times


class TestErrors:
    def test_missing_file(self, capsys):
        assert run_cli(["solve", "/nonexistent.aag"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_instance(self, aag, capsys):
        path = aag("bad.aag", "not an aiger file\n")
        assert run_cli(["solve", path]) == EXIT_ERROR

    def test_unknown_flag(self, aag, capsys):
        path = aag("f.aag", UNCONSTRAINED)
        assert run_cli(["solve", path, "--frobnicate"]) == EXIT_ERROR

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["dance"]) == EXIT_ERROR

    def test_bad_heuristic_rejected(self, aag, capsys):
        path = aag("f.aag", UNCONSTRAINED)
        assert run_cli(["solve", path, "--heuristic", "llevel-max"]) == EXIT_ERROR

    def test_header_past_max_var_fails_before_allocating(self, tmp_path):
        # 2**30 inputs is a valid 33-byte binary file past the parsers' limit;
        # under a 1 GiB address space, allocating for it would raise MemoryError
        path = tmp_path / "huge.aig"
        path.write_bytes(b"aig 1073741824 1073741824 0 0 0\n")
        _fails_before_allocating("solve", str(path))

    def test_header_sized_circuit_past_memory_is_a_one_line_error(self, tmp_path):
        # 3 * 10**8 inputs is a valid 30-byte binary file within the parsers'
        # limit, whose gate arrays outgrow a 1 GiB address space
        path = tmp_path / "wide.aig"
        path.write_bytes(b"aig 300000000 300000000 0 0 0\n")
        _fails_before_allocating("solve", str(path))

    def test_generator_past_max_var_fails_before_allocating(self, tmp_path):
        # a circuit past 2**30 - 1 variables fits no AIGER file; building its
        # gate list under a 1 GiB address space would raise MemoryError
        _fails_before_allocating("gen", "--inputs", "1", "--ands", str(2**30))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "output_dir": str(tmp_path / "out"), "timeout": None, "cutoff": 10,
            "clock": "steps", "generate": {"count": 1, "inputs": 1, "min_ands": 2**30,
                                           "max_ands": 2**30}}))
        _fails_before_allocating("bench", str(path))
        assert not (tmp_path / "out").exists()

    def test_generated_suite_past_memory_fails_before_allocating(self, aag, tmp_path):
        # the bad instance fails before the first of 10**11 instances is
        # generated; listing their names up front would raise MemoryError
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "output_dir": str(tmp_path / "out"), "timeout": None, "cutoff": 10,
            "clock": "steps", "instances": [aag("bad.aag", "not an aiger file\n")],
            "generate": {"count": 10**11, "inputs": 2, "min_ands": 3, "max_ands": 3}}))
        _fails_before_allocating("bench", str(path))
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[" * 200_000)
        _fails_before_allocating("bench", str(path))
        # in this process too: the oracles raise the recursion limit only
        # while they recurse, so the JSON parser stops before the C stack ends
        assert run_cli(["bench", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: config nests too deeply\n"

    def test_jobs_is_one_process_only(self, tmp_path, capsys):
        def config(jobs):
            path = tmp_path / f"jobs{jobs}.json"
            path.write_text(json.dumps({
                "output_dir": str(tmp_path / f"out{jobs}"), "timeout": None, "cutoff": 10,
                "clock": "steps", "jobs": jobs,
                "generate": {"count": 1, "inputs": 2, "min_ands": 3, "max_ands": 3}}))
            return str(path)

        assert run_cli(["bench", config(2)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: jobs") and len(err.splitlines()) == 1, err
        assert not (tmp_path / "out2").exists()
        assert run_cli(["bench", config(1), "--jobs", "1"]) == EXIT_ERROR
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out1").exists()
        assert run_cli(["bench", config(1)]) == 0
        assert (tmp_path / "out1" / "tries.csv").exists()

    def test_the_cli_loads_no_multiprocessing(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, aigsls.cli; print('multiprocessing' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, check=True)
        assert proc.stdout == b"False\n"


def _fails_before_allocating(*argv):
    proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          timeout=120)
    lines = proc.stderr.decode().splitlines()
    assert (proc.returncode, proc.stdout) == (EXIT_ERROR, b""), lines
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


LIMITED_CLI = """
import resource, sys
from aigsls.cli import run_cli
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.exit(run_cli(sys.argv[1:]))
"""
