import hashlib
import json
import os
import random

import pytest

from aigsls import harness
from aigsls.aiger import generate_random_sat_aig, load_aiger, serialize_ascii
from aigsls.circuit import INPUT, ConstrainedCircuit, Literal, build_circuit, evaluate
from aigsls.harness import (
    CENSORED_STEPS,
    DEFAULT_NOISES,
    ExperimentConfig,
    InstanceSummary,
    MismatchedInstanceSets,
    SolverConfig,
    TryRecord,
    _rank_noises,
    crsat_solve,
    derive_seed,
    emit_cactus_csv,
    emit_scatter_csv,
    filter_trivial,
    load_config,
    lower_median,
    optimize_noise,
    run_experiment,
    run_try,
    summarize,
)
from aigsls.metrics import build_profile
from aigsls.search import HEURISTICS


def record(instance="i", heuristic="rand", wp=0.2, try_index=0, outcome="SAT",
           steps=100, time=1.0):
    return TryRecord(instance, heuristic, wp, try_index, 0, outcome, steps, time)


def tries_batch(n_sat, n_unsat, **kw):
    records = []
    for i in range(n_sat):
        records.append(record(try_index=i, outcome="SAT", steps=100 + i, time=1.0 + i, **kw))
    for i in range(n_unsat):
        records.append(record(try_index=n_sat + i, outcome="UNKNOWN",
                              steps=10_000, time=20.0, **kw))
    return records


def unsat_fixture():
    # And(x, not x) forced to 1 can never be justified
    circuit = build_circuit([INPUT, [Literal(0), Literal(0, True)]])
    cc = ConstrainedCircuit(circuit, {1: True})
    return cc, build_profile(circuit)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "a", 0.2, 3) == derive_seed(7, "a", 0.2, 3)

    def test_context_sensitivity(self):
        seeds = {
            derive_seed(7, "a", 0.2, 3),
            derive_seed(8, "a", 0.2, 3),
            derive_seed(7, "b", 0.2, 3),
            derive_seed(7, "a", 0.3, 3),
            derive_seed(7, "a", 0.2, 4),
        }
        assert len(seeds) == 5


class TestLowerMedian:
    def test_odd_length(self):
        assert lower_median([3, 1, 2]) == 2

    def test_even_length_takes_lower_middle(self):
        assert lower_median([4, 1, 3, 2]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lower_median([])


class TestRunTry:
    def test_steps_clock_is_deterministic(self):
        cc = generate_random_sat_aig(6, 25, random.Random(1))
        profile = build_profile(cc.circuit)
        a = run_try(cc, profile, "x", "rand", 0.2, 0, 5, cutoff=5000, clock="steps")
        b = run_try(cc, profile, "x", "rand", 0.2, 0, 5, cutoff=5000, clock="steps")
        assert a == b
        assert a.time == float(a.steps)

    def test_timeout_records_the_budget(self):
        cc, profile = unsat_fixture()
        rec = run_try(cc, profile, "u", "rand", 0.2, 0, 1, timeout=0.05)
        assert rec.outcome == "UNKNOWN"
        assert rec.time == 0.05
        assert rec.steps > 0

    def test_cutoff_bounds_steps(self):
        cc, profile = unsat_fixture()
        rec = run_try(cc, profile, "u", "rand", 0.2, 0, 1, cutoff=1234, clock="steps")
        assert rec.outcome == "UNKNOWN"
        assert rec.steps == 1234

    def test_clock_validation(self):
        cc, profile = unsat_fixture()
        with pytest.raises(ValueError):
            run_try(cc, profile, "u", "rand", 0.2, 0, 1, clock="steps")
        with pytest.raises(ValueError):
            run_try(cc, profile, "u", "rand", 0.2, 0, 1, timeout=1.0,
                    cutoff=10, clock="steps")
        with pytest.raises(ValueError):
            run_try(cc, profile, "u", "rand", 0.2, 0, 1)


class TestOptimizeNoise:
    def test_default_candidates(self):
        assert DEFAULT_NOISES == (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

    def test_runs_every_candidate(self):
        cc = generate_random_sat_aig(5, 15, random.Random(2))
        profile = build_profile(cc.circuit)
        best, records = optimize_noise(cc, profile, "x", "rand", tries=2,
                                       cutoff=4000, clock="steps", master_seed=3)
        assert best in DEFAULT_NOISES
        assert len(records) == 2 * len(DEFAULT_NOISES)

    def test_dominant_candidate_always_wins(self):
        records = ([record(wp=0.1, outcome="UNKNOWN", steps=500, time=9.0)] * 3
                   + [record(wp=0.2, outcome="SAT", steps=10, time=1.0)] * 3)
        for master in range(50):
            assert _rank_noises(records, master, "i", "rand") == 0.2

    def test_median_time_breaks_success_ties(self):
        records = ([record(wp=0.1, outcome="SAT", time=5.0)] * 3
                   + [record(wp=0.2, outcome="SAT", time=2.0)] * 3)
        assert _rank_noises(records, 0, "i", "rand") == 0.2

    def test_full_tie_breaks_roughly_evenly(self):
        records = ([record(wp=0.1, outcome="SAT", time=1.0)] * 3
                   + [record(wp=0.2, outcome="SAT", time=1.0)] * 3)
        picks = [_rank_noises(records, master, "i", "rand") for master in range(200)]
        share = picks.count(0.1) / len(picks)
        assert 0.3 < share < 0.7

    def test_validation(self):
        cc, profile = unsat_fixture()
        with pytest.raises(ValueError):
            optimize_noise(cc, profile, "u", "rand", tries=0, timeout=0.01)
        with pytest.raises(ValueError):
            optimize_noise(cc, profile, "u", "rand", tries=1, timeout=0.01,
                           candidates=[])
        with pytest.raises(ValueError):
            optimize_noise(cc, profile, "u", "rand", tries=1, timeout=0.01,
                           candidates=[0.2, 0.2])


class TestSummarize:
    def test_thirteen_of_twenty_five_is_solved(self):
        summary = summarize(tries_batch(13, 12), 25)
        assert summary.success_rate == 13 / 25
        assert summary.solved is True

    def test_twelve_of_twenty_five_is_not_solved(self):
        summary = summarize(tries_batch(12, 13), 25)
        assert summary.solved is False

    def test_unsuccessful_tries_censored_in_step_median(self):
        # 2 SAT + 3 UNKNOWN: the median entry is a censored value
        summary = summarize(tries_batch(2, 3), 5)
        assert summary.median_steps == CENSORED_STEPS
        assert summary.median_time == 20.0

    def test_solved_median_comes_from_real_steps(self):
        summary = summarize(tries_batch(13, 12), 25)
        assert summary.median_steps == 112  # largest of the 13 SAT step counts

    def test_permutation_invariance(self):
        records = tries_batch(7, 6)
        base = summarize(records, 13)
        rng = random.Random(4)
        for _ in range(5):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert summarize(shuffled, 13) == base

    def test_record_count_enforced(self):
        with pytest.raises(ValueError):
            summarize(tries_batch(2, 2), 25)

    def test_no_tries_rejected(self):
        for tries in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                summarize([], tries)

    def test_mixed_groups_rejected(self):
        records = tries_batch(1, 0) + tries_batch(1, 0, heuristic="depth-max")
        with pytest.raises(ValueError):
            summarize(records, 2)


def summary(instance, heuristic="rand", median_time=1.0, median_steps=100,
            solved=True):
    return InstanceSummary(instance, heuristic, 0.2, 1.0 if solved else 0.0,
                           median_time, median_steps, solved)


class TestCactus:
    def test_zero_solved_heuristic_has_no_rows(self):
        text = emit_cactus_csv([summary("a", solved=False)])
        assert text.strip().splitlines() == ["heuristic,rank,median_time"]

    def test_rank_ordering(self):
        text = emit_cactus_csv([
            summary("a", median_time=1.0),
            summary("b", median_time=5.0),
            summary("c", median_time=2.0),
        ])
        rows = text.strip().splitlines()[1:]
        assert rows == ["rand,1,1.0", "rand,2,2.0", "rand,3,5.0"]

    def test_rank_count_matches_solved_count(self):
        rng = random.Random(5)
        summaries = [summary(f"i{k}", heuristic=h, median_time=rng.random(),
                             solved=rng.random() < 0.6)
                     for k in range(20) for h in ("rand", "depth-max")]
        rows = emit_cactus_csv(summaries).strip().splitlines()[1:]
        assert len(rows) == sum(s.solved for s in summaries)


class TestScatter:
    def test_identical_heuristic_lies_on_diagonal(self):
        side = [summary("a", median_steps=10), summary("b", median_steps=20)]
        rows = emit_scatter_csv(side, side).strip().splitlines()[1:]
        for row in rows:
            _, x, y = row.split(",")
            assert x == y

    def test_unsolved_side_censored(self):
        a = [summary("a", solved=False)]
        b = [summary("a", median_steps=42)]
        rows = emit_scatter_csv(a, b).strip().splitlines()
        assert rows[1] == f"a,{CENSORED_STEPS},42"

    def test_row_count_is_instance_count(self):
        a = [summary(f"i{k}", median_steps=k + 1) for k in range(7)]
        b = [summary(f"i{k}", heuristic="tfi-min", median_steps=k + 2) for k in range(7)]
        rows = emit_scatter_csv(a, b).strip().splitlines()
        assert len(rows) == 1 + 7
        assert rows[0] == "instance,rand,tfi-min"

    def test_mismatched_instances_rejected(self):
        with pytest.raises(MismatchedInstanceSets):
            emit_scatter_csv([summary("a")], [summary("b")])


class TestFilterTrivial:
    def test_boundary(self):
        below = summary("a", median_steps=729)
        at = summary("b", median_steps=730)
        trivial, retained = filter_trivial([below, at])
        assert trivial == [below]
        assert retained == [at]

    def test_empty_input(self):
        assert filter_trivial([]) == ([], [])


def base_config(tmp_path, **overrides):
    cfg = dict(
        output_dir=str(tmp_path / "out"),
        generate={"count": 2, "inputs": 5, "min_ands": 8, "max_ands": 16, "seed": 9},
        heuristics=["rand", "depth-max"],
        noises=[0.2, 0.5],
        tries=3,
        timeout=None,
        cutoff=3000,
        master_seed=11,
        clock="steps",
    )
    cfg.update(overrides)
    return ExperimentConfig(**cfg)


class TestExperiment:
    def test_end_to_end_outputs(self, tmp_path):
        result = run_experiment(base_config(tmp_path))
        assert len(result.records) == 2 * 2 * 2 * 3
        assert len(result.summaries) == 2 * 2
        for name in ("tries.csv", "summaries.csv", "cactus.csv", "scatter.csv",
                     "report.txt"):
            assert name in result.files
            assert os.path.getsize(result.files[name]) > 0
        with open(result.files["tries.csv"]) as fh:
            assert fh.readline().strip() == \
                "instance,heuristic,wp,try,seed,outcome,steps,time"

    def test_reruns_are_byte_identical(self, tmp_path):
        res_a = run_experiment(base_config(tmp_path / "a"))
        res_b = run_experiment(base_config(tmp_path / "b"))
        for name in res_a.files:
            with open(res_a.files[name], "rb") as fa, open(res_b.files[name], "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_each_instance_and_heuristic_tunes_through_optimize_noise(self, tmp_path):
        generate = {"count": 1, "inputs": 5, "min_ands": 8, "max_ands": 16, "seed": 9}
        config = base_config(tmp_path, heuristics=["depth-max"], generate=generate)
        result = run_experiment(config)
        cc = load_aiger(os.path.join(config.output_dir, "instances", "gen-0000.aag"))
        best, records = optimize_noise(
            cc, build_profile(cc.circuit), "gen-0000.aag", "depth-max", tries=config.tries,
            candidates=config.noises, master_seed=config.master_seed,
            cutoff=config.cutoff, clock="steps")
        assert result.records == records
        assert [s.best_wp for s in result.summaries] == [best]

    def test_second_run_in_one_process_reads_its_own_instances(self, tmp_path):
        # both runs write gen-0000.aag and gen-0001.aag into shared/instances
        def rows(seed, directory):
            generate = {"count": 2, "inputs": 5, "min_ands": 8, "max_ands": 16, "seed": seed}
            result = run_experiment(base_config(directory, generate=generate))
            return [(r.instance, r.heuristic, r.wp, r.try_index, r.outcome, r.steps)
                    for r in result.records]

        rows(1, tmp_path / "shared")
        assert rows(2, tmp_path / "shared") == rows(2, tmp_path / "fresh")

    def test_trivial_filter_routing(self, tmp_path):
        config = base_config(tmp_path, trivial_heuristic="rand",
                             trivial_threshold=10**9)
        result = run_experiment(config)
        # with an absurd threshold everything is trivial
        assert {s.instance for s in result.trivial} == \
            {s.instance for s in result.summaries}
        assert result.retained == []
        with open(result.files["cactus.csv"]) as fh:
            assert fh.read().strip() == "heuristic,rank,median_time"
        assert "trivial.csv" in result.files

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            base_config(tmp_path, heuristics=["nope"]).validate()
        with pytest.raises(ValueError):
            base_config(tmp_path, clock="steps", cutoff=None).validate()
        with pytest.raises(ValueError):
            base_config(tmp_path, noises=[2.0]).validate()
        with pytest.raises(ValueError):
            base_config(tmp_path, tries=0).validate()
        with pytest.raises(ValueError):
            base_config(tmp_path, scatter_pairs=[["rand", "tfi-min"]]).validate()
        for jobs in (0, -3, 2):
            with pytest.raises(ValueError, match="jobs"):
                base_config(tmp_path, jobs=jobs).validate()
        generate = {"count": 1, "inputs": 2, "min_ands": 1, "max_ands": 2**30 - 2}
        with pytest.raises(ValueError, match="max_ands"):
            base_config(tmp_path, generate=generate).validate()
        base_config(tmp_path, generate=dict(generate, max_ands=2**30 - 3)).validate()

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"output_dir": "x", "bogus": 1}))
        with pytest.raises(ValueError):
            load_config(path)

    def test_load_config_round_trip(self, tmp_path):
        payload = {
            "output_dir": str(tmp_path / "out"),
            "generate": {"count": 1, "inputs": 4, "min_ands": 5, "max_ands": 9, "seed": 1},
            "heuristics": ["rand"],
            "noises": [0.2],
            "tries": 2,
            "timeout": None,
            "cutoff": 500,
            "clock": "steps",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = load_config(path)
        assert config.cutoff == 500
        result = run_experiment(config)
        assert len(result.records) == 2

    def test_report_mentions_every_heuristic(self, tmp_path):
        result = run_experiment(base_config(tmp_path))
        with open(result.files["report.txt"]) as fh:
            text = fh.read()
        assert "rand" in text and "depth-max" in text
        assert "median-step ratio" in text

    def test_explicit_instance_files(self, tmp_path):
        paths = []
        for k in range(2):
            cc = generate_random_sat_aig(4, 6 + k, random.Random(k))
            path = tmp_path / f"inst{k}.aag"
            path.write_text(serialize_ascii(cc))
            paths.append(str(path))
        config = base_config(tmp_path, generate=None, instances=paths)
        result = run_experiment(config)
        assert {s.instance for s in result.summaries} == {"inst0.aag", "inst1.aag"}

    def test_duplicate_instance_names_rejected(self, tmp_path):
        path = tmp_path / "same.aag"
        path.write_text(serialize_ascii(generate_random_sat_aig(3, 4, random.Random(0))))
        config = base_config(tmp_path, generate=None,
                             instances=[str(path), str(path)])
        with pytest.raises(ValueError):
            run_experiment(config)
        assert not os.path.exists(config.output_dir)

    def test_configured_names_may_not_collide_with_generated_ones(self, tmp_path):
        generate = {"count": 10001, "inputs": 3, "min_ands": 4, "max_ands": 4}
        for name in ("gen-0000.aag", "gen-0001.aag", "gen-10000.aag"):
            path = tmp_path / name
            path.write_text(serialize_ascii(generate_random_sat_aig(3, 4, random.Random(0))))
            config = base_config(tmp_path, instances=[str(path)], generate=generate)
            with pytest.raises(ValueError, match="unique"):
                run_experiment(config)
            assert not os.path.exists(config.output_dir)
        assert not harness._is_generated_name("gen-10001.aag", 10001)
        for name in ("gen-1.aag", "gen-00001.aag", "gen-01000.aag", "gen-+001.aag",
                     "gen-\u0661\u0662\u0663\u0664.aag", "gen-.aag", "gen-" + "9" * 5000 + ".aag"):
            assert not harness._is_generated_name(name, 10**9), name
        assert harness._is_generated_name("gen-0002.aag", 3)
        assert not harness._is_generated_name("gen-0003.aag", 3)


class TestGoldenTrajectory:
    def test_every_heuristic_reproduces_recorded_outputs(self, tmp_path):
        # Steps-clock CSVs pin every search trajectory (selection, greedy
        # ties, propagation and noise ranking) of every heuristic across code
        # versions; a change to these digests is a behaviour change.
        config = ExperimentConfig(
            output_dir=str(tmp_path),
            generate={"count": 4, "inputs": 12, "min_ands": 150, "max_ands": 300,
                      "seed": 5},
            heuristics=list(HEURISTICS),
            noises=[0.1, 0.5],
            tries=2,
            timeout=None,
            cutoff=5000,
            master_seed=5,
            clock="steps",
        )
        result = run_experiment(config)
        digests = {}
        for name in ("tries.csv", "summaries.csv"):
            with open(result.files[name], "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        assert digests == {
            "tries.csv": "f59f9fd068ff793af97cdbfe3bd75e3ef177633ee9f97b2be5c71408d68bfd0e",
            "summaries.csv": "c6e1e300a39f40db40a450a0250550d6cb9d3af72508fd6d8b60206d8a805819",
        }

    def test_readers_of_the_constant_gate_reproduce_recorded_outputs(self):
        # Generated instances never read gate 0, so the digest above cannot
        # see the pin filter.  Here about a third of the ANDs read the pinned
        # constant, in both polarities: a justification forcing it to 0 must
        # be dropped at either value of the selected gate.
        rng = random.Random(11)
        digest = hashlib.sha256()
        for _ in range(4):
            cc = const_reader_instance(rng, inputs=5, ands=40)
            profile = build_profile(cc.circuit)
            for heuristic in HEURISTICS:
                for seed in (1, 2):
                    result = crsat_solve(cc, profile,
                                         SolverConfig(heuristic, 0.3, 2000, seed))
                    digest.update(repr((result.status, result.steps_used,
                                        result.witness)).encode())
        assert digest.hexdigest() == (
            "f3cbc8a77789fe39efe1ac39139bd8f8e4625258c6d238fea6095bbd4fe2e097")


def const_reader_instance(rng, inputs, ands):
    """Planted-witness 2-ary AND DAG whose ANDs often read the constant gate 0."""
    definitions = [INPUT] * (1 + inputs)
    for g in range(1 + inputs, 1 + inputs + ands):
        a = 0 if rng.random() < 0.3 else rng.randrange(1, g)
        b = rng.randrange(1, g)
        definitions.append([Literal(a, bool(rng.getrandbits(1))),
                            Literal(b, bool(rng.getrandbits(1)))])
    circuit = build_circuit(definitions)
    hidden = {g: rng.getrandbits(1) for g in circuit.inputs}
    hidden[0] = 1
    witness = evaluate(circuit, hidden)
    constraints = {0: True}
    for g in circuit.outputs:
        if not circuit.is_input(g):
            constraints[g] = bool(witness.values[g])
    return ConstrainedCircuit(circuit, constraints, const_gate=0)
