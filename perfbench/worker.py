"""One benchmark round in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json OUT.json

The round loads and profiles every instance (the set-up), then runs the
workload's tries through the solver's public entry points: ``run_experiment``
for the suite, ``run_try`` for the large instance.  It writes timings, try
records, every SAT witness and, when traced, per-layer totals to OUT.json.

Untraced rounds wrap only two boundaries, once per try or step chunk: a
timer around ``run_try`` and a tap on ``SearchEngine.run`` that copies the
witness when it reports SAT.  Traced rounds add the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from aigsls import aiger, circuit, harness, metrics, search  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, expected_tries, round_tries  # noqa: E402

clock = time.perf_counter


def _install_tracing(tracer: Tracer, unjust: list):
    """Wrap the solver's layer boundaries; returns traced load and profile."""
    engine_run = search.SearchEngine.run

    def stepwise(engine, budget):
        # run(1) repeatedly follows the same trajectory as run(budget) and
        # lets the unjustified-set size be read at the top of every step
        asg = engine.assignment
        while budget > 0:
            candidates = len(asg.ulist)
            if engine_run(engine, 1):
                return True
            unjust[0] += candidates
            unjust[1] += 1
            budget -= 1
        return False

    search.SearchEngine.run = tracer.span("search.run", stepwise)
    search.SearchEngine.__init__ = tracer.span("search.init", search.SearchEngine.__init__)
    search.random_complete_extension = tracer.span(
        "circuit.extension", search.random_complete_extension)
    harness.run_experiment = tracer.span("harness.run_experiment", harness.run_experiment)
    harness.run_try = tracer.span("harness.run_try", harness.run_try)
    harness.verify_satisfying = tracer.span("circuit.verify", harness.verify_satisfying)
    load = harness.load_aiger = tracer.span("aiger.parse", harness.load_aiger)
    profile = harness.build_profile = tracer.span("metrics.profile", harness.build_profile)
    cls = circuit.Assignment
    cls.flip = tracer.hot("circuit.flip", cls.flip)
    cls.propagate_forward = tracer.hot("circuit.propagate", cls.propagate_forward)
    cls.rollback = tracer.hot("circuit.rollback", cls.rollback)
    # greedy trial scoring is a private helper; its total goes to the span
    # file for the notes and is skipped if the helper goes away
    if hasattr(search.SearchEngine, "_trial"):
        search.SearchEngine._trial = tracer.hot("search.trial", search.SearchEngine._trial)
    cls = metrics.StructuralProfile
    cls.tfi_size = tracer.first_call("metrics.closure", cls.tfi_size)
    cls.tfo_size = tracer.first_call("metrics.closure", cls.tfo_size)
    return load, profile


def _install_taps(tries: list, witnesses: list):
    """Time every run_try call and copy the assignment of every SAT answer.

    Each try also records a checksum of its final assignment, taken after
    the clock stops, so that tries ending UNKNOWN at the same step count
    still fingerprint their trajectories.
    """
    run_try = harness.run_try
    engine_run = search.SearchEngine.run
    current = [None, None]      # instance of the running try, its engine

    def timed_try(cc, profile, instance, *args, **kwargs):
        current[0] = instance
        start = clock()
        record = run_try(cc, profile, instance, *args, **kwargs)
        wall = clock() - start
        tries.append((record, wall, zlib.crc32(current[1].assignment.values)))
        current[1] = None       # let the engine go before the next try starts
        return record

    def tapped_run(engine, budget):
        found = engine_run(engine, budget)
        current[1] = engine
        if found:
            witnesses.append((current[0], bytes(engine.assignment.values)))
        return found

    harness.run_try = timed_try
    search.SearchEngine.run = tapped_run


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_round(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    tracer = Tracer() if spec["trace"] else None
    unjust = [0, 0]
    load, profile = aiger.load_aiger, metrics.build_profile
    if tracer:
        load, profile = _install_tracing(tracer, unjust)
    tries, witnesses = [], []
    _install_taps(tries, witnesses)

    def set_up(path):
        cc = load(path)
        return os.path.basename(path), cc, profile(cc.circuit)

    if tracer:
        set_up = tracer.span("bench.instance", set_up)
    start = clock()
    loaded = [set_up(path) for path in spec["files"]]
    setup_s = clock() - start
    setup_totals = {k: list(v) for k, v in tracer.totals.items()} if tracer else {}

    out = {"expected": expected_tries(spec["workload"]), "errors": 0, "csv_sha": {}}
    start = clock()
    if workload["kind"] == "suite":
        config = harness.ExperimentConfig(
            output_dir=spec["out_dir"], instances=list(spec["files"]),
            heuristics=workload["heuristics"], noises=workload["noises"], tries=1,
            timeout=None, cutoff=workload["cutoff"], clock="steps",
            master_seed=spec["master_seed"], jobs=1)
        try:
            result = harness.run_experiment(config)
        except Exception as exc:  # a failed round is reported, not fatal
            traceback.print_exc()
            out["errors"] = out["expected"]
            out["error_text"] = repr(exc)
        else:
            if len(result.records) != len(tries):
                out["errors"] = out["expected"]
                out["error_text"] = "run_experiment records differ from the run_try calls"
            for name in ("tries.csv", "summaries.csv"):
                out["csv_sha"][name] = _sha(result.files[name])
    else:
        name, cc, prof = loaded[0]
        for heuristic, index in round_tries(spec["workload"], spec["round"]):
            try:
                harness.run_try(cc, prof, name, heuristic, workload["wp"], index,
                                spec["master_seed"], cutoff=workload["cutoff"],
                                clock="steps")
            except Exception as exc:  # counted as a failed try
                traceback.print_exc()
                out["errors"] += 1
                out["error_text"] = repr(exc)
    solve_s = clock() - start

    out.update(
        setup_s=setup_s,
        solve_s=solve_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        tries=[[r.instance, r.heuristic, r.wp, r.try_index, r.outcome, r.steps, wall, state]
               for r, wall, state in tries],
        witnesses=[[name, values.hex()] for name, values in witnesses],
        input_bytes=sum(os.path.getsize(p) for p in spec["files"]),
    )
    if tracer:
        out["layers"] = _layers(tracer, setup_totals, unjust, out)
        with open(spec["trace_path"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "self"],
                       "spans": tracer.spans, "totals": tracer.totals}, fh)
    return out


def _layers(tracer: Tracer, setup_totals: dict, unjust: list, out: dict) -> dict:
    """Per-layer metrics of one traced round."""
    get = tracer.get

    def setup(name):
        return setup_totals.get(name, [0, 0.0, 0.0])[1]

    propagate_calls = get("circuit.propagate", 0)
    rollback_calls = get("circuit.rollback", 0)
    try_s = sum(t[6] for t in out["tries"])
    tries = out["tries"]
    return {
        "aiger.parse_s": setup("aiger.parse"),
        "aiger.bytes": out["input_bytes"],
        "metrics.profile_s": setup("metrics.profile"),
        "metrics.closure_calls": get("metrics.closure.calls", 0),
        "metrics.closure_frac": get("metrics.closure") / (get("search.run") or 1.0),
        "search.init_s": get("search.init"),
        "search.init_self_s": get("search.init", 2),
        "circuit.extension_s": get("circuit.extension"),
        "search.run_s": get("search.run"),
        "search.self_s": get("search.run", 2),
        "search.steps": sum(t[5] for t in tries),
        "search.unjust_mean": unjust[0] / max(1, unjust[1]),
        "search.solved_frac": sum(t[4] == "SAT" for t in tries) / max(1, len(tries)),
        "circuit.flip_calls": get("circuit.flip", 0),
        "circuit.flip_s": get("circuit.flip"),
        "circuit.propagate_calls": propagate_calls,
        "circuit.propagate_s": get("circuit.propagate"),
        "circuit.rollback_calls": rollback_calls,
        "circuit.rollback_s": get("circuit.rollback"),
        "circuit.applied_frac": (propagate_calls - rollback_calls) / max(1, propagate_calls),
        "circuit.verify_calls": get("circuit.verify", 0),
        "circuit.verify_frac": get("circuit.verify") / (try_s or 1.0),
        "harness.self_s": get("harness.run_experiment", 2) + get("harness.run_try", 2),
    }


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    out = run_round(spec)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
