"""aigsls benchmark: three closed-loop workloads timed from outside the solver.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Rounds of a fixed set of tries run
one after another (one client, jobs=1), each in a fresh interpreter, until
the next round would end after ``--seconds``; at least three (suite) or four
(large instance) rounds always run.  Each round's inputs are generated from
``--seed`` and the round number and written as AIGER files; the solver only
sees those files.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs every round twice, untraced and traced, and reports the per-layer
metrics of the traced copies plus the tracing overhead.

Every SAT witness is checked against the benchmark's own reading of the
AIGER file.  Each round's counts form a fingerprint that must match between
the untraced and traced copy of a round and between runs of the same code
and seed (kept in .perfbench_work/fingerprints.json).  Human-readable lines
go to stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

from instances import read_aiger, witness_ok  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

clock = time.perf_counter

# untraced rounds a run takes even when they outlast --seconds
MIN_ROUNDS = {"suite": 3, "large": 4}
# try_s.tail is the highest percentile with ten tries beyond it in this many
# tries: one round of the suite, the four rounds every large run takes
TAIL_SAMPLE = {"suite": 400, "large": 16}
# no round starts after this, and a round still running then is killed,
# so the whole run ends well inside three minutes
HARD_LIMIT_S = 150.0
# the paper's triviality threshold: a median below it means the workload
# no longer exercises search
TRIVIAL_STEPS = 730


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
                       + glob.glob(os.path.join(HERE, "*.py"))):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def run_worker(spec: dict, run_dir: str, deadline: float) -> dict:
    tag = f"r{spec['round']}{'t' if spec['trace'] else 'u'}"
    spec_path = os.path.join(run_dir, f"{tag}.spec.json")
    out_path = os.path.join(run_dir, f"{tag}.out.json")
    spec["out_dir"] = os.path.join(run_dir, tag)
    os.makedirs(spec["out_dir"])
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path],
            stdout=sys.stderr, timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {tag} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"round {tag} exited with code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        out = json.load(fh)
    shutil.rmtree(spec["out_dir"])
    return out


def fingerprint(out: dict) -> dict:
    """Counts that a fixed round reproduces exactly; timing excluded."""
    rows = sorted(tuple(t[:6]) + (t[7],) for t in out["tries"])
    fp = {
        "tries": len(rows),
        "steps": sum(t[5] for t in rows),
        "sat": sum(t[4] == "SAT" for t in rows),
        "digest": hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16],
        "csv": out["csv_sha"],
    }
    layers = out.get("layers")
    if layers:
        for name in ("circuit.flip_calls", "circuit.propagate_calls",
                     "circuit.rollback_calls", "metrics.closure_calls"):
            fp[name] = layers[name]
    return fp


def check_round(out: dict, workload: str, graphs: dict) -> tuple[int, list]:
    """Failed tries of one round and any problem with its outputs."""
    spec = WORKLOADS[workload]
    problems = []
    failed = out["errors"]
    if failed:
        problems.append(f"{failed} tries raised: {out.get('error_text')}")
    if not failed and len(out["tries"]) != out["expected"]:
        problems.append(f"{len(out['tries'])} tries recorded, {out['expected']} expected")
    sat = {}
    for instance, _, _, _, outcome, steps, _, _ in out["tries"]:
        if outcome == "SAT":
            sat[instance] = sat.get(instance, 0) + 1
        elif outcome != "UNKNOWN" or steps != spec["cutoff"]:
            failed += 1
            problems.append(f"{instance}: outcome {outcome} after {steps} steps")
    witnessed = {}
    for instance, values in out["witnesses"]:
        witnessed[instance] = witnessed.get(instance, 0) + 1
        if not witness_ok(graphs[instance], bytes.fromhex(values)):
            failed += 1
            problems.append(f"{instance}: SAT witness fails the benchmark's check")
    for instance in set(sat) | set(witnessed):
        missing = sat.get(instance, 0) - witnessed.get(instance, 0)
        if missing:
            failed += abs(missing)
            problems.append(f"{instance}: {sat.get(instance, 0)} SAT answers, "
                            f"{witnessed.get(instance, 0)} witnesses")
    return failed, problems


def tail(values, sample: int):
    """Tail percentile of ``values`` and that percentile, as (value, percent).

    The percentile is the highest one with ten samples beyond it in a sample
    of ``sample`` values.  Fixing it that way keeps runs that fit more rounds
    comparable with runs that fit fewer.
    """
    ordered = sorted(values)
    share = (sample - 10) / sample
    return ordered[math.ceil(share * len(ordered)) - 1], 100.0 * share


def compare_fingerprints(key_base: str, fps: dict, problems: list):
    """Check fingerprints against earlier runs of the same code and seed."""
    path = os.path.join(WORK, "fingerprints.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    for key, fp in fps.items():
        key = f"{key_base}|{key}"
        if key in known and known[key] != fp:
            problems.append(f"fingerprint {key} differs from an earlier run: "
                            f"{known[key]} != {fp}")
        known[key] = fp
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=0, sort_keys=True)
    os.replace(tmp, path)


def end_to_end(plain: list, tail_sample: int) -> tuple[dict, str]:
    walls = [t[6] for out in plain for t in out["tries"]]
    if not walls:
        raise BenchError("no try completed")
    value, pct = tail(walls, tail_sample)

    def per_round(fn):
        return statistics.median(fn(out) for out in plain)

    solve_s = sum(out["solve_s"] for out in plain)
    metrics = {
        "setup_s": per_round(lambda o: o["setup_s"]),
        "tries_per_s": len(walls) / solve_s,
        "steps_per_s": sum(t[5] for out in plain for t in out["tries"]) / solve_s,
        "try_s.p50": statistics.median(walls),
        "try_s.tail": value,
        "peak_rss_mb": per_round(lambda o: o["peak_rss_mb"]),
    }
    return metrics, f"try_s.tail is p{pct:.1f} of {len(walls)} tries"


def per_layer(pairs: list) -> dict:
    names = pairs[0][1]["layers"]
    metrics = {name: statistics.median(t["layers"][name] for _, t in pairs) for name in names}
    metrics["trace.overhead_frac"] = statistics.median(
        t["solve_s"] / p["solve_s"] - 1.0 for p, t in pairs)
    return metrics


def measure_round(args, r: int, run_dir: str, deadline: float):
    """Generate round ``r``'s inputs, run it (and its traced twin), check outputs.

    Returns the untraced and traced worker outputs (the latter None when not
    tracing), each with its own ``failed`` count and ``problems`` list; the
    witnesses are dropped once checked.
    """
    in_dir = os.path.join(run_dir, f"r{r}-inputs")
    os.makedirs(in_dir)
    files = make_inputs(args.workload, args.seed, r, in_dir)
    graphs = {}
    for path in files:
        with open(path, "rb") as fh:
            graphs[os.path.basename(path)] = read_aiger(fh.read())
    outs = []
    for trace in (False, True) if args.trace else (False,):
        spec = {
            "workload": args.workload, "round": r, "trace": trace, "files": files,
            "master_seed": args.seed * 1000 + r,
            "trace_path": os.path.join(
                WORK, "traces", f"{args.workload}-seed{args.seed}-r{r}.json"),
        }
        out = run_worker(spec, run_dir, deadline)
        out["failed"], out["problems"] = check_round(out, args.workload, graphs)
        del out["witnesses"]
        outs.append(out)
    shutil.rmtree(in_dir)
    return outs[0], outs[1] if args.trace else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if not os.path.isfile(os.path.join(ROOT, "src", "aigsls", "__init__.py")):
        raise BenchError("no solver sources: run from the root of an aigsls checkout")

    start = clock()
    deadline = start + HARD_LIMIT_S
    for sub in ("traces", "runs"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    kind = WORKLOADS[args.workload]["kind"]
    min_rounds = MIN_ROUNDS[kind]
    rounds = []
    failed = attempted = 0
    problems = []
    fps = {}
    try:
        while True:
            round_start = clock()
            r = len(rounds)
            plain, traced = measure_round(args, r, run_dir, deadline)
            rounds.append((plain, traced))
            took = clock() - round_start
            log(f"round {r}: {len(plain['tries'])} tries, set-up {plain['setup_s']:.3f} s, "
                f"solve {plain['solve_s']:.3f} s" +
                (f", traced solve {traced['solve_s']:.3f} s" if traced else ""))
            for out in (plain, traced) if traced else (plain,):
                failed += out["failed"]
                attempted += max(out["expected"], len(out["tries"]))
                problems += out["problems"]
            fps[f"r{r}"] = fingerprint(plain)
            if traced:
                fp = fingerprint(traced)
                shared = {k: fp[k] for k in fps[f"r{r}"]}
                if shared != fps[f"r{r}"]:
                    problems.append(f"round {r}: traced counts {shared} differ from "
                                    f"untraced {fps[f'r{r}']}")
                fps[f"r{r}t"] = fp
            done = len(rounds) >= (1 if args.trace else min_rounds)
            ends = clock() + took
            if (done and ends - start > args.seconds) or ends > deadline:
                break

        compare_fingerprints(f"{args.workload}|{args.seed}|{code_hash()}", fps, problems)
        if args.workload == "large-structural":
            median_steps = statistics.median(t[5] for plain, _ in rounds for t in plain["tries"])
            if median_steps < TRIVIAL_STEPS:
                problems.append(f"median steps {median_steps} fell below {TRIVIAL_STEPS}: "
                                "the workload became trivial")

        if args.trace:
            metrics = per_layer(rounds)
            note = f"per-layer medians of {len(rounds)} traced round(s)"
        else:
            metrics, note = end_to_end([p for p, _ in rounds], TAIL_SAMPLE[kind])
        # per-round details for later analysis
        with open(os.path.join(WORK, "runs", f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "problems": problems,
                       "rounds": [out for pair in rounds for out in pair if out]}, fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    for name, fp in fps.items():
        log(f"fingerprint {name}: {json.dumps(fp, sort_keys=True)}")
    for name in units:
        log(f"{name:24s} {metrics[name]:.6g} {units[name]}")
    log(note)
    for problem in problems:
        log(f"PROBLEM: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        log(f"benchmark error: {exc}")
        sys.exit(2)
