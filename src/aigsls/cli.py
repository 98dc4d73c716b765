"""Command-line front end: solving, metrics, tuning, benchmarks, generation."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from . import _kernel, aiger, harness, metrics
from .circuit import CircuitError
from .harness import SolverConfig, crsat_solve
from .search import HEURISTICS

# SAT-competition exit codes
EXIT_SAT = 10
EXIT_UNKNOWN = 20
EXIT_ERROR = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aigsls",
        description="Stochastic local search SAT solving on And-Inverter circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one AIGER instance")
    solve.add_argument("file")
    solve.add_argument("--heuristic", default="rand", choices=HEURISTICS)
    solve.add_argument("--wp", type=float, default=0.2, help="noise: random-walk probability")
    solve.add_argument("--cutoff", type=int, default=1_000_000, help="maximum search steps")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--witness", default=None,
                       help="witness output path (default: FILE.witness)")

    met = sub.add_parser("metrics", help="dump the per-gate structural profile as CSV")
    met.add_argument("file")
    met.add_argument("--alevel-mode", default="self", choices=metrics.ALEVEL_MODES)
    met.add_argument("--flow-mode", default="conserving", choices=metrics.FLOW_MODES)

    tune = sub.add_parser("tune", help="per-instance noise optimization")
    tune.add_argument("file")
    tune.add_argument("--heuristic", default="rand", choices=HEURISTICS)
    tune.add_argument("--tries", type=int, default=25)
    tune.add_argument("--timeout", type=float, default=200.0,
                      help="per-try CPU budget in seconds")
    tune.add_argument("--noises", default=",".join(str(x) for x in harness.DEFAULT_NOISES),
                      help="comma-separated candidate noise values")
    tune.add_argument("--master-seed", type=int, default=0)
    tune.add_argument("--cutoff", type=int, default=None,
                      help="optional step cutoff per try")
    tune.add_argument("--clock", default="cpu", choices=("cpu", "steps"))

    bench = sub.add_parser("bench", help="run a full experiment from a JSON config")
    bench.add_argument("config")

    gen = sub.add_parser("gen", help="emit a random satisfiable instance as ASCII AIGER")
    gen.add_argument("--inputs", type=int, required=True)
    gen.add_argument("--ands", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)

    cnf = sub.add_parser("export-cnf", help="emit the equisatisfiable DIMACS CNF")
    cnf.add_argument("file")
    return parser


def _cmd_solve(args) -> int:
    clock = time.perf_counter
    start = clock()
    cc = aiger.load_aiger(args.file)
    parsed = clock()
    profile = metrics.build_profile(cc.circuit)
    profiled = clock()
    config = SolverConfig(heuristic=args.heuristic, wp=args.wp,
                          cutoff=args.cutoff, seed=args.seed)
    result = crsat_solve(cc, profile, config)
    search_s = clock() - profiled - result.verify_time
    print(result.status)
    print(f"steps {result.steps_used}")
    print(f"cpu_time {result.cpu_time:.6f}", file=sys.stderr)
    counts = " ".join(f"{k}={v}" for k, v in dataclasses.asdict(result.stats).items())
    kernel = "python" if _kernel.lib is None else "c"
    print(f"search kernel={kernel} {counts}", file=sys.stderr)
    print(f"phases parse_s={parsed - start:.6f} profile_s={profiled - parsed:.6f} "
          f"search_s={search_s:.6f} verify_s={result.verify_time:.6f}", file=sys.stderr)
    if result.status == "SAT":
        path = args.witness if args.witness is not None else args.file + ".witness"
        with open(path, "w", encoding="ascii") as fh:
            for g, v in enumerate(result.witness):
                fh.write(f"{g},{v}\n")
        return EXIT_SAT
    return EXIT_UNKNOWN


def _cmd_metrics(args) -> int:
    cc = aiger.load_aiger(args.file)
    profile = metrics.build_profile(cc.circuit, alevel_mode=args.alevel_mode,
                                    flow_mode=args.flow_mode)
    profile.write_csv(sys.stdout)
    return 0


def _cmd_tune(args) -> int:
    cc = aiger.load_aiger(args.file)
    profile = metrics.build_profile(cc.circuit)
    candidates = [float(x) for x in args.noises.split(",") if x]
    timeout = None if args.clock == "steps" else args.timeout
    best, records = harness.optimize_noise(
        cc, profile, args.file, args.heuristic, tries=args.tries,
        timeout=timeout, candidates=candidates, master_seed=args.master_seed,
        cutoff=args.cutoff, clock=args.clock)
    print(f"# best_wp={best}")
    sys.stdout.write(harness.records_to_csv(records))
    return 0


def _cmd_bench(args) -> int:
    result = harness.run_experiment(harness.load_config(args.config))
    for name in sorted(result.files):
        print(f"wrote {result.files[name]}", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    import random
    cc = aiger.generate_random_sat_aig(args.inputs, args.ands, random.Random(args.seed))
    sys.stdout.write(aiger.serialize_ascii(cc))
    return 0


def _cmd_export_cnf(args) -> int:
    cc = aiger.load_aiger(args.file)
    sys.stdout.write(aiger.export_dimacs(cc))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "metrics": _cmd_metrics,
    "tune": _cmd_tune,
    "bench": _cmd_bench,
    "gen": _cmd_gen,
    "export-cnf": _cmd_export_cnf,
}


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a diagnostic
        return EXIT_ERROR if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (CircuitError, aiger.AigerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
