"""Experiment protocol: per-instance noise tuning, medians and CSV reports.

A tuning round runs a fixed number of independent tries per candidate noise
value with a wall-clock budget per try, picks the noise with the highest
success rate (best median time as tie-breaker, remaining ties uniformly at
random), and summarizes the winning tries.  An instance counts as solved
when at least half of its tries succeeded.  Medians are taken over all
tries; unsuccessful tries contribute the timeout budget to the time median
and a fixed censoring constant to the step median.

Every random choice -- per-try search seeds and protocol-level tie-breaks --
derives from the master seed through a stable hash, so a whole experiment is
reproducible.

This module also holds the one try loop: ``_search`` builds a SearchEngine,
runs it in step chunks under a CPU-time and/or step budget, and verifies
every SAT verdict against the full circuit.  ``run_try`` (the protocol's
seeded try) and ``crsat_solve`` (a single solve) are thin adapters over it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ._kernel import MAX_VAR
from .aiger import generate_random_sat_aig, load_aiger, serialize_ascii
from .circuit import verify_satisfying
from .metrics import build_profile, csv_text
from .search import SearchEngine, SearchStats, check_settings

#: Candidate noise values of the reference tuning protocol.
DEFAULT_NOISES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

#: Step count recorded for unsuccessful tries in medians and scatter output.
CENSORED_STEPS = 10_000_000

#: Instances whose median step count falls below this are considered trivial.
TRIVIAL_STEP_THRESHOLD = 730

#: Steps a try runs between CPU-time checks.
_CHUNK = 4096


class MismatchedInstanceSets(ValueError):
    """Scatter requested over summary sets covering different instances."""


class UnsoundResult(RuntimeError):
    """A SAT verdict whose witness failed verification; indicates a bug."""


@dataclass
class SolverConfig:
    heuristic: str = "rand"
    wp: float = 0.2
    cutoff: int = 1_000_000
    seed: int = 0


@dataclass
class SolveResult:
    status: str                      # "SAT" or "UNKNOWN"
    witness: Optional[tuple]         # gate values when SAT, else None
    steps_used: int
    cpu_time: float                  # process CPU seconds of the search
    stats: SearchStats               # the search's steps by kind, trials, flips
    verify_time: float = 0.0         # wall seconds of the SAT verdict's check


@dataclass
class TryRecord:
    instance: str
    heuristic: str
    wp: float
    try_index: int
    seed: int
    outcome: str            # "SAT" or "UNKNOWN"
    steps: int
    time: float


@dataclass
class InstanceSummary:
    instance: str
    heuristic: str
    best_wp: float
    success_rate: float
    median_time: float
    median_steps: float
    solved: bool


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit stream split: hash the master seed with context labels."""
    key = "|".join([str(master_seed)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def lower_median(values):
    """Median taking the lower middle element for even-length input."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def _check_budget(clock: str, timeout: Optional[float], cutoff: Optional[int]):
    """Check the clock, timeout and cutoff of a try; ValueError otherwise."""
    if clock not in ("cpu", "steps"):
        raise ValueError(f"unknown clock {clock!r}")
    if clock == "steps" and (cutoff is None or timeout is not None):
        raise ValueError("steps clock needs a cutoff and no wall timeout")
    if timeout is None and cutoff is None:
        raise ValueError("need a timeout or a cutoff to bound the try")
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be a positive, finite number of seconds, got {timeout}")
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")


def _check_protocol(heuristics, noises, tries: int):
    """Reject missing, repeated (by value) or invalid heuristics and noises, or no tries."""
    if not heuristics:
        raise ValueError("no heuristics configured")
    if not noises:
        raise ValueError("no noise candidates configured")
    for name, values in (("heuristics", heuristics), ("noises", noises)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must not repeat an entry, got {list(values)}")
    for heuristic, wp in itertools.product(heuristics, noises):
        check_settings(heuristic, wp)
    if tries < 1:
        raise ValueError("tries must be at least 1")


def _search(cc, profile, heuristic: str, wp: float, seed: int, *,
            timeout: Optional[float] = None, cutoff: Optional[int] = None):
    """Run one search try; return (engine, found, timed_out, cpu_seconds,
    verify_seconds), the last the wall time of the SAT verdict's check (0
    without one).

    The engine runs in chunks of at most ``_CHUNK`` steps until it reports
    SAT, reaches ``cutoff`` steps, or (checked between chunks) has used
    ``timeout`` seconds of process CPU time, counted from after the engine
    is built.  Chunking does not change the trajectory.  A SAT verdict whose
    witness fails a full-circuit check raises UnsoundResult.  Callers check
    the budget with ``_check_budget`` first.
    """
    engine = SearchEngine(cc, profile, heuristic, wp, seed)
    start = time.process_time()
    found = timed_out = False
    while True:
        budget = _CHUNK if cutoff is None else min(_CHUNK, cutoff - engine.steps)
        if budget <= 0:
            break
        found = engine.run(budget)
        if found:
            break
        if timeout is not None and time.process_time() - start >= timeout:
            timed_out = True
            break
    elapsed = time.process_time() - start
    verify_s = 0.0
    if found:
        checked = time.perf_counter()
        if not verify_satisfying(cc, engine.assignment):
            raise UnsoundResult("search reported SAT but the witness fails verification")
        verify_s = time.perf_counter() - checked
    return engine, found, timed_out, elapsed, verify_s


def crsat_solve(cc, profile, config: SolverConfig) -> SolveResult:
    """Run one search try up to the configured step cutoff.

    Returns SAT with a verified witness, or UNKNOWN with no witness once the
    cutoff is reached.  A SAT verdict whose assignment fails verification
    raises UnsoundResult instead of being returned.
    """
    _check_budget("cpu", None, config.cutoff)
    engine, found, _, elapsed, verify_time = _search(
        cc, profile, config.heuristic, config.wp, config.seed, cutoff=config.cutoff)
    witness = tuple(engine.assignment.values) if found else None
    return SolveResult("SAT" if found else "UNKNOWN", witness, engine.steps, elapsed,
                       engine.stats, verify_time)


def run_try(cc, profile, instance: str, heuristic: str, wp: float,
            try_index: int, master_seed: int, *, timeout: Optional[float] = None,
            cutoff: Optional[int] = None, clock: str = "cpu") -> TryRecord:
    """One seeded search try under a wall-clock and/or step budget.

    With ``clock="cpu"`` the try is interrupted once its process CPU time
    exceeds ``timeout`` (checked between step chunks) and a timed-out try
    records exactly the timeout value as its time.  With ``clock="steps"``
    the recorded time IS the step count, which makes every downstream
    statistic reproducible bit for bit; a step cutoff is then required and
    no wall timeout is allowed.
    """
    _check_budget(clock, timeout, cutoff)
    seed = derive_seed(master_seed, instance, heuristic, wp, try_index)
    engine, found, timed_out, elapsed, _ = _search(cc, profile, heuristic, wp, seed,
                                                   timeout=timeout, cutoff=cutoff)
    if clock == "steps":
        recorded_time = float(engine.steps)
    elif timed_out:
        recorded_time = float(timeout)
    else:
        # cap at the budget: a win inside the final chunk may overshoot slightly
        recorded_time = elapsed if timeout is None else min(elapsed, float(timeout))
    return TryRecord(instance, heuristic, wp, try_index, seed,
                     "SAT" if found else "UNKNOWN", engine.steps, recorded_time)


def censored_steps(record: TryRecord) -> int:
    return record.steps if record.outcome == "SAT" else CENSORED_STEPS


def _rank_noises(records: Sequence[TryRecord], master_seed: int, instance: str,
                 heuristic: str) -> float:
    """Best noise by success rate, then median time; residual ties uniform.

    ``records`` hold the same number of tries at each candidate noise, and
    the candidates keep the order of their first records.
    """
    per_wp = {}
    for record in records:
        per_wp.setdefault(record.wp, []).append(record)

    def key(wp):
        group = per_wp[wp]
        successes = sum(r.outcome == "SAT" for r in group)
        return (-successes, lower_median([r.time for r in group]))

    best = min(key(wp) for wp in per_wp)
    ties = [wp for wp in per_wp if key(wp) == best]
    if len(ties) == 1:
        return ties[0]
    rng = random.Random(derive_seed(master_seed, instance, heuristic, "noise-tie"))
    return ties[rng.randrange(len(ties))]


def optimize_noise(cc, profile, instance: str, heuristic: str, *, tries: int,
                   timeout: Optional[float] = None,
                   candidates: Sequence[float] = DEFAULT_NOISES,
                   master_seed: int = 0, cutoff: Optional[int] = None,
                   clock: str = "cpu"):
    """Tune the noise parameter for one instance and heuristic.

    Runs ``tries`` seeded tries per candidate (the reference protocol uses a
    wall timeout and no step limit) and returns (best_wp, all records).
    """
    _check_protocol([heuristic], candidates, tries)
    records = [run_try(cc, profile, instance, heuristic, wp, i, master_seed,
                       timeout=timeout, cutoff=cutoff, clock=clock)
               for wp in candidates for i in range(tries)]
    return _rank_noises(records, master_seed, instance, heuristic), records


def summarize(records: Sequence[TryRecord], tries: int) -> InstanceSummary:
    """Aggregate one instance's tries at one noise setting.

    Unsuccessful tries enter the step median at the censoring constant and
    the time median at their recorded (timeout-censored) time.  An instance
    is solved when at least half its tries succeeded.
    """
    if tries < 1:
        raise ValueError(f"tries must be at least 1, got {tries}")
    if len(records) != tries:
        raise ValueError(f"expected {tries} records, got {len(records)}")
    first = records[0]
    if any((r.instance, r.heuristic, r.wp) != (first.instance, first.heuristic, first.wp)
           for r in records):
        raise ValueError("records mix instances, heuristics or noise values")
    successes = sum(r.outcome == "SAT" for r in records)
    rate = successes / tries
    return InstanceSummary(
        instance=first.instance,
        heuristic=first.heuristic,
        best_wp=first.wp,
        success_rate=rate,
        median_time=lower_median([r.time for r in records]),
        median_steps=lower_median([censored_steps(r) for r in records]),
        solved=rate >= 0.5,
    )


def emit_cactus_csv(summaries: Sequence[InstanceSummary]) -> str:
    """Solved instances per heuristic, sorted by median time, ranked 1..k."""
    rows = []
    for heuristic in sorted({s.heuristic for s in summaries}):
        solved = [s for s in summaries if s.heuristic == heuristic and s.solved]
        solved.sort(key=lambda s: (s.median_time, s.instance))
        rows += [[heuristic, rank, s.median_time] for rank, s in enumerate(solved, start=1)]
    return csv_text(["heuristic", "rank", "median_time"], rows)


def emit_scatter_csv(summaries_a: Sequence[InstanceSummary],
                     summaries_b: Sequence[InstanceSummary]) -> str:
    """Per-instance median steps of two heuristics, unsolved sides censored."""
    by_a = {s.instance: s for s in summaries_a}
    by_b = {s.instance: s for s in summaries_b}
    if by_a.keys() != by_b.keys():
        raise MismatchedInstanceSets("summary sets cover different instances")
    name_a = summaries_a[0].heuristic if summaries_a else "a"
    name_b = summaries_b[0].heuristic if summaries_b else "b"

    def steps(s):
        return s.median_steps if s.solved else CENSORED_STEPS

    return csv_text(["instance", name_a, name_b],
                    [[i, steps(by_a[i]), steps(by_b[i])] for i in sorted(by_a)])


def filter_trivial(summaries: Sequence[InstanceSummary],
                   threshold: int = TRIVIAL_STEP_THRESHOLD):
    """Partition into (trivial, retained) by median step count, strict less-than."""
    trivial = [s for s in summaries if s.median_steps < threshold]
    retained = [s for s in summaries if s.median_steps >= threshold]
    return trivial, retained


def records_to_csv(records: Sequence[TryRecord]) -> str:
    ordered = sorted(records, key=lambda r: (r.instance, r.heuristic, r.wp, r.try_index))
    return csv_text(["instance", "heuristic", "wp", "try", "seed", "outcome",
                     "steps", "time"],
                    [[r.instance, r.heuristic, r.wp, r.try_index, r.seed,
                      r.outcome, r.steps, r.time] for r in ordered])


def summaries_to_csv(summaries: Sequence[InstanceSummary]) -> str:
    ordered = sorted(summaries, key=lambda s: (s.heuristic, s.instance))
    return csv_text(["instance", "heuristic", "best_wp", "success_rate",
                     "median_time", "median_steps", "solved"],
                    [[s.instance, s.heuristic, s.best_wp, s.success_rate,
                      s.median_time, s.median_steps,
                      "true" if s.solved else "false"] for s in ordered])


#: Accepted types of each ExperimentConfig field (bool is never accepted).
_FIELD_TYPES = {
    "output_dir": (str,),
    "instances": (list, tuple),
    "generate": (dict, type(None)),
    "heuristics": (list, tuple),
    "noises": (list, tuple),
    "tries": (int,),
    "timeout": (int, float, type(None)),
    "cutoff": (int, type(None)),
    "master_seed": (int,),
    "clock": (str,),
    "jobs": (int,),
    "scatter_pairs": (list, tuple, type(None)),
    "trivial_heuristic": (str, type(None)),
    "trivial_threshold": (int,),
}

#: Required keys of a ``generate`` block; ``seed`` is optional.
_GENERATE_KEYS = ("count", "inputs", "min_ands", "max_ands")


def _check_type(what: str, value, types):
    if isinstance(value, bool) or not isinstance(value, types):
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise ValueError(f"{what} must be {expected}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Declarative description of one benchmark experiment.

    ``instances`` lists AIGER files; ``generate`` may add a synthetic suite
    (keys: count, inputs, min_ands, max_ands, seed), written as .aag files
    into the output directory so the experiment stays inspectable.  An
    experiment runs in one process, so ``jobs`` must be 1.
    """
    output_dir: str
    instances: list = field(default_factory=list)
    generate: Optional[dict] = None
    heuristics: list = field(default_factory=lambda: ["rand"])
    noises: list = field(default_factory=lambda: list(DEFAULT_NOISES))
    tries: int = 25
    timeout: Optional[float] = 20.0
    cutoff: Optional[int] = None
    master_seed: int = 0
    clock: str = "cpu"
    jobs: int = 1
    scatter_pairs: Optional[list] = None
    trivial_heuristic: Optional[str] = None
    trivial_threshold: int = TRIVIAL_STEP_THRESHOLD

    def validate(self):
        for name, types in _FIELD_TYPES.items():
            _check_type(name, getattr(self, name), types)
        for name, items, types in (("instances", self.instances, (str,)),
                                   ("heuristics", self.heuristics, (str,)),
                                   ("noises", self.noises, (int, float)),
                                   ("scatter_pairs", self.scatter_pairs or (), (list, tuple))):
            for item in items:
                _check_type(f"an entry of {name}", item, types)
        if self.generate is not None:
            unknown = set(self.generate) - set(_GENERATE_KEYS) - {"seed"}
            if unknown:
                raise ValueError(f"unknown generate keys: {sorted(unknown)}")
            missing = [key for key in _GENERATE_KEYS if key not in self.generate]
            if missing:
                raise ValueError(f"generate needs {', '.join(missing)}")
            for key, value in self.generate.items():
                _check_type(f"generate {key}", value, (int,))
            # generate_random_sat_aig's own rules, checked before any file is written
            count, inputs, min_ands, max_ands = (self.generate[k] for k in _GENERATE_KEYS)
            if count < 0:
                raise ValueError(f"generate count must be nonnegative, got {count}")
            if inputs < 1:
                raise ValueError(f"generate inputs must be at least 1, got {inputs}")
            if not 1 <= min_ands <= max_ands:
                raise ValueError("generate needs 1 <= min_ands <= max_ands, "
                                 f"got {min_ands} and {max_ands}")
            if inputs + max_ands > MAX_VAR:
                raise ValueError(f"generate inputs + max_ands must be at most {MAX_VAR}, "
                                 f"got {inputs + max_ands}")
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1, got {self.jobs}")
        _check_protocol(self.heuristics, self.noises, self.tries)
        _check_budget(self.clock, self.timeout, self.cutoff)
        if not self.instances and not self.generate:
            raise ValueError("no instances configured")
        if self.trivial_heuristic is not None and self.trivial_heuristic not in self.heuristics:
            raise ValueError("trivial filter heuristic is not part of the experiment")
        for pair in self.scatter_pairs or []:
            if len(pair) != 2 or any(h not in self.heuristics for h in pair):
                raise ValueError(f"bad scatter pair {pair!r}")


def load_config(path) -> ExperimentConfig:
    """Read an experiment configuration from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError("config nests too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    known = ExperimentConfig.__dataclass_fields__
    unknown = set(raw) - set(known)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "output_dir" not in raw:
        raise ValueError("config needs an output_dir")
    config = ExperimentConfig(**raw)
    config.validate()
    return config


@dataclass
class ExperimentResult:
    records: list
    summaries: list
    trivial: list
    retained: list
    files: dict


def _is_generated_name(name: str, count: int) -> bool:
    """Whether ``name`` equals ``f"gen-{k:04d}.aag"`` for some ``k < count``."""
    digits = name[4:-4]
    return (name == f"gen-{digits}.aag" and digits.isascii() and digits.isdigit()
            and len(digits) <= max(4, len(str(count))) and int(digits) < count
            and digits == f"{int(digits):04d}")


def _instances(config: ExperimentConfig):
    """Yield (id, path) of the configured, then the generated instances, each
    generated one written when it is reached; names are checked first."""
    spec = config.generate or {"count": 0}
    ids = [os.path.basename(p) for p in config.instances]
    if len(set(ids)) != len(ids) or any(_is_generated_name(i, spec["count"]) for i in ids):
        raise ValueError("instance file names must be unique")
    yield from zip(ids, config.instances)
    rng = random.Random(spec.get("seed", config.master_seed))
    gen_dir = os.path.join(config.output_dir, "instances")
    for k in range(spec["count"]):
        os.makedirs(gen_dir, exist_ok=True)
        ands = rng.randint(spec["min_ands"], spec["max_ands"])
        path = os.path.join(gen_dir, f"gen-{k:04d}.aag")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(serialize_ascii(generate_random_sat_aig(spec["inputs"], ands, rng)))
        yield os.path.basename(path), path


def run_experiment(config: ExperimentConfig,
                   started: Optional[Callable[[], None]] = None) -> ExperimentResult:
    """Run the full protocol and write tries/summaries/cactus/scatter CSVs.

    One instance at a time is loaded and profiled, then every heuristic
    tunes its noise on it through ``optimize_noise``.  ``started``, when
    given, is called once, before the first try.
    """
    config.validate()
    records, summaries = [], []
    for instance, path in _instances(config):
        cc = load_aiger(path)
        profile = build_profile(cc.circuit)
        if started is not None:
            started()
            started = None
        for heuristic in config.heuristics:
            best, tried = optimize_noise(
                cc, profile, instance, heuristic, tries=config.tries,
                timeout=config.timeout, candidates=config.noises,
                master_seed=config.master_seed, cutoff=config.cutoff, clock=config.clock)
            records += tried
            summaries.append(summarize([r for r in tried if r.wp == best], config.tries))
    os.makedirs(config.output_dir, exist_ok=True)

    trivial, retained = [], summaries
    if config.trivial_heuristic is not None:
        reference = [s for s in summaries if s.heuristic == config.trivial_heuristic]
        trivial_ref, _ = filter_trivial(reference, config.trivial_threshold)
        trivial_ids = {s.instance for s in trivial_ref}
        trivial = [s for s in summaries if s.instance in trivial_ids]
        retained = [s for s in summaries if s.instance not in trivial_ids]

    files = {}

    def emit(name, text):
        path = os.path.join(config.output_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files[name] = path

    emit("tries.csv", records_to_csv(records))
    emit("summaries.csv", summaries_to_csv(summaries))
    emit("cactus.csv", emit_cactus_csv(retained))
    by_heuristic = {h: [s for s in retained if s.heuristic == h]
                    for h in config.heuristics}
    scatter_pairs = config.scatter_pairs
    if scatter_pairs is None:
        base = config.heuristics[0]
        scatter_pairs = [[base, h] for h in config.heuristics[1:]]
    for index, (a, b) in enumerate(scatter_pairs):
        name = "scatter.csv" if index == 0 else f"scatter_{a}_vs_{b}.csv"
        emit(name, emit_scatter_csv(by_heuristic[a], by_heuristic[b]))
    if config.trivial_heuristic is not None:
        emit("trivial.csv", summaries_to_csv(trivial))
    emit("report.txt", _report(retained, config.heuristics))
    return ExperimentResult(records, summaries, trivial, retained, files)


def _report(summaries, heuristics) -> str:
    """Plain-text digest: solved counts, median steps, pairwise comparisons."""
    solved = {h: {s.instance: s for s in summaries if s.heuristic == h and s.solved}
              for h in heuristics}
    instances = sorted({s.instance for s in summaries})

    def solved_by_both(a, b):
        return [i for i in instances if i in solved[a] and i in solved[b]]

    lines = [f"instances: {len(instances)}"]
    for h in heuristics:
        steps = [s.median_steps for s in solved[h].values()]
        med = lower_median(steps) if steps else "n/a"
        lines.append(f"{h}: solved {len(steps)}/{len(instances)}, median steps {med}")
    lines.append("")
    lines.append("pairwise median-step comparison (instances solved by both):")
    for a in heuristics:
        for b in heuristics:
            if a == b:
                continue
            common = solved_by_both(a, b)
            wins = sum(solved[a][i].median_steps <= solved[b][i].median_steps
                       for i in common)
            lines.append(f"  {a} <= {b}: {wins}/{len(common)}")
    base = heuristics[0]
    lines.append("")
    lines.append(f"median-step ratio vs {base} (geometric mean, solved by both):")
    for h in heuristics[1:]:
        common = solved_by_both(h, base)
        if not common:
            lines.append(f"  {h}: n/a")
            continue
        log_sum = sum(
            math.log(max(1, solved[h][i].median_steps)
                     / max(1, solved[base][i].median_steps))
            for i in common)
        lines.append(f"  {h}: {math.exp(log_sum / len(common)):.4f}")
    return "\n".join(lines) + "\n"
