"""The three workloads: their inputs, the search settings and one round's tries.

A run repeats rounds, each in a fresh interpreter.  One round is a fixed
amount of work, so its counts are a deterministic fingerprint and the
rounds' timings can be compared with each other.
"""

from __future__ import annotations

import os
import random

from instances import planted_graph, write_ascii, write_binary

# The acceptance bench's shape: many tiny instances, so per-try set-up
# (engine init, justification compile, random extension, verification,
# noise ranking and CSV output) dominates and selection scans tens of gates.
SUITE = dict(count=50, inputs=16, min_ands=300, max_ands=800,
             heuristics=["rand", "depth-max", "tfi-min", "level-min"],
             noises=[0.1, 0.3], cutoff=20_000)

# One big instance: about 3.3k gates are unjustified when a try starts, so
# structural selection scans thousands of candidates on every step.
LARGE = dict(inputs=256, ands=50_000, wp=0.2, tries=4)

WORKLOADS = {
    "suite-small": dict(SUITE, kind="suite"),
    # Steps to SAT range from about 850 to 3,900 here, too spread out for a
    # few tries to give a steady time.  A fixed budget below most tries'
    # needs keeps every try's work the same, and the first steps are where
    # the unjustified set, and so the selection scan, is largest.
    "large-structural": dict(LARGE, kind="large", cutoff=1_000,
                             heuristics=["tfi-min", "depth-max", "cc-min", "level-min"]),
    # O(1) selection and a fixed step count per try: flip, propagation and
    # greedy trials are all that is left
    "large-rand": dict(LARGE, kind="large", cutoff=10_000, heuristics=["rand"]),
}


def make_inputs(workload: str, seed: int, round_index: int, directory: str) -> list:
    """Write the AIGER files of one round; return their paths.

    Every round gets new instances, so a run averages over several instance
    sets instead of depending on how hard one set happens to be.
    """
    spec = WORKLOADS[workload]
    # seeded by kind, so both large workloads solve the same instances
    rng = random.Random(f"{spec['kind']}|{seed}|{round_index}")
    paths = []
    if spec["kind"] == "suite":
        for k in range(spec["count"]):
            ands = rng.randint(spec["min_ands"], spec["max_ands"])
            paths.append(_write(directory, f"gen-{k:04d}.aag",
                                write_ascii(planted_graph(spec["inputs"], ands, rng))))
    else:
        paths.append(_write(directory, "large.aig",
                            write_binary(planted_graph(spec["inputs"], spec["ands"], rng))))
    return paths


def _write(directory, name, data: bytes) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def round_tries(workload: str, round_index: int) -> list:
    """(heuristic, try index) of every try a large-workload round runs."""
    spec = WORKLOADS[workload]
    per_heuristic = max(1, spec["tries"] // len(spec["heuristics"]))
    first = round_index * per_heuristic
    return [(h, first + k) for k in range(per_heuristic) for h in spec["heuristics"]]


def expected_tries(workload: str) -> int:
    spec = WORKLOADS[workload]
    if spec["kind"] == "suite":
        return spec["count"] * len(spec["heuristics"]) * len(spec["noises"])
    return len(round_tries(workload, 0))
