"""Benchmark inputs: planted-witness AND graphs, AIGER writers, and a checker.

Everything here is independent of the solver under test.  The generator, the
AIGER writers and reader, and the witness evaluator are the benchmark's own,
so a change to the solver's generator or parser cannot change a workload or
its correctness check.

A graph is ``(num_inputs, ands, outputs)``.  ``ands`` lists ``(lhs, rhs0,
rhs1)`` AIGER literals in variable order; ``outputs`` lists the literals that
must evaluate to true.
"""

from __future__ import annotations

import random


def planted_graph(num_inputs: int, num_ands: int, rng: random.Random):
    """Random 2-input AND DAG with a hidden satisfying input pattern.

    Every AND reads two distinct earlier non-constant variables with random
    edge complements.  Every AND that no other AND reads is constrained to
    its value under a hidden random input pattern, so the instance is
    satisfiable by construction.
    """
    if num_inputs < 2 or num_ands < 1:
        raise ValueError("need at least two inputs and one AND")
    values = [0] + [rng.getrandbits(1) for _ in range(num_inputs)]
    read = [False] * (num_inputs + num_ands + 1)
    ands = []
    for var in range(num_inputs + 1, num_inputs + num_ands + 1):
        a = rng.randrange(1, var)
        b = rng.randrange(1, var - 1)
        if b >= a:
            b += 1
        ca, cb = rng.getrandbits(1), rng.getrandbits(1)
        read[a] = read[b] = True
        # larger literal first: the binary format's operand order
        ands.append((2 * var, *sorted((2 * a + ca, 2 * b + cb), reverse=True)))
        values.append((values[a] ^ ca) & (values[b] ^ cb))
    outputs = [2 * var + (1 - values[var])
               for var in range(num_inputs + 1, num_inputs + num_ands + 1)
               if not read[var]]
    return num_inputs, ands, outputs


def _header(kind: str, num_inputs: int, ands, outputs) -> str:
    return f"{kind} {num_inputs + len(ands)} {num_inputs} 0 {len(outputs)} {len(ands)}\n"


def write_ascii(graph) -> bytes:
    num_inputs, ands, outputs = graph
    lines = [_header("aag", num_inputs, ands, outputs)]
    lines += [f"{2 * i}\n" for i in range(1, num_inputs + 1)]
    lines += [f"{lit}\n" for lit in outputs]
    lines += [f"{lhs} {r0} {r1}\n" for lhs, r0, r1 in ands]
    return "".join(lines).encode("ascii")


def _delta(x: int, out: bytearray):
    while x & ~0x7F:
        out.append((x & 0x7F) | 0x80)
        x >>= 7
    out.append(x)


def write_binary(graph) -> bytes:
    num_inputs, ands, outputs = graph
    out = bytearray(_header("aig", num_inputs, ands, outputs).encode("ascii"))
    out += "".join(f"{lit}\n" for lit in outputs).encode("ascii")
    for lhs, r0, r1 in ands:
        _delta(lhs - r0, out)
        _delta(r0 - r1, out)
    return bytes(out)


def read_aiger(data: bytes):
    """Parse a combinational AIGER file written by this module into a graph."""
    end = data.index(b"\n")
    kind, m, i, latches, o, a = data[:end].split()
    m, i, latches, o, a = int(m), int(i), int(latches), int(o), int(a)
    if latches or m != i + a:
        raise ValueError("unexpected AIGER header")
    if kind == b"aag":
        lines = data[end + 1:].split(b"\n")
        outputs = [int(x) for x in lines[i:i + o]]
        ands = [tuple(int(x) for x in line.split()) for line in lines[i + o:i + o + a]]
        return i, ands, outputs
    pos = end + 1
    outputs = []
    for _ in range(o):
        nl = data.index(b"\n", pos)
        outputs.append(int(data[pos:nl]))
        pos = nl + 1
    ands = []
    for lhs in range(2 * (i + 1), 2 * (m + 1), 2):
        deltas = []
        for _ in range(2):
            x = shift = 0
            while True:
                byte = data[pos]
                pos += 1
                x |= (byte & 0x7F) << shift
                shift += 7
                if not byte & 0x80:
                    break
            deltas.append(x)
        r0 = lhs - deltas[0]
        ands.append((lhs, r0, r0 - deltas[1]))
    return i, ands, outputs


def witness_ok(graph, witness: bytes) -> bool:
    """True iff the per-variable values satisfy every AND and every output.

    ``witness[v]`` is the value of AIGER variable v; entry 0 (the constant)
    is not read, variable 0 always evaluates to false.
    """
    num_inputs, ands, outputs = graph
    if len(witness) != num_inputs + len(ands) + 1:
        return False
    values = bytearray(witness)
    values[0] = 0
    if any(v > 1 for v in values):
        return False
    for lhs, r0, r1 in ands:
        if values[lhs >> 1] != (values[r0 >> 1] ^ (r0 & 1)) & (values[r1 >> 1] ^ (r1 & 1)):
            return False
    return all(values[lit >> 1] ^ (lit & 1) for lit in outputs)
