"""AIGER circuit I/O, DIMACS CNF export and random satisfiable instances.

AIGER variable v maps to gate index v; variable 0 is the constant, modeled
as a reserved input gate pinned to value 1 (so AIGER literal 1 is the plain
gate-0 literal and AIGER literal 0 is its complement).  Each output literal
becomes the constraint that the literal evaluates to true.

One pipeline loads a file on both paths: a reader turns the body into each
gate's packed child literals as CSR rows (``fin_off``, ``fin``) plus the
output literals, ``circuit.topology`` builds the circuit from the rows and
``_constrain`` pins the outputs.  With the C kernel loaded, C reads a body
in a strict form: an ASCII file's input, output and AND lines, or a binary
file's output lines and AND section; each field ``[0-9]+``, fields
separated by one space, every line ended by a newline, every delta code
within 32 bits.  It declines anything else, valid or not, and the
pure-Python readers below, the reference, read it and give every diagnostic.
"""

from __future__ import annotations

import random
from array import array
from typing import NamedTuple

from . import _kernel
from .circuit import (
    INPUT,
    Circuit,
    ConstrainedCircuit,
    DuplicateDefinition,
    Literal,
    build_circuit,
    evaluate,
    topology,
)


class AigerError(ValueError):
    """Malformed or unsupported AIGER input."""


class MalformedHeader(AigerError):
    pass


class LatchesUnsupported(AigerError):
    pass


class TruncatedDeltaEncoding(AigerError):
    pass


class LiteralOutOfRange(AigerError):
    pass


class UnsatisfiableConstraints(AigerError):
    """Output constraints that contradict each other (or the constant)."""


class AigerHeader(NamedTuple):
    max_var: int
    inputs: int
    latches: int
    outputs: int
    ands: int


def _decode_literal(lit: int, max_var: int) -> int:
    if lit < 0 or lit > 2 * max_var + 1:
        raise LiteralOutOfRange(f"literal {lit} out of range for {max_var} variables")
    return lit ^ (lit < 2)      # gate 0 holds 1 while AIGER variable 0 is FALSE


#: the most bytes before the newline that ends the header line; a file
#: without one there is refused before the rest of it is read
HEADER_LIMIT = 1 << 16


def _parse_header(data: bytes) -> tuple[int, str, AigerHeader]:
    """The end of the header line at the start of ``data`` (-1 when it is
    the whole file), the format and the counts; the line must end within
    HEADER_LIMIT bytes, and a diagnostic shows at most 64 bytes of it."""
    end = data.find(b"\n", 0, HEADER_LIMIT)
    if end < 0 and len(data) >= HEADER_LIMIT:
        raise MalformedHeader(f"no header line in the first {HEADER_LIMIT} bytes")
    line = data if end < 0 else data[:end]
    parts = line.split()
    if len(parts) < 6 or parts[0] not in (b"aag", b"aig"):
        raise MalformedHeader(f"bad header: {line[:64]!r}")
    try:
        counts = [int(p) for p in parts[1:]]
    except ValueError:
        raise MalformedHeader(f"non-numeric header field in {line[:64]!r}") from None
    if any(c < 0 for c in counts):
        raise MalformedHeader("negative count in header")
    if len(counts) > 5 and any(counts[5:]):
        raise MalformedHeader("bad/constraint/justice/fairness sections unsupported")
    m, i, l, o, a = counts[:5]
    if l:
        raise LatchesUnsupported(f"{l} latches present; only combinational circuits supported")
    if m != i + l + a:
        raise MalformedHeader(f"header claims M={m} but I+L+A={i + l + a}")
    if m > _kernel.MAX_VAR:
        # checked before allocating anything sized by the header
        raise MalformedHeader(f"header claims M={m}; at most {_kernel.MAX_VAR} supported")
    return end, parts[0].decode(), AigerHeader(m, i, l, o, a)


def _constrain(circuit, max_var, output_literals) -> ConstrainedCircuit:
    constraints = {0: True}
    for lit in output_literals:
        lit = _decode_literal(lit, max_var)
        gate, value = lit >> 1, not lit & 1
        if constraints.setdefault(gate, value) != value:
            raise UnsatisfiableConstraints(
                f"gate {gate} constrained to both values by output literals")
    return ConstrainedCircuit(circuit, constraints, const_gate=0)


_UNDEFINED = object()


def _parse_ascii(lines, header: AigerHeader) -> tuple:
    if lines and not lines[-1]:
        lines.pop()             # the newline that ends the last line
    promised = header.inputs + header.outputs + header.ands
    if len(lines) < promised:
        # checked before allocating anything sized by the header
        raise MalformedHeader(
            f"truncated file: header promises {promised} lines (I={header.inputs} "
            f"O={header.outputs} A={header.ands}), but {len(lines)} follow")
    m = header.max_var
    definitions = [INPUT] + [_UNDEFINED] * m
    body = iter(lines)      # holds all I+O+A lines, checked above
    for _ in range(header.inputs):
        lit = _parse_int(next(body))
        if lit & 1 or not 2 <= lit <= 2 * m:
            raise MalformedHeader(f"invalid input literal {lit}")
        var = lit >> 1
        if definitions[var] is not _UNDEFINED:
            raise DuplicateDefinition(f"variable {var} defined twice")
        definitions[var] = INPUT
    output_literals = [_parse_int(next(body)) for _ in range(header.outputs)]
    for out in output_literals:
        if not 0 <= out <= 2 * m + 1:
            raise LiteralOutOfRange(f"output literal {out} out of range")
    for _ in range(header.ands):
        fields = next(body).split()
        if len(fields) != 3:
            raise MalformedHeader(f"AND line needs three literals: {fields}")
        lhs, rhs0, rhs1 = (_parse_int(f) for f in fields)
        if lhs & 1 or not 2 <= lhs <= 2 * m:
            raise MalformedHeader(f"invalid AND definition literal {lhs}")
        var = lhs >> 1
        if definitions[var] is not _UNDEFINED:
            raise DuplicateDefinition(f"variable {var} defined twice")
        definitions[var] = (_decode_literal(rhs0, m), _decode_literal(rhs1, m))
    # anything after the AND section (symbols, comments) is ignored
    if _UNDEFINED in definitions:
        raise MalformedHeader(f"variable {definitions.index(_UNDEFINED)} never defined")
    return (*_kernel.rows(definitions), output_literals)


def _parse_int(text) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedHeader(f"expected integer, got {text!r}") from None


def _parse_binary(data: bytes, header_end: int, header: AigerHeader) -> tuple:
    m, i, a = header.max_var, header.inputs, header.ands
    pos = header_end
    output_literals = []
    for _ in range(header.outputs):
        end = data.find(b"\n", pos)
        if end < 0:
            raise MalformedHeader("unexpected end of file in output section")
        output_literals.append(_parse_int(data[pos:end]))
        pos = end + 1
    if len(data) - pos < 2 * a:
        # every AND takes two delta bytes at least; checked before allocating
        raise TruncatedDeltaEncoding(
            f"truncated file: header promises A={a} (at least {2 * a} delta bytes), "
            f"but {len(data) - pos} follow the outputs")
    fin = array("i", [0]) * (2 * a)

    def decode_delta():
        nonlocal pos
        shift = 0
        value = 0
        while True:
            if pos >= len(data):
                raise TruncatedDeltaEncoding("file ends inside a delta code")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    for k in range(a):
        lhs = 2 * (i + k + 1)
        rhs0 = lhs - decode_delta()
        rhs1 = rhs0 - decode_delta()
        if rhs0 < 0 or rhs1 < 0 or rhs0 >= lhs:
            raise LiteralOutOfRange(f"AND {lhs} has out-of-order operands {rhs0},{rhs1}")
        fin[2 * k] = _decode_literal(rhs0, m)
        fin[2 * k + 1] = _decode_literal(rhs1, m)
    # gates 0..i are inputs with empty rows; AND gate i + 1 + k holds fin[2k:2k + 2]
    fin_off = array("i", [0]) * (i + 1) + array("i", range(0, 2 * a + 1, 2))
    return fin_off, fin, output_literals


def parse_aiger(data: bytes) -> ConstrainedCircuit:
    """Parse an AIGER file, ASCII ("aag") or binary ("aig") variant."""
    if isinstance(data, str):
        data = data.encode()
    return _parse_body(data, *_parse_header(data))


def _parse_body(data: bytes, end: int, fmt: str, header: AigerHeader) -> ConstrainedCircuit:
    m, i, o, a = header.max_var, header.inputs, header.outputs, header.ands
    if fmt == "aig" and end < 0:
        raise MalformedHeader("binary file has no body")
    parsed = None
    if _kernel.lib is not None and end >= 0:
        parsed = (_kernel.parse_ascii(data, end + 1, m, i, o, a) if fmt == "aag"
                  else _kernel.parse_binary(data, end + 1, i, o, a))
    if parsed is None:
        parsed = (_parse_ascii(data.split(b"\n")[1:], header) if fmt == "aag"
                  else _parse_binary(data, end + 1, header))
    fin_off, fin, output_literals = parsed
    return _constrain(Circuit(topology(fin_off, fin)), m, output_literals)


def load_aiger(path) -> ConstrainedCircuit:
    """``parse_aiger`` of the file at ``path``, whose header is checked on
    its first HEADER_LIMIT bytes before the rest is read."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_LIMIT)
        parsed = _parse_header(head)
        return _parse_body(head + fh.read(), *parsed)


def _var_map(cc: ConstrainedCircuit):
    # AIGER variable of each gate; identity when the constant occupies gate 0,
    # otherwise every gate shifts up by one to leave variable 0 free
    if cc.const_gate == 0:
        return (lambda g: g), cc.circuit.num_gates - 1
    if cc.const_gate is not None:
        raise ValueError("only constant gate 0 is supported for serialization")
    return (lambda g: g + 1), cc.circuit.num_gates


def _encode_literal(lit: int, var_of) -> int:
    code = 2 * var_of(lit >> 1) + (lit & 1)
    return code ^ (code < 2)


def _output_literals(cc: ConstrainedCircuit, var_of):
    outs = []
    for g in sorted(cc.constraints):
        if g == cc.const_gate:
            continue
        outs.append(2 * var_of(g) + (not cc.constraints[g]))
    return outs


def serialize_ascii(cc: ConstrainedCircuit) -> str:
    """Write the ASCII "aag" form; inverse of parse_aiger up to the constant pin."""
    var_of, max_var = _var_map(cc)
    circuit = cc.circuit
    inputs = [g for g in circuit.inputs if g != cc.const_gate]
    ands = [g for g in range(circuit.num_gates) if not circuit.is_input(g)]
    outs = _output_literals(cc, var_of)
    lines = [f"aag {max_var} {len(inputs)} 0 {len(outs)} {len(ands)}"]
    lines += [str(2 * var_of(g)) for g in inputs]
    lines += [str(lit) for lit in outs]
    for g in ands:
        kids = circuit.child_literals(g)
        if len(kids) != 2:
            raise ValueError(f"gate {g} is {len(kids)}-ary; AIGER requires 2-ary ANDs")
        encoded = " ".join(str(_encode_literal(k, var_of)) for k in kids)
        lines.append(f"{2 * var_of(g)} {encoded}")
    return "\n".join(lines) + "\n"


def serialize_binary(cc: ConstrainedCircuit) -> bytes:
    """Write the binary "aig" form.

    Requires canonical variable order: inputs occupy variables 1..I, AND
    gates I+1..M, and every AND only references lower variables.
    """
    var_of, max_var = _var_map(cc)
    circuit = cc.circuit
    inputs = [g for g in circuit.inputs if g != cc.const_gate]
    ands = [g for g in range(circuit.num_gates) if not circuit.is_input(g)]
    n_inputs = len(inputs)
    if [var_of(g) for g in inputs] != list(range(1, n_inputs + 1)):
        raise ValueError("inputs are not variables 1..I; reencode before binary export")
    if [var_of(g) for g in ands] != list(range(n_inputs + 1, max_var + 1)):
        raise ValueError("AND gates are not consecutive variables; reencode before binary export")
    outs = _output_literals(cc, var_of)
    chunks = [f"aig {max_var} {n_inputs} 0 {len(outs)} {len(ands)}\n".encode()]
    chunks += [f"{lit}\n".encode() for lit in outs]
    for g in ands:
        kids = circuit.child_literals(g)
        if len(kids) != 2:
            raise ValueError(f"gate {g} is {len(kids)}-ary; AIGER requires 2-ary ANDs")
        lhs = 2 * var_of(g)
        rhs0, rhs1 = sorted((_encode_literal(k, var_of) for k in kids), reverse=True)
        if rhs0 >= lhs:
            raise ValueError(f"gate {g} references a higher variable; reencode before binary export")
        chunks.append(_encode_delta(lhs - rhs0))
        chunks.append(_encode_delta(rhs0 - rhs1))
    return b"".join(chunks)


def _encode_delta(x: int) -> bytes:
    out = bytearray()
    while x & ~0x7F:
        out.append((x & 0x7F) | 0x80)
        x >>= 7
    out.append(x)
    return bytes(out)


def export_dimacs(cc: ConstrainedCircuit) -> str:
    """Equisatisfiable DIMACS CNF via the standard gate-clause encoding.

    DIMACS variable = gate index + 1.  Each AND gate g over literals l1..ln
    contributes (-g or li) for every child plus (g or -l1 .. or -ln); each
    constraint contributes one unit clause.
    """
    circuit = cc.circuit
    clauses = []
    for g in range(circuit.num_gates):
        kids = circuit.child_literals(g)
        if not kids:
            continue
        gate_var = g + 1
        child_vars = [-((p >> 1) + 1) if p & 1 else (p >> 1) + 1 for p in kids]
        for cv in child_vars:
            clauses.append((-gate_var, cv))
        clauses.append((gate_var, *(-cv for cv in child_vars)))
    for g in sorted(cc.constraints):
        var = g + 1
        clauses.append((var,) if cc.constraints[g] else (-var,))
    lines = [f"p cnf {circuit.num_gates} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def generate_random_sat_aig(num_inputs: int, num_ands: int,
                            rng: random.Random) -> ConstrainedCircuit:
    """Random 2-ary AND DAG whose output constraints admit a hidden witness.

    Every AND draws two distinct earlier non-constant gates (falling back to
    a repeat when only one is available) with independently random edge
    complements.  A hidden random input pattern is evaluated and every
    parentless AND gate is constrained to its value under that pattern, so
    the instance is satisfiable by construction.
    """
    if num_inputs < 1 or num_ands < 1:
        raise ValueError("need at least one input and one AND gate")
    if num_inputs + num_ands > _kernel.MAX_VAR:
        raise ValueError(f"inputs + ANDs must be at most {_kernel.MAX_VAR}, "
                         f"got {num_inputs + num_ands}")
    definitions = [INPUT] * (1 + num_inputs)
    for g in range(num_inputs + 1, num_inputs + num_ands + 1):
        a = rng.randrange(1, g)
        b = rng.randrange(1, g)
        while b == a and g > 2:
            b = rng.randrange(1, g)
        kids = (Literal(a, bool(rng.getrandbits(1))),
                Literal(b, bool(rng.getrandbits(1))))
        # larger literal first, matching the binary form's operand order
        definitions.append(tuple(sorted(kids, reverse=True)))
    circuit = build_circuit(definitions)
    hidden = {0: 1}
    for g in range(1, num_inputs + 1):
        hidden[g] = rng.getrandbits(1)
    witness = evaluate(circuit, hidden)
    constraints = {0: True}
    for g in circuit.outputs:
        if not circuit.is_input(g):
            constraints[g] = bool(witness.values[g])
    return ConstrainedCircuit(circuit, constraints, const_gate=0)
