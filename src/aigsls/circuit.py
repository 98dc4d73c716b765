"""Constrained And-Inverter circuits: gates and assignments.

A circuit is a DAG of n-ary AND gates over complemented edges; inverters are
never materialized as gates, a child reference simply carries a complement
flag.  A constrained circuit additionally requires fixed truth values on some
of its output gates; a complete assignment satisfies it when every AND gate
is consistent with its children and every required value holds.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import chain, compress, count, repeat
from operator import eq
from typing import Iterable, Mapping, Optional, Sequence

from . import _kernel


class CircuitError(ValueError):
    """Malformed circuit description."""


class CycleDetected(CircuitError):
    pass


class DuplicateDefinition(CircuitError):
    pass


class DanglingReference(CircuitError):
    pass


class ConstraintNotOnOutput(CircuitError):
    pass


class Literal(int):
    """Reference to a gate, optionally through an inverter.

    The value is the packed literal ``gate * 2 + complement``, the AIGER
    literal encoding, so hot loops read ``p >> 1`` and ``p & 1`` directly.
    """

    __slots__ = ()

    def __new__(cls, gate: int, complement: bool = False):
        return super().__new__(cls, gate * 2 + bool(complement))

    def __getnewargs__(self):
        # int's version would pass the packed value as ``gate``
        return self >> 1, bool(self & 1)

    @property
    def gate(self) -> int:
        return self >> 1

    @property
    def complement(self) -> bool:
        return bool(self & 1)

    def __repr__(self):
        return f"Literal({self >> 1}, {bool(self & 1)})"


# Marker for input gates in build_circuit definitions.
INPUT = None


class Circuit:
    """Immutable gate graph: its CSR arrays and a fixed topological order.

    Gates are densely indexed from 0.  A circuit is its CSR arrays ``_csr``
    (``_kernel.CSR``), whether the C kernel or the pure-Python code built
    them: each gate's child literals (packed ints, none for an input), its
    distinct child gates in first-occurrence order, its parents in index
    order, and the topological order, which places every gate strictly after
    all of its children, with each gate's position in it.  The order is
    Kahn's, seeded with every childless gate in index order, so it starts
    with ``inputs``.

    ``num_gates``, ``child_literals``, ``parents``, ``is_input``,
    ``is_output`` and equality read the arrays.  ``fanin`` (a tuple of child
    ``Literal``s per gate, None for an input) and ``topo_order`` are tuple
    views for callers outside the package, built on first access and then
    kept; the package never reads them.  The pure-Python assignment and
    profile passes read ``_lists``, one list copy of the arrays built on
    first use; a search step reads its moves from ``_csr`` on both paths.
    """

    def __init__(self, csr: _kernel.CSR):
        self._csr = csr
        self.num_gates = len(csr.tpos)

    @cached_property
    def fanin(self) -> tuple:
        csr = self._csr
        literals = tuple(map(int.__new__, repeat(Literal), csr.fin))
        offsets = csr.fin_off.tolist()
        return tuple(literals[a:b] or None for a, b in zip(offsets, offsets[1:]))

    @cached_property
    def topo_order(self) -> tuple:
        return tuple(self._csr.order)

    @cached_property
    def _lists(self) -> _kernel.CSR:
        # CPython indexes a list about three times faster than an array
        return _kernel.CSR(*(a.tolist() for a in self._csr))

    @cached_property
    def inputs(self) -> tuple:
        """The input gates, in index order: the start of ``topo_order``."""
        order = self._csr.order
        return tuple(order[:bisect_left(order, True, key=lambda g: not self.is_input(g))])

    @cached_property
    def outputs(self) -> tuple:
        """The gates without parents, in index order."""
        offsets = self._csr.fout_off.tolist()
        return tuple(compress(count(), map(eq, offsets, offsets[1:])))

    def child_literals(self, g: int):
        """The child literals of g as packed ints; empty for an input gate."""
        csr = self._csr
        off = csr.fin_off
        return csr.fin[off[g]:off[g + 1]]

    def parents(self, g: int):
        """The distinct parent gates of g, in index order."""
        csr = self._csr
        off = csr.fout_off
        return csr.fout[off[g]:off[g + 1]]

    def is_input(self, g: int) -> bool:
        off = self._csr.fin_off
        return off[g] == off[g + 1]

    def is_output(self, g: int) -> bool:
        """True iff g has no parents."""
        off = self._csr.fout_off
        return off[g] == off[g + 1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Circuit) and self._csr.fin_off == other._csr.fin_off
                and self._csr.fin == other._csr.fin)

    def __hash__(self):
        return hash((self._csr.fin_off.tobytes(), self._csr.fin.tobytes()))

    def __repr__(self):
        return f"Circuit({self.num_gates} gates, {len(self.inputs)} inputs, {len(self.outputs)} outputs)"


def build_circuit(definitions: Sequence[Optional[Iterable]]) -> Circuit:
    """Build and validate a Circuit from positional gate definitions.

    Each entry is either ``INPUT`` (None) for an input gate or a nonempty
    iterable of packed literals (ints; ``Literal`` is one) for an AND gate.
    Children may reference any gate index as long as the graph stays acyclic.

    Raises DanglingReference for out-of-range children, CircuitError for
    non-int (or bool) children and childless AND gates and CycleDetected
    when no topological order exists.  The checked literals go to
    ``topology`` as CSR rows, as a file reader's do.
    """
    fanin = tuple(None if record is None else tuple(record) for record in definitions)
    bad = {t for t in set(map(type, chain.from_iterable(filter(None, fanin))))
           if not issubclass(t, int) or issubclass(t, bool)}
    if bad:
        g = next(g for g, kids in enumerate(fanin) if kids and bad & set(map(type, kids)))
        raise CircuitError(f"gate {g}: every child must be an int literal")
    n = len(fanin)
    for g, kids in enumerate(fanin):
        if kids is None:
            continue
        if not kids:
            raise CircuitError(f"gate {g}: AND gate must have at least one child")
        for p in kids:
            if not 0 <= p >> 1 < n:
                raise DanglingReference(f"gate {g} references undefined gate {p >> 1}")
    return Circuit(topology(*_kernel.rows(fanin)))


def topology(fin_off: array, fin: array) -> _kernel.CSR:
    """The CSR of the circuit whose gate g has the packed child literals
    ``fin[fin_off[g]:fin_off[g + 1]]``, each naming a gate (none: an input).

    ``aigsls_topology`` builds it; the Python below builds the same arrays
    when the kernel is absent or declines, and raises CycleDetected: child
    gates in first-occurrence order, parents in index order with their
    signs, and Kahn's order seeded in index order, the list doubling as its
    queue.
    """
    if _kernel.lib is not None:
        csr = _kernel.topology(fin_off, fin)
        if csr is not None:
            return csr
    offsets, literals = fin_off.tolist(), fin.tolist()
    n = len(offsets) - 1
    kids = []
    fanout = [[] for _ in range(n)]
    signs = [[] for _ in range(n)]
    for g, (a, b) in enumerate(zip(offsets, offsets[1:])):
        # each distinct child, first occurrence first, with its sign in g
        row = {}
        for p in literals[a:b]:
            row[p >> 1] = row.get(p >> 1, 0) + (-1 if p & 1 else 1)
        for c, sign in row.items():
            fanout[c].append(g)
            signs[c].append(sign)
        kids.append(tuple(row))
    remaining = list(map(len, kids))        # children not yet placed
    order = [g for g in range(n) if not remaining[g]]
    for g in order:
        for p in fanout[g]:
            remaining[p] -= 1
            if not remaining[p]:
                order.append(p)
    if len(order) != n:
        raise CycleDetected(f"{n - len(order)} gates lie on a cycle")
    tpos = array("i", [0]) * n
    for pos, g in enumerate(order):
        tpos[g] = pos
    return _kernel.CSR(fin_off, fin, *_kernel.rows(fanout), array("i", order), tpos,
                       *_kernel.rows(kids), _kernel.rows(signs)[1])


class ConstrainedCircuit:
    """A circuit plus required truth values on output gates.

    ``constraints`` maps gate index to its required value.  Constraints are
    only accepted on output gates (gates without parents), with a single
    exception: ``const_gate`` may designate an input gate pinned to True even
    when it is referenced, which is how a constant-true signal is modeled.
    Every gate named must be an int and not a bool, else CircuitError.
    ``pinned`` marks the constrained gates and ``required`` holds their
    values, one byte per gate each, 0 for a gate not constrained.
    """

    __slots__ = ("circuit", "constraints", "const_gate", "pinned", "required")

    def __init__(self, circuit: Circuit, constraints: Mapping[int, bool],
                 const_gate: Optional[int] = None):
        if const_gate is not None and (not isinstance(const_gate, int)
                                       or isinstance(const_gate, bool)):
            raise CircuitError(f"constant gate {const_gate!r} is not an int")
        self.circuit = circuit
        self.constraints = {}
        self.const_gate = const_gate
        n = circuit.num_gates
        pinned, required = bytearray(n), bytearray(n)
        for g, v in constraints.items():
            if not isinstance(g, int) or isinstance(g, bool):
                raise CircuitError(f"constraint gate {g!r} is not an int")
            if not 0 <= g < n:
                raise DanglingReference(f"constraint on undefined gate {g}")
            if g != const_gate and not circuit.is_output(g):
                raise ConstraintNotOnOutput(f"gate {g} is not an output gate")
            self.constraints[int(g)] = bool(v)
            pinned[g] = 1
            required[g] = bool(v)
        if const_gate is not None:
            if not 0 <= const_gate < n:
                raise DanglingReference(f"constant gate {const_gate} is undefined")
            if not circuit.is_input(const_gate):
                raise CircuitError("constant gate must be an input gate")
            if self.constraints.get(const_gate) is not True:
                raise CircuitError("constant gate must be constrained to True")
        self.pinned = bytes(pinned)
        self.required = bytes(required)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConstrainedCircuit)
                and self.circuit == other.circuit
                and self.constraints == other.constraints
                and self.const_gate == other.const_gate)

    def __repr__(self):
        return f"ConstrainedCircuit({self.circuit!r}, {len(self.constraints)} constraints)"


def _unjust(fin_off, fin, values, g: int) -> bool:
    """True iff g is an AND gate whose value differs from the AND of its
    child literals, read from the CSR rows (``fin_off``, ``fin``); the
    kernel's ``unjust``."""
    i = fin_off[g]
    end = fin_off[g + 1]
    if i == end:
        return False
    v = 1
    while i < end:
        p = fin[i]
        if not (values[p >> 1] ^ (p & 1)):
            v = 0
            break
        i += 1
    return values[g] != v


def _unjustified(csr: _kernel.CSR, values):
    """The unjustified gates of a circuit's ``_csr`` or ``_lists``, lazily
    and in index order."""
    return filter(partial(_unjust, csr.fin_off, csr.fin, values), range(len(csr.tpos)))


def _evaluate_ands(circuit: Circuit, values: bytearray, pinned: bytes):
    """Set each AND gate of 0/1 ``values`` not set in ``pinned`` to the AND
    of its children, in topological order."""
    if _kernel.lib is not None:
        _kernel.evaluate(circuit, values, pinned)
        return
    csr = circuit._lists
    for g in csr.order:
        if not pinned[g] and _unjust(csr.fin_off, csr.fin, values, g):
            values[g] ^= 1


#: A propagation generation above this restarts the stamps at 0; a call
#: takes two generations, and both stay int32.
_GEN_LIMIT = 0x7FFFFFFD


class Assignment:
    """Complete truth assignment with an incrementally maintained unjust set.

    ``values[g]`` is 0 or 1 for every gate; any other value is refused with
    CircuitError.  A non-input gate is unjustified when its value differs
    from the AND of its child literal values; input gates are always
    justified.  ``pinned[g]`` marks gates that forward propagation must
    never flip (the constrained gates), fixed at construction.

    The state lives in flat buffers that the C kernel (``aigsls._kernel``)
    shares: the first ``unjust_count`` entries of ``ubuf`` are the
    unjustified gates, ``upos[g]`` is g's index there or -1, ``nf[g]`` is
    the number of g's child literals that read 0 (-1 for an input), and
    ``_meta`` holds the unjust count and the propagation generation of
    ``_stamp``.  The counts make a flip's refresh O(1) a gate: an AND gate
    is unjustified when its value is 1 with a child literal at 0, or 0 with
    none.  They are built with ``ubuf`` and kept by every flip, so an
    assignment may switch search loops, be copied or be pickled between
    flips; ``values`` must change only through those flips.

    ``flip``, ``rollback`` and ``propagate_forward``, like ``_trial`` and
    ``_move``, the steps of the reference search loop, run in Python and
    reject a gate out of range with IndexError.  C steps on the buffers only
    inside ``aigsls_run``, through ``_state``, which is fixed when the
    assignment is built or unpickled: a ``_kernel.State`` if the kernel is
    loaded then, else None.  The C and Python steps leave the buffers
    identical, so ``SearchEngine`` may run either loop on them.
    """

    __slots__ = ("circuit", "values", "_pinned", "ubuf", "upos", "nf", "_meta", "_stamp",
                 "_state")

    def __init__(self, circuit: Circuit, values, pinned=None):
        n = circuit.num_gates
        if len(values) != n:
            raise CircuitError("value vector length does not match gate count")
        self.circuit = circuit
        self.values = bytearray(values)
        if self.values.translate(None, b"\0\1"):
            raise CircuitError("every gate value must be 0 or 1")
        self._pinned = bytes(n) if pinned is None else bytes(pinned)
        if len(self._pinned) != n:
            raise CircuitError("pin vector length does not match gate count")
        self.ubuf = array("i", [0]) * n
        self.upos = array("i", [-1]) * n
        self.nf = array("i", [-1]) * n
        self._meta = array("i", [0, 0])
        self._stamp = array("i", [0]) * n
        self._attach()
        self._scan()

    @property
    def pinned(self):
        """Gates that forward propagation never flips, one byte per gate."""
        return self._pinned

    @property
    def ulist(self) -> list:
        """The unjustified gates, in the order the search draws from."""
        return self.ubuf[:self._meta[0]].tolist()

    @property
    def unjust(self) -> frozenset:
        """Current set of unjustified gates."""
        return frozenset(self.ubuf[:self._meta[0]])

    @property
    def unjust_count(self) -> int:
        return self._meta[0]

    def copy(self) -> "Assignment":
        return Assignment(self.circuit, self.values, self.pinned)

    def __getstate__(self):
        # the kernel's state holds raw addresses; a copy builds its own
        return {name: getattr(self, name) for name in self.__slots__ if name != "_state"}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._attach()

    def _attach(self):
        # fixes the path: a kernel handle on the buffers, or None for Python
        self._state = None if _kernel.lib is None else _kernel.State(self)

    def _in_range(self, gates) -> list:
        """``gates`` as a list; IndexError if one is out of range."""
        gates = list(gates)
        if gates and (min(gates) < 0 or max(gates) >= self.circuit.num_gates):
            raise IndexError("gate index out of range")
        return gates

    # -- the Python steps: the reference the kernel must match, step for step --
    # The while loops over CSR rows are the kernel's for loops: CPython runs
    # them faster than it copies the row out of the list with a slice.

    def _scan(self):
        # nf and the unjust list, in index order: aigsls_scan, or its twin
        if self._state is not None:
            self._state.lib.scan(self._state.addr)
            return
        csr = self.circuit._lists
        fin_off, fin = csr.fin_off, csr.fin
        values, nf, ubuf, upos = self.values, self.nf, self.ubuf, self.upos
        count = 0
        for g in range(len(values)):
            i = fin_off[g]
            end = fin_off[g + 1]
            if i == end:
                continue
            k = 0
            while i < end:
                p = fin[i]
                if not (values[p >> 1] ^ (p & 1)):
                    k += 1
                i += 1
            nf[g] = k
            if values[g] == (k == 0):
                continue
            upos[g] = count
            ubuf[count] = g
            count += 1
        self._meta[0] = count

    def _flip(self, g: int):
        # the kernel's flip with refresh inlined: each parent's count moves
        # by its sign, up when g drops to 0; then g, and each parent of g,
        # joins or leaves the unjust set as its count says
        csr = self.circuit._lists
        fout_off, fout, sign = csr.fout_off, csr.fout, csr.sign
        values, nf, ubuf, upos, meta = self.values, self.nf, self.ubuf, self.upos, self._meta
        a = fout_off[g]
        b = fout_off[g + 1]
        d = 1 if values[g] else -1
        values[g] ^= 1
        for i in range(a, b):
            nf[fout[i]] += d * sign[i]
        for h in (g, *fout[a:b]):
            k = nf[h]
            pos = upos[h]
            if not (k > 0 if values[h] else k == 0):
                if pos >= 0:
                    count = meta[0] - 1
                    last = ubuf[count]
                    ubuf[pos] = last
                    upos[last] = pos
                    upos[h] = -1
                    meta[0] = count
            elif pos < 0:
                count = meta[0]
                upos[h] = count
                ubuf[count] = h
                meta[0] = count + 1

    def _propagate(self, origins, log: Optional[list]) -> int:
        # the kernel's propagate: returns the number of gates it flipped,
        # appending them to log when given; a heap where the kernel keeps a
        # bitmap, popped in the same order
        csr = self.circuit._lists
        fout_off, fout, order, tpos = csr.fout_off, csr.fout, csr.order, csr.tpos
        stamp, meta, upos, pin = self._stamp, self._meta, self.upos, self._pinned
        heap = []
        flipped = 0
        if meta[1] > _GEN_LIMIT:
            stamp[:] = array("i", [0]) * len(stamp)
            meta[1] = 0
        seen = meta[1] + 1
        origin = meta[1] = seen + 1
        for g in origins:
            if stamp[g] != origin:
                stamp[g] = origin
                heappush(heap, tpos[g])
        while heap:
            g = order[heappop(heap)]
            if stamp[g] != origin:
                if upos[g] < 0 or pin[g]:
                    continue
                self._flip(g)
                if log is not None:
                    log.append(g)
                flipped += 1
            i = fout_off[g]
            end = fout_off[g + 1]
            while i < end:
                p = fout[i]
                if stamp[p] < seen:
                    stamp[p] = seen
                    heappush(heap, tpos[p])
                i += 1
        return flipped

    def _trial(self, flips) -> int:
        """Unjust count after flipping the gates ``flips`` and propagating
        them; the assignment is restored afterwards."""
        flips = self._in_range(flips)
        undo = list(flips)
        for g in flips:
            self._flip(g)
        self._propagate(flips, undo)
        count = self._meta[0]
        for g in reversed(undo):
            self._flip(g)
        return count

    def _move(self, flips) -> int:
        """Flip the gates ``flips`` and propagate them; returns the number of
        gates flipped."""
        flips = self._in_range(flips)
        for g in flips:
            self._flip(g)
        return len(flips) + self._propagate(flips, None)

    # -- public operations: the Python steps, range-checked --

    def flip(self, g: int, undo: Optional[list] = None):
        """Flip one gate value, updating the unjust set of g and its parents."""
        if not 0 <= g < self.circuit.num_gates:
            raise IndexError(f"gate {g} out of range")
        self._flip(g)
        if undo is not None:
            undo.append(g)

    def rollback(self, undo: list):
        """Reverse a sequence of recorded flips, newest first."""
        for g in reversed(self._in_range(undo)):
            self._flip(g)

    def propagate_forward(self, flipped, undo: Optional[list] = None) -> "Assignment":
        """Limited forward propagation of just-flipped gate values.

        Processes gates in topological order through a no-duplicates queue
        of pending gates seeded with ``flipped``: a ``heapq`` of topological
        positions (``aigsls_run`` keeps a bitmap over them, which pops them
        in the same rising order because every gate enqueued after the seeds
        lies after the gate just popped).  A popped origin gate only
        forwards to its parents; any other popped gate that is unjustified
        and not pinned is flipped (which justifies it, since its children are
        already final) and its parents are enqueued in turn.  Propagation
        stops along a path as soon as a popped gate is found justified.
        Every gate it flips is appended to ``undo`` when given.
        """
        self._propagate(self._in_range(flipped), undo)
        return self

    def recompute_unjust(self) -> frozenset:
        """From-scratch unjust set; the incremental one must always equal it."""
        return frozenset(_unjustified(self.circuit._csr, self.values))


def evaluate(circuit: Circuit, input_values: Mapping[int, int]) -> Assignment:
    """Deterministically extend input values to a consistent full assignment.

    ``input_values`` must assign every input gate.  Every AND gate receives
    the conjunction of its child literal values, so the result has an empty
    unjust set.
    """
    values = bytearray(circuit.num_gates)
    for g in circuit.inputs:
        values[g] = 1 if input_values[g] else 0
    _evaluate_ands(circuit, values, bytes(circuit.num_gates))
    return Assignment(circuit, values)


def is_justified(circuit: Circuit, assignment: Assignment, g: int) -> bool:
    """True iff g is an input gate or its value equals the AND of its
    children; IndexError unless 0 <= g < num_gates."""
    if not 0 <= g < circuit.num_gates:
        raise IndexError(f"gate {g} out of range")
    csr = circuit._csr
    return not _unjust(csr.fin_off, csr.fin, assignment.values, g)


def verify_satisfying(cc: ConstrainedCircuit, assignment: Assignment) -> bool:
    """Check consistency at every gate plus every required output value.

    The required values hold when the pinned bytes of ``values`` equal
    ``cc.required``: read as integers, ``values`` masked by ``cc.pinned`` is
    ``cc.required``, since every byte is 0 or 1.  Then it scans the full
    circuit rather than trusting the tracked unjust set: in the C kernel
    when it is loaded, else with ``_unjustified``, the reference.
    ValueError unless the assignment has a value, 0 or 1, for every gate.
    """
    values = assignment.values
    if len(values) != cc.circuit.num_gates:
        raise ValueError("value vector length does not match gate count")
    if values.translate(None, b"\0\1"):
        raise ValueError("every gate value must be 0 or 1")
    word = partial(int.from_bytes, byteorder="little")
    if word(values) & word(cc.pinned) != word(cc.required):
        return False
    if _kernel.lib is not None:
        return _kernel.first_unjust(cc.circuit, values) < 0
    return next(_unjustified(cc.circuit._lists, values), None) is None


def random_complete_extension(cc: ConstrainedCircuit, rng: random.Random) -> Assignment:
    """Random input assignment extended consistently, then constraints applied.

    Unconstrained inputs draw independent uniform bits, in index order;
    constrained gates (the constant gate, outputs that happen to be inputs
    and constrained AND gates) start at their required value.  The other
    AND gates evaluate consistently; a constrained AND gate has no parent,
    so none of them reads it.  Where its required value disagrees with its
    children it starts out unjustified, exposing the constraint violations
    the search must repair.
    """
    circuit = cc.circuit
    pinned = cc.pinned
    values = bytearray(cc.required)
    for g in circuit.inputs:
        if not pinned[g]:
            values[g] = rng.getrandbits(1)
    _evaluate_ands(circuit, values, pinned)
    return Assignment(circuit, values, pinned)
