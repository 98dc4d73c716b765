"""Per-gate structural measures backing the gate-selection heuristics.

All measures are static properties of the circuit, computed once per
instance.  Complement flags on edges are ignored by the distance and
connectivity measures; only the controllability/observability pair is
polarity-sensitive (a complemented edge swaps the to-0/to-1 costs of the
referenced gate, which is what "skipping" inverters amounts to when they are
represented as edge attributes).

Distance-style measures:

* depth     -- 0 at output gates, else 1 + max over parents
* level     -- 0 at input gates,  else 1 + max over children
* llevel    -- 0 at input gates,  else 1 + min over children
* alevel    -- 0 at input gates,  else 1 + mean over children; the recursion
               averages child alevel values by default, or child level values
               with alevel_mode="level-sum"

Connectivity measures:

* fanout_size      -- number of distinct parents
* tfo_size / tfi_size -- sizes of the transitive fanout/fanin closures,
               excluding the gate itself; walked lazily per gate and cached
* cc0 / cc1 -- testability-style controllability costs: 1 at inputs; an AND
               costs 1 + min over children to reach 0 and 1 + sum over
               children to reach 1
* co        -- observability cost: 0 at outputs, else 1 + min over parents of
               (parent co + sum of sibling to-1 costs)
* flow      -- unit flow poured from every output toward the inputs; each
               gate splits its incoming flow equally among its distinct
               children (flow_mode="conserving", the default, divides by the
               parent's fanin size so flow is conserved; "fanout-split"
               divides by the parent's fanout size instead)

All but the closure sizes come from two passes over the topological order:
children first for level, llevel, alevel, cc0 and cc1 (``_forward``), then
parents first for depth, fanout size, co and flow (``_backward``).  The C
kernel's ``aigsls_profile`` runs the same two passes.
"""

from __future__ import annotations

import csv
import io
import sys
from array import array

from . import _kernel
from .circuit import Circuit

ALEVEL_MODES = ("self", "level-sum")
FLOW_MODES = ("conserving", "fanout-split")

#: CPython 3.12 and later sum floats with compensation, which the C
#: kernel's left-to-right sum matches only for sums of at most two terms
COMPENSATED_SUM = sys.version_info >= (3, 12)


def _check_mode(kind: str, mode: str, modes: tuple):
    if mode not in modes:
        raise ValueError(f"unknown {kind} {mode!r}")


def _forward(circuit: Circuit, level_sum: bool) -> tuple:
    """(level, llevel, alevel, cc0, cc1): the first pass of ``aigsls_profile``,
    children first, in Python ints, which never overflow.  alevel averages
    child alevel, or child level when ``level_sum``, with the interpreter's
    ``sum``."""
    csr = circuit._lists
    fin_off, fin, kid_off, kid = csr.fin_off, csr.fin, csr.kid_off, csr.kid
    n = circuit.num_gates
    level, llevel, alevel = [0] * n, [0] * n, [0.0] * n
    cc0, cc1 = [1] * n, [1] * n
    base = level if level_sum else alevel
    for g in csr.order:
        a = kid_off[g]
        b = kid_off[g + 1]
        if a == b:
            continue
        hi = level[kid[a]]
        lo = llevel[kid[a]]
        terms = []
        for c in kid[a:b]:
            if level[c] > hi:
                hi = level[c]
            if llevel[c] < lo:
                lo = llevel[c]
            terms.append(base[c])
        level[g] = 1 + hi
        llevel[g] = 1 + lo
        alevel[g] = 1.0 + sum(terms) / (b - a)
        least = None
        total = 0
        for p in fin[fin_off[g]:fin_off[g + 1]]:
            zero = cc1[p >> 1] if p & 1 else cc0[p >> 1]
            if least is None or zero < least:
                least = zero
            total += cc0[p >> 1] if p & 1 else cc1[p >> 1]
        cc0[g] = 1 + least
        cc1[g] = 1 + total
    return level, llevel, alevel, cc0, cc1


def _backward(circuit: Circuit, cc0, cc1, fanout_split: bool) -> tuple:
    """(depth, fanout size, co, flow): the second pass of ``aigsls_profile``,
    parents first, given the controllability costs.

    Observing g through a parent costs the parent's own observability plus
    the cost of driving every sibling edge to 1; the cheapest parent wins.
    Flow splits by the parent's distinct children, or by its fanout when
    ``fanout_split``.
    """
    csr = circuit._lists
    fin_off, fin, fout_off, fout = csr.fin_off, csr.fin, csr.fout_off, csr.fout
    split = fout_off if fanout_split else csr.kid_off
    n = circuit.num_gates
    depth, fanout_size, co, flow = [0] * n, [0] * n, [0] * n, [1.0] * n
    for g in reversed(csr.order):
        a = fout_off[g]
        b = fout_off[g + 1]
        fanout_size[g] = b - a
        if a == b:
            continue
        deepest = 0
        best = None
        total = 0.0
        for p in fout[a:b]:
            if depth[p] > deepest:
                deepest = depth[p]
            cost = co[p]
            for q in fin[fin_off[p]:fin_off[p + 1]]:
                if q >> 1 != g:
                    cost += cc0[q >> 1] if q & 1 else cc1[q >> 1]
            if best is None or cost < best:
                best = cost
            # a parentless parent would divide by zero, so it keeps its whole unit
            total += flow[p] / (split[p + 1] - split[p] or 1)
        depth[g] = 1 + deepest
        co[g] = 1 + best
        flow[g] = total
    return depth, fanout_size, co, flow


def dense_ranks(*columns) -> tuple:
    """Each column as int32 ranks in one rank space shared by all columns.

    Equal values share a rank and a larger value gets a larger rank, so the
    ranks compare exactly as the values do, floats and integers past 2**63
    included.
    """
    rank = {v: r for r, v in enumerate(sorted(set().union(*columns)))}
    return tuple(array("i", map(rank.__getitem__, column)) for column in columns)


#: where an int32's top byte lies in its four bytes, and the top bytes of
#: the ints in [0, 2**31)
_TOP = 3 if sys.byteorder == "little" else 0
_SMALL = bytes(range(0x80))


def _int32_scores(*columns) -> tuple:
    """Each column as an int32 array of its own values when every value of
    every column is an int in [0, 2**31), else ``dense_ranks``: both order
    and tie the gates exactly as the values do, and the values cost no
    sort.  The unsigned array refuses floats and ints outside [0, 2**32);
    a top byte outside ``_SMALL`` is an int past 2**31."""
    try:
        words = [array("I", column).tobytes() for column in columns]
    except (TypeError, OverflowError):
        return dense_ranks(*columns)
    if any(w[_TOP::4].translate(None, _SMALL) for w in words):
        return dense_ranks(*columns)
    return tuple(array("i", w) for w in words)


#: the profile attribute holding each value-independent measure
COLUMNS = {"depth": "depth", "fo": "fanout_size", "co": "co", "flow": "flow",
           "level": "level", "llevel": "llevel", "alevel": "alevel"}

#: the closure-size measures, walked per gate on first need
CLOSURES = ("tfi", "tfo")


def csv_text(header, rows) -> str:
    """A header row and data rows as CSV text with newline line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


class StructuralProfile:
    """All per-gate measures of one circuit, ready for constant-time lookup.

    The cheap measures are precomputed eagerly in O(gates + edges), in two
    passes: by the C kernel's ``aigsls_profile`` when it is loaded, else by
    its twins ``_forward`` and ``_backward``, which stay the reference.
    Either way every column is a list of Python ints or floats with the same
    values.  Where the kernel cannot match them exactly it hands the whole
    pass back to its twin: the forward pass when cc0/cc1 outgrow int64, or
    when the interpreter's float ``sum`` is compensated and some gate has
    three or more distinct children; the backward pass when co outgrows
    int64, as it does whenever cc0/cc1 do.  The transitive closure sizes
    are walked on first need per gate, the kernel's ``reach`` or else
    ``_reach``, into one int32 cache per direction that the kernel's
    selection fills too.  ``scores`` gives the C kernel's int32 form of
    each measure.
    """

    __slots__ = ("circuit", "depth", "level", "llevel", "alevel", "fanout_size",
                 "cc0", "cc1", "co", "flow", "alevel_mode", "flow_mode",
                 "_walk", "_scores")

    def __init__(self, circuit: Circuit, alevel_mode: str = "self",
                 flow_mode: str = "conserving"):
        _check_mode("alevel_mode", alevel_mode, ALEVEL_MODES)
        _check_mode("flow_mode", flow_mode, FLOW_MODES)
        self.circuit = circuit
        self.alevel_mode = alevel_mode
        self.flow_mode = flow_mode
        level_sum = alevel_mode == "level-sum"
        fanout_split = flow_mode == "fanout-split"
        redo = _kernel.FORWARD | _kernel.BACKWARD
        if _kernel.lib is not None:
            redo, (self.depth, self.level, self.llevel, self.alevel, self.fanout_size,
                   self.cc0, self.cc1, self.co, self.flow) = _kernel.profile(
                circuit, level_sum, fanout_split, COMPENSATED_SUM)
        if redo & _kernel.FORWARD:
            self.level, self.llevel, self.alevel, self.cc0, self.cc1 = _forward(circuit, level_sum)
        if redo & _kernel.BACKWARD:
            self.depth, self.fanout_size, self.co, self.flow = _backward(
                circuit, self.cc0, self.cc1, fanout_split)
        self._scores = {}
        for measure in CLOSURES:
            sizes = array("i", [-1]) * circuit.num_gates
            self._scores[measure] = sizes, sizes
        # the kernel's closure walks: generation, stamps, then stack
        self._walk = array("i", [0]) * (2 * circuit.num_gates + 1)

    def scores(self, measure: str) -> tuple:
        """(lo, hi): int32 scores of ``measure`` for gates at value 0 and at 1.

        They order the gates exactly as the measure does (``_int32_scores``):
        the values themselves where they fit, else dense ranks, with cc0 and
        cc1 in one space for ``cc`` and one array serving as both for the
        value-independent measures.  ``tfi``/``tfo`` give the closure-size
        cache itself, -1 until a gate is walked.
        """
        pair = self._scores.get(measure)
        if pair is None:
            if measure == "cc":
                pair = _int32_scores(self.cc0, self.cc1)
            else:
                scores, = _int32_scores(getattr(self, COLUMNS[measure]))
                pair = scores, scores
            self._scores[measure] = pair
        return pair

    def kernel_walk(self, measure: str) -> tuple:
        """The addresses of the CSR and the scratch of the kernel's walk
        that fills the ``measure`` cache; Nones for the other measures."""
        if measure not in CLOSURES:
            return None, None, None
        csr = self.circuit._csr
        off, adj = (csr.kid_off, csr.kid) if measure == "tfi" else (csr.fout_off, csr.fout)
        return off.buffer_info()[0], adj.buffer_info()[0], self._walk.buffer_info()[0]

    def tfo_size(self, g: int) -> int:
        size = self._scores["tfo"][0][g]
        return size if size >= 0 else self._fill("tfo", (g,))[g]

    def tfi_size(self, g: int) -> int:
        size = self._scores["tfi"][0][g]
        return size if size >= 0 else self._fill("tfi", (g,))[g]

    def _fill(self, measure: str, gates) -> array:
        """Walk each of ``gates`` whose ``measure`` closure size is not
        cached; returns the cache."""
        sizes = self._scores[measure][0]
        if _kernel.lib is not None:
            arg = array("i", gates)
            if _kernel.lib.closures(len(sizes), *self.kernel_walk(measure),
                                    sizes.buffer_info()[0], arg.buffer_info()[0], len(arg)) < 0:
                raise IndexError("gate index out of range")
            return sizes
        csr = self.circuit._lists
        off, adj = (csr.kid_off, csr.kid) if measure == "tfi" else (csr.fout_off, csr.fout)
        for g in gates:
            if sizes[g] < 0:
                sizes[g] = _reach(off, adj, g)
        return sizes

    # the closure sizes as lists, -1 where not walked yet
    _tfo = property(lambda self: self._scores["tfo"][0].tolist())
    _tfi = property(lambda self: self._scores["tfi"][0].tolist())

    def materialize_closures(self):
        """Walk every gate not walked yet, in both directions."""
        gates = range(self.circuit.num_gates)
        for measure in CLOSURES:
            self._fill(measure, gates)
        return self

    def write_csv(self, fh):
        """One row per gate with every measure; closures are materialized."""
        self.materialize_closures()
        tfo, tfi = self._scores["tfo"][0], self._scores["tfi"][0]
        fh.write(csv_text(["gate", "depth", "level", "llevel", "alevel", "fo",
                           "tfo", "tfi", "cc0", "cc1", "co", "flow"],
                          ([g, self.depth[g], self.level[g], self.llevel[g],
                            repr(self.alevel[g]), self.fanout_size[g],
                            tfo[g], tfi[g], self.cc0[g],
                            self.cc1[g], self.co[g], repr(self.flow[g])]
                           for g in range(self.circuit.num_gates))))


def _reach(off, adj, g: int) -> int:
    """Size of g's transitive closure over the CSR rows (``off``, ``adj``),
    g excluded; the kernel's ``reach``."""
    seen = {g}
    stack = [g]
    while stack:
        x = stack.pop()
        i = off[x]
        end = off[x + 1]
        while i < end:
            y = adj[i]
            if y not in seen:
                seen.add(y)
                stack.append(y)
            i += 1
    return len(seen) - 1


def build_profile(circuit: Circuit, alevel_mode: str = "self",
                  flow_mode: str = "conserving") -> StructuralProfile:
    """Compute the full structural profile of a circuit."""
    return StructuralProfile(circuit, alevel_mode=alevel_mode, flow_mode=flow_mode)
