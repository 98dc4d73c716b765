"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles (naive recursion,
exhaustive enumeration, a tiny DPLL) without reusing the package's
algorithms, so agreement is meaningful.  Oracles read only the circuit's
fanin description; adjacency and orders are re-derived locally.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache, wraps


def _deep(oracle):
    """Run a recursive oracle under a raised recursion limit, restored after
    it returns, so the rest of the test process keeps the default."""
    @wraps(oracle)
    def call(*args, **kwargs):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 200_000))
        try:
            return oracle(*args, **kwargs)
        finally:
            sys.setrecursionlimit(limit)
    return call


def parents_of(circuit):
    """Parent lists recomputed from the fanin description alone."""
    parents = [set() for _ in range(circuit.num_gates)]
    for g in range(circuit.num_gates):
        kids = circuit.fanin[g]
        if kids is not None:
            for lit in kids:
                parents[lit.gate].add(g)
    return [sorted(ps) for ps in parents]


def child_gates_of(circuit, g):
    kids = circuit.fanin[g]
    if kids is None:
        return None
    return list(dict.fromkeys(lit.gate for lit in kids))


def ref_topo_check(circuit) -> bool:
    """Every gate must appear after all of its children in topo_order."""
    pos = {g: i for i, g in enumerate(circuit.topo_order)}
    if sorted(circuit.topo_order) != list(range(circuit.num_gates)):
        return False
    for g in range(circuit.num_gates):
        kids = circuit.fanin[g]
        if kids is None:
            continue
        if any(pos[lit.gate] >= pos[g] for lit in kids):
            return False
    return True


@_deep
def ref_evaluate(circuit, input_values):
    """Recursive gate evaluation with memoization."""
    memo = {}

    def value(g):
        if g in memo:
            return memo[g]
        kids = circuit.fanin[g]
        if kids is None:
            v = 1 if input_values[g] else 0
        else:
            v = 1
            for lit in kids:
                if value(lit.gate) ^ lit.complement == 0:
                    v = 0
        memo[g] = v
        return v

    return [value(g) for g in range(circuit.num_gates)]


def ref_unjust(circuit, values):
    """From-scratch unjustified set via the fanin description."""
    out = set()
    for g in range(circuit.num_gates):
        kids = circuit.fanin[g]
        if kids is None:
            continue
        conj = 1
        for lit in kids:
            if values[lit.gate] ^ lit.complement == 0:
                conj = 0
        if values[g] != conj:
            out.add(g)
    return frozenset(out)


def brute_force_justifications(circuit, g, v):
    """All subset-minimal child restrictions forcing value v at gate g.

    Enumerates every partial assignment to the distinct child gates and
    checks the forcing property over all completions.  Returns a set of
    frozensets of (gate, value) pairs.  Only usable for small fanin.
    """
    kids = circuit.fanin[g]
    child_gates = child_gates_of(circuit, g)
    assert len(child_gates) <= 8, "oracle is exponential in the fanin"

    def conj(values_by_gate):
        out = 1
        for lit in kids:
            if values_by_gate[lit.gate] ^ lit.complement == 0:
                out = 0
        return out

    def forces(sigma):
        free = [c for c in child_gates if c not in sigma]
        for bits in itertools.product((0, 1), repeat=len(free)):
            full = dict(sigma)
            full.update(zip(free, bits))
            if conj(full) != v:
                return False
        return True

    forcing = []
    for r in range(len(child_gates) + 1):
        for subset in itertools.combinations(child_gates, r):
            for bits in itertools.product((0, 1), repeat=r):
                sigma = dict(zip(subset, bits))
                if forces(sigma):
                    forcing.append(frozenset(sigma.items()))
    minimal = {s for s in forcing
               if not any(o < s for o in forcing)}
    return minimal


def ref_propagate(cc, values, flipped):
    """Full re-evaluation with the flipped and constrained gates held fixed.

    Valid oracle for forward propagation when the pre-flip assignment was
    consistent everywhere except possibly at constrained gates.
    """
    out = bytearray(values)
    keep = set(flipped) | set(cc.constraints)
    order = ref_topo_order(cc.circuit)
    for g in order:
        kids = cc.circuit.fanin[g]
        if kids is None or g in keep:
            continue
        conj = 1
        for lit in kids:
            if out[lit.gate] ^ lit.complement == 0:
                conj = 0
        out[g] = conj
    return out


@_deep
def ref_topo_order(circuit):
    """Recursive DFS post-order; independent of the package's Kahn pass."""
    seen = [False] * circuit.num_gates
    order = []

    def visit(g):
        if seen[g]:
            return
        seen[g] = True
        kids = circuit.fanin[g]
        if kids is not None:
            for lit in kids:
                visit(lit.gate)
        order.append(g)

    for g in range(circuit.num_gates):
        visit(g)
    return order


# ---------------------------------------------------------------------------
# brute-force satisfiability


def brute_force_sat(cc):
    """Exhaustive input enumeration; returns (satisfiable, witness values)."""
    circuit = cc.circuit
    constraints = cc.constraints
    free = [g for g in circuit.inputs if g not in constraints]
    fixed = {g: int(constraints[g]) for g in circuit.inputs if g in constraints}
    order = ref_topo_order(circuit)
    for bits in itertools.product((0, 1), repeat=len(free)):
        values = [0] * circuit.num_gates
        for g, b in zip(free, bits):
            values[g] = b
        for g, b in fixed.items():
            values[g] = b
        for g in order:
            kids = circuit.fanin[g]
            if kids is None:
                continue
            conj = 1
            for lit in kids:
                if values[lit.gate] ^ lit.complement == 0:
                    conj = 0
            values[g] = conj
        if all(values[g] == v for g, v in constraints.items()):
            return True, values
    return False, None


def brute_force_sat_vectorized(cc):
    """Same decision as brute_force_sat, evaluated over all patterns at once."""
    import numpy as np

    circuit = cc.circuit
    constraints = cc.constraints
    free = [g for g in circuit.inputs if g not in constraints]
    n_patterns = 1 << len(free)
    cols = {}
    pattern_ids = np.arange(n_patterns, dtype=np.uint64)
    for bit, g in enumerate(free):
        cols[g] = (pattern_ids >> np.uint64(bit)) & np.uint64(1) == 1
    for g in circuit.inputs:
        if g in constraints:
            cols[g] = np.full(n_patterns, bool(constraints[g]))
    for g in ref_topo_order(circuit):
        kids = circuit.fanin[g]
        if kids is None:
            continue
        acc = np.ones(n_patterns, dtype=bool)
        for lit in kids:
            col = cols[lit.gate]
            acc &= ~col if lit.complement else col
        cols[g] = acc
    ok = np.ones(n_patterns, dtype=bool)
    for g, v in constraints.items():
        ok &= cols[g] if v else ~cols[g]
    return bool(ok.any())


# ---------------------------------------------------------------------------
# DIMACS + DPLL


def parse_dimacs(text):
    nvars = nclauses = None
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            _, _, nv, nc = line.split()
            nvars, nclauses = int(nv), int(nc)
            continue
        lits = [int(t) for t in line.split()]
        assert lits[-1] == 0
        clauses.append(tuple(lits[:-1]))
    assert nclauses == len(clauses)
    return nvars, clauses


@_deep
def dpll(clauses) -> bool:
    """Small complete SAT check: unit propagation plus chronological branching."""

    def reduce(clauses, lit):
        out = []
        for c in clauses:
            if lit in c:
                continue
            if -lit in c:
                c = c - {-lit}
                if not c:
                    return None
            out.append(c)
        return out

    def solve(clauses):
        while True:
            unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = reduce(clauses, unit)
            if clauses is None:
                return False
        if not clauses:
            return True
        lit = next(iter(clauses[0]))
        for choice in (lit, -lit):
            reduced = reduce(clauses, choice)
            if reduced is not None and solve(reduced):
                return True
        return False

    sets = [frozenset(c) for c in clauses]
    if any(not c for c in sets):
        return False
    return solve(sets)


# ---------------------------------------------------------------------------
# recursive metric references


@_deep
def ref_depth(circuit):
    parents = parents_of(circuit)

    @lru_cache(maxsize=None)
    def depth(g):
        if not parents[g]:
            return 0
        return 1 + max(depth(p) for p in parents[g])

    return [depth(g) for g in range(circuit.num_gates)]


@_deep
def ref_levels(circuit, alevel_mode="self"):
    @lru_cache(maxsize=None)
    def level(g):
        kids = child_gates_of(circuit, g)
        if kids is None:
            return 0
        return 1 + max(level(c) for c in kids)

    @lru_cache(maxsize=None)
    def llevel(g):
        kids = child_gates_of(circuit, g)
        if kids is None:
            return 0
        return 1 + min(llevel(c) for c in kids)

    @lru_cache(maxsize=None)
    def alevel(g):
        kids = child_gates_of(circuit, g)
        if kids is None:
            return 0.0
        base = alevel if alevel_mode == "self" else level
        return 1.0 + sum(base(c) for c in kids) / len(kids)

    n = circuit.num_gates
    return ([level(g) for g in range(n)], [llevel(g) for g in range(n)],
            [alevel(g) for g in range(n)])


@_deep
def ref_cc(circuit):
    @lru_cache(maxsize=None)
    def pair(g):
        kids = circuit.fanin[g]
        if kids is None:
            return (1, 1)
        to0 = []
        to1 = []
        for lit in kids:
            c0, c1 = pair(lit.gate)
            if lit.complement:
                c0, c1 = c1, c0
            to0.append(c0)
            to1.append(c1)
        return (1 + min(to0), 1 + sum(to1))

    n = circuit.num_gates
    pairs = [pair(g) for g in range(n)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


@_deep
def ref_co(circuit):
    cc0, cc1 = ref_cc(circuit)
    parents = parents_of(circuit)

    @lru_cache(maxsize=None)
    def co(g):
        if not parents[g]:
            return 0
        options = []
        for p in parents[g]:
            cost = co(p)
            for lit in circuit.fanin[p]:
                if lit.gate != g:
                    cost += cc0[lit.gate] if lit.complement else cc1[lit.gate]
            options.append(cost)
        return 1 + min(options)

    return [co(g) for g in range(circuit.num_gates)]


@_deep
def ref_flow(circuit, flow_mode="conserving"):
    parents = parents_of(circuit)

    @lru_cache(maxsize=None)
    def flow(g):
        if not parents[g]:
            return 1.0
        total = 0.0
        for p in parents[g]:
            if flow_mode == "conserving":
                denom = len(child_gates_of(circuit, p))
            else:
                denom = len(parents[p]) or 1
            total += flow(p) / denom
        return total

    return [flow(g) for g in range(circuit.num_gates)]


@_deep
def ref_tfo_sizes(circuit):
    parents = parents_of(circuit)
    memo = {}

    def closure(g):
        if g in memo:
            return memo[g]
        out = set()
        for p in parents[g]:
            out.add(p)
            out |= closure(p)
        memo[g] = out
        return out

    return [len(closure(g)) for g in range(circuit.num_gates)]


@_deep
def ref_tfi_sizes(circuit):
    memo = {}

    def closure(g):
        if g in memo:
            return memo[g]
        out = set()
        kids = circuit.fanin[g]
        if kids is not None:
            for lit in kids:
                out.add(lit.gate)
                out |= closure(lit.gate)
        memo[g] = out
        return out

    return [len(closure(g)) for g in range(circuit.num_gates)]


# ---------------------------------------------------------------------------
# random circuit builders for property tests


def random_dag(rng, n_gates, p_input=0.35, max_arity=3):
    """Random n-ary AND circuit; duplicate and complemented children allowed."""
    from aigsls import INPUT, Literal, build_circuit

    definitions = [INPUT]
    for g in range(1, n_gates):
        if rng.random() < p_input:
            definitions.append(INPUT)
            continue
        arity = rng.randint(1, max_arity)
        definitions.append(tuple(Literal(rng.randrange(g), rng.random() < 0.5)
                                 for _ in range(arity)))
    return build_circuit(definitions)


def random_constrained(rng, circuit, p_constrain=0.9):
    """Random output constraints (values arbitrary, so possibly unsatisfiable)."""
    from aigsls import ConstrainedCircuit

    constraints = {}
    for g in circuit.outputs:
        if rng.random() < p_constrain:
            constraints[g] = rng.random() < 0.5
    return ConstrainedCircuit(circuit, constraints)
