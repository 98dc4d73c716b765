"""Justification-based stochastic local search with limited forward propagation.

One search step picks an unjustified gate (per the configured heuristic),
chooses one of its subset-minimal justifications -- uniformly at random with
probability ``wp``, otherwise greedily minimizing the number of unjustified
gates the step would leave behind -- flips the disagreeing child gates, and
propagates the flips toward the outputs.  A justification is held only as
its move, the list of child gates it flips (``_moves``, read straight from
the gate's CSR row).  Constrained gates are never flipped; the search
succeeds when the unjustified set empties.

``SearchEngine`` is one resumable trajectory.  Its ``run`` is a Python loop,
the reference, and the C kernel's ``aigsls_run``, the loop's twin, which
runs a whole step budget in one call and draws from a C copy of the
engine's ``random.Random`` stream; both leave the assignment, the counters
and the generator in the same state.  The try loop that budgets an engine,
times it and verifies its SAT verdicts lives in ``aigsls.harness``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, fields
from operator import attrgetter

from . import _kernel
from .circuit import ConstrainedCircuit, random_complete_extension
from .metrics import CLOSURES, StructuralProfile

#: Recognized gate-selection heuristics.  "rand" picks uniformly from the
#: unjustified set; "<measure>-max"/"<measure>-min" pick uniformly among the
#: gates maximizing/minimizing that structural measure.  The cc measure is
#: value-dependent: a gate currently at 0 scores cc0, at 1 scores cc1.
HEURISTICS = (
    "rand",
    "depth-max", "depth-min",
    "fo-max", "fo-min",
    "tfo-max", "tfo-min",
    "tfi-max", "tfi-min",
    "cc-max", "cc-min",
    "co-max", "co-min",
    "flow-max", "flow-min",
    "level-max", "level-min",
    "llevel-min",
    "alevel-min",
)


class EmptyUnjustSet(RuntimeError):
    """Gate selection requested while every gate is justified."""


@dataclass(slots=True)
class SearchStats:
    """What a trajectory's steps did, counted the same on both kernel paths.

    Every step is exactly one of: a random-walk move, a greedy move, a
    forced move (the gate had one move) or a burned step (every move would
    flip a pinned gate).  ``trials`` counts the moves scored by greedy
    steps, ``flips`` the gates flipped by applied moves, propagation
    included.  ``min_unjust`` is the smallest unjust count seen at the top
    of a step (0 once the search is satisfied).
    """
    walk: int = 0
    greedy: int = 0
    forced: int = 0
    burned: int = 0
    trials: int = 0
    flips: int = 0
    min_unjust: int = 0


#: SearchStats' fields, in the order aigsls_run counts them
_COUNTERS = tuple(field.name for field in fields(SearchStats))
_counters = attrgetter(*_COUNTERS)

#: the most steps one aigsls_run call takes; a larger budget is not
#: reached in practice, and the call must fit int64
_MAX_BUDGET = 1 << 62


def loop_name() -> str:
    """The loop ``SearchEngine.run`` takes for an engine built now, drawing
    from its own ``random.Random``: "c" for ``aigsls_run``, else "python"."""
    lib = _kernel.lib
    return "c" if lib is not None and lib.run is not None else "python"


def check_settings(heuristic: str, wp: float):
    """ValueError unless the heuristic is in HEURISTICS and 0 <= wp <= 1."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    if not 0.0 <= wp <= 1.0:
        raise ValueError(f"noise must be within [0, 1], got {wp}")


def _moves(csr, values, pinned, g: int) -> list:
    """The moves of the unjustified gate g, read from its rows of the
    circuit's ``csr``: one list of child gates to flip per subset-minimal
    justification that flips no gate set in ``pinned``.

    At 0 every child literal is 1, and each distinct child gate (g's
    ``kid`` row) that is not pinned is a move of its own.  At 1 the one
    move flips every distinct child whose literal is 0; there is none if
    one of them is pinned, or if g reads both polarities of one child,
    since g is then constantly 0.  Children come in first-occurrence order.
    """
    if not values[g]:
        off = csr.kid_off
        moves = []
        for c in csr.kid[off[g]:off[g + 1]]:
            if not pinned[c]:
                moves.append([c])
        return moves
    fin = csr.fin
    polarity = {}                   # child gate -> the complement bit g reads it through
    flips = []
    for i in range(csr.fin_off[g], csr.fin_off[g + 1]):
        p = fin[i]
        c = p >> 1
        if c in polarity:
            if polarity[c] != p & 1:
                return []
        else:
            polarity[c] = p & 1
            if values[c] == p & 1:
                if pinned[c]:
                    return []
                flips.append(c)
    return [flips]


class SearchEngine:
    """One resumable search trajectory over a constrained circuit.

    The engine owns the assignment and the random stream; ``run(budget)``
    advances up to ``budget`` further steps and reports whether a satisfying
    assignment was observed.  Repeated calls continue the same trajectory, so
    a caller can interleave step budgets with its own wall-clock bookkeeping.
    """

    def __init__(self, cc: ConstrainedCircuit, profile: StructuralProfile,
                 heuristic: str = "rand", wp: float = 0.2, seed: int = 0):
        check_settings(heuristic, wp)
        if profile.circuit is not cc.circuit:
            raise ValueError("profile was built for a different circuit")
        self.cc = cc
        self.profile = profile
        self.heuristic = heuristic
        self.wp = wp
        self.rng = random.Random(seed)
        self.assignment = random_complete_extension(cc, self.rng)
        self.stats = SearchStats(min_unjust=self.assignment.unjust_count)
        measure, _, direction = heuristic.rpartition("-")
        neg = direction == "max"
        # the scores as (lo, hi, neg, walk), walk naming the closure lo
        # caches; None under "rand"
        self._scores = lo = hi = None
        if measure:
            lo, hi = profile.scores(measure)    # kept alive by self.profile
            self._scores = lo, hi, neg, measure if measure in CLOSURES else None
        # the settings aigsls_run reads, with the kernel
        self._search = None
        if self.assignment._state is not None:
            circuit = cc.circuit
            self._search = _kernel.Search(lo, hi, neg, profile.kernel_walk(measure), wp,
                                          circuit.num_gates - len(circuit.inputs))

    @property
    def steps(self) -> int:
        """Steps taken so far: the sum of the four step kinds in ``stats``."""
        stats = self.stats
        return stats.walk + stats.greedy + stats.forced + stats.burned

    def run(self, budget: int) -> bool:
        """Advance up to ``budget`` steps; True as soon as the circuit is satisfied.

        Satisfaction is only checked at the top of each pending step, so a
        run whose budget is exhausted reports False even if the very last
        step happened to justify everything; the next call returns True
        immediately.

        The loop below is the reference, and it runs only the Python steps:
        ``_select``'s scan, ``Assignment._trial`` and ``Assignment._move``,
        which work on a kernel-built assignment's buffers too.
        ``aigsls_run`` is its twin in C, and runs instead when
        ``uses_kernel_loop`` says so.
        """
        asg = self.assignment
        if self.uses_kernel_loop:
            return self._run_kernel(budget)
        values = asg.values
        pinned = asg.pinned
        csr = self.cc.circuit._csr
        rng = self.rng
        wp = self.wp
        select = self._select
        stats = self.stats
        while budget > 0:
            count = asg.unjust_count
            if count < stats.min_unjust:
                stats.min_unjust = count
            if not count:
                return True
            g = select()
            moves = _moves(csr, values, pinned, g)
            budget -= 1
            if not moves:
                # every move would flip a pinned gate; burn the step
                stats.burned += 1
                continue
            if len(moves) == 1:
                stats.forced += 1
                flips = moves[0]
            elif rng.random() < wp:
                stats.walk += 1
                flips = moves[rng.randrange(len(moves))]  # random walk
            else:
                # downward move: the fewest unjustified gates left, ties uniform
                stats.greedy += 1
                stats.trials += len(moves)
                best = None
                for flips in moves:
                    count = asg._trial(flips)
                    if best is None or count < best:
                        best, ties = count, [flips]
                    elif count == best:
                        ties.append(flips)
                flips = ties[0] if len(ties) == 1 else ties[rng.randrange(len(ties))]
            stats.flips += asg._move(flips)
        return False

    @property
    def uses_kernel_loop(self) -> bool:
        """Whether ``run`` takes ``aigsls_run``: the assignment is on the
        kernel, whose copy of the random stream passed its load-time check,
        and the engine draws from a plain ``random.Random``, whose stream
        that copy reproduces."""
        state = self.assignment._state
        return (state is not None and state.lib.run is not None
                and type(self.rng) is random.Random)

    def _run_kernel(self, budget: int) -> bool:
        """``run`` in one ``aigsls_run`` call.  The generator's state goes
        to C as its MT19937 words and comes back to ``rng`` after the call,
        ``gauss_next`` kept; the counters go and come back the same way."""
        state = self.assignment._state
        rng, stats = self.rng, self.stats
        version, words, gauss = rng.getstate()
        mt = array("I", words)
        counts = array("q", _counters(stats))
        found = state.lib.run(state.addr, mt.buffer_info()[0], self._search.addr,
                              counts.buffer_info()[0], min(budget, _MAX_BUDGET))
        rng.setstate((version, tuple(mt), gauss))
        for name, count in zip(_COUNTERS, counts):
            setattr(stats, name, count)
        return bool(found)

    def _select(self) -> int:
        """Pick one unjustified gate per the heuristic, ties uniform.

        A lone unjustified gate, or a lone best one, is taken without
        drawing from the RNG.  A measure heuristic scans the unjustified
        gates in ``ulist`` order for the least int32 score of
        ``profile.scores``: ``hi[g]`` while g is at 1, else ``lo[g]``,
        negated for ``-max``, with a closure size walked on first need.
        ``select_ties`` in ``aigsls_run`` reads the same scores from a
        buffer kept in ``ulist`` order instead; both walk the same closures
        in the same order and pick the same ties in the same order, so they
        make the same draw.
        """
        asg = self.assignment
        count = asg.unjust_count
        if not count:
            raise EmptyUnjustSet("no unjustified gates to select from")
        if count == 1:
            return asg.ubuf[0]
        if self._scores is None:
            return asg.ubuf[self.rng.randrange(count)]
        lo, hi, neg, walk = self._scores
        values = asg.values
        best = 0x7FFFFFFF                       # INT_MAX, as in the kernel
        ties = []
        for g in asg.ubuf[:count]:
            if walk and lo[g] < 0:
                self.profile._fill(walk, (g,))
            v = hi[g] if values[g] else lo[g]
            if neg:
                v = -v
            if v < best:
                best = v
                ties.clear()
            if v == best:
                ties.append(g)
        k = len(ties)
        return ties[0] if k == 1 else ties[self.rng.randrange(k)]
