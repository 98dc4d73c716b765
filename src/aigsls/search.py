"""Justification-based stochastic local search with limited forward propagation.

One search step picks an unjustified gate (per the configured heuristic),
chooses one of its subset-minimal justifications -- uniformly at random with
probability ``wp``, otherwise greedily minimizing the number of unjustified
gates the step would leave behind -- flips the disagreeing child gates, and
propagates the flips toward the outputs.  Constrained gates are never
flipped; the search succeeds when the unjustified set empties.

``SearchEngine`` is one resumable trajectory.  The try loop that budgets it,
times it and verifies its SAT verdicts lives in ``aigsls.harness``.
"""

from __future__ import annotations

import random

from .circuit import ConstrainedCircuit, _justifications, random_complete_extension
from .metrics import StructuralProfile

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


def check_settings(heuristic: str, wp: float):
    """ValueError unless the heuristic is in HEURISTICS and 0 <= wp <= 1."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    if not 0.0 <= wp <= 1.0:
        raise ValueError(f"noise must be within [0, 1], got {wp}")


def _make_scorer(profile: StructuralProfile, base: str, values):
    if base == "depth":
        return profile.depth.__getitem__
    if base == "fo":
        return profile.fanout_size.__getitem__
    if base == "tfo":
        return profile.tfo_size
    if base == "tfi":
        return profile.tfi_size
    if base == "co":
        return profile.co.__getitem__
    if base == "flow":
        return profile.flow.__getitem__
    if base == "level":
        return profile.level.__getitem__
    if base == "llevel":
        return profile.llevel.__getitem__
    if base == "alevel":
        return profile.alevel.__getitem__
    if base == "cc":
        cc0, cc1 = profile.cc0, profile.cc1
        return lambda g: cc1[g] if values[g] else cc0[g]
    raise ValueError(f"unknown measure {base!r}")


def _argbest(gates, score, want_max, rng):
    best_gate = gates[0]
    best = score(best_gate)
    ties = [best_gate]
    for g in gates[1:]:
        v = score(g)
        if v == best:
            ties.append(g)
        elif (v > best) if want_max else (v < best):
            best = v
            ties = [g]
    if len(ties) == 1:
        return ties[0]
    return ties[rng.randrange(len(ties))]


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
        self.steps = 0
        self.assignment = random_complete_extension(cc, self.rng)
        # Only a parent of a constrained gate (in practice, of the pinned
        # constant) has justifications that would force a pin off its value.
        self._pin_parents = frozenset(p for c in cc.constraints for p in cc.circuit.fanout[c])
        measure, _, direction = heuristic.rpartition("-")
        self._measure = measure or None      # "rand" has no measure
        self._want_max = direction == "max"

    @property
    def satisfied(self) -> bool:
        return not self.assignment.ulist

    def run(self, budget: int) -> bool:
        """Advance up to ``budget`` steps; True as soon as the circuit is satisfied.

        Satisfaction is only checked at the top of each pending step, so a
        run whose budget is exhausted reports False even if the very last
        step happened to justify everything; the next call returns True
        immediately.
        """
        asg = self.assignment
        ulist = asg.ulist
        values = asg.values
        rng = self.rng
        wp = self.wp
        fanin = self.cc.circuit.fanin
        pins = self.cc.constraints
        pin_parents = self._pin_parents
        select = self._select
        propagate = asg.propagate_forward
        flip = asg.flip
        while budget > 0:
            if not ulist:
                return True
            g = select()
            sigmas = _justifications(fanin[g], values[g])
            if g in pin_parents:
                # drop every justification that would flip a pinned gate
                sigmas = [s for s in sigmas if all(pins.get(gt, v) == v for gt, v in s)]
            n_sig = len(sigmas)
            if n_sig == 0:
                # every justification would violate a pin; burn the step
                self.steps += 1
                budget -= 1
                continue
            if n_sig == 1:
                sigma = sigmas[0]
            elif rng.random() < wp:
                sigma = sigmas[rng.randrange(n_sig)]       # random walk
            else:
                sigma = self._greedy(sigmas)               # downward move
            flips = [gt for gt, v in sigma if values[gt] != v]
            for gt in flips:
                flip(gt)
            propagate(flips)
            self.steps += 1
            budget -= 1
        return False

    def _select(self) -> int:
        """Pick one unjustified gate per the heuristic, ties uniform.

        A lone unjustified gate is taken without drawing from the RNG.  The
        cc measure reads the current assignment's values at every call.
        """
        ulist = self.assignment.ulist
        if not ulist:
            raise EmptyUnjustSet("no unjustified gates to select from")
        if len(ulist) == 1:
            return ulist[0]
        if self._measure is None:
            return ulist[self.rng.randrange(len(ulist))]
        score = _make_scorer(self.profile, self._measure, self.assignment.values)
        return _argbest(ulist, score, self._want_max, self.rng)

    def _greedy(self, sigmas):
        best_count = None
        ties = []
        for sigma in sigmas:
            count = self._trial(sigma)
            if best_count is None or count < best_count:
                best_count = count
                ties = [sigma]
            elif count == best_count:
                ties.append(sigma)
        if len(ties) == 1:
            return ties[0]
        return ties[self.rng.randrange(len(ties))]

    def _trial(self, sigma) -> int:
        asg = self.assignment
        values = asg.values
        undo = []
        flips = [gt for gt, v in sigma if values[gt] != v]
        for gt in flips:
            asg.flip(gt, undo)
        asg.propagate_forward(flips, undo)
        count = len(asg.ulist)
        asg.rollback(undo)
        return count
