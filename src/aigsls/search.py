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
from dataclasses import dataclass

from .circuit import ConstrainedCircuit, _justifications, random_complete_extension
from .metrics import COLUMNS, StructuralProfile

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
    forced move (the gate had one justification) or a burned step (no
    justification keeps every pin).  ``trials`` counts the justifications
    scored by greedy moves, ``flips`` the gates flipped by applied moves,
    propagation included.  ``min_unjust`` is the smallest unjust count seen
    at the top of a step (0 once the search is satisfied).
    """
    walk: int = 0
    greedy: int = 0
    forced: int = 0
    burned: int = 0
    trials: int = 0
    flips: int = 0
    min_unjust: int = 0


def check_settings(heuristic: str, wp: float):
    """ValueError unless the heuristic is in HEURISTICS and 0 <= wp <= 1."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    if not 0.0 <= wp <= 1.0:
        raise ValueError(f"noise must be within [0, 1], got {wp}")


def _make_scorer(profile: StructuralProfile, base: str, values):
    if base == "tfo":
        return profile.tfo_size
    if base == "tfi":
        return profile.tfi_size
    if base == "cc":
        cc0, cc1 = profile.cc0, profile.cc1
        return lambda g: cc1[g] if values[g] else cc0[g]
    return getattr(profile, COLUMNS[base]).__getitem__


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
        self.assignment = random_complete_extension(cc, self.rng)
        self.stats = SearchStats(min_unjust=self.assignment.unjust_count)
        # Only a parent of a constrained gate has justifications that would
        # force a pin off its value, and ConstrainedCircuit pins no gate with
        # parents but the constant.
        const = cc.const_gate
        self._pin_parents = frozenset(() if const is None else cc.circuit.parents(const))
        measure, _, direction = heuristic.rpartition("-")
        self._measure = measure or None      # "rand" has no measure
        self._want_max = direction == "max"
        self._select_args = None            # aigsls_select's arguments after the state
        if measure and self.assignment._state is not None:
            lo, hi = profile.scores(measure)    # kept alive by self.profile
            self._select_args = (lo.buffer_info()[0], hi.buffer_info()[0], self._want_max,
                                 *profile.kernel_walk(measure))

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
        """
        asg = self.assignment
        values = asg.values
        rng = self.rng
        wp = self.wp
        child_literals = self.cc.circuit.child_literals
        pins = self.cc.constraints
        pin_parents = self._pin_parents
        select = self._select
        stats = self.stats
        while budget > 0:
            count = asg.unjust_count
            if count < stats.min_unjust:
                stats.min_unjust = count
            if not count:
                return True
            g = select()
            sigmas = _justifications(child_literals(g), values[g])
            if g in pin_parents:
                # drop every justification that would flip a pinned gate
                sigmas = [s for s in sigmas if all(pins.get(gt, v) == v for gt, v in s)]
            budget -= 1
            if not sigmas:
                # every justification would violate a pin; burn the step
                stats.burned += 1
                continue
            if len(sigmas) == 1:
                stats.forced += 1
                sigma = sigmas[0]
            elif rng.random() < wp:
                stats.walk += 1
                sigma = sigmas[rng.randrange(len(sigmas))]  # random walk
            else:
                # downward move: the fewest unjustified gates left, ties uniform
                stats.greedy += 1
                stats.trials += len(sigmas)
                best = None
                for sigma in sigmas:
                    flips = [gt for gt, v in sigma if values[gt] != v]
                    count = asg._trial(flips)
                    if best is None or count < best:
                        best, ties = count, [flips]
                    elif count == best:
                        ties.append(flips)
                stats.flips += asg._move(ties[0] if len(ties) == 1
                                         else ties[rng.randrange(len(ties))])
                continue
            stats.flips += asg._move([gt for gt, v in sigma if values[gt] != v])
        return False

    def _select(self) -> int:
        """Pick one unjustified gate per the heuristic, ties uniform.

        A lone unjustified gate, or a lone best one, is taken without
        drawing from the RNG.  The cc measure reads the current assignment's
        values at every call.  An engine built with the kernel calls
        ``aigsls_select``; ``_argbest`` over the raw measures is the reference.
        """
        asg = self.assignment
        count = asg.unjust_count
        if not count:
            raise EmptyUnjustSet("no unjustified gates to select from")
        if count == 1:
            return asg.ubuf[0]
        measure = self._measure
        if measure is None:
            return asg.ubuf[self.rng.randrange(count)]
        if self._select_args is None:
            score = _make_scorer(self.profile, measure, asg.values)
            return _argbest(asg.ulist, score, self._want_max, self.rng)
        state = asg._state
        ties = state.lib.select(state.addr, *self._select_args)
        best = state.ties
        return best[0] if ties == 1 else best[self.rng.randrange(ties)]
