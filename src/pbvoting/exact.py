"""Exact optimizers for the welfare, coverage and harmonic-score rules.

All three rules are solved by the same depth-first branch-and-bound over
include/exclude decisions in a fixed project order, with an admissible
fractional-knapsack bound on the residual budget.  The search reads the
compiled election (`core.compile_election`): duplicate ballots are weighted
groups, which makes block-structured instances (all voters of a district
voting alike) cheap to solve.

The outcome of a rule is the set of *inclusion-maximal* optimal bundles:
bundles attaining the optimal objective to which no further project can be
added within the budget.  Dropping non-maximal optima loses nothing (the
objectives are monotone, so every optimum extends to a maximal one with the
same objective value) and matches how budget-exhausting outcomes are scored.
The tie-break policy then selects a single bundle from that set, in the same
search that finds the optimum, streaming over the set without storing it.

The search runs on integers only.  Costs and the budget are the compiled
election's, multiplied by D, the least common multiple of their denominators
(D = 100 for cent-valued data).  Harmonic scores are multiplied by
L = lcm(1..K), where K is the longest ballot: a voter with c funded
approvals gains gain[c] = L // (c+1) from one more.
`optimum_value("pav")` divides by L again, so values and bundles at the API
are the exact ones.

Because every objective is then an integer, the floor of the
fractional-knapsack bound is still an upper bound on every completion of a
branch: the partly taken item contributes v*r // c.  Knapsack items are
ordered by exact density (v times lcm(costs)/c, an integer); a rounded order
could take a worse item first and make the bound inadmissible.

rp's knapsack discounts overlaps: in density order v/c, v a live project's
uncovered approvers, each project counts only the `new` of them that no
earlier one counted, at cost c*new/v.  That is at most the plain knapsack
and the union bound, and it is admissible: for any l >= 0, an affordable
set of live projects covers at most l*residual + sum over voters of
max(0, 1 - l*c/v), c/v that of the first project reaching the voter, as
each project's cost spread over its v voters charges a covered one at least
that.  The walk is this sum (a Lagrangian bound) at l = the density where
the money runs out.  pav's knapsack is also capped: a voter with t funded
or live (undecided, affordable) approvals reaches at most
gain[0] + ... + gain[t-1].  A node is pruned when either bound is below the
cut.

`optimum_value` prunes a branch when floor(bound) <= best, which cuts more
than the unfloored test.  A `solve_*` call makes one pass that finds the
optimum and picks among its ties together.  It prunes a branch only when
floor(bound) < incumbent, the best leaf score so far, which for an integer
incumbent holds exactly when bound < incumbent.  The incumbent never exceeds
the optimum and the bound is admissible, so every maximal optimum is
visited, in the same depth-first order as by a search that knew the optimum
and pruned at floor(bound) < opt.  Maximal leaves that tie the incumbent feed
the policy's running pick, and a strictly better leaf restarts it.  For
random the restart re-seeds the generator, so the reservoir draws run over
the maximal optima alone, in that order and from the policy's seed: the
pick does not depend on the leaves seen before the optimum.  The
worst-sw/worst-rp cut on the secondary score fires only where
floor(bound) <= incumbent: a branch that may still beat the incumbent can
hold the optimum, whatever its secondary score.

A bound is one pass over the live projects, and no search keeps state per
voter group.  The funded approvals are voter bitsets in levels: reached[k]
holds the voters with at least k, reached[0] every voter.  Funding a
project lifts its approvers one level (`core.lift`), and the undo stack
keeps the levels from before.  sw and rp, the worst-sw and worst-rp keys,
read reached[1] alone: sw adds each funded project's approval count, and rp
is popcount(reached[1]).  pav keeps the levels up to the longest ballot.
Its score is sum_k gain[k-1] * |reached[k]|, a live project with approvers
M gains gain[0] * |M| + sum_k (gain[k] - gain[k-1]) * |M & reached[k]|, which
the bound works out once between fundings, and the cap is
sum_k gain[k-1] * |total[k]|, total[k] holding the voters with at least k
funded or live approvals.  Passing or pricing out a project moves its
approvers down one level of total, and funding one leaves it as it is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional

from .core import (ApprovalProfile, Election, PBInstance, compile_election,
                   lift)

_VARIANTS = ("worst-sw", "worst-rp", "random", "lex-by-id", "cheapest-first")


class SearchBudgetExceeded(RuntimeError):
    """The branch-and-bound node limit was hit; no silent approximation."""


@dataclass(frozen=True)
class TieBreakPolicy:
    variant: str
    seed: Optional[int] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown tie-break variant {self.variant!r}")
        if self.variant == "random" and self.seed is None:
            raise ValueError("random tie-breaking requires a seed")

    @classmethod
    def lex(cls) -> "TieBreakPolicy":
        return cls("lex-by-id")

    @classmethod
    def cheapest(cls) -> "TieBreakPolicy":
        return cls("cheapest-first")

    @classmethod
    def worst_sw(cls) -> "TieBreakPolicy":
        return cls("worst-sw")

    @classmethod
    def worst_rp(cls) -> "TieBreakPolicy":
        return cls("worst-rp")

    @classmethod
    def random_seeded(cls, seed: int) -> "TieBreakPolicy":
        return cls("random", seed)


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 2_000_000

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")


@dataclass
class SearchStats:
    """What one `_Search` did; every count is deterministic for its input.

    `cap_prunes` counts the prunes where the knapsack bound reached the cut
    and only pav's cap fell below it.  `optima` counts the maximal
    leaves of `select` that tie its final incumbent: the whole tie set, up
    to symmetry breaking, except where the worst-sw/worst-rp cut skips some.
    `restarts` counts the leaves of `select` that beat its incumbent and so
    restarted the pick.  `optimum` looks for neither and leaves both 0.
    """
    nodes: int = 0
    knapsack_prunes: int = 0
    cap_prunes: int = 0
    leaves: int = 0
    optima: int = 0
    restarts: int = 0


def harmonic_gains(longest: int) -> list[int]:
    """Harmonic gains in units of 1/L, L = lcm(1..longest); entry 0 is L.

    Entry c is L // (c+1), what one voter with c funded approvals gains from
    one more.  It is exact for c < longest; the last entry is floored, but a
    voter whose ballot has at most `longest` projects never gains at it.
    """
    scale = math.lcm(*range(1, longest + 1))
    return [scale // (c + 1) for c in range(longest + 1)]


class _Search:
    """One branch-and-bound context; the node budget spans every search on it.

    All search state is integer: costs, the budget and the residual are in
    units of 1/D, harmonic scores in units of 1/L (see the module docstring).
    A node (idx, residual) has decided projects 0..idx-1; its *live*
    projects are the later ones that cost at most the residual.
    """

    def __init__(self, election: Election, objective: str,
                 search_budget: SearchBudget):
        assert objective in ("sw", "rp", "pav")
        self.objective = objective
        self.phase = "optimum"
        self.max_nodes = search_budget.max_nodes
        self.stats = SearchStats()

        static = [mask.bit_count() for mask in election.project_masks]
        # v * scale[k] orders projects by v / cost exactly, in integers
        common = math.lcm(*election.costs)
        scale = [common // c for c in election.costs]
        # fixed order: static approval density desc, then cost asc, then id
        order = sorted(range(len(static)), key=lambda k: (
            -static[k] * scale[k], election.costs[k], election.ids[k]))
        self.ids = [election.ids[k] for k in order]
        self.m = len(order)
        self.budget = election.budget
        self.costs = [election.costs[k] for k in order]
        self.density_scale = [scale[k] for k in order]
        self.static = [static[k] for k in order]
        self.masks = [election.project_masks[k] for k in order]

        # symmetry breaking: twins (see `core.Election`) are
        # interchangeable, so within each class only canonical prefixes
        # (earlier project included before later) need exploring
        last_seen: dict[int, int] = {}
        self.prev_in_class: list[Optional[int]] = [None] * self.m
        for j, k in enumerate(order):
            self.prev_in_class[j] = last_seen.get(election.twins[k])
            last_seen[election.twins[k]] = j

        # mutable search state
        self.chosen = [False] * self.m
        self.score = 0
        self.sw = 0
        self.rp = 0
        # reached[k]: the voters with at least k funded approvals
        longest = max(map(len, election.ballots), default=0)
        depth = max(longest, 1) if objective == "pav" else 1
        everyone = (1 << len(election.group_of)) - 1
        self.reached = [everyone] + [0] * depth
        self.saved: list[tuple] = []  # (reached, rp, score, gains) per funding
        self.gains: dict[int, int] = {}  # pav: project gains off reached
        if objective == "pav":
            # gain[c]: what one more funded approval adds to a voter with c
            self.gain = harmonic_gains(longest)
            self.scale = self.gain[0]
            # total[k]: the voters with at least k funded or live approvals
            self.total = [everyone] + [0] * depth
            for j in range(self.m):
                if self.costs[j] <= self.budget:
                    self.total = lift(self.total, self.masks[j])

    # -- state -------------------------------------------------------------

    def _tick(self):
        self.stats.nodes += 1
        if self.stats.nodes > self.max_nodes:
            raise SearchBudgetExceeded(
                f"exceeded search budget of {self.max_nodes} nodes "
                f"in the {self.phase} phase of the {self.objective} search")

    def _fund(self, j: int, residual: int, sign: int) -> int:
        """Fund live project j out of `residual` (sign 1), or take it back
        (sign -1, with the same residual).  Returns residual - cost of j.

        For pav, the projects that the smaller residual prices out stop
        being live.
        """
        self.chosen[j] = sign > 0
        self.sw += sign * self.static[j]
        if sign > 0:
            self.saved.append((self.reached, self.rp, self.score, self.gains))
            reached = self.reached = lift(self.reached, self.masks[j])
            self.rp = reached[1].bit_count()
            self.gains = {}
            self.score = (sum(map(mul, self.gain, map(int.bit_count,
                                                      reached[1:])))
                          if self.objective == "pav" else
                          self.sw if self.objective == "sw" else self.rp)
        else:
            self.reached, self.rp, self.score, self.gains = self.saved.pop()
        rest = residual - self.costs[j]
        if self.objective == "pav":
            for k in range(j + 1, self.m):
                if rest < self.costs[k] <= residual:
                    self._drop(k, sign)
        return rest

    def _drop(self, j: int, sign: int):
        """Live project j stops being live (sign 1), passed over or priced
        out, or becomes live again (sign -1).  Only pav keeps state for it:
        its approvers move down one level of `total`, or back up.
        """
        if self.objective != "pav":
            return
        total, mask = self.total, self.masks[j]
        # down: level k takes them from level k + 1; all are on level 1
        self.total = (lift(total, mask) if sign < 0 else
                      [below & ~mask | level & mask
                       for below, level in zip(total, total[1:] + [0])])

    def _bound(self, idx: int, residual: int) -> tuple[int, int]:
        """(floor of the fractional-knapsack bound, cap) over the live
        projects of node (idx, residual).

        Only pav has a cap; sw and rp repeat their bound in its place.
        """
        costs, masks, scale = self.costs, self.masks, self.density_scale
        static, bound, r = self.static, self.score, residual
        if self.objective == "sw":
            # values are static, and the project order is by static density
            for j in range(idx, self.m):
                c = costs[j]
                if c > residual:
                    continue
                if c > r:
                    bound += static[j] * r // c
                    break
                bound += static[j]
                r -= c
            return bound, bound
        if self.objective == "rp":
            free = ~self.reached[1]
            items = []
            for j in range(idx, self.m):
                if costs[j] <= residual:
                    v = (masks[j] & free).bit_count()
                    if v:
                        items.append((v * scale[j], j, v))
            items.sort(reverse=True)
            # the overlap-discounted knapsack (see the module docstring), in
            # money units of 1/denom, so that each share c*new/v is whole
            denom = 1
            for _, j, v in items:
                new = (masks[j] & free).bit_count()
                if not new:
                    continue
                free &= ~masks[j]
                if new < v:
                    denom, r = denom * v, r * v
                cost = costs[j] * new * denom // v
                if cost > r:
                    bound += r * v // (costs[j] * denom)
                    break
                bound += new
                r -= cost
            return bound, bound
        # pav: each live project's gain off the levels, once per funding
        gain, items, gains, steps = self.gain, [], self.gains, None
        for j in range(idx, self.m):
            if costs[j] <= residual:
                if j not in gains:
                    if steps is None:  # the levels that hold a voter
                        steps = [(b - a, level) for a, b, level in zip(
                            gain, gain[1:], self.reached[1:]) if level]
                    v = gain[0] * static[j]
                    for step, level in steps:
                        v += step * (masks[j] & level).bit_count()
                    gains[j] = v
                items.append((gains[j] * scale[j], gains[j], costs[j]))
        items.sort(reverse=True)
        for _, v, c in items:
            if c > r:
                bound += v * r // c
                break
            bound += v
            r -= c
        return bound, sum(map(mul, gain, map(int.bit_count, self.total[1:])))

    def _is_maximal(self, residual: int) -> bool:
        for j in range(self.m):
            if not self.chosen[j] and self.costs[j] <= residual:
                return False
        return True

    # -- phases ------------------------------------------------------------

    def optimum(self) -> int:
        """Best attainable objective value, without its ties.

        A branch is pruned when its bound does not exceed the incumbent.
        """
        best = self.score

        def leaf(residual):
            nonlocal best
            best = max(best, self.score)

        self._dfs(0, self.budget, leaf, lambda: best + 1)
        return best

    def select(self, policy: TieBreakPolicy) -> frozenset:
        """The policy's pick among the maximal optimal bundles, in one pass.

        A branch is pruned when its bound is below the incumbent, and a
        strictly better leaf restarts the pick (see the module docstring).
        lex-by-id, cheapest-first, worst-sw and worst-rp keep the least
        (secondary key, sorted ids) seen.  worst-sw and worst-rp also cut a
        branch that can at best tie the incumbent and whose partial
        secondary score already exceeds the pick's, as both scores only
        grow when projects are added.  random keeps one bundle by reservoir
        sampling, which is uniform over the whole tie set.
        """
        self.phase = "ties"
        variant = policy.variant
        rng = random.Random(policy.seed) if variant == "random" else None
        secondary = {"worst-sw": "sw", "worst-rp": "rp"}.get(variant)
        incumbent = self.score
        best: Optional[tuple] = None
        stats = self.stats

        def leaf(residual):
            nonlocal incumbent, best
            if self.score > incumbent:
                incumbent, best, stats.optima = self.score, None, 0
                stats.restarts += 1
                if rng is not None:
                    rng.seed(policy.seed)
            if self.score < incumbent or not self._is_maximal(residual):
                return
            stats.optima += 1
            ids = tuple(sorted(self.ids[j] for j in range(self.m)
                               if self.chosen[j]))
            if rng is not None:
                if rng.randrange(stats.optima) == 0:
                    best = (ids,)
                return
            if secondary is not None:
                key = (getattr(self, secondary), ids)
            elif variant == "cheapest-first":
                key = (self.budget - residual, ids)
            else:
                key = (ids,)
            if best is None or key < best:
                best = key

        def cut():
            # a branch that cannot beat the pick's secondary key survives
            # only if it can beat the incumbent
            return incumbent + (secondary is not None and best is not None
                                and getattr(self, secondary) > best[0])

        self._dfs(0, self.budget, leaf, cut)
        assert best is not None, "an optimum always has a maximal extension"
        return frozenset(best[-1])

    def _dfs(self, idx: int, residual: int, leaf: Callable, cut: Callable):
        """Visit the branch below idx; prune where the bound is below cut()."""
        self._tick()
        while idx < self.m and self.costs[idx] > residual:
            idx += 1  # forced exclusion: project no longer affordable
        if idx == self.m:
            self.stats.leaves += 1
            leaf(residual)
            return
        c = cut()
        knapsack, cap = self._bound(idx, residual)
        if knapsack < c:
            self.stats.knapsack_prunes += 1
            return
        if cap < c:
            self.stats.cap_prunes += 1
            return
        prev = self.prev_in_class[idx]
        if prev is None or self.chosen[prev]:
            rest = self._fund(idx, residual, 1)
            self._dfs(idx + 1, rest, leaf, cut)
            self._fund(idx, residual, -1)
        self._drop(idx, 1)
        self._dfs(idx + 1, residual, leaf, cut)
        self._drop(idx, -1)


def solve_av(instance: PBInstance, profile: ApprovalProfile,
             tiebreak: TieBreakPolicy = TieBreakPolicy.lex(),
             search_budget: SearchBudget = SearchBudget()) -> frozenset:
    """A feasible bundle with globally maximal social welfare."""
    return _Search(compile_election(instance, profile), "sw",
                   search_budget).select(tiebreak)


def solve_cc(instance: PBInstance, profile: ApprovalProfile,
             tiebreak: TieBreakPolicy = TieBreakPolicy.lex(),
             search_budget: SearchBudget = SearchBudget()) -> frozenset:
    """A feasible bundle with globally maximal representation."""
    return _Search(compile_election(instance, profile), "rp",
                   search_budget).select(tiebreak)


def solve_pav(instance: PBInstance, profile: ApprovalProfile,
              tiebreak: TieBreakPolicy = TieBreakPolicy.lex(),
              search_budget: SearchBudget = SearchBudget()) -> frozenset:
    """A feasible bundle with globally maximal harmonic (PAV) score."""
    return _Search(compile_election(instance, profile), "pav",
                   search_budget).select(tiebreak)


def optimum_value(objective: str, instance: PBInstance, profile: ApprovalProfile,
                  search_budget: SearchBudget = SearchBudget()):
    """Optimal objective value only, without searching the tie set.

    sw and rp are ints; pav is an exact Fraction.
    """
    search = _Search(compile_election(instance, profile), objective,
                     search_budget)
    value = search.optimum()
    return Fraction(value, search.scale) if objective == "pav" else value
