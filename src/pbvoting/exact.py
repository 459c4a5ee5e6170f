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
L = lcm(1..K), where K is the longest ballot: a group of w voters with c
funded approvals gains w * (L // (c+1)) from one more, and L * H(k) comes
from a precomputed table.
`optimum_value("pav")` divides by L again, so values and bundles at the API
are the exact ones.

Because every objective is then an integer, the floor of the
fractional-knapsack bound is still an upper bound on every completion of a
branch: the partly taken item contributes v*r // c.  Knapsack items are
ordered by exact density (v times lcm(costs)/c, an integer); a rounded order
could take a worse item first and make the bound inadmissible.

For rp and pav the bound is also capped per group.  A group of w voters with
c funded approvals and a live ones (undecided and affordable) can gain at
most w * (harm[c+a] - harm[c]), whatever the budget.  For pav that is the
harmonic cap, tighter than summing each project's gain because later projects
add diminishing increments.  For rp (gains 1, 0, 0, ...) it is the union
bound: the weight of the uncovered groups that some live project still
reaches.  The knapsack alone counts such a group once for each of its live
projects, however few of them fit together.  A node is pruned when either
bound falls below the cut.

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

A bound is one pass over the live projects, with no recount of their
approvers.  Every search keeps sw and rp, the worst-sw and worst-rp keys,
the same way: funding a project adds its approval count to sw and ORs its
approvers, the compiled election's voter mask, into a bitset of covered
voters, and rp is the popcount of that bitset.  The sw knapsack reads the
static approval counts.  An rp gain is popcount(mask & ~covered) and the
union bound is popcount(OR of the live masks & ~covered).  Only pav keeps
per-group state: the marginal gain of each project after the last one
funded, kept up to date as projects are funded and taken back, and each
group's a and the cap itself: funding a live project leaves c + a and so
the cap unchanged, and passing a project, or pricing one out when the
residual falls, lowers the cap by w * gain[c + a - 1] for each group that
approves it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Optional

from .core import ApprovalProfile, Election, PBInstance, compile_election

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
    and only the per-group cap fell below it.  `optima` counts the maximal
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
        self.covered = 0
        self.saved: list[int] = []  # covered before each funded project
        if objective == "pav":
            self.weights = election.weights
            self.approvers = [election.approvers[k] for k in order]
            rank = {k: j for j, k in enumerate(order)}
            self.approved = [sorted(rank[k] for k in ballot)
                             for ballot in election.ballots]
            # gain[c]: what one voter with c funded approvals adds to the
            # objective when one more of them is funded, and harm[k] what k
            # funded approvals give a voter.  Harmonic scores are multiplied
            # by scale = L = lcm(1..K), which makes gain[c] = L/(c+1)
            # integral and harm[k] = L * H(k).
            self.gain = harmonic_gains(max(map(len, election.ballots),
                                           default=0))
            self.scale = self.gain[0]
            self.harm = list(accumulate(self.gain, initial=0))
            # counts[g]: funded approvals of group g; value[j]: what funding
            # project j alone would add to the objective now, kept for the
            # projects after the last one funded
            self.counts = [0] * len(self.weights)
            self.value = [v * self.gain[0] for v in self.static]
            # avail[g]: live projects that group g approves; ceiling: the
            # per-group cap, kept as projects are funded and stop being live
            self.avail = [sum(self.costs[j] <= self.budget for j in approved)
                          for approved in self.approved]
            self.ceiling = sum(w * self.harm[a]
                               for w, a in zip(self.weights, self.avail))

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
        adding = sign > 0
        self.chosen[j] = adding
        self.sw += sign * self.static[j]
        if adding:
            self.saved.append(self.covered)
            self.covered |= self.masks[j]
        else:
            self.covered = self.saved.pop()
        self.rp = self.covered.bit_count()
        rest = residual - self.costs[j]
        if self.objective != "pav":
            self.score = self.sw if self.objective == "sw" else self.rp
            return rest
        counts, weights, gain, value = (self.counts, self.weights, self.gain,
                                        self.value)
        score = 0
        for g in self.approvers[j]:
            c = counts[g] - (not adding)  # the count without project j
            counts[g] = c + adding
            w = weights[g]
            score += w * gain[c]
            # funding moves j from live to funded: c + a stays, and so does
            # the ceiling
            self.avail[g] -= sign
            # only projects after j are read before j is taken back
            step = (gain[c + 1] - gain[c]) * sign * w
            approved = self.approved[g]
            for k in approved[bisect_right(approved, j):]:
                value[k] += step
        self.score += sign * score
        costs = self.costs
        for k in range(j + 1, self.m):
            if rest < costs[k] <= residual:
                self._drop(k, sign)
        return rest

    def _drop(self, j: int, sign: int):
        """Live project j stops being live (sign 1), passed over or priced
        out, or becomes live again (sign -1).  Only pav keeps state for it:
        the ceiling falls by w * gain[c + a] per approving group, where a
        counts the group's live projects without j.
        """
        if self.objective != "pav":
            return
        counts, avail, weights, gain = (self.counts, self.avail, self.weights,
                                        self.gain)
        delta = 0
        for g in self.approvers[j]:
            a = avail[g] - (sign > 0)
            avail[g] = a + (sign < 0)
            delta += weights[g] * gain[counts[g] + a]
        self.ceiling -= sign * delta

    def _bound(self, idx: int, residual: int) -> tuple[int, int]:
        """(floor of the fractional-knapsack bound, per-group cap) over the
        live projects of node (idx, residual).

        sw has no cap and repeats the knapsack bound in its place.
        """
        costs = self.costs
        if self.objective == "sw":
            # values are static, and the project order is by static density
            value = self.static
            bound, r = self.score, residual
            for j in range(idx, self.m):
                c = costs[j]
                if c > residual:
                    continue
                if c > r:
                    bound += value[j] * r // c
                    break
                bound += value[j]
                r -= c
            return bound, bound
        scale = self.density_scale
        if self.objective == "rp":
            # the union bound (see the module docstring)
            masks, free = self.masks, ~self.covered
            items, union = [], 0
            for j in range(idx, self.m):
                if costs[j] <= residual:
                    union |= masks[j]
                    v = (masks[j] & free).bit_count()
                    if v:
                        items.append((v * scale[j], v, costs[j]))
            cap = self.score + (union & free).bit_count()
        else:
            value = self.value
            items = [(value[j] * scale[j], value[j], costs[j])
                     for j in range(idx, self.m)
                     if costs[j] <= residual and value[j]]
            cap = self.ceiling
        items.sort(reverse=True)
        bound, r = self.score, residual
        for _, v, c in items:
            if c > r:
                bound += v * r // c
                break
            bound += v
            r -= c
        return bound, cap

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
