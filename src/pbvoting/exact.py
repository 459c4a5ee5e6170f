"""Exact optimizers for the welfare, coverage and harmonic-score rules.

All three rules are solved by the same depth-first branch-and-bound over
include/exclude decisions in a fixed project order, with an admissible
fractional-knapsack bound on the residual budget.  Duplicate ballots are
collapsed into weighted groups, which makes block-structured instances
(all voters of a district voting alike) cheap to solve.

The outcome of a rule is the set of *inclusion-maximal* optimal bundles:
bundles attaining the optimal objective to which no further project can be
added within the budget.  Dropping non-maximal optima loses nothing (the
objectives are monotone, so every optimum extends to a maximal one with the
same objective value) and matches how budget-exhausting outcomes are scored.
The tie-break policy then selects a single bundle from that set, in the same
search that finds the optimum, streaming over the set without storing it.

The search runs on integers only.  Costs and the budget are multiplied by D,
the least common multiple of their denominators (D = 100 for cent-valued
data).  Harmonic scores are multiplied by L = lcm(1..K), where K is the
longest ballot: a group of w voters with c funded approvals gains
w * (L // (c+1)) from one more, and L * H(k) comes from a precomputed table.
`optimum_value("pav")` divides by L again, so values and bundles at the API
are the exact ones.

Because every objective is then an integer, the floor of the
fractional-knapsack bound is still an upper bound on every completion of a
branch: the partly taken item contributes v*r // c.  Knapsack items are
ordered by exact density (v times lcm(costs)/c, an integer); a rounded order
could take a worse item first and make the bound inadmissible.

For rp and pav the bound is also capped per group.  A group of w voters with
c funded approvals and a affordable undecided ones can gain at most
w * (harm[c+a] - harm[c]), whatever the budget.  For pav that is the
harmonic cap, tighter than summing each project's gain because later projects
add diminishing increments.  For rp (gains 1, 0, 0, ...) it is the union
bound: the weight of the uncovered groups that some affordable undecided
project still reaches.  The knapsack alone counts such a group once for each
of its affordable projects, however few of them fit together.

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

Each undecided project's marginal gain is kept up to date as projects are
funded and taken back, so a bound is one pass over the undecided projects
plus one over their approvers for the per-group cap.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import ApprovalProfile, PBInstance, group_ballots

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


class _Search:
    """One branch-and-bound context; the node budget spans every search on it.

    All search state is integer: costs, the budget and the residual are in
    units of 1/D, harmonic scores in units of 1/L (see the module docstring).
    """

    def __init__(self, instance: PBInstance, profile: ApprovalProfile,
                 objective: str, search_budget: SearchBudget):
        assert objective in ("sw", "rp", "pav")
        profile.validate(instance)
        self.objective = objective
        self.phase = "optimum"
        self.max_nodes = search_budget.max_nodes
        self.nodes = 0

        ballots, weights = group_ballots(profile)
        self.weights = weights
        static_val = {p.id: 0 for p in instance.projects}
        for ballot, w in zip(ballots, weights):
            for pid in ballot:
                static_val[pid] += w

        # fixed order: static approval density desc, then cost asc, then id
        projects = sorted(instance.projects, key=lambda p: (
            -Fraction(static_val[p.id]) / p.cost, p.cost, p.id))
        self.ids = [p.id for p in projects]
        self.m = len(projects)
        unit = math.lcm(instance.budget.denominator,
                        *(p.cost.denominator for p in projects))
        self.budget = int(instance.budget * unit)
        self.costs = [int(p.cost * unit) for p in projects]
        # v * density_scale[j] orders items by v / cost exactly
        common = math.lcm(*self.costs)
        self.density_scale = [common // c for c in self.costs]
        idx_of = {pid: j for j, pid in enumerate(self.ids)}
        self.approved = [sorted(idx_of[pid] for pid in ballot)
                         for ballot in ballots]
        self.approvers: list[list[int]] = [[] for _ in range(self.m)]
        for g, approved in enumerate(self.approved):
            for j in approved:
                self.approvers[j].append(g)

        # gain[c]: what one voter with c funded approvals adds to the
        # objective when one more of them is funded, and harm[k] what k
        # funded approvals give a voter.  Harmonic scores are multiplied by
        # scale = L = lcm(1..K), which makes gain[c] = L/(c+1) integral and
        # harm[k] = L * H(k).
        longest = max(map(len, ballots), default=0)
        self.scale = 1
        if objective == "sw":
            self.gain = [1] * (longest + 1)
        elif objective == "rp":
            self.gain = [1] + [0] * longest
        else:
            self.scale = math.lcm(*range(1, longest + 1))
            self.gain = [self.scale // (c + 1) for c in range(longest + 1)]
        self.harm = [0]
        for g in self.gain:
            self.harm.append(self.harm[-1] + g)

        # symmetry breaking: projects with identical cost and approver set
        # are interchangeable, so within each class only canonical prefixes
        # (earlier project included before later) need exploring
        last_seen: dict[tuple, int] = {}
        self.prev_in_class: list[Optional[int]] = [None] * self.m
        for j in range(self.m):
            key = (self.costs[j], tuple(self.approvers[j]))
            if key in last_seen:
                self.prev_in_class[j] = last_seen[key]
            last_seen[key] = j

        # mutable search state; value[j] is what funding project j alone
        # would add to the objective now
        self.counts = [0] * len(ballots)
        self.chosen = [False] * self.m
        self.static = [static_val[pid] for pid in self.ids]
        self.value = [v * self.gain[0] for v in self.static]
        self.score = 0
        self.sw = 0
        self.rp = 0

    # -- state -------------------------------------------------------------

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise SearchBudgetExceeded(
                f"exceeded search budget of {self.max_nodes} nodes "
                f"in the {self.phase} phase of the {self.objective} search")

    def _move(self, j: int, sign: int):
        """Fund project j (sign 1) or take it back (sign -1)."""
        adding = sign > 0
        self.chosen[j] = adding
        counts, weights, gain, value = (self.counts, self.weights, self.gain,
                                        self.value)
        covered = score = 0
        for g in self.approvers[j]:
            c = counts[g] - (not adding)  # the count without project j
            counts[g] = c + adding
            w = weights[g]
            if c == 0:
                covered += w
            score += w * gain[c]
            step = gain[c + 1] - gain[c]
            if step:
                step *= sign * w
                for k in self.approved[g]:
                    value[k] += step
        self.sw += sign * self.static[j]
        self.rp += sign * covered
        self.score += sign * score

    def _bound(self, idx: int, residual: int, cut: int) -> int:
        """Floor of the fractional-knapsack bound over projects idx.. .

        For rp and pav the bound is also capped per group, unless the
        knapsack bound alone is already below `cut`.
        """
        costs, value = self.costs, self.value
        if self.objective == "sw":
            # values are static, and the project order is by static density
            bound, r = self.score, residual
            for j in range(idx, self.m):
                c = costs[j]
                if c > residual:
                    continue
                if c > r:
                    return bound + value[j] * r // c
                bound += value[j]
                r -= c
            return bound
        items = sorted(((value[j] * self.density_scale[j], value[j], costs[j])
                        for j in range(idx, self.m)
                        if costs[j] <= residual and value[j]), reverse=True)
        bound, r = self.score, residual
        for _, v, c in items:
            if c > r:
                bound += v * r // c
                break
            bound += v
            r -= c
        if bound < cut:
            return bound
        # per-group cap (see the module docstring): the harmonic cap for
        # pav, the union bound for rp
        avail: dict[int, int] = {}
        for j in range(idx, self.m):
            if costs[j] <= residual:
                for g in self.approvers[j]:
                    avail[g] = avail.get(g, 0) + 1
        harm, counts, weights = self.harm, self.counts, self.weights
        return min(bound, self.score + sum(
            weights[g] * (harm[counts[g] + a] - harm[counts[g]])
            for g, a in avail.items()))

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
        seen = 0

        def leaf(residual):
            nonlocal incumbent, best, seen
            if self.score > incumbent:
                incumbent, best, seen = self.score, None, 0
                if rng is not None:
                    rng.seed(policy.seed)
            if self.score < incumbent or not self._is_maximal(residual):
                return
            ids = tuple(sorted(self.ids[j] for j in range(self.m)
                               if self.chosen[j]))
            if rng is not None:
                seen += 1
                if rng.randrange(seen) == 0:
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
            leaf(residual)
            return
        c = cut()
        if self._bound(idx, residual, c) < c:
            return
        prev = self.prev_in_class[idx]
        if prev is None or self.chosen[prev]:
            self._move(idx, 1)
            self._dfs(idx + 1, residual - self.costs[idx], leaf, cut)
            self._move(idx, -1)
        self._dfs(idx + 1, residual, leaf, cut)


def _solve(objective: str, instance: PBInstance, profile: ApprovalProfile,
           tiebreak: TieBreakPolicy, search_budget: SearchBudget) -> frozenset:
    return _Search(instance, profile, objective, search_budget).select(tiebreak)


def solve_av(instance: PBInstance, profile: ApprovalProfile,
             tiebreak: TieBreakPolicy = TieBreakPolicy.lex(),
             search_budget: SearchBudget = SearchBudget()) -> frozenset:
    """A feasible bundle with globally maximal social welfare."""
    return _solve("sw", instance, profile, tiebreak, search_budget)


def solve_cc(instance: PBInstance, profile: ApprovalProfile,
             tiebreak: TieBreakPolicy = TieBreakPolicy.lex(),
             search_budget: SearchBudget = SearchBudget()) -> frozenset:
    """A feasible bundle with globally maximal representation."""
    return _solve("rp", instance, profile, tiebreak, search_budget)


def solve_pav(instance: PBInstance, profile: ApprovalProfile,
              tiebreak: TieBreakPolicy = TieBreakPolicy.lex(),
              search_budget: SearchBudget = SearchBudget()) -> frozenset:
    """A feasible bundle with globally maximal harmonic (PAV) score."""
    return _solve("pav", instance, profile, tiebreak, search_budget)


def optimum_value(objective: str, instance: PBInstance, profile: ApprovalProfile,
                  search_budget: SearchBudget = SearchBudget()):
    """Optimal objective value only, without searching the tie set.

    sw and rp are ints; pav is an exact Fraction.
    """
    search = _Search(instance, profile, objective, search_budget)
    value = search.optimum()
    return Fraction(value, search.scale) if objective == "pav" else value
