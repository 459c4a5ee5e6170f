"""Exact optimizers for the welfare, coverage and harmonic-score rules.

All three rules are solved by the same depth-first branch-and-bound over
include/exclude decisions in a fixed project order, with one admissible
bound on the residual budget, the piece knapsack.  The search reads the
compiled election (`core.compile_election`): voter sets are bitsets, and
twin projects are taken in one order, which makes block-structured
instances (all voters of a district voting alike) cheap to solve.

The fixed order differs by objective.  sw and pav branch by descending
approval density (approvers per unit cost), as their bound walks the
order's suffix.  rp's bound re-sorts its walk at every node, so rp is free
to branch on reach instead: most approvers first, then the costlier, then
by id, deciding first the projects that constrain the rest most (Haralick &
Elliott, Artificial Intelligence 14, 1980).  On the desk corpus that visits
about a quarter fewer nodes.  Twins tie on approvers and cost in either
order, so each twin class is still taken lowest id first.

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
L = lcm(1..K), where K is the longest ballot.
`optimum_value("pav")` divides by L again, so values and bundles at the API
are the exact ones.

Each objective is a gain vector, gain[k] being what one more funded
approval adds to a voter with k: all 1 for sw, 1 then 0 for rp, and
L // (k+1) for pav.  The bound of a node is its score plus the fractional
knapsack of *pieces*, floored once.  Walk the live projects (undecided,
still affordable) by ascending share c_j / v_j, v_j counting j's approvers
who can still gain: every approver for sw and pav, so that the walk is the
fixed order, and the uncovered ones for rp, which re-sorts at each node.
Walking j lifts its approvers one level in a copy of the funded levels;
those it finds at level k are one piece, worth gain[k] and costing c_j / v_j
each.  The fill takes the pieces by density gain[k] * v_j / c_j.

The bound is admissible.  Charge each project's cost to its v_j approvers
in equal shares.  For any l >= 0, a completion S that fits in the residual
scores at most score + l * residual + the sum, over each voter and each
project of S that they approve, of (gain - l * share).  Pair the t-th gain
that S brings a voter with the t-th smallest of those shares: it is at
least the share of the t-th live project that the voter meets in the walk,
whose piece holds the voter at the same level.  So S scores at most
score + l * residual + the sum over the pieces of max(0, value - l * cost),
the Lagrangian relaxation of the budget (Fisher, Management Science 1981),
whose least value over l is the fractional knapsack of the pieces, by LP
duality (Dantzig, Operations Research 1957).  At l = 0 it sums each voter's
gains over their live approvals, so the bound never exceeds that.  With
gains all 1 it is the plain knapsack over approval counts, and with 1, 0 it
counts each uncovered voter once, for the first walked project reaching it.

The fill is exact.  Densities gain[k] * v_j * (lcm(costs) / c_j) are
integers; a rounded order could take a worse piece first and make the bound
inadmissible.  Money is in units of 1 / denom, multiplied by v_j where a
piece holds only some of j's approvers, so that its cost is whole, and the
partly taken piece adds value * r // cost.  Every objective is an integer,
so the floor still bounds every completion.  As gains never rise, no piece
of a later project is denser than the walked one's at level 0: the fill
takes pieces as the walk makes them, only pav's deeper ones wait in a heap,
and the walk stops where the money runs out.

`optimum_value` prunes a branch when floor(bound) <= best, which cuts more
than the unfloored test.  A `solve_*` call makes one pass that finds the
optimum and picks among its ties together.  It prunes a branch only when
floor(bound) < incumbent, the best leaf score so far, which for an integer
incumbent holds exactly when bound < incumbent.  The incumbent never exceeds
the optimum and the bound is admissible, so every maximal optimum is
visited, in the same depth-first order as by a search that knew the optimum
and pruned at floor(bound) < opt.  That holds for any admissible bound, so
a tighter one changes the node counts and never a pick.  Maximal leaves that
tie the incumbent feed the policy's running pick, and a strictly better
leaf restarts it.  For random the restart re-seeds the generator, so the
reservoir draws run over the maximal optima alone, in that order and from
the policy's seed: the pick does not depend on the leaves seen before the
optimum.  The worst-sw/worst-rp cut on the secondary score fires only where
floor(bound) <= incumbent: a branch that may still beat the incumbent can
hold the optimum, whatever its secondary score.  The bound is at least the
score, so a node whose score reaches the cut is not bounded.

No search keeps state per voter group.  sw and rp keep the funded
approvals as one bitset, the voters with at least one, and pav as levels,
funded[k] holding the voters with at least k (`core.lift`), its score being
sum_k gain[k-1] * |funded[k]|.  The undo stack keeps them before each
funding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
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

    `knapsack_prunes` counts the branches whose bound fell below the cut.
    `optima` counts the maximal leaves of `select` that tie its final
    incumbent: the whole tie set, up to symmetry breaking, except where the
    worst-sw/worst-rp cut skips some.  `restarts` counts the leaves of
    `select` that beat its incumbent and so restarted the pick.  `optimum`
    looks for neither and leaves both 0.
    """
    nodes: int = 0
    knapsack_prunes: int = 0
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
        # fixed order (see the module docstring): sw and pav by static
        # approval density desc, then cost asc; rp by approvers desc, then
        # cost desc; then id
        reach = objective == "rp"
        order = sorted(range(len(static)), key=lambda k: (
            (-static[k], -election.costs[k]) if reach else
            (-static[k] * scale[k], election.costs[k]), election.ids[k]))
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

        # gain[k]: what one more funded approval adds to a voter with k (the
        # last entry: with k or more); pav in units of 1/L
        depth = max(election.longest, 1)
        self.gain = {"sw": [1], "rp": [1, 0],
                     "pav": harmonic_gains(depth)}[objective]
        self.scale = self.gain[0]
        self.everyone = (1 << election.n_voters) - 1
        # sw's and pav's walk, (density, j, v = static) in the fixed order,
        # which ends on the projects without approvers, and then a stop
        self.walk = [(v * k, j, v) for j, (v, k) in enumerate(zip(
            self.static, self.density_scale))] + [(0, None, 0)]

        # mutable search state
        self.chosen = [False] * self.m
        self.score = 0
        self.sw = 0
        self.rp = 0
        # the funded approvals: for sw and rp the voters with one, for pav
        # the levels, funded[k] holding the voters with at least k
        self.funded = ([self.everyone] + [0] * depth if objective == "pav"
                       else 0)
        self.saved: list = []  # `funded` before each funding

    # -- state -------------------------------------------------------------

    def _tick(self):
        self.stats.nodes += 1
        if self.stats.nodes > self.max_nodes:
            raise SearchBudgetExceeded(
                f"exceeded search budget of {self.max_nodes} nodes "
                f"in the {self.phase} phase of the {self.objective} search")

    def _fund(self, j: int, residual: int, sign: int) -> int:
        """Fund live project j out of `residual` (sign 1), or take it back
        (sign -1, with the same residual).  Returns residual - cost of j."""
        self.chosen[j] = sign > 0
        self.sw += sign * self.static[j]
        pav = self.objective == "pav"
        if sign > 0:
            self.saved.append(self.funded)
            self.funded = (lift(self.funded, self.masks[j]) if pav else
                           self.funded | self.masks[j])
        else:
            self.funded = self.saved.pop()
        self.rp = (self.funded[1] if pav else self.funded).bit_count()
        self.score = (sum(map(mul, self.gain, map(int.bit_count,
                                                  self.funded[1:])))
                      if pav else self.sw if self.objective == "sw" else
                      self.rp)
        return residual - self.costs[j]

    def _bound(self, idx: int, residual: int) -> int:
        """Floor of the piece knapsack over the live projects of node
        (idx, residual) (see the module docstring)."""
        costs, masks, gain, funded = (self.costs, self.masks, self.gain,
                                      self.funded)
        g0, lifts, deep = gain[0], len(gain) > 1, len(gain) > 2
        # free: the voters who can gain gain[0] and whom no walked project
        # reached; levels[k], k >= 2: those with k or more funded or walked
        if self.objective == "pav":
            free, levels = self.everyone ^ funded[1], funded[:]
        else:
            free = self.everyone ^ funded if lifts else self.everyone
        if self.objective == "rp":  # covered approvers change the order
            scale, walk = self.density_scale, []
            for j in range(idx, self.m):
                if costs[j] <= residual:
                    v = (masks[j] & free).bit_count()
                    if v:
                        walk.append((v * scale[j], j, v))
            walk.sort(reverse=True)
            walk.append((0, None, 0))
        else:
            walk = self.walk[idx:]
        bound, r, denom = self.score, residual, 1  # money in units of 1/denom
        pending: list[tuple] = []  # pieces above level 0, densest first
        for density, j, v in walk:
            # no later piece is denser than j's first, g0 * density
            while pending and -pending[0][0] >= g0 * density:
                _, value, c, count, w = heappop(pending)
                if count < w:
                    denom, r = denom * w, r * w
                money = c * count * denom // w
                if money > r:
                    return bound + value * r // money
                bound += value
                r -= money
            if not v:  # the walk's end
                return bound
            c = costs[j]
            if c > residual:
                continue
            # j's approvers at walk level k form a piece, worth gain[k] and
            # costing j's share c / v each
            if lifts:
                m = masks[j] & free
                free ^= m
                count = m.bit_count()
                if 0 < count < v:
                    denom, r = denom * v, r * v
                money = c * count * denom // v
            else:
                count, money = v, c * denom
            if money > r:
                return bound + g0 * count * r // money
            bound += g0 * count
            r -= money
            if deep:
                up, k = masks[j] ^ m, 1
                while up:
                    m = up
                    up = m & levels[k + 1]
                    levels[k + 1] |= m
                    if m != up:
                        count = (m ^ up).bit_count()
                        heappush(pending, (-gain[k] * density,
                                           gain[k] * count, c, count, v))
                    k += 1
        return bound

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
        sampling, uniform over the canonical tie set (twins taken lowest id
        first), in the search's visiting order.
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
        # the bound is at least the score, so it can prune only below c
        if self.score < c and self._bound(idx, residual) < c:
            self.stats.knapsack_prunes += 1
            return
        prev = self.prev_in_class[idx]
        if prev is None or self.chosen[prev]:
            rest = self._fund(idx, residual, 1)
            self._dfs(idx + 1, rest, leaf, cut)
            self._fund(idx, residual, -1)
        self._dfs(idx + 1, residual, leaf, cut)


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
