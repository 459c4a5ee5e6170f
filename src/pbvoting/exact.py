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
The tie-break policy then selects a single bundle from that set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import ApprovalProfile, PBInstance, group_ballots

TIE_CAP = 10_000  # incumbent-equal bundles kept before tie-breaking

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


class _Stop(Exception):
    pass


class _Search:
    """One branch-and-bound context; the node budget spans all phases."""

    def __init__(self, instance: PBInstance, profile: ApprovalProfile,
                 objective: str, search_budget: SearchBudget):
        assert objective in ("sw", "rp", "pav")
        profile.validate(instance)
        self.objective = objective
        self.instance = instance
        self.profile = profile
        self.max_nodes = search_budget.max_nodes
        self.nodes = 0

        ballots, weights = group_ballots(profile)
        self.weights = weights
        static_val = {p.id: 0 for p in instance.projects}
        for ballot, w in zip(ballots, weights):
            for pid in ballot:
                static_val[pid] += w

        # fixed order: static approval density desc, then cost asc, then id
        def density(p):
            return Fraction(static_val[p.id], 1) / p.cost

        projects = sorted(instance.projects,
                          key=lambda p: (-density(p), p.cost, p.id))
        self.ids = [p.id for p in projects]
        self.costs = [p.cost for p in projects]
        self.m = len(projects)
        idx_of = {pid: j for j, pid in enumerate(self.ids)}
        self.approvers: list[list[int]] = [[] for _ in range(self.m)]
        for g, ballot in enumerate(ballots):
            for pid in ballot:
                self.approvers[idx_of[pid]].append(g)
        self.static_val = [static_val[pid] for pid in self.ids]

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

        # mutable search state
        self.counts = [0] * len(ballots)
        self.chosen = [False] * self.m
        self.sw = 0
        self.rp = 0
        self.pav = Fraction(0)
        self._harm = [Fraction(0)]  # memoized harmonic numbers

    def _H(self, k: int) -> Fraction:
        while len(self._harm) <= k:
            self._harm.append(self._harm[-1] + Fraction(1, len(self._harm)))
        return self._harm[k]

    # -- state -------------------------------------------------------------

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise SearchBudgetExceeded(
                f"exceeded search budget of {self.max_nodes} nodes")

    def _apply(self, j: int):
        self.chosen[j] = True
        for g in self.approvers[j]:
            self.counts[g] += 1
            w = self.weights[g]
            self.sw += w
            if self.counts[g] == 1:
                self.rp += w
            if self.objective == "pav":
                self.pav += Fraction(w, self.counts[g])

    def _undo(self, j: int):
        self.chosen[j] = False
        for g in self.approvers[j]:
            w = self.weights[g]
            if self.objective == "pav":
                self.pav -= Fraction(w, self.counts[g])
            if self.counts[g] == 1:
                self.rp -= w
            self.sw -= w
            self.counts[g] -= 1

    def _score(self):
        if self.objective == "sw":
            return self.sw
        if self.objective == "rp":
            return self.rp
        return self.pav

    def _optimistic(self, j: int):
        if self.objective == "sw":
            return self.static_val[j]
        if self.objective == "rp":
            return sum(self.weights[g] for g in self.approvers[j]
                       if self.counts[g] == 0)
        return sum((Fraction(self.weights[g], self.counts[g] + 1)
                    for g in self.approvers[j]), Fraction(0))

    def _bound(self, idx: int, residual: Fraction):
        score = self._score()
        items = []
        total = score
        pav = self.objective == "pav"
        avail = [0] * len(self.weights) if pav else None
        for j in range(idx, self.m):
            if self.costs[j] > residual:
                continue
            v = self._optimistic(j)
            if v > 0:
                items.append((v, self.costs[j]))
                total += v
            if pav:
                for g in self.approvers[j]:
                    avail[g] += 1
        if pav:
            # per-group harmonic cap: a group gaining a more approved projects
            # gains at most w*(H(c+a) - H(c)); tighter than the per-item sum
            # because later projects contribute diminishing increments
            quick = score + sum(
                (self.weights[g]
                 * (self._H(self.counts[g] + a) - self._H(self.counts[g]))
                 for g, a in enumerate(avail) if a), Fraction(0))
        else:
            quick = total  # budget-free relaxation, cheap to test first
        if self._quick_prunes(quick):
            return quick
        items.sort(key=lambda vc: vc[0] / vc[1], reverse=True)
        bound = score
        r = residual
        for v, c in items:
            if c <= r:
                bound += v
                r -= c
            else:
                bound += v * (r / c)
                break
        return min(bound, quick) if pav else bound

    def _is_maximal(self, residual: Fraction) -> bool:
        for j in range(self.m):
            if not self.chosen[j] and self.costs[j] <= residual:
                return False
        return True

    # -- phases ------------------------------------------------------------

    def optimum(self):
        """Best attainable objective value (first phase, aggressive pruning)."""
        self._best = self._score()
        self._quick_prunes = lambda b: b <= self._best

        def leaf(residual):
            s = self._score()
            if s > self._best:
                self._best = s

        def prune(bound):
            return bound <= self._best

        self._dfs(0, self.instance.budget, prune, leaf)
        return self._best

    def collect(self, opt, cap: int = TIE_CAP) -> list[frozenset]:
        """All maximal optimal bundles, up to `cap`."""
        found: list[frozenset] = []
        self._quick_prunes = lambda b: b < opt

        def leaf(residual):
            if self._score() == opt and self._is_maximal(residual):
                found.append(frozenset(self.ids[j] for j in range(self.m)
                                       if self.chosen[j]))
                if len(found) >= cap:
                    raise _Stop

        def prune(bound):
            return bound < opt

        try:
            self._dfs(0, self.instance.budget, prune, leaf)
        except _Stop:
            pass
        return found

    def collect_min_secondary(self, opt, secondary: str,
                              cap: int = TIE_CAP) -> list[frozenset]:
        """Maximal optimal bundles minimizing a secondary score (sw or rp).

        Secondary scores are monotone under adding projects, so a branch whose
        partial secondary already exceeds the best known can be cut.
        """
        assert secondary in ("sw", "rp")
        found: list[frozenset] = []
        best_sec: list[Optional[int]] = [None]

        def sec():
            return self.sw if secondary == "sw" else self.rp

        self._quick_prunes = lambda b: b < opt

        def leaf(residual):
            if self._score() != opt or not self._is_maximal(residual):
                return
            s = sec()
            if best_sec[0] is None or s < best_sec[0]:
                best_sec[0] = s
                found.clear()
            if s == best_sec[0] and len(found) < cap:
                found.append(frozenset(self.ids[j] for j in range(self.m)
                                       if self.chosen[j]))

        def prune(bound):
            if bound < opt:
                return True
            return best_sec[0] is not None and sec() > best_sec[0]

        self._dfs(0, self.instance.budget, prune, leaf)
        return found

    def _dfs(self, idx: int, residual: Fraction,
             prune: Callable, leaf: Callable):
        self._tick()
        while idx < self.m and self.costs[idx] > residual:
            idx += 1  # forced exclusion: project no longer affordable
        if idx == self.m:
            leaf(residual)
            return
        if prune(self._bound(idx, residual)):
            return
        prev = self.prev_in_class[idx]
        if prev is None or self.chosen[prev]:
            self._apply(idx)
            self._dfs(idx + 1, residual - self.costs[idx], prune, leaf)
            self._undo(idx)
        self._dfs(idx + 1, residual, prune, leaf)


def _pick(optima: list[frozenset], policy: TieBreakPolicy,
          instance: PBInstance, profile: ApprovalProfile) -> frozenset:
    canon = sorted(optima, key=lambda b: tuple(sorted(b)))
    if policy.variant == "lex-by-id":
        return canon[0]
    if policy.variant == "cheapest-first":
        return min(canon, key=lambda b: (instance.cost_of(b), tuple(sorted(b))))
    if policy.variant == "random":
        return canon[random.Random(policy.seed).randrange(len(canon))]
    from .core import representation, social_welfare
    if policy.variant == "worst-sw":
        return min(canon, key=lambda b: (social_welfare(profile, b),
                                         tuple(sorted(b))))
    return min(canon, key=lambda b: (representation(profile, b),
                                     tuple(sorted(b))))


def _solve(objective: str, instance: PBInstance, profile: ApprovalProfile,
           tiebreak: TieBreakPolicy, search_budget: SearchBudget) -> frozenset:
    search = _Search(instance, profile, objective, search_budget)
    opt = search.optimum()
    if tiebreak.variant in ("worst-sw", "worst-rp"):
        secondary = "sw" if tiebreak.variant == "worst-sw" else "rp"
        optima = search.collect_min_secondary(opt, secondary)
    else:
        optima = search.collect(opt)
    return _pick(optima, tiebreak, instance, profile)


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
    """Optimal objective value only, without materializing the tie set."""
    return _Search(instance, profile, objective, search_budget).optimum()
