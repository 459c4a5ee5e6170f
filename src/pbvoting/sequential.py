"""Polynomial-time sequential rules.

Contains the greedy harmonic-score heuristic (`seq_pav`), the equal-shares
rule (`rule_x`) built on a per-project payment-threshold computation
(`q_value`), and two budget-exhausting completions: a phase that charges
every voter alike, the epsilon->0 limit of RX-eps (`rule_x_eps`), and an
exact harmonic-score run on the residual budget (`rule_x_pav`).  Equal
shares here has approval utilities only: 1 for an approved project, 0
otherwise.

The rules run over the weighted ballot groups of the compiled election
(`core.compile_election`), and each project only looks at the groups that
approve it.  The grouping is exact:
voters with identical ballots are charged identically in every round, so
their budgets stay identical, and a group of w voters with budget b each pays
w times a voter's charge.  Per-voter payment records in an `EqualSharesTrace`
are expanded from the groups, through the election's voter-to-group map, only
when a trace is asked for.

The payment threshold q of a project is the least q with
sum_g w_g * min(b_g, q) >= cost over its approver groups.  It is found with
one scan over the groups sorted by the breakpoint b_g (b_g / u_g for the
general utilities of `q_value`): a group whose breakpoint lies
below the rate that the still-uncapped groups would need pays its whole
budget and drops out; the first group that does not drop out fixes q, since
every later group has a breakpoint at least as large and is not capped at q
either.  `seq_pav` sums a project's harmonic gain w_g / (k_g + 1) over its
approver groups, adding up the weights of groups with equal k_g first.

The equal-shares loop evaluates projects lazily.  Budgets only fall, so a
project's payment threshold only rises (or the project becomes unaffordable
for good), and the (q, cost, id) key it had when last evaluated is a lower
bound on its current key.  Keys sit in a heap; the top key is evaluated
afresh, and a project is funded once its fresh key is still the smallest
stored key.  This funds exactly the project with minimal q, then the cheaper
one, then the smaller id, as a full scan of all projects would.  In the
exhaustion phase of `rule_x_eps` every voter pays alike for every project,
so that order is simply (cost, id) and only funded projects need a
breakpoint scan.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .core import ApprovalProfile, PBInstance, compile_election
from .exact import SearchBudget, TieBreakPolicy, solve_pav


def _exact_order(group):
    # float() of a Fraction is correctly rounded, hence monotone: it orders
    # distinct floats exactly, and equal floats fall back to the Fraction
    return float(group[0]), group[0]


def _threshold(cost: Fraction, groups) -> Optional[Fraction]:
    """Least q with sum(min(money, weight_util * q)) >= cost, else None.

    `groups` holds (breakpoint b/u, money w*b, utility w*u) triples with a
    positive utility.  If every group is capped, their money falls short.
    """
    util = sum(g[2] for g in groups)
    leftover = Fraction(cost)
    for breakpoint, money, weight_util in sorted(groups, key=_exact_order):
        if leftover <= breakpoint * util:
            return leftover / util
        leftover -= money
        util -= weight_util
    return None


def q_value(cost: Fraction, budgets: Sequence[Fraction],
            utilities: Sequence[Fraction | int]) -> Optional[Fraction]:
    """Minimal uniform payment rate q at which a project is affordable.

    A project is affordable at rate q when sum_i min(b_i, u_i * q) covers its
    cost.  Returns None when even the full remaining money of the interested
    voters cannot cover the cost.  Each voter is a group of weight 1 in the
    breakpoint scan that the equal-shares loop runs.
    """
    if cost <= 0:
        raise ValueError("cost must be positive")
    if len(budgets) != len(utilities):
        raise ValueError("budgets and utilities must align")
    return _threshold(cost, [(Fraction(b) / u, b, u)
                             for b, u in zip(budgets, utilities) if u > 0])


@dataclass
class EqualSharesTrace:
    """Audit record of one equal-shares run."""

    funded: list[str] = field(default_factory=list)
    charges: dict[str, list[Fraction]] = field(default_factory=dict)
    final_budgets: list[Fraction] = field(default_factory=list)


class _Groups:
    """Ballot groups with one shared per-voter budget each."""

    def __init__(self, instance: PBInstance, profile: ApprovalProfile):
        self.election = compile_election(instance, profile)
        n = profile.n_voters
        if n == 0:
            raise ValueError("equal shares needs at least one voter")
        self.instance = instance
        self.weights = self.election.weights
        self.budgets = [instance.budget / n] * len(self.weights)
        self.money = [b * w for b, w in zip(self.budgets, self.weights)]

    def _q(self, pid: str, members) -> Optional[Fraction]:
        budgets, money, weights = self.budgets, self.money, self.weights
        return _threshold(self.instance.cost(pid), [
            (budgets[g], money[g], weights[g]) for g in members if budgets[g]])

    def fund(self, trace: Optional[EqualSharesTrace]) -> list[str]:
        """Repeatedly fund the project with minimal finite q.

        Only a project's approver groups pay for it.  Ties on q go to the
        cheaper project, then to the lexicographically smaller id.  Group
        budgets are charged in place.
        """
        approvers = self.election.approvers
        heap = []
        for k, p in enumerate(self.instance.projects):
            q = self._q(p.id, approvers[k])
            if q is not None:
                heap.append((q, p.cost, p.id, k, 0))
        heapq.heapify(heap)
        funded: list[str] = []
        while heap:
            q, c, pid, k, stamp = heapq.heappop(heap)
            if stamp != len(funded):
                # evaluated before the last funding, so only a lower bound;
                # a project that became unaffordable stays so and is dropped
                q = self._q(pid, approvers[k])
                if q is not None:
                    heapq.heappush(heap, (q, c, pid, k, len(funded)))
                continue
            self._charge(pid, approvers[k], q, trace)
            funded.append(pid)
        if trace is not None:
            trace.final_budgets = self._per_voter(self.budgets)
        return funded

    def exhaust(self, candidates, trace: Optional[EqualSharesTrace]
                ) -> list[str]:
        """`fund` with every group paying for every candidate.

        All candidates then share one set of groups, and q rises strictly
        with cost, so the (q, cost, id) order is the (cost, id) order.  A
        candidate is affordable while the voters' money covers its cost, and
        one that does not fit stays unaffordable, since money only falls.
        Only the funded candidates need their q, one breakpoint sort each.
        """
        everyone = range(len(self.weights))
        funded: list[str] = []
        for pid in sorted(candidates, key=lambda p: (self.instance.cost(p), p)):
            if self.instance.cost(pid) > sum(self.money):
                break
            self._charge(pid, everyone, self._q(pid, everyone), trace)
            funded.append(pid)
        if trace is not None:
            trace.final_budgets = self._per_voter(self.budgets)
        return funded

    def _charge(self, pid: str, members, q: Fraction,
                trace: Optional[EqualSharesTrace]):
        paid = {}
        for g in members:
            charge = min(self.budgets[g], q)
            if charge:
                self.budgets[g] -= charge
                self.money[g] = self.budgets[g] * self.weights[g]
                paid[g] = charge
        if trace is not None:
            trace.funded.append(pid)
            trace.charges[pid] = self._per_voter(
                [paid.get(g, Fraction(0)) for g in range(len(self.weights))])

    def _per_voter(self, values: list) -> list:
        return [values[g] for g in self.election.group_of]


def rule_x(instance: PBInstance, profile: ApprovalProfile,
           trace: Optional[EqualSharesTrace] = None) -> frozenset:
    """Equal-shares rule for approval utilities.

    Every voter starts with an equal share of the budget; projects are funded
    in order of their minimal payment rate q, each approver paying
    min(remaining budget, q) until no project remains affordable.
    """
    return frozenset(_Groups(instance, profile).fund(trace))


def rule_x_eps(instance: PBInstance, profile: ApprovalProfile, *,
               trace: Optional[EqualSharesTrace] = None) -> frozenset:
    """Equal shares followed by budget exhaustion, in the epsilon->0 limit.

    After the approval phase, leftover money funds further projects at a
    uniform per-voter threshold r, picking the project with minimal r and
    charging min(b_i, r) to everyone.  This is not one equal-shares pass with
    a fixed small utility for non-approvers: there approvers spend their
    whole budgets first, and the funded set can differ at every epsilon.
    """
    groups = _Groups(instance, profile)
    funded = groups.fund(trace)
    rest = [pid for pid in instance.project_ids if pid not in funded]
    return frozenset(funded) | frozenset(groups.exhaust(rest, trace))


def rule_x_pav(instance: PBInstance, profile: ApprovalProfile,
               tiebreak: TieBreakPolicy = TieBreakPolicy.lex(),
               search_budget: SearchBudget = SearchBudget()) -> frozenset:
    """Equal shares, then the exact harmonic-score rule on what's left.

    The second stage optimizes over the unfunded projects with the residual
    budget; the result is the union of both stages.
    """
    first = rule_x(instance, profile)
    residual = instance.budget - instance.cost_of(first)
    rest = [p for p in instance.projects if p.id not in first]
    if not rest or residual < min(p.cost for p in rest):
        return first
    sub = PBInstance(projects=tuple(rest), budget=residual)
    sub_profile = ApprovalProfile(tuple(b - first for b in profile.ballots))
    return first | solve_pav(sub, sub_profile, tiebreak, search_budget)


def seq_pav(instance: PBInstance, profile: ApprovalProfile,
            tiebreak: TieBreakPolicy = TieBreakPolicy.cheapest()) -> frozenset:
    """Greedy harmonic-score rule.

    Repeatedly adds the affordable project with the largest harmonic-score
    increment; stops when nothing fits.  Increment ties are resolved by the
    given policy (default: cheaper cost, then lexicographic id).
    """
    election = compile_election(instance, profile)
    rng = (random.Random(tiebreak.seed)
           if tiebreak.variant == "random" else None)
    weights = election.weights
    counts = [0] * len(weights)  # funded approved projects per group
    chosen: set[str] = set()
    spent = Fraction(0)
    while True:
        residual = instance.budget - spent
        best_gain = None
        candidates = []
        for p, approvers in zip(instance.projects, election.approvers):
            if p.id in chosen or p.cost > residual:
                continue
            # voters with k funded approvals gain 1/(k+1) each
            weight_at: dict[int, int] = {}
            for g in approvers:
                weight_at[counts[g]] = weight_at.get(counts[g], 0) + weights[g]
            gain = sum((Fraction(w, k + 1) for k, w in weight_at.items()),
                       Fraction(0))
            if best_gain is None or gain > best_gain:
                best_gain = gain
                candidates = [p]
            elif gain == best_gain:
                candidates.append(p)
        if best_gain is None:
            return frozenset(chosen)
        pick = _pick_step(candidates, tiebreak, rng)
        chosen.add(pick.id)
        spent += pick.cost
        for g in election.approvers[instance.projects.index(pick)]:
            counts[g] += 1


def _pick_step(candidates, tiebreak: TieBreakPolicy, rng):
    if tiebreak.variant == "cheapest-first":
        return min(candidates, key=lambda p: (p.cost, p.id))
    if tiebreak.variant == "lex-by-id":
        return min(candidates, key=lambda p: p.id)
    if tiebreak.variant == "random":
        ordered = sorted(candidates, key=lambda p: p.id)
        return ordered[rng.randrange(len(ordered))]
    raise ValueError(
        f"tie-break {tiebreak.variant!r} is not defined for greedy selection")
