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
approve it.  The grouping is exact: voters with identical ballots are
charged identically in every round, so their budgets stay identical, and a
group of w voters with budget b each pays w times a voter's charge.

RX, RX-eps and RX-PAV begin with the same approval phase, so it runs once
per compiled election and is memoized next to it, two elections deep: the
funded projects in funding order, the threshold q each was paid at, and the
final group budgets.  `rule_x_eps` starts its exhaustion phase from those
budgets.  An `EqualSharesTrace` is rebuilt from the memo by charging
min(b_g, q) to each approver group of each funded project, in funding order,
which repeats the phase's charges exactly; per-voter records are expanded
from the groups through the election's voter-to-group map.

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

import functools
import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import ApprovalProfile, Election, PBInstance, compile_election
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


class NoVotersError(ValueError):
    """Equal shares divides the budget among the voters, and there are none."""


class _Phase(NamedTuple):
    """The outcome of the approval phase of equal shares on one election."""

    funded: tuple[int, ...]        # project numbers, in funding order
    q: tuple[Fraction, ...]        # the threshold each of them was paid at
    budgets: tuple[Fraction, ...]  # each group's per-voter budget after it


class _Groups:
    """Ballot groups with one shared per-voter budget each.

    Budgets start at an equal share of the budget unless `budgets` gives
    them.
    """

    def __init__(self, election: Election,
                 budgets: Optional[Sequence[Fraction]] = None):
        n = len(election.group_of)
        if n == 0:
            raise NoVotersError("equal shares needs at least one voter")
        self.election = election
        self.weights = election.weights
        self.costs = [Fraction(c, election.unit) for c in election.costs]
        self.budgets = (list(budgets) if budgets is not None else
                        [Fraction(election.budget, election.unit * n)]
                        * len(self.weights))
        self.money = [b * w for b, w in zip(self.budgets, self.weights)]

    def _q(self, k: int, members) -> Optional[Fraction]:
        budgets, money, weights = self.budgets, self.money, self.weights
        return _threshold(self.costs[k], [
            (budgets[g], money[g], weights[g]) for g in members if budgets[g]])

    def fund(self) -> _Phase:
        """Repeatedly fund the project with minimal finite q.

        Only a project's approver groups pay for it.  Ties on q go to the
        cheaper project, then to the lexicographically smaller id.  Group
        budgets are charged in place, and the phase's outcome is returned.
        """
        e = self.election
        heap = []
        for k, members in enumerate(e.approvers):
            q = self._q(k, members)
            if q is not None:
                heap.append((q, e.costs[k], e.ids[k], k, 0))
        heapq.heapify(heap)
        funded: list[int] = []
        paid: list[Fraction] = []
        while heap:
            q, c, pid, k, stamp = heapq.heappop(heap)
            if stamp != len(funded):
                # evaluated before the last funding, so only a lower bound;
                # a project that became unaffordable stays so and is dropped
                q = self._q(k, e.approvers[k])
                if q is not None:
                    heapq.heappush(heap, (q, c, pid, k, len(funded)))
                continue
            self._charge(k, e.approvers[k], q, None)
            funded.append(k)
            paid.append(q)
        return _Phase(tuple(funded), tuple(paid), tuple(self.budgets))

    def replay(self, phase: _Phase, trace: EqualSharesTrace):
        """Charge the approval phase again, recording it in `trace`.

        Charging min(b_g, q) to each approver group of each funded project,
        in funding order, repeats the charges of `fund` exactly.
        """
        for k, q in zip(phase.funded, phase.q):
            self._charge(k, self.election.approvers[k], q, trace)
        trace.final_budgets = self._per_voter(self.budgets)

    def exhaust(self, candidates, trace: Optional[EqualSharesTrace]
                ) -> list[int]:
        """`fund` with every group paying for every candidate.

        All candidates then share one set of groups, and q rises strictly
        with cost, so the (q, cost, id) order is the (cost, id) order.  A
        candidate is affordable while the voters' money covers its cost, and
        one that does not fit stays unaffordable, since money only falls.
        Only the funded candidates need their q, one breakpoint sort each.
        """
        e = self.election
        everyone = range(len(self.weights))
        funded: list[int] = []
        for k in sorted(candidates, key=lambda k: (e.costs[k], e.ids[k])):
            if self.costs[k] > sum(self.money):
                break
            self._charge(k, everyone, self._q(k, everyone), trace)
            funded.append(k)
        if trace is not None:
            trace.final_budgets = self._per_voter(self.budgets)
        return funded

    def _charge(self, k: int, members, q: Fraction,
                trace: Optional[EqualSharesTrace]):
        paid = {}
        for g in members:
            charge = min(self.budgets[g], q)
            if charge:
                self.budgets[g] -= charge
                self.money[g] = self.budgets[g] * self.weights[g]
                paid[g] = charge
        if trace is not None:
            pid = self.election.ids[k]
            trace.funded.append(pid)
            trace.charges[pid] = self._per_voter(
                [paid.get(g, Fraction(0)) for g in range(len(self.weights))])

    def _per_voter(self, values: Sequence) -> list:
        return [values[g] for g in self.election.group_of]


@functools.lru_cache(maxsize=2)
def _approval_phase(election: Election) -> _Phase:
    """The approval phase of `election`, run once for RX, RX-eps and RX-PAV.

    Two elections are kept, as in `core._compile`.
    """
    return _Groups(election).fund()


def _equal_shares(instance: PBInstance, profile: ApprovalProfile,
                  trace: Optional[EqualSharesTrace]
                  ) -> tuple[Election, _Phase]:
    election = compile_election(instance, profile)
    phase = _approval_phase(election)
    if trace is not None:
        _Groups(election).replay(phase, trace)
    return election, phase


def rule_x(instance: PBInstance, profile: ApprovalProfile,
           trace: Optional[EqualSharesTrace] = None) -> frozenset:
    """Equal-shares rule for approval utilities.

    Every voter starts with an equal share of the budget; projects are funded
    in order of their minimal payment rate q, each approver paying
    min(remaining budget, q) until no project remains affordable.
    """
    election, phase = _equal_shares(instance, profile, trace)
    return frozenset(election.ids[k] for k in phase.funded)


def rule_x_eps(instance: PBInstance, profile: ApprovalProfile, *,
               trace: Optional[EqualSharesTrace] = None) -> frozenset:
    """Equal shares followed by budget exhaustion, in the epsilon->0 limit.

    After the approval phase, leftover money funds further projects at a
    uniform per-voter threshold r, picking the project with minimal r and
    charging min(b_i, r) to everyone.  This is not one equal-shares pass with
    a fixed small utility for non-approvers: there approvers spend their
    whole budgets first, and the funded set can differ at every epsilon.
    """
    election, phase = _equal_shares(instance, profile, trace)
    funded = set(phase.funded)
    rest = [k for k in range(len(election.ids)) if k not in funded]
    more = _Groups(election, phase.budgets).exhaust(rest, trace)
    return frozenset(election.ids[k] for k in (*phase.funded, *more))


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
