"""Polynomial-time sequential rules.

Contains the greedy harmonic-score heuristic (`seq_pav`), the equal-shares
rule (`rule_x`) built on a per-project payment-threshold computation
(`q_value`), and two budget-exhausting completions: a phase that charges
every voter alike, the epsilon->0 limit of RX-eps (`rule_x_eps`), and an
exact harmonic-score run on the residual budget (`rule_x_pav`).  Equal
shares here has approval utilities only: 1 for an approved project, 0
otherwise.

Equal shares runs over the weighted ballot groups of the compiled election
(`core.compile_election`), and each project only looks at the groups that
approve it.  The grouping is exact: voters with identical ballots are
charged identically in every round, so their budgets stay identical, and a
group of w voters with budget b each pays w times a voter's charge.

RX, RX-eps and RX-PAV begin with the same approval phase, so it runs once
per compiled election and is memoized next to it, one election deep: the
funded projects in funding order and the threshold q each was paid at, a
`Fraction` in the instance's money.  An `EqualSharesTrace` is rebuilt from
the memo in `Fraction`s by charging min(b_g, q) to each approver group of
each funded project, in funding order, which repeats the phase's charges
exactly; per-voter records are expanded from the groups through the
election's voter-to-group map.

The exhaustion phase of `rule_x_eps` needs no budgets.  There every voter
pays for every project, and a funded project is paid for exactly, since
sum_g w_g * min(b_g, r) = cost at its threshold r; the voters' total money
is therefore the budget minus the cost of everything funded so far.  Every
project then shares one set of payers, so r rises strictly with cost and
the (r, cost, id) order is the (cost, id) order, and a project is
affordable exactly while its cost fits in that total.  The phase funds the
longest prefix of the unfunded projects in (cost, id) order whose costs fit
in the money the approval phase left, in the election's integer units, and
stops at the first that does not fit: every later project costs at least as
much, and money only falls.  Group budgets and thresholds are computed only
for a trace.

The payment threshold q of a project is the least q with
sum_g w_g * min(b_g, q) >= cost over its approver groups.  It is found with
one scan over the groups sorted by the breakpoint b_g (b_g / u_g for the
general utilities of `q_value`): a group whose breakpoint lies
below the rate that the still-uncapped groups would need pays its whole
budget and drops out; the first group that does not drop out fixes q, since
every later group has a breakpoint at least as large and is not capped at q
either.

The approval phase runs that scan on integers.  Every group's per-voter
money is b_g = B_g / D in the election's money units (`core.Election`), an
integer B_g over one common denominator D.  At the start D = n, the number
of voters, and every B_g is the election's integer budget, so each voter
holds budget / n.  A project of cost c starts the scan with left = c * D
and U, the number of its approving voters whose money is not spent; a group
drops out while left > B_g * U, which subtracts w_g * B_g from left and w_g
from U, and the first group that stays fixes the threshold (N, U), N the
left at that point: q = N / (U * D), with no division in the scan.  Funding
at (N, U) puts every group's money over D * U: each B_g is multiplied by U,
each approver group pays N out of it (what it has, if less), and D becomes
D * U.  The gcd of D and all the B_g is then divided out, which keeps the
integers short.  The heap keys of the loop below are the only `Fraction`s,
one per evaluation of a project: q = N / (U * D * unit) in the instance's
money, which compares across rounds.  `q_value` keeps the `Fraction` scan
for general utilities.

The equal-shares loop evaluates projects lazily.  Budgets only fall, so a
project's payment threshold only rises (or the project becomes unaffordable
for good), and the (q, cost, id) key it had when last evaluated is a lower
bound on its current key.  Keys sit in a heap; the top key is evaluated
afresh, and a project is funded once its fresh key is still the smallest
stored key.  This funds exactly the project with minimal q, then the cheaper
one, then the smaller id, as a full scan of all projects would.

`seq_pav` runs on the compiled election's integers, as `exact` does: money
in its units, harmonic gains scaled by L, and the funded approvals as voter
levels, off which a project's gain is read.  Gains are re-scored lazily, by
the argument the equal-shares loop uses: voters only move up and gain[c]
falls with c, so the gain a project had when last scored bounds its current
gain from above.  Each round re-scores only the projects whose stored gain
reaches the largest stored gain, until every project at the top is fresh;
those are then exactly the projects of largest gain, the tie set a full
re-score would give.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .core import (ApprovalProfile, Election, PBInstance, compile_election,
                   lift)
from .exact import SearchBudget, TieBreakPolicy, harmonic_gains, solve_pav


def _threshold(cost: Fraction, groups) -> Optional[Fraction]:
    """Least q with sum(min(money, weight_util * q)) >= cost, else None.

    `groups` holds (breakpoint b/u, money w*b, utility w*u) triples with a
    positive utility.  If every group is capped, their money falls short.
    """
    util = sum(g[2] for g in groups)
    leftover = Fraction(cost)
    for breakpoint, money, weight_util in sorted(groups, key=itemgetter(0)):
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

    funded: tuple[int, ...]  # project numbers, in funding order
    q: tuple[Fraction, ...]  # the threshold each of them was paid at


def _replay(election: Election, phase: _Phase, more: Sequence[int],
            trace: EqualSharesTrace):
    """Charge the approval phase again, in `Fraction`s, then the exhaustion
    projects `more`, recording both in `trace`.

    Charging min(b_g, q) to each approver group of each funded project, in
    funding order, repeats the charges of `_approval_phase` exactly.  Each
    exhaustion project is charged to every group at its uniform threshold.
    """
    weights = election.weights
    budgets = ([Fraction(election.budget,
                         election.unit * len(election.group_of))]
               * len(weights))

    def charge(k: int, members, q: Fraction):
        paid = [Fraction(0)] * len(weights)
        for g in members:
            paid[g] = min(budgets[g], q)
            budgets[g] -= paid[g]
        trace.funded.append(election.ids[k])
        trace.charges[election.ids[k]] = [paid[g] for g in election.group_of]

    for k, q in zip(phase.funded, phase.q):
        charge(k, election.approvers[k], q)
    for k in more:
        cost = Fraction(election.costs[k], election.unit)
        charge(k, range(len(weights)), _threshold(
            cost, [(b, b * w, w) for b, w in zip(budgets, weights) if b]))
    trace.final_budgets = [budgets[g] for g in election.group_of]


@functools.lru_cache(maxsize=1)
def _approval_phase(election: Election) -> _Phase:
    """The approval phase of equal shares on `election`, run once for RX,
    RX-eps and RX-PAV: repeatedly fund the project with minimal finite q.

    Only a project's approver groups pay for it.  Ties on q go to the
    cheaper project, then to the lexicographically smaller id.  Group g's
    voters hold money[g] / denom each, in the election's money units:
    integers over one common denominator (see the module docstring).  One
    election is kept: every caller runs one election's RX rules before it
    moves to the next.
    """
    n = len(election.group_of)
    if n == 0:
        raise NoVotersError("equal shares needs at least one voter")
    approvers, weights = election.approvers, election.weights
    money, denom = [election.budget] * len(weights), n

    def key(k: int, stamp: int):
        """Project k's heap entry (q, cost, id, k, stamp, N, U), its
        threshold q = N / (U * denom) as a `Fraction` in the instance's
        money, or None when its approvers cannot afford it."""
        members = sorted((g for g in approvers[k] if money[g]),
                         key=money.__getitem__)
        util = sum(map(weights.__getitem__, members))
        cost = election.costs[k]
        left = cost * denom
        for g in members:
            if left <= money[g] * util:
                q = Fraction(left, util * denom * election.unit)
                return q, cost, election.ids[k], k, stamp, left, util
            left -= weights[g] * money[g]
            util -= weights[g]
        return None

    heap = [entry for k in range(len(approvers))
            if (entry := key(k, 0)) is not None]
    heapq.heapify(heap)
    funded: list[int] = []
    paid: list[Fraction] = []
    while heap:
        q, _, _, k, stamp, left, util = heapq.heappop(heap)
        if stamp != len(funded):
            # evaluated before the last funding, so only a lower bound; a
            # project that became unaffordable stays so and is dropped
            entry = key(k, len(funded))
            if entry is not None:
                heapq.heappush(heap, entry)
            continue
        # every group's money over the new denominator denom * util; an
        # approver group pays left, or all it has
        money = [b * util for b in money]
        for g in approvers[k]:
            money[g] = max(money[g] - left, 0)
        denom *= util
        common = math.gcd(denom, *money)
        money = [b // common for b in money]
        denom //= common
        funded.append(k)
        paid.append(q)
    return _Phase(tuple(funded), tuple(paid))


def _equal_shares(instance: PBInstance, profile: ApprovalProfile
                  ) -> tuple[Election, _Phase]:
    election = compile_election(instance, profile)
    return election, _approval_phase(election)


def rule_x(instance: PBInstance, profile: ApprovalProfile,
           trace: Optional[EqualSharesTrace] = None) -> frozenset:
    """Equal-shares rule for approval utilities.

    Every voter starts with an equal share of the budget; projects are funded
    in order of their minimal payment rate q, each approver paying
    min(remaining budget, q) until no project remains affordable.
    """
    election, phase = _equal_shares(instance, profile)
    if trace is not None:
        _replay(election, phase, (), trace)
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
    election, phase = _equal_shares(instance, profile)
    # a cheapest-first prefix of the money left (see the module docstring)
    costs = election.costs
    left = election.budget - sum(costs[k] for k in phase.funded)
    funded = set(phase.funded)
    more = []
    for k in sorted((k for k in range(len(costs)) if k not in funded),
                    key=lambda k: (costs[k], election.ids[k])):
        if costs[k] > left:
            break
        left -= costs[k]
        more.append(k)
    if trace is not None:
        _replay(election, phase, more, trace)
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
    # one residual ballot per distinct ballot, shared by its voters
    left = {b: b - first for b in dict.fromkeys(profile.ballots)}
    sub_profile = ApprovalProfile(
        tuple(map(left.__getitem__, profile.ballots)))
    return first | solve_pav(sub, sub_profile, tiebreak, search_budget)


def seq_pav(instance: PBInstance, profile: ApprovalProfile,
            tiebreak: TieBreakPolicy = TieBreakPolicy.cheapest()) -> frozenset:
    """Greedy harmonic-score rule.

    Repeatedly adds the affordable project with the largest harmonic-score
    increment; stops when nothing fits.  Increment ties are resolved by the
    given policy (default: cheaper cost, then lexicographic id).  A greedy
    step has no tie set of whole bundles to minimize a secondary score over,
    so worst-sw and worst-rp fall back to cheapest-first.  Increments are
    re-scored lazily (see the module docstring).
    """
    e = compile_election(instance, profile)
    longest = max(map(len, e.ballots), default=0)
    gain = harmonic_gains(longest)
    rng = (random.Random(tiebreak.seed)
           if tiebreak.variant == "random" else None)
    # reached[k]: the voters with at least k funded approvals
    reached = [(1 << len(e.group_of)) - 1] + [0] * longest
    # each project's gain when last scored, and the round it was scored in;
    # nobody has a funded approval yet, so every voter gains gain[0]
    stored = [gain[0] * mask.bit_count() for mask in e.project_masks]
    scored = [0] * len(e.ids)
    chosen: list[int] = []
    left = e.budget
    rest = list(range(len(e.ids)))
    while True:
        # money only falls, so a project that does not fit never will
        rest = [k for k in rest if e.costs[k] <= left]
        if not rest:
            return frozenset(e.ids[k] for k in chosen)
        # a stored gain bounds the project's gain from above; re-score the
        # projects at the top until all of them are fresh
        levels = [(b - a, level) for a, b, level
                  in zip(gain, gain[1:], reached[1:]) if level]
        while True:
            top = max(stored[k] for k in rest)
            stale = [k for k in rest
                     if stored[k] == top and scored[k] != len(chosen)]
            if not stale:
                break
            for k in stale:
                mask = e.project_masks[k]
                stored[k] = gain[0] * mask.bit_count() + sum(
                    s * (mask & level).bit_count() for s, level in levels)
                scored[k] = len(chosen)
        ties = [k for k in rest if stored[k] == top]
        if rng is not None:
            ties.sort(key=e.ids.__getitem__)
            pick = ties[rng.randrange(len(ties))]
        elif tiebreak.variant == "lex-by-id":
            pick = min(ties, key=e.ids.__getitem__)
        else:  # cheapest-first, and worst-sw/worst-rp in its place
            pick = min(ties, key=lambda k: (e.costs[k], e.ids[k]))
        rest.remove(pick)
        chosen.append(pick)
        left -= e.costs[pick]
        reached = lift(reached, e.project_masks[pick])
