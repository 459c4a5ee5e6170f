"""Polynomial-time sequential rules.

Contains the greedy harmonic-score heuristic (`seq_pav`), the equal-shares
rule (`rule_x`) built on a per-project payment-threshold computation
(`q_value`), and two budget-exhausting completions: a phase that charges
every voter alike, the epsilon->0 limit of RX-eps (`rule_x_eps`), and an
exact harmonic-score run on the residual budget (`rule_x_pav`).  Equal
shares here has approval utilities only: 1 for an approved project, 0
otherwise.

Equal shares runs over money classes (`core.compile_election` keeps voters
as bitsets): a class is the bitset of the voters who hold one amount.  The
phase starts with one class, everyone.  Funding project k splits each class
into k's approvers, who pay, and the rest; spent voters leave, and parts
that come to hold one amount merge.

RX, RX-eps and RX-PAV begin with the same approval phase, so it runs once
per compiled election and is memoized next to it, one election deep: the
funded projects in funding order and the threshold q each was paid at, a
`Fraction` in the instance's money.  It keys on the election object, which
`compile_election` finds by value, so equal pairs share one phase.  An
`EqualSharesTrace` is replayed from the memo (`_replay`).

The exhaustion phase of `rule_x_eps` needs no budgets.  There every voter
pays for every project, and a funded project is paid for exactly, since
sum_i min(b_i, r) = cost at its threshold r; the voters' total money
is therefore the budget minus the cost of everything funded so far.  Every
project then shares one set of payers, so r rises strictly with cost and
the (r, cost, id) order is the (cost, id) order, and a project is
affordable exactly while its cost fits in that total.  The phase funds the
longest prefix of the unfunded projects in (cost, id) order whose costs fit
in the money the approval phase left, in the election's integer units, and
stops at the first that does not fit: every later project costs at least as
much, and money only falls.  Voter budgets and thresholds are computed only
for a trace.

The payment threshold q of a project is the least q with
sum_c w_c * min(b_c, q) >= cost over the classes c, w_c the popcount of c
and its approvers, each holding b_c.  It is found with one scan over those
classes sorted by the breakpoint b_c (b_i / u_i for the voters and general
utilities of `q_value`): a class whose breakpoint lies below the rate that
the still-uncapped classes would need pays its whole money and drops out;
the first class that does not drop out fixes q, since every later class has
a breakpoint at least as large and is not capped at q either.

The approval phase runs that scan on integers.  A class's per-voter money
is b_c = B_c / D in the election's money units (`core.Election`), an
integer B_c over one common denominator D.  At the start D = n, the number
of voters, and the one class holds the integer budget, so each voter holds
budget / n.  A project of cost c starts the scan with left = c * D and U,
the number of its approvers whose money is not spent (one popcount); a
class drops out while left > B_c * U, which subtracts w_c * B_c from left
and w_c from U, and the first class that stays fixes the threshold (N, U),
N the left at that point: q = N / (U * D), with no division in the scan.
The classes are sorted by money once per funding and weighed only as the
scan reaches them, so none richer than that class is weighed.  Funding at
(N, U) puts all money over D * U: each B_c is multiplied by U, the class's
approvers pay N out of it (what they have, if less), and D becomes D * U.
The gcd of D and all the B_c is then divided out, which keeps the integers
short.  The heap keys of the loop below are the only `Fraction`s, one per
evaluation of a project: q = N / (U * D * unit) in the instance's money,
which compares across rounds.  `q_value` keeps the `Fraction` scan for
general utilities.

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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (ApprovalProfile, Election, PBInstance, compile_election,
                   lift)
from .exact import SearchBudget, TieBreakPolicy, harmonic_gains, solve_pav


def q_value(cost: Fraction, budgets: Sequence[Fraction],
            utilities: Sequence[Fraction | int]) -> Optional[Fraction]:
    """Minimal uniform payment rate q at which a project is affordable.

    A project is affordable at rate q when sum_i min(b_i, u_i * q) covers its
    cost.  Returns None when even the full remaining money of the interested
    voters cannot cover the cost.  It is the breakpoint scan of the module
    docstring in `Fraction`s, each voter of positive utility a class.
    """
    if cost <= 0:
        raise ValueError("cost must be positive")
    if len(budgets) != len(utilities):
        raise ValueError("budgets and utilities must align")
    voters = sorted(((Fraction(b) / u, b, u)
                     for b, u in zip(budgets, utilities) if u > 0),
                    key=itemgetter(0))
    util = sum(u for _, _, u in voters)
    leftover = Fraction(cost)
    for breakpoint, money, u in voters:
        if leftover <= breakpoint * util:
            return leftover / util
        leftover -= money
        util -= u
    return None


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

    Charging min(b_i, q) to each approver i of each funded project in
    funding order repeats the phase exactly; each exhaustion project is
    charged to every voter at its threshold.  Voters who paid for the same
    projects hold the same money, `money[label[i]]`, charged once per class.
    """
    n = election.n_voters
    money = [Fraction(election.budget, election.unit * n)]
    label = [0] * n

    def charge(k: int, voters: Iterable[int], q: Fraction):
        paid = [Fraction(0)] * n
        step = {}  # a payer's class -> (its class after paying, the payment)
        for i in voters:
            c = label[i]
            if c not in step:
                p = min(money[c], q)
                step[c] = len(money), p
                money.append(money[c] - p)
            label[i], paid[i] = step[c]
        trace.funded.append(election.ids[k])
        trace.charges[election.ids[k]] = paid

    for k, q in zip(phase.funded, phase.q):
        row = f"{election.project_masks[k]:0{n}b}"[::-1]  # digit i: voter i
        charge(k, compress(range(n), map("1".__eq__, row)), q)
    for k in more:
        # w voters holding b each weigh as one holding w * b of utility w
        weights = Counter(label)
        r = q_value(Fraction(election.costs[k], election.unit),
                    [money[c] * w for c, w in weights.items()],
                    list(weights.values()))
        charge(k, range(n), r)
    trace.final_budgets = list(map(money.__getitem__, label))


@functools.lru_cache(maxsize=1)
def _approval_phase(election: Election) -> _Phase:
    """The approval phase of equal shares on `election`, run once for RX,
    RX-eps and RX-PAV: repeatedly fund the project with minimal finite q.

    Only a project's approvers pay for it.  Ties on q go to the cheaper
    project, then to the lexicographically smaller id.  `ranked` lists the
    money classes by money, each an amount over the common denominator
    `denom` in the election's money units and the bitset of the voters
    holding it (see the module docstring).  One election is kept: every
    caller runs one election's RX rules before it moves to the next.
    """
    n = election.n_voters
    if n == 0:
        raise NoVotersError("equal shares needs at least one voter")
    masks = election.project_masks
    alive = (1 << n) - 1  # the voters with money left
    ranked, denom = [(election.budget, alive)], n

    def key(k: int, stamp: int):
        """Project k's heap entry (q, cost, id, k, stamp, N, U), its
        threshold q = N / (U * denom) as a `Fraction` in the instance's
        money, or None when its approvers cannot afford it."""
        mask = masks[k]
        util = (mask & alive).bit_count()
        cost = election.costs[k]
        left = cost * denom
        for b, voters in ranked:
            if not (w := (voters & mask).bit_count()):
                continue
            if left <= b * util:
                q = Fraction(left, util * denom * election.unit)
                return q, cost, election.ids[k], k, stamp, left, util
            left -= w * b
            util -= w
        return None

    heap = [entry for k in range(len(masks))
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
        # all money over the new denominator denom * util; k's approvers in
        # each class pay left, or all they have, and leave it if spent
        mask, split = masks[k], {}
        for b, voters in ranked:
            b *= util
            paying = voters & mask
            if paying:
                voters ^= paying
                if b > left:
                    split[b - left] = split.get(b - left, 0) | paying
                else:
                    alive ^= paying
            if voters:
                split[b] = split.get(b, 0) | voters
        denom *= util
        common = math.gcd(denom, *split)
        ranked = sorted((b // common, voters) for b, voters in split.items())
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
    budget; the result is the union of both stages.  Its profile is the
    voters' masks with the funded projects' bits cleared, over the same ids.
    """
    first = rule_x(instance, profile)
    residual = instance.budget - instance.cost_of(first)
    rest = [p for p in instance.projects if p.id not in first]
    if not rest or residual < min(p.cost for p in rest):
        return first
    sub = PBInstance(projects=tuple(rest), budget=residual)
    sub_profile = ApprovalProfile.from_masks(
        profile.ids, map((~profile.mask(first)).__and__, profile.voters))
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
    gain = harmonic_gains(e.longest)
    rng = (random.Random(tiebreak.seed)
           if tiebreak.variant == "random" else None)
    # reached[k]: the voters with at least k funded approvals
    reached = [(1 << e.n_voters) - 1] + [0] * e.longest
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
