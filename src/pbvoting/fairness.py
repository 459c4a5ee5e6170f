"""Cohesive-group test and an exact, capped EJR violation search.

A group of voters that jointly approves a project set T and could pay for T
with its proportional share of the budget is entitled to representation: some
member must end up with at least |T| approved funded projects.  The checker
searches for a witness (S, T) violating that entitlement and returns a
certificate when it finds one.

Only maximal supporter sets need testing: growing S can only help the budget
condition, and the entitlement must hold for *all* members, so for a fixed T
the decisive group is the set of all under-represented supporters of T.  That
collapses the search to one candidate S per T:
AND(approvers of each project in T) & under[|T|], where under[k] holds the
voters with fewer than k funded approvals.  Voter sets are the bitsets of the
compiled election (`core.compile_election`), one per project giving its
approvers.  under[k] is built from the funded projects' masks alone, with no
walk over the ballots: starting from reached[0] = everyone, each funded
project lifts its approvers one level (`core.lift`), so reached[k] ends up
holding the voters with at least k funded approvals, and under[k] =
everyone ^ reached[k].  Costs and the budget are the election's integer
money.

T is grown depth-first, adding projects in instance order, so every set is
visited at most once.  A branch is cut when
budget * |approvers(T)| < n * cost(T).  The cut is sound: when T grows, its
approvers can only shrink and its cost can only grow, so no superset T' of T
can satisfy budget * |S'| >= n * cost(T') with S' inside approvers(T).  The
cut also covers cost(T) > budget, since |approvers(T)| <= n.  Approvers are
counted among under[depth] only, as no supporter of a set of at most `depth`
projects lies outside it.  The depth is min(t_cap, longest ballot): no voter
approves a larger T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (ApprovalProfile, Election, PBInstance, compile_election,
                   lift)


@dataclass(frozen=True)
class CohesiveWitness:
    voters: frozenset[int]
    projects: frozenset[str]


@dataclass(frozen=True)
class EjrVerdict:
    status: str  # "satisfied" | "violated" | "unknown"
    cap: int
    witness: Optional[CohesiveWitness] = None
    examined: int = 0  # candidate sets T the search tried

    @property
    def ok(self) -> bool:
        return self.status == "satisfied"


def is_cohesive(instance: PBInstance, profile: ApprovalProfile,
                voters: Iterable[int], projects: Iterable[str]) -> bool:
    """True iff the voters jointly approve the projects and their
    proportional budget share covers the projects' cost."""
    S = frozenset(voters)
    T = frozenset(projects)
    for i in S:
        if not 0 <= i < profile.n_voters:
            raise ValueError(f"voter index {i} out of range")
    for pid in T:
        instance.cost(pid)  # raises UnknownProjectError if absent
    wanted = profile.mask(T)  # no bit for a project that no voter approves
    if any((profile.voters[i] & wanted).bit_count() < len(T) for i in S):
        return False
    # an empty voter set has share 0, also when there are no voters at all
    share = instance.budget * len(S) / profile.n_voters if S else 0
    return share >= instance.cost_of(T)


_DEFAULT_CAP = 10


def max_t_cap(instance: PBInstance) -> int:
    """Largest possible |T| of any feasible witness."""
    return int(instance.budget // instance.c_min)


def check_t_cap(t_cap: Optional[int]) -> None:
    """Reject a negative t_cap; None stands for the default cap."""
    if t_cap is not None and t_cap < 0:
        raise ValueError("t_cap must be non-negative")


def find_ejr_violation(instance: PBInstance, profile: ApprovalProfile,
                       bundle: Iterable[str],
                       t_cap: Optional[int] = None) -> EjrVerdict:
    """Search all witness sets T with |T| <= t_cap for an EJR violation.

    Returns a verdict with a re-checkable witness on violation.  When no
    violation is found, the status is "satisfied" only if t_cap covers every
    feasible witness size; otherwise it is "unknown".  Either way the verdict
    counts the candidate sets T the search tried.
    """
    check_t_cap(t_cap)
    election = compile_election(instance, profile)
    funded = frozenset(bundle)
    for pid in funded:
        instance.cost(pid)
    # max_t_cap, in the election's integer money
    top = election.budget // min(election.costs)
    if t_cap is None:
        t_cap = min(top, _DEFAULT_CAP)
    witness, examined = _search(election, funded, t_cap)
    if witness is not None:
        return EjrVerdict("violated", t_cap, witness, examined)
    status = "satisfied" if t_cap >= top else "unknown"
    return EjrVerdict(status, t_cap, None, examined)


def _levels(election: Election, funded: frozenset, depth: int) -> list[int]:
    """under[k] for k = 0..depth: the voters with fewer than k funded
    approvals, as a voter bitset, from the levels reached[k] (see the
    module docstring)."""
    everyone = (1 << election.n_voters) - 1
    reached = [everyone] + [0] * depth
    for pid, mask in zip(election.ids, election.project_masks):
        if pid in funded:
            reached = lift(reached, mask)
    return [everyone ^ voters for voters in reached]


def _search(election: Election, funded: frozenset,
            t_cap: int) -> tuple[Optional[CohesiveWitness], int]:
    """Depth-first search over T in project order, with voter bitsets.

    Returns the witness found, if any, and how many sets T it tried.
    """
    n = election.n_voters
    depth = min(t_cap, election.longest)
    if depth == 0:
        return None, 0
    under = _levels(election, funded, depth)
    budget = election.budget
    items = []
    for pid, cost, mask in zip(election.ids, election.costs,
                               election.project_masks):
        bits = mask & under[depth]
        if budget * bits.bit_count() >= n * cost:
            items.append((pid, cost, bits))

    chosen: list[str] = []
    examined = 0

    def extend(start: int, bits: int, cost: int) -> Optional[CohesiveWitness]:
        nonlocal examined
        size = len(chosen) + 1
        for j in range(start, len(items)):
            examined += 1
            pid, c, b = items[j]
            c += cost
            b &= bits
            if budget * b.bit_count() < n * c:
                continue  # no superset of T + pid is affordable to its group
            supporters = b & under[size]
            if budget * supporters.bit_count() >= n * c:
                return CohesiveWitness(
                    frozenset(i for i in range(n) if supporters >> i & 1),
                    frozenset(chosen + [pid]))
            if size < depth:
                chosen.append(pid)
                found = extend(j + 1, b, c)
                chosen.pop()
                if found is not None:
                    return found
        return None

    witness = extend(0, under[depth], 0)
    return witness, examined
