"""Domain model for participatory budgeting.

A budgeting problem consists of a list of projects with positive costs, a
global budget, and one approval ballot per voter.  Everything downstream
(exact optimizers, sequential rules, proportionality checks) consumes the
types and scoring functions defined here, and the compiled form of an
election (`compile_election`) that they all share.

Voters are bitmasks at every stage.  A profile keeps each ballot as a
project bitmask over its own list of project ids, and the scores count bits
over those masks; the compiled election turns the masks around, into one
voter bitset per project of the instance.  Frozenset ballots are derived
only when asked for (`ApprovalProfile.ballots`).

All arithmetic is exact: costs and budgets are :class:`fractions.Fraction`,
scores are integers or fractions.  This matters because the worst-case
constructions and the ratio assertions in the test suite compare values for
exact equality.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Optional

Bundle = frozenset  # a bundle is simply a frozenset of project ids

_RationalLike = int | Fraction | str

_BITS = bytes.maketrans(b"01", b"\0\1")


class UnknownProjectError(ValueError):
    """A bundle or ballot references a project id that does not exist."""


def as_fraction(x: _RationalLike) -> Fraction:
    """Convert ints, decimal strings and fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class Project:
    """A candidate project with a strictly positive cost."""

    id: str
    cost: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cost", as_fraction(self.cost))
        if self.cost <= 0:
            raise ValueError(f"project {self.id!r} has non-positive cost {self.cost}")


@dataclass(frozen=True)
class PBInstance:
    """Projects plus a total budget.

    The approval profile is kept separate so that one instance can be paired
    with many profiles.
    """

    projects: tuple[Project, ...]
    budget: Fraction

    def __post_init__(self):
        object.__setattr__(self, "projects", tuple(self.projects))
        object.__setattr__(self, "budget", as_fraction(self.budget))
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not self.projects:
            raise ValueError("instance needs at least one project")
        ids = [p.id for p in self.projects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate project ids")
        object.__setattr__(self, "_cost", {p.id: p.cost for p in self.projects})

    @property
    def project_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.projects)

    def cost(self, project_id: str) -> Fraction:
        try:
            return self._cost[project_id]
        except KeyError:
            raise UnknownProjectError(f"unknown project id {project_id!r}") from None

    def cost_of(self, bundle: Iterable[str]) -> Fraction:
        return sum((self.cost(p) for p in bundle), Fraction(0))

    @property
    def c_min(self) -> Fraction:
        return min(p.cost for p in self.projects)

    @property
    def c_max(self) -> Fraction:
        return max(p.cost for p in self.projects)


@dataclass(frozen=True, init=False, eq=False)
class ApprovalProfile:
    """One approval set per voter; the voter id is the ballot index.

    Voters are kept as project bitmasks: `voters[i]` is voter i's ballot,
    bit k standing for project `ids[k]`.  `ApprovalProfile(ballots)` takes
    the ids that the ballots approve, sorted; `from_masks` takes any ids
    and masks, as `pabulib.parse_pb` reads them.  `ballots` is derived from
    the masks on first use, one shared frozenset per distinct mask, and is
    kept from the start for a profile built from ballots.  Two profiles are
    equal, and hash alike, when their ballots are, whatever their ids.

    Empty ballots are legal and contribute zero to every score.  A profile
    with zero voters is also legal (it occurs in empty data files); rules
    that divide the budget among voters reject it explicitly.
    """

    ids: tuple[str, ...]
    voters: tuple[int, ...]

    def __init__(self, ballots: Iterable[Iterable[str]]):
        distinct: dict[frozenset, frozenset] = {}  # one object per ballot
        ballots = tuple(distinct.setdefault(b, b)
                        for b in map(frozenset, ballots))
        ids = tuple(sorted(frozenset().union(*distinct)))
        bit = {pid: 1 << k for k, pid in enumerate(ids)}.__getitem__
        mask = {b: sum(map(bit, b)) for b in distinct}.__getitem__
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "voters", tuple(map(mask, ballots)))
        object.__setattr__(self, "ballots", ballots)

    @classmethod
    def from_masks(cls, ids: Iterable[str], voters: Iterable[int]
                   ) -> ApprovalProfile:
        """The profile whose voter i approves `ids[k]` for each bit k set in
        `voters[i]`."""
        profile = cls.__new__(cls)
        object.__setattr__(profile, "ids", tuple(ids))
        object.__setattr__(profile, "voters", tuple(voters))
        if len(set(profile.ids)) != len(profile.ids):
            raise ValueError("duplicate project ids")
        if profile.voters and (min(profile.voters) < 0
                               or max(profile.voters) >> len(profile.ids)):
            raise ValueError("a voter mask has a bit with no project id")
        return profile

    def mask(self, project_ids: Iterable[str]) -> int:
        """The bits of `project_ids` among `ids`; an id that is not there,
        and so that no voter approves, sets none."""
        wanted = frozenset(project_ids)
        return sum(1 << k for k, pid in enumerate(self.ids) if pid in wanted)

    def approved(self, mask: int) -> Iterator[str]:
        """The ids whose bits `mask` sets, in the order of `ids`."""
        # the binary digits of mask, lowest first, as bytes 0 and 1
        return compress(self.ids, bin(mask)[:1:-1].encode().translate(_BITS))

    @functools.cached_property
    def ballots(self) -> tuple[frozenset[str], ...]:
        sets = {mask: frozenset(self.approved(mask))
                for mask in set(self.voters)}
        return tuple(map(sets.__getitem__, self.voters))

    def __eq__(self, other):
        if not isinstance(other, ApprovalProfile):
            return NotImplemented
        return self.ballots == other.ballots

    def __hash__(self):
        return hash((self.ballots,))

    @property
    def n_voters(self) -> int:
        return len(self.voters)

    def validate(self, instance: PBInstance) -> None:
        unknown = self.mask(set(self.ids) - set(instance.project_ids))
        if not unknown:
            return
        i = next((i for i, mask in enumerate(self.voters) if mask & unknown),
                 None)
        if i is not None:
            bad = sorted(self.approved(self.voters[i] & unknown))
            raise UnknownProjectError(
                f"ballot {i} approves unknown project(s) {bad}")


@dataclass(frozen=True, eq=False)
class Election:
    """An instance and a profile prepared once for every rule, optimum and
    audit; build it with :func:`compile_election`.

    Projects are numbered in instance order; `ids` holds their ids.  Voters
    are kept as bitsets only: a voter set is a Python int, bit i standing
    for voter i, so a popcount counts voters, and `project_masks[k]` is
    project k's approver set, read off the profile's voter masks.
    `n_voters` counts the voters and `longest` is the length of the longest
    ballot.  Money is integral in units of 1/unit, where unit is the least
    common multiple of the cost and budget denominators (100 for
    cent-valued data).  Two projects are twins when they have the same cost
    and approver set; `twins[k]` is the first project of k's class.

    Elections compare and hash by identity, so an election keys a memo at
    O(1) cost (`sequential` keeps the equal-shares approval phase that
    way); `compile_election` returns one object per value while it is
    memoized.
    """

    ids: tuple[str, ...]
    project_masks: tuple[int, ...]
    n_voters: int
    longest: int
    unit: int
    costs: tuple[int, ...]
    budget: int
    twins: tuple[int, ...]


# the last two compiled pairs, the newest first: weak references to the
# instance and profile of each, and its election
_last: tuple = ()


def compile_election(instance: PBInstance,
                     profile: ApprovalProfile) -> Election:
    """The validated :class:`Election` of an instance and a profile.

    Memoized twice, so the rules, optima and audits of one election share
    one build.  First by identity: a call with the same instance and profile
    objects as one of the last two pairs it compiled returns that election
    at once, so the residual election of `rule_x_pav` does not push out the
    pair it came from.  Those pairs are held through weak references, so
    they keep no profile alive.  Any other call looks the profile's ids and
    voter masks up by value, tuples of strings and ints that hash and
    compare at C speed.  The masks are taken as they are; when the profile's
    ids are not the instance's (a profile built from ballots numbers its
    projects in sorted order), `ApprovalProfile.validate` first checks that
    no voter approves a project the instance lacks, and names the ballot if
    one does.  The value memo keeps two elections, for the same reason, and
    it keeps the masks, not the profile itself.
    """
    global _last
    for held in _last:
        if held[0]() is instance and held[1]() is profile:
            return held[2]
    if profile.ids != instance.project_ids:
        profile.validate(instance)
    election = _compile(instance, profile.ids, profile.voters)
    _last = ((weakref.ref(instance), weakref.ref(profile), election),
             *_last[:1])
    return election


@functools.lru_cache(maxsize=2)
def _compile(instance: PBInstance, ids: tuple, voters: tuple) -> Election:
    m = len(ids)
    # each distinct mask as m binary digits, digit k for project ids[k] (the
    # bit above the last pads bin() to m digits); column k of the voters'
    # digits, from the last voter to the first, is ids[k]'s approvers in
    # binary, and an instance project that no id names has none
    top = 1 << m
    digits = {mask: bin(mask | top)[:2:-1].encode() for mask in set(voters)}
    table = b"".join(map(digits.__getitem__, reversed(voters)))
    column = {pid: k for k, pid in enumerate(ids)}
    project_masks = tuple(0 if k is None else int(table[k::m] or b"0", 2)
                          for k in map(column.get, instance.project_ids))
    unit = math.lcm(instance.budget.denominator,
                    *(p.cost.denominator for p in instance.projects))
    costs = tuple(int(p.cost * unit) for p in instance.projects)
    first: dict[tuple, int] = {}
    return Election(
        ids=instance.project_ids, project_masks=project_masks,
        n_voters=len(voters),
        longest=max(map(int.bit_count, digits), default=0),
        unit=unit, costs=costs, budget=int(instance.budget * unit),
        twins=tuple(first.setdefault(key, k)
                    for k, key in enumerate(zip(costs, project_masks))))


def lift(levels: list[int], mask: int) -> list[int]:
    """`levels` with the voters of `mask` moved up one level, where levels[k]
    is the bitset of the voters counted k times or more (levels[0]: all)."""
    below = levels[0]
    lifted = [below]
    for level in levels[1:]:
        lifted.append(level | below & mask)
        below = level
    return lifted


def _check_bundle(instance: Optional[PBInstance], bundle: Iterable[str]):
    if instance is not None:
        known = set(instance.project_ids)
        bad = set(bundle) - known
        if bad:
            raise UnknownProjectError(f"unknown project id(s) {sorted(bad)}")


def _funded(profile: ApprovalProfile, bundle: Iterable[str],
            instance: Optional[PBInstance]) -> int:
    funded = frozenset(bundle)
    _check_bundle(instance, funded)
    return profile.mask(funded)


def social_welfare(profile: ApprovalProfile, bundle: Iterable[str],
                   instance: Optional[PBInstance] = None) -> int:
    """Total number of (voter, funded approved project) pairs."""
    funded = _funded(profile, bundle, instance)
    return sum(map(int.bit_count, map(funded.__and__, profile.voters)))


def representation(profile: ApprovalProfile, bundle: Iterable[str],
                   instance: Optional[PBInstance] = None) -> int:
    """Number of voters with at least one approved project funded."""
    funded = _funded(profile, bundle, instance)
    return sum(map(bool, map(funded.__and__, profile.voters)))


def harmonic(k: int) -> Fraction:
    """Exact harmonic number H(k); H(0) = 0 by the empty-sum convention."""
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def pav_score(profile: ApprovalProfile, bundle: Iterable[str],
              instance: Optional[PBInstance] = None) -> Fraction:
    """Sum over voters of H(number of approved funded projects)."""
    funded = _funded(profile, bundle, instance)
    counts = Counter(map(int.bit_count, map(funded.__and__, profile.voters)))
    return sum((harmonic(k) * n for k, n in counts.items()), Fraction(0))


def is_feasible(instance: PBInstance, bundle: Iterable[str]) -> bool:
    """True iff the bundle's total cost fits within the budget."""
    return instance.cost_of(bundle) <= instance.budget
