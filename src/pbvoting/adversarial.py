"""Constructors for worst-case instance families.

Each family builds a concrete instance/profile pair together with the exact
ratio a named rule achieves on it and a closed-form ceiling the ratio must
stay under.  `verify` replays the rule and checks both claims, which turns
every analytic upper-bound argument into an executable test.

`FAMILIES` is the one family table: it maps each family to its target rule,
its ratio kind ("sw" for welfare, "rp" for representation), its builder and
its default sweep.  `build`, `default_sweeps` and a case's `target_rule` and
`ratio_kind` all read it.  A rational ceiling is stated once, as a
`Fraction`, and its float and its test ``ratio <= ceiling`` both follow from
it; only PAV_WELFARE's logarithmic and EJR_WELFARE's root ceiling carry
their own.  `verify` runs the rule with ties broken against the case's
ratio and divides the bundle's score by the one optimum that ratio needs.

Families
--------
GREEDY_WELFARE / GREEDY_REP
    One expensive project approved by two voters versus many cheap singleton
    projects; the greedy harmonic rule funds only the expensive one.
AV_REP
    Disjoint voter groups of near-equal size; welfare maximization funds a
    single group and leaves everyone else unrepresented.
CC_WELFARE
    Coverage maximization trades a block of shared cheap projects for
    singletons, collapsing welfare quadratically.
PAV_WELFARE
    Harmonic scoring prefers one popular expensive project over a long tail
    of cheap projects wanted by a single voter.
PAV_REP
    Harmonic scoring showers one voter with unit projects instead of funding
    the project everyone approves.
EJR_REP
    Proportionality forces two tiny projects for one voter, starving the
    project approved by everyone else.
EJR_WELFARE
    Proportionality forces singleton projects, leaving only a sliver of the
    budget for the shared block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .bench import run_rule
from .core import (ApprovalProfile, PBInstance, Project, as_fraction,
                   representation, social_welfare)
from .exact import SearchBudget, TieBreakPolicy, optimum_value


class Family(str, Enum):
    GREEDY_WELFARE = "GREEDY_WELFARE"
    GREEDY_REP = "GREEDY_REP"
    AV_REP = "AV_REP"
    CC_WELFARE = "CC_WELFARE"
    PAV_WELFARE = "PAV_WELFARE"
    PAV_REP = "PAV_REP"
    EJR_REP = "EJR_REP"
    EJR_WELFARE = "EJR_WELFARE"


@dataclass(frozen=True)
class AdversarialCase:
    family: Family
    params: dict
    instance: PBInstance
    profile: ApprovalProfile
    expected_ratio: Fraction
    bound_value: float
    bound_holds: Callable[[Fraction], bool]
    notes: str = ""

    @property
    def target_rule(self) -> str:
        return FAMILIES[self.family].rule

    @property
    def ratio_kind(self) -> str:  # "sw" | "rp"
        return FAMILIES[self.family].kind


@dataclass(frozen=True)
class VerifyReport:
    case: AdversarialCase
    achieved_ratio: Fraction
    matches_expected: bool
    under_bound: bool

    @property
    def ok(self) -> bool:
        return self.matches_expected and self.under_bound


def _ceiling(bound: Fraction) -> dict:
    """The `bound_value` and `bound_holds` of a rational ceiling."""
    return {"bound_value": float(bound), "bound_holds": lambda r: r <= bound}


def _build_greedy(family: Family, n: int, m: int, L) -> AdversarialCase:
    # 2 voters back one project costing the whole budget; n voters back one
    # cheap project each.  Each cheap project needs at most one approver so
    # that the expensive project's first-step gain of 2 wins the greedy step,
    # hence m >= n.
    if n < 3 or m < n:
        raise ValueError("requires n >= 3 and m >= n")
    L = as_fraction(L)
    big = Project("p-big", L)
    cheap = [Project(f"q{j:03d}", L / m) for j in range(m)]
    ballots = [frozenset({"p-big"})] * 2
    ballots += [frozenset({cheap[i].id}) for i in range(n)]
    return AdversarialCase(
        family=family,
        params={"n": n, "m": m, "L": L},
        instance=PBInstance((big, *cheap), L),
        profile=ApprovalProfile(tuple(ballots)),
        expected_ratio=Fraction(2, n),
        **_ceiling(Fraction(4, n + 2)),  # 4 / N over all N = n + 2 voters
    )


def _build_av_rep(family: Family, m: int, x: int, L) -> AdversarialCase:
    if m < 2 or x < 1:
        raise ValueError("requires m >= 2 and x >= 1")
    L = as_fraction(L)
    projects = []
    ballots = []
    for g in range(m):
        group = [Project(f"g{g:02d}p{j:02d}", L / m) for j in range(m)]
        projects.extend(group)
        size = x + 1 if g == 0 else x
        ballots += [frozenset(p.id for p in group)] * size
    return AdversarialCase(
        family=family,
        params={"m": m, "x": x, "L": L},
        instance=PBInstance(tuple(projects), L),
        profile=ApprovalProfile(tuple(ballots)),
        expected_ratio=Fraction(x + 1, m * x + 1),
        **_ceiling(Fraction(2, m)),  # 2 * c_min / L with c_min = L/m
    )


def _build_cc_welfare(family: Family, n: int, L) -> AdversarialCase:
    if n < 2:
        raise ValueError("requires n >= 2")
    L = as_fraction(L)
    shared = [Project(f"s{j:02d}", L / n) for j in range(n)]
    singles = [Project(f"t{j:02d}", L / (n + 1)) for j in range(n + 1)]
    ballots = [frozenset(p.id for p in shared)] * n
    ballots += [frozenset({p.id}) for p in singles]
    k = (n * n - 1) // n
    return AdversarialCase(
        family=family,
        params={"n": n, "L": L},
        instance=PBInstance((*shared, *singles), L),
        profile=ApprovalProfile(tuple(ballots)),
        expected_ratio=Fraction(n + k, n * n),
        **_ceiling(Fraction(4, n + 1)),  # 4 * c_min / L, c_min = L/(n+1)
    )


def _build_pav_welfare(family: Family, x: int, L) -> AdversarialCase:
    if x < 2:
        raise ValueError("requires x >= 2")
    L = as_fraction(L)
    cheap = [Project(f"c{j:03d}", L / x) for j in range(x)]
    big = Project("p-big", L)
    ballots = [frozenset(p.id for p in cheap)]
    ballots += [frozenset({big.id})] * (math.floor(math.log(x)) + 2)
    expected = Fraction(math.floor(math.log(x)) + 2, x)
    bound = (math.log(x) + 2) / x  # (c_min/L)(ln(L/c_min) + 2)
    return AdversarialCase(
        family=family,
        params={"x": x, "L": L},
        instance=PBInstance((*cheap, big), L),
        profile=ApprovalProfile(tuple(ballots)),
        expected_ratio=expected,
        bound_value=bound,
        bound_holds=lambda r, b=bound: float(r) <= b + 1e-12,
        notes="one voter on the cheap tail, floor(log x)+2 on the big project",
    )


def _build_pav_rep(family: Family, L: int) -> AdversarialCase:
    n = math.floor(math.log(L)) - 1
    if n < 1:
        raise ValueError("requires floor(log L) >= 2, i.e. L >= 8")
    big = Project("p-big", Fraction(L))
    units = [Project(f"u{j:03d}", Fraction(1)) for j in range(int(L))]
    first = frozenset({big.id}) | frozenset(u.id for u in units)
    rest = frozenset({big.id})
    ballots = [first] + [rest] * (n - 1)
    return AdversarialCase(
        family=family,
        params={"L": L, "n": n},
        instance=PBInstance((big, *units), Fraction(L)),
        profile=ApprovalProfile(tuple(ballots)),
        expected_ratio=Fraction(1, n),
        **_ceiling(Fraction(1, n)),
    )


def _build_ejr_rep(family: Family, n: int, L) -> AdversarialCase:
    if n < 2:
        raise ValueError("requires n >= 2")
    L = as_fraction(L)
    eps = L / (100 * n)  # any sufficiently small positive value works
    tiny = [Project("a0", L / (2 * n)), Project("a1", L / (2 * n))]
    big = Project("b", Fraction(n - 1, n) * L + eps)
    ballots = [frozenset({"a0", "a1"})] + [frozenset({"b"})] * (n - 1)
    return AdversarialCase(
        family=family,
        params={"n": n, "L": L, "eps": eps},
        instance=PBInstance((*tiny, big), L),
        profile=ApprovalProfile(tuple(ballots)),
        expected_ratio=Fraction(1, n),
        **_ceiling(Fraction(1, n - 1)),
        notes="proportionality-respecting rules must fund both tiny projects",
    )


def _build_ejr_welfare(family: Family, n: int, L) -> AdversarialCase:
    if n < 4:
        raise ValueError("requires n >= 4")
    L = as_fraction(L)
    s = math.isqrt(n)
    shared = [Project(f"s{j:03d}", L / n) for j in range(n)]
    singles = [Project(f"t{j:03d}", L / n) for j in range(n - s)]
    ballots = [frozenset(p.id for p in shared)] * s
    ballots += [frozenset({p.id}) for p in singles]
    expected = Fraction(s * s + n - s, n * s)

    def under(r: Fraction, n=n) -> bool:
        # r <= 4/sqrt(n) - 1/n  <=>  (r + 1/n)^2 * n <= 16, both sides positive
        return (r + Fraction(1, n)) ** 2 * n <= 16

    return AdversarialCase(
        family=family,
        params={"n": n, "L": L, "s": s},
        instance=PBInstance((*shared, *singles), L),
        profile=ApprovalProfile(tuple(ballots)),
        expected_ratio=expected,
        bound_value=4 / math.sqrt(n) - 1 / n,
        bound_holds=under,
    )


class Construction(NamedTuple):
    rule: str  # a name of `bench.RULES`
    kind: str  # the ratio: "sw" | "rp"
    build: Callable[..., AdversarialCase]  # (family, **params) -> case
    sweep: list[dict]  # the default parameter points


FAMILIES = {
    Family.GREEDY_WELFARE: Construction(
        "sPAV", "sw", _build_greedy,
        [{"n": n, "m": n, "L": 1000} for n in range(10, 210, 20)]),
    Family.GREEDY_REP: Construction(
        "sPAV", "rp", _build_greedy,
        [{"n": n, "m": n, "L": 1000} for n in range(10, 210, 20)]),
    Family.AV_REP: Construction(
        "AV", "rp", _build_av_rep,
        [{"m": m, "x": x, "L": 100} for m in range(2, 7) for x in (1, 3)]),
    Family.CC_WELFARE: Construction(
        "CC", "sw", _build_cc_welfare,
        [{"n": n, "L": 100} for n in range(3, 13)]),
    Family.PAV_WELFARE: Construction(
        "PAV", "sw", _build_pav_welfare,
        [{"x": x, "L": 100} for x in range(4, 14)]),
    Family.PAV_REP: Construction(
        "PAV", "rp", _build_pav_rep,
        [{"L": L} for L in range(8, 28, 2)]),
    Family.EJR_REP: Construction(
        "RX", "rp", _build_ejr_rep,
        [{"n": n, "L": 100} for n in range(2, 12)]),
    Family.EJR_WELFARE: Construction(
        "RX", "sw", _build_ejr_welfare,
        [{"n": n, "L": 100} for n in range(4, 14)]),
}


def build(family: Family, **params) -> AdversarialCase:
    """Construct a worst-case instance for the given family."""
    family = Family(family)
    return FAMILIES[family].build(family, **params)


def verify(case: AdversarialCase,
           search_budget: SearchBudget = SearchBudget()) -> VerifyReport:
    """Replay the target rule and check the claimed ratio and ceiling.

    Ties go to the worst bundle for the ratio in question; sPAV, which has
    no tie set, falls back to cheapest-first.  The ratio divides the
    bundle's sw or rp by that one optimum, so `verify` searches once.
    """
    inst, prof, kind = case.instance, case.profile, case.ratio_kind
    bundle = run_rule(case.target_rule, inst, prof,
                      TieBreakPolicy(f"worst-{kind}"), search_budget)
    score = social_welfare if kind == "sw" else representation
    achieved = Fraction(score(prof, bundle),
                        optimum_value(kind, inst, prof, search_budget))
    return VerifyReport(
        case=case,
        achieved_ratio=achieved,
        matches_expected=(achieved == case.expected_ratio),
        under_bound=case.bound_holds(achieved),
    )


def default_sweeps() -> dict[Family, list[dict]]:
    """Parameter sweeps used by the CLI and the acceptance suite."""
    return {family: [dict(params) for params in construction.sweep]
            for family, construction in FAMILIES.items()}
