"""Constructors for worst-case instance families.

Each family builds a concrete instance/profile pair together with the exact
ratio a named rule achieves on it and a closed-form ceiling the ratio must
stay under.  `verify` replays the rule and checks both claims, which turns
every analytic upper-bound argument into an executable test.

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
from functools import partial
from typing import Callable

from .bench import run_rule, score_bundles
from .core import ApprovalProfile, PBInstance, Project, as_fraction
from .exact import SearchBudget, TieBreakPolicy


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
    target_rule: str
    ratio_kind: str  # "sw" | "rp"
    expected_ratio: Fraction
    bound_value: float
    bound_holds: Callable[[Fraction], bool]
    notes: str = ""


@dataclass(frozen=True)
class VerifyReport:
    case: AdversarialCase
    achieved_ratio: Fraction
    matches_expected: bool
    under_bound: bool

    @property
    def ok(self) -> bool:
        return self.matches_expected and self.under_bound


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
    expected = Fraction(2, n)
    N = n + 2
    return AdversarialCase(
        family=family,
        params={"n": n, "m": m, "L": L},
        instance=PBInstance((big, *cheap), L),
        profile=ApprovalProfile(tuple(ballots)),
        target_rule="sPAV",
        ratio_kind="sw" if family is Family.GREEDY_WELFARE else "rp",
        expected_ratio=expected,
        bound_value=4 / N,
        bound_holds=lambda r, N=N: r <= Fraction(4, N),
    )


def _build_av_rep(m: int, x: int, L) -> AdversarialCase:
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
    c_min = L / m
    return AdversarialCase(
        family=Family.AV_REP,
        params={"m": m, "x": x, "L": L},
        instance=PBInstance(tuple(projects), L),
        profile=ApprovalProfile(tuple(ballots)),
        target_rule="AV",
        ratio_kind="rp",
        expected_ratio=Fraction(x + 1, m * x + 1),
        bound_value=float(2 * c_min / L),
        bound_holds=lambda r, b=2 * c_min / L: r <= b,
    )


def _build_cc_welfare(n: int, L) -> AdversarialCase:
    if n < 2:
        raise ValueError("requires n >= 2")
    L = as_fraction(L)
    shared = [Project(f"s{j:02d}", L / n) for j in range(n)]
    singles = [Project(f"t{j:02d}", L / (n + 1)) for j in range(n + 1)]
    ballots = [frozenset(p.id for p in shared)] * n
    ballots += [frozenset({p.id}) for p in singles]
    k = (n * n - 1) // n
    return AdversarialCase(
        family=Family.CC_WELFARE,
        params={"n": n, "L": L},
        instance=PBInstance((*shared, *singles), L),
        profile=ApprovalProfile(tuple(ballots)),
        target_rule="CC",
        ratio_kind="sw",
        expected_ratio=Fraction(n + k, n * n),
        bound_value=4 / (n + 1),  # 4 * c_min / L with c_min = L/(n+1)
        bound_holds=lambda r, n=n: r <= Fraction(4, n + 1),
    )


def _build_pav_welfare(x: int, L) -> AdversarialCase:
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
        family=Family.PAV_WELFARE,
        params={"x": x, "L": L},
        instance=PBInstance((*cheap, big), L),
        profile=ApprovalProfile(tuple(ballots)),
        target_rule="PAV",
        ratio_kind="sw",
        expected_ratio=expected,
        bound_value=bound,
        bound_holds=lambda r, b=bound: float(r) <= b + 1e-12,
        notes="one voter on the cheap tail, floor(log x)+2 on the big project",
    )


def _build_pav_rep(L: int) -> AdversarialCase:
    n = math.floor(math.log(L)) - 1
    if n < 1:
        raise ValueError("requires floor(log L) >= 2, i.e. L >= 8")
    big = Project("p-big", Fraction(L))
    units = [Project(f"u{j:03d}", Fraction(1)) for j in range(int(L))]
    first = frozenset({big.id}) | frozenset(u.id for u in units)
    rest = frozenset({big.id})
    ballots = [first] + [rest] * (n - 1)
    expected = Fraction(1, n)
    return AdversarialCase(
        family=Family.PAV_REP,
        params={"L": L, "n": n},
        instance=PBInstance((big, *units), Fraction(L)),
        profile=ApprovalProfile(tuple(ballots)),
        target_rule="PAV",
        ratio_kind="rp",
        expected_ratio=expected,
        bound_value=1 / n,
        bound_holds=lambda r, n=n: r <= Fraction(1, n),
    )


def _build_ejr_rep(n: int, L) -> AdversarialCase:
    if n < 2:
        raise ValueError("requires n >= 2")
    L = as_fraction(L)
    eps = L / (100 * n)  # any sufficiently small positive value works
    tiny = [Project("a0", L / (2 * n)), Project("a1", L / (2 * n))]
    big = Project("b", Fraction(n - 1, n) * L + eps)
    ballots = [frozenset({"a0", "a1"})] + [frozenset({"b"})] * (n - 1)
    return AdversarialCase(
        family=Family.EJR_REP,
        params={"n": n, "L": L, "eps": eps},
        instance=PBInstance((*tiny, big), L),
        profile=ApprovalProfile(tuple(ballots)),
        target_rule="RX",
        ratio_kind="rp",
        expected_ratio=Fraction(1, n),
        bound_value=1 / (n - 1) if n > 1 else 1.0,
        bound_holds=lambda r, n=n: r <= Fraction(1, n - 1),
        notes="proportionality-respecting rules must fund both tiny projects",
    )


def _build_ejr_welfare(n: int, L) -> AdversarialCase:
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
        family=Family.EJR_WELFARE,
        params={"n": n, "L": L, "s": s},
        instance=PBInstance((*shared, *singles), L),
        profile=ApprovalProfile(tuple(ballots)),
        target_rule="RX",
        ratio_kind="sw",
        expected_ratio=expected,
        bound_value=4 / math.sqrt(n) - 1 / n,
        bound_holds=under,
    )


_BUILDERS = {
    Family.GREEDY_WELFARE: partial(_build_greedy, Family.GREEDY_WELFARE),
    Family.GREEDY_REP: partial(_build_greedy, Family.GREEDY_REP),
    Family.AV_REP: _build_av_rep,
    Family.CC_WELFARE: _build_cc_welfare,
    Family.PAV_WELFARE: _build_pav_welfare,
    Family.PAV_REP: _build_pav_rep,
    Family.EJR_REP: _build_ejr_rep,
    Family.EJR_WELFARE: _build_ejr_welfare,
}


def build(family: Family, **params) -> AdversarialCase:
    """Construct a worst-case instance for the given family."""
    return _BUILDERS[Family(family)](**params)


def verify(case: AdversarialCase,
           search_budget: SearchBudget = SearchBudget()) -> VerifyReport:
    """Replay the target rule, score its bundle as `bench.score_bundles`
    scores a row, and check the claimed ratio and ceiling.

    Ties go to the worst bundle for the ratio in question; sPAV, which has
    no tie set, falls back to cheapest-first.
    """
    inst, prof = case.instance, case.profile
    worst = (TieBreakPolicy.worst_sw() if case.ratio_kind == "sw"
             else TieBreakPolicy.worst_rp())
    bundle = run_rule(case.target_rule, inst, prof, worst, search_budget)
    _, _, util, rep = score_bundles(inst, prof, {case.target_rule: bundle},
                                    search_budget)[case.target_rule]
    achieved = util if case.ratio_kind == "sw" else rep
    return VerifyReport(
        case=case,
        achieved_ratio=achieved,
        matches_expected=(achieved == case.expected_ratio),
        under_bound=case.bound_holds(achieved),
    )


def default_sweeps() -> dict[Family, list[dict]]:
    """Parameter sweeps used by the CLI and the acceptance suite."""
    return {
        Family.GREEDY_WELFARE: [
            {"n": n, "m": n, "L": 1000} for n in range(10, 210, 20)],
        Family.GREEDY_REP: [
            {"n": n, "m": n, "L": 1000} for n in range(10, 210, 20)],
        Family.AV_REP: [
            {"m": m, "x": x, "L": 100}
            for m in range(2, 7) for x in (1, 3)],
        Family.CC_WELFARE: [
            {"n": n, "L": 100} for n in range(3, 13)],
        Family.PAV_WELFARE: [
            {"x": x, "L": 100} for x in range(4, 14)],
        Family.PAV_REP: [
            {"L": L} for L in range(8, 28, 2)],
        Family.EJR_REP: [
            {"n": n, "L": 100} for n in range(2, 12)],
        Family.EJR_WELFARE: [
            {"n": n, "L": 100} for n in range(4, 14)],
    }
