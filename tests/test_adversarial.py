import re
from fractions import Fraction

import pytest

from pbvoting import adversarial, bench, exact
from pbvoting.adversarial import Family, build, default_sweeps, verify
from pbvoting.core import social_welfare
from pbvoting.exact import TieBreakPolicy, solve_cc, optimum_value
from pbvoting.sequential import seq_pav


def test_av_rep_reference_point():
    # five equal-size-plus-one groups: AV keeps only the big group
    case = build(Family.AV_REP, m=5, x=3, L=100)
    report = verify(case)
    assert report.ok
    assert report.achieved_ratio == Fraction(4, 16)


def test_cc_welfare_reference_point():
    # n=4: welfare optimum 16, coverage-optimal worst bundle scores 4+3
    case = build(Family.CC_WELFARE, n=4, L=100)
    bundle = solve_cc(case.instance, case.profile, TieBreakPolicy.worst_sw())
    assert social_welfare(case.profile, bundle) == 7
    assert optimum_value("sw", case.instance, case.profile) == 16
    assert verify(case).achieved_ratio == Fraction(7, 16)


def test_greedy_family_structure():
    case = build(Family.GREEDY_WELFARE, n=10, m=10, L=1000)
    bundle = seq_pav(case.instance, case.profile)
    assert bundle == frozenset({"p-big"})  # first gain 2 beats every 1
    assert verify(case).achieved_ratio == Fraction(2, 10)


def test_greedy_family_rejects_shared_cheap_projects():
    with pytest.raises(ValueError):
        build(Family.GREEDY_WELFARE, n=10, m=5, L=1000)


def test_ejr_rep_structure():
    case = build(Family.EJR_REP, n=5, L=100)
    assert verify(case).achieved_ratio == Fraction(1, 5)
    # representation optimum funds the big project for the n-1 voters
    assert optimum_value("rp", case.instance, case.profile) == 5


def test_pav_rep_structure():
    case = build(Family.PAV_REP, L=25)
    assert case.params["n"] == 2
    assert verify(case).achieved_ratio == Fraction(1, 2)


def test_pav_rep_requires_large_budget():
    with pytest.raises(ValueError):
        build(Family.PAV_REP, L=7)


def test_ejr_welfare_bound_is_exact_arithmetic():
    case = build(Family.EJR_WELFARE, n=9, L=100)
    s = case.params["s"]
    assert s == 3
    assert case.expected_ratio == Fraction(3 * 3 + 9 - 3, 9 * 3)
    assert case.bound_holds(case.expected_ratio)


def test_all_sweeps_have_at_least_ten_points():
    for family, sweeps in default_sweeps().items():
        assert len(sweeps) >= 10, family


def test_every_family_verifies():
    # the timed full-sweep run lives in the acceptance suite; spot-check one
    # parameter point per family here
    for family, sweeps in default_sweeps().items():
        report = verify(build(family, **sweeps[0]))
        assert report.matches_expected, (family, report.achieved_ratio,
                                         report.case.expected_ratio)
        assert report.under_bound, family


def test_build_rejects_unknown_family():
    with pytest.raises(ValueError):
        build("NOT_A_FAMILY")


def test_verify_searches_only_the_optimum_of_its_ratio(monkeypatch):
    searched = []

    def recorded(objective, *args):
        searched.append(objective)
        return optimum_value(objective, *args)

    for module in (exact, bench, adversarial):
        monkeypatch.setattr(module, "optimum_value", recorded, raising=False)
    for family, sweeps in default_sweeps().items():
        searched.clear()
        case = build(family, **sweeps[0])
        assert verify(case).ok, family
        assert searched == [case.ratio_kind], family


@pytest.mark.parametrize("family, params, message", [
    (Family.GREEDY_WELFARE, {"n": 2, "m": 2, "L": 1000},
     "requires n >= 3 and m >= n"),
    (Family.GREEDY_REP, {"n": 2, "m": 2, "L": 1000},
     "requires n >= 3 and m >= n"),
    (Family.AV_REP, {"m": 1, "x": 1, "L": 100}, "requires m >= 2 and x >= 1"),
    (Family.AV_REP, {"m": 2, "x": 0, "L": 100}, "requires m >= 2 and x >= 1"),
    (Family.CC_WELFARE, {"n": 1, "L": 100}, "requires n >= 2"),
    (Family.PAV_WELFARE, {"x": 1, "L": 100}, "requires x >= 2"),
    (Family.PAV_REP, {"L": 7}, "requires floor(log L) >= 2, i.e. L >= 8"),
    (Family.EJR_REP, {"n": 1, "L": 100}, "requires n >= 2"),
    (Family.EJR_WELFARE, {"n": 3, "L": 100}, "requires n >= 4"),
])
def test_each_builder_rejects_a_parameter_below_its_minimum(family, params,
                                                             message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(family, **params)
