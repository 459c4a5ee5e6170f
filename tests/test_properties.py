"""Property tests for the grouped equal-shares loop, grouped sPAV and the
bitset EJR search.

Elections are small and drawn from a small pool of ballots, so duplicate
ballots and empty ballots are common; both change how voters are grouped.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_ejr_violated
from pbvoting.core import ApprovalProfile, PBInstance, Project
from pbvoting.exact import TieBreakPolicy
from pbvoting.fairness import find_ejr_violation, is_cohesive, max_t_cap
from pbvoting.sequential import rule_x, rule_x_eps, seq_pav


@st.composite
def elections(draw, max_projects: int = 6, max_voters: int = 9):
    m = draw(st.integers(1, max_projects))
    ids = [f"p{j}" for j in range(m)]
    costs = [Fraction(draw(st.integers(1, 20)), draw(st.sampled_from([1, 2])))
             for _ in ids]
    budget = Fraction(draw(st.integers(1, int(2 * sum(costs)))), 2)
    pool = draw(st.lists(st.frozensets(st.sampled_from(ids)),
                         min_size=1, max_size=4)) + [frozenset()]
    ballots = draw(st.lists(st.sampled_from(pool), min_size=1,
                            max_size=max_voters))
    instance = PBInstance(tuple(map(Project, ids, costs)), budget)
    return instance, ApprovalProfile(tuple(ballots))


@given(elections(), st.data())
def test_ejr_status_matches_oracle_at_every_cap(election, data):
    inst, prof = election
    bundle = data.draw(st.frozensets(st.sampled_from(inst.project_ids)))
    top = max_t_cap(inst)
    for t_cap in range(top + 2):
        verdict = find_ejr_violation(inst, prof, bundle, t_cap)
        assert verdict.cap == t_cap
        if oracle_ejr_violated(inst, prof, bundle, t_cap):
            assert verdict.status == "violated"
            S, T = verdict.witness.voters, verdict.witness.projects
            assert 1 <= len(T) <= t_cap
            assert is_cohesive(inst, prof, S, T)
            assert all(len(prof.ballots[i] & bundle) < len(T) for i in S)
        else:
            assert verdict.status == ("satisfied" if t_cap >= top
                                      else "unknown")
            assert verdict.witness is None


def _outcomes(inst, prof):
    return (rule_x(inst, prof), rule_x_eps(inst, prof),
            rule_x_eps(inst, prof, "fixed:1/1000"), seq_pav(inst, prof),
            seq_pav(inst, prof, TieBreakPolicy.random_seeded(3)))


@given(elections(), st.randoms(use_true_random=False))
def test_rules_ignore_voter_order(election, rng):
    inst, prof = election
    ballots = list(prof.ballots)
    rng.shuffle(ballots)
    assert _outcomes(inst, ApprovalProfile(tuple(ballots))) == \
        _outcomes(inst, prof)


@given(elections(), st.integers(2, 4))
def test_rules_ignore_duplicating_every_ballot(election, k):
    inst, prof = election
    assert _outcomes(inst, ApprovalProfile(prof.ballots * k)) == \
        _outcomes(inst, prof)


def test_huge_t_cap_costs_no_memory_per_unit():
    # corpus runs pass t_cap=10**9 to mean "uncapped"
    projects = tuple(Project(f"p{j}", 1 + j % 3) for j in range(8))
    inst = PBInstance(projects, 6)
    prof = ApprovalProfile(tuple(
        frozenset(p.id for p in projects[i % 4:i % 4 + 5]) for i in range(12)))
    for bundle in (frozenset(), frozenset({"p0", "p1"})):
        tracemalloc.start()
        try:
            small = find_ejr_violation(inst, prof, bundle, max_t_cap(inst))
            _, peak_small = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            huge = find_ejr_violation(inst, prof, bundle, 10 ** 9)
            _, peak_huge = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (huge.status, huge.witness) == (small.status, small.witness)
        assert peak_huge <= 2 * peak_small + 65536
