import random

import pytest

from conftest import oracle_ejr_violated, oracle_is_cohesive, random_instance
from pbvoting.core import ApprovalProfile, PBInstance, Project
from pbvoting.exact import TieBreakPolicy, solve_av, solve_cc
from pbvoting.fairness import find_ejr_violation, is_cohesive, max_t_cap


def test_is_cohesive_on_city(city_pair):
    inst, prof = city_pair
    b_voters = range(100, 190)  # the 90 voters of district B
    three_emeralds = {f"B-e{i}" for i in range(3)}
    # share 90 * 5 = 450 covers the 450 cost
    assert is_cohesive(inst, prof, b_voters, three_emeralds)
    # district C's 10 voters cannot afford their emerald (50 < 150)
    assert not is_cohesive(inst, prof, range(190, 200), {"C-e0"})
    # not jointly approved
    assert not is_cohesive(inst, prof, [0, 100], {"A-g0"})


def test_is_cohesive_validates_inputs(city_pair):
    inst, prof = city_pair
    with pytest.raises(ValueError):
        is_cohesive(inst, prof, [999], {"A-g0"})


def test_a_project_no_voter_approves_makes_no_group_cohesive():
    # "z" is in the instance but not among the profile's ids, so its
    # bit is missing from the profile's mask of T
    inst = PBInstance((Project("a", 1), Project("z", 1)), 10)
    prof = ApprovalProfile((frozenset({"a"}),) * 2)
    assert "z" not in prof.ids
    assert is_cohesive(inst, prof, [0, 1], {"a"})
    assert not is_cohesive(inst, prof, [0, 1], {"z"})
    assert not is_cohesive(inst, prof, [0], {"a", "z"})
    assert not is_cohesive(inst, prof, [], {"z"})
    assert is_cohesive(inst, prof, [], [])


def test_is_cohesive_matches_a_ballot_walk():
    # empty and drawn voter sets, and for each T its full supporter set,
    # over T that may hold projects that no voter approves
    counts = {True: 0, False: 0, "unapproved": 0}
    for seed in range(120):
        inst, prof = random_instance(seed)
        rng = random.Random(seed)
        ids = inst.project_ids
        for _ in range(6):
            T = frozenset(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
            supporters = [i for i, ballot in enumerate(prof.ballots)
                          if T <= ballot]
            drawn = rng.sample(range(prof.n_voters),
                               rng.randint(1, prof.n_voters))
            for S in ([], supporters, drawn):
                got = is_cohesive(inst, prof, S, T)
                assert got == oracle_is_cohesive(inst, prof, S, T), \
                    (seed, S, T)
                counts[got] += 1
                counts["unapproved"] += bool(S and T - set(prof.ids))
    assert min(counts.values()) > 50, counts


def test_no_voters_have_share_zero(city_pair):
    inst, _ = city_pair
    nobody = ApprovalProfile(())
    assert is_cohesive(inst, nobody, [], [])
    assert not is_cohesive(inst, nobody, [], {"A-g0"})
    assert find_ejr_violation(inst, nobody, []).status == "satisfied"


def test_t_caps(city_pair):
    inst, prof = city_pair
    assert max_t_cap(inst) == 10  # 1000 // 100
    assert find_ejr_violation(inst, prof, []).cap == 10


def test_the_default_cap_is_max_t_cap_up_to_ten():
    below = above = 0
    for seed in range(200):
        inst, prof = random_instance(seed)
        top = max_t_cap(inst)
        assert find_ejr_violation(inst, prof, []).cap == min(top, 10), seed
        below += top < 10
        above += top > 10
    assert below and above  # the sample reaches both sides of the cap


def test_city_av_bundle_violates_ejr(city_pair):
    inst, prof = city_pair
    av = solve_av(inst, prof, TieBreakPolicy.worst_rp())
    verdict = find_ejr_violation(inst, prof, av)
    assert verdict.status == "violated"
    S, T = verdict.witness.voters, verdict.witness.projects
    assert is_cohesive(inst, prof, S, T)
    # the witness re-checks: every member is under-served
    assert all(len(prof.ballots[i] & av) < len(T) for i in S)


def test_city_cc_bundle_violates_ejr(city_pair):
    inst, prof = city_pair
    cc = solve_cc(inst, prof, TieBreakPolicy.worst_sw())
    assert find_ejr_violation(inst, prof, cc).status == "violated"


def test_city_harmonic_bundle_satisfies_ejr(city_pair):
    inst, prof = city_pair
    bundle = frozenset(
        {f"A-g{i}" for i in range(5)} | {f"B-e{i}" for i in range(3)})
    verdict = find_ejr_violation(inst, prof, bundle, max_t_cap(inst))
    assert verdict.status == "satisfied"
    assert verdict.ok


def test_audit_counts_the_sets_it_tries(city_pair):
    inst, prof = city_pair
    av = solve_av(inst, prof, TieBreakPolicy.worst_rp())
    cc = solve_cc(inst, prof, TieBreakPolicy.worst_sw())
    harmonic = frozenset(
        {f"A-g{i}" for i in range(5)} | {f"B-e{i}" for i in range(3)})
    # a violation ends the search at its witness
    assert find_ejr_violation(inst, prof, av).examined == 1
    assert find_ejr_violation(inst, prof, cc).examined == 2
    # without one, a deeper cap tries more sets; depth 0 tries none
    assert [find_ejr_violation(inst, prof, harmonic, t).examined
            for t in (0, 4, 5, 6, 10)] == [0, 41, 41, 1158, 1158]


def test_low_cap_returns_unknown():
    # both voters already have one funded project, so every violating
    # witness needs |T| >= 2 and a cap of 1 cannot decide
    inst = PBInstance((Project("a", 1), Project("b", 1), Project("d", 1)), 3)
    prof = ApprovalProfile((frozenset({"a", "b", "d"}),) * 2)
    funded = frozenset({"d"})
    assert find_ejr_violation(inst, prof, funded, 1).status == "unknown"
    assert find_ejr_violation(inst, prof, funded, 2).status == "violated"


def test_matches_bruteforce_oracle_small_sample():
    checked = 0
    for seed in range(60):
        inst, prof = random_instance(seed, max_projects=8)
        if prof.n_voters == 0:
            continue
        for bundle in (solve_av(inst, prof), frozenset()):
            got = find_ejr_violation(inst, prof, bundle, max_t_cap(inst))
            assert got.status in ("violated", "satisfied")
            assert (got.status == "violated") == \
                oracle_ejr_violated(inst, prof, bundle), (seed, bundle)
            checked += 1
    assert checked > 50
