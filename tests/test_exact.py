from dataclasses import astuple
from fractions import Fraction

import pytest

from conftest import oracle_search, random_instance
from pbvoting.core import (ApprovalProfile, PBInstance, Project,
                           compile_election, pav_score, representation,
                           social_welfare)
from pbvoting.datagen import EuclideanConfig, gen_euclidean, generate
from pbvoting.exact import (SearchBudget, SearchBudgetExceeded,
                            TieBreakPolicy, _Search, optimum_value, solve_av,
                            solve_cc, solve_pav)
from pbvoting.instances import city


def test_tiebreak_policy_validation():
    with pytest.raises(ValueError):
        TieBreakPolicy("nope")
    with pytest.raises(ValueError):
        TieBreakPolicy("random")  # missing seed
    assert TieBreakPolicy.random_seeded(7).seed == 7


def test_av_on_tiny(tiny_pair):
    inst, prof = tiny_pair
    worst_rp = solve_av(inst, prof, TieBreakPolicy.worst_rp())
    assert worst_rp == frozenset({"p1", "p2"})
    assert social_welfare(prof, worst_rp) == 3
    assert representation(prof, worst_rp) == 2
    lex = solve_av(inst, prof, TieBreakPolicy.lex())
    assert social_welfare(prof, lex) == 3


def test_cc_and_pav_on_tiny(tiny_pair):
    inst, prof = tiny_pair
    assert solve_cc(inst, prof) == frozenset({"p1", "p3"})
    pav = solve_pav(inst, prof)
    assert pav == frozenset({"p1", "p3"})
    assert pav_score(prof, pav) == 3


def test_av_on_city(city_pair):
    inst, prof = city_pair
    bundle = solve_av(inst, prof, TieBreakPolicy.worst_rp())
    assert bundle == frozenset(
        {"A-d0", "A-d1"} | {f"A-g{i}" for i in range(6)})
    assert social_welfare(prof, bundle) == 800
    assert representation(prof, bundle) == 100


def test_cc_on_city(city_pair):
    # coverage optimum is 200; the least-welfare budget-exhausting optimum
    # funds one A diamond, three B diamonds and the C emerald
    inst, prof = city_pair
    bundle = solve_cc(inst, prof, TieBreakPolicy.worst_sw())
    assert representation(prof, bundle) == 200
    assert social_welfare(prof, bundle) == 380


def test_pav_on_city(city_pair):
    inst, prof = city_pair
    bundle = solve_pav(inst, prof, TieBreakPolicy.cheapest())
    assert bundle == frozenset(
        {f"A-g{i}" for i in range(5)} | {f"B-e{i}" for i in range(3)})
    assert social_welfare(prof, bundle) == 770
    assert representation(prof, bundle) == 190


def test_random_tiebreak_is_deterministic(city_pair):
    inst, prof = city_pair
    a = solve_pav(inst, prof, TieBreakPolicy.random_seeded(123))
    b = solve_pav(inst, prof, TieBreakPolicy.random_seeded(123))
    assert a == b
    scores = {pav_score(prof, x) for x in (a, b)}
    assert len(scores) == 1


def test_search_budget_exceeded(city_pair):
    # on city, solve_pav takes 41 nodes and solve_av 32; city's rp optimum
    # takes 1, and euclidean-desk-1's 91
    inst, prof = city_pair
    with pytest.raises(SearchBudgetExceeded, match=(
            r"^exceeded search budget of 3 nodes "
            r"in the ties phase of the pav search$")):
        solve_pav(inst, prof, search_budget=SearchBudget(max_nodes=3))
    with pytest.raises(SearchBudgetExceeded,
                       match="in the optimum phase of the rp search$"):
        optimum_value("rp", *generate("euclidean-desk", 1),
                      SearchBudget(max_nodes=10))
    with pytest.raises(SearchBudgetExceeded,
                       match="of 20 nodes in the ties phase of the sw search$"):
        solve_av(inst, prof, search_budget=SearchBudget(max_nodes=20))


def test_objectives_match_oracle_small_sample():
    # the full 500-instance comparison lives in the acceptance suite
    for seed in range(40):
        inst, prof = random_instance(seed, max_projects=9)
        for objective, solve in (("sw", solve_av), ("rp", solve_cc),
                                 ("pav", solve_pav)):
            best, optima = oracle_search(inst, prof, objective)
            assert optimum_value(objective, inst, prof) == best, (seed, objective)
            picked = solve(inst, prof, TieBreakPolicy.lex())
            assert picked == min(optima, key=lambda b: tuple(sorted(b))), \
                (seed, objective)


def test_worst_tie_policies_match_oracle():
    for seed in range(40):
        inst, prof = random_instance(seed, max_projects=8)
        _, optima = oracle_search(inst, prof, "rp")
        worst = solve_cc(inst, prof, TieBreakPolicy.worst_sw())
        assert social_welfare(prof, worst) == \
            min(social_welfare(prof, b) for b in optima), seed
        _, optima = oracle_search(inst, prof, "sw")
        worst = solve_av(inst, prof, TieBreakPolicy.worst_rp())
        assert representation(prof, worst) == \
            min(representation(prof, b) for b in optima), seed


def test_cheapest_tie_policy_matches_oracle():
    for seed in range(40):
        inst, prof = random_instance(seed, max_projects=8)
        _, optima = oracle_search(inst, prof, "pav")
        picked = solve_pav(inst, prof, TieBreakPolicy.cheapest())
        assert inst.cost_of(picked) == \
            min(inst.cost_of(b) for b in optima), seed


def test_outcome_is_budget_exhausting():
    # no unfunded project fits in the residual budget
    for seed in range(60):
        inst, prof = random_instance(seed, max_projects=10)
        bundle = solve_av(inst, prof)
        residual = inst.budget - inst.cost_of(bundle)
        assert all(p.cost > residual
                   for p in inst.projects if p.id not in bundle), seed


def test_interchangeable_projects_keep_canonical_ids():
    # five identical projects, budget for three: the lex pick funds p0..p2
    projects = tuple(Project(f"p{j}", 2) for j in range(5))
    inst = PBInstance(projects, 6)
    prof = ApprovalProfile((frozenset(p.id for p in projects),) * 3)
    assert solve_av(inst, prof) == frozenset({"p0", "p1", "p2"})
    assert optimum_value("sw", inst, prof) == 9
    assert optimum_value("pav", inst, prof) == 3 * Fraction(11, 6)


def test_lex_pick_searches_the_whole_tie_set():
    # about 209,000 optimal bundles: every mix of k `a` and 10-2k `b`
    # projects has welfare 10; the lex-least one funds five `a` projects
    a = [Project(f"a{i:02d}", 2) for i in range(12)]
    b = [Project(f"b{i:02d}", 1) for i in range(12)]
    inst = PBInstance(tuple(a + b), 10)
    prof = ApprovalProfile(tuple([frozenset({p.id}) for p in a for _ in "xy"]
                                 + [frozenset({p.id}) for p in b]))
    assert solve_av(inst, prof, TieBreakPolicy.lex()) == \
        frozenset(f"a{i:02d}" for i in range(5))


def test_secondary_cut_spares_a_branch_that_can_beat_the_incumbent():
    # the first maximal leaf is {x, z} with sw 1; the branch that funds y
    # already has sw 2 when z is undecided, which exceeds the worst-sw
    # pick so far, but it leads to the optimum {y, z}
    inst = PBInstance((Project("x", 1), Project("y", 2),
                       Project("z", Fraction(1, 2))), Fraction(5, 2))
    prof = ApprovalProfile((frozenset("x"), frozenset("y"), frozenset("y")))
    for policy in (TieBreakPolicy.worst_sw(), TieBreakPolicy.worst_rp()):
        assert solve_av(inst, prof, policy) == frozenset("yz")


@pytest.mark.parametrize("n_voters, n_projects",
                         [(200, 30), (1000, 40), (5000, 60)])
def test_rp_optimum_of_a_large_election_takes_few_nodes(n_voters, n_projects):
    # a coverage bound that counts an uncovered voter once for each
    # affordable project they approve ran past 300,000 nodes on the first
    # two; starting from 0, the piece knapsack took 29 and 115 nodes, and
    # over 100,000 on the third.  The greedy cover reaches every voter, and
    # no rp bound exceeds n, so the root is pruned
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=n_voters,
                                                  n_projects=n_projects))
    assert optimum_value("rp", inst, prof, SearchBudget(1)) == n_voters


def test_pav_optimum_of_a_voter_scale_election_is_pinned():
    # 200 voters and ballots of up to 17 projects, twice the longest that
    # the property tests draw, so funded approvals reach deep levels
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=200,
                                                  n_projects=30))
    assert max(map(len, prof.ballots)) == 17
    search = _Search(compile_election(inst, prof), "pav", SearchBudget())
    assert Fraction(search.optimum(), search.scale) == \
        Fraction(4675511, 9240)
    assert search.stats.nodes == 99  # 11,507 under the per-voter cap


def test_cc_worst_sw_at_voter_scale_is_pinned():
    # branching in density order, this select took 1,412,099 nodes; in
    # reach order, from an incumbent of 0, include-first and without the
    # maximality cut, 197,383
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=200,
                                                  n_projects=30))
    search = _Search(compile_election(inst, prof), "rp", SearchBudget())
    assert search.select(TieBreakPolicy.worst_sw()) == frozenset(
        {"p005", "p011", "p012", "p018", "p025", "p029"})
    assert search.stats.nodes == 30_295


def test_cc_worst_sw_at_a_thousand_voters_is_pinned():
    # in reach order, from an incumbent of 0, include-first and without the
    # maximality cut, this select took 431,229 nodes and 6 restarts
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=1000,
                                                  n_projects=40))
    search = _Search(compile_election(inst, prof), "rp", SearchBudget())
    assert search.select(TieBreakPolicy.worst_sw()) == frozenset(
        {"p000", "p004", "p005", "p008", "p011", "p014", "p025", "p030",
         "p032", "p033", "p038"})
    assert search.stats.nodes == 75_519
    assert search.stats.restarts == 0


def test_pav_at_a_thousand_voters_takes_few_nodes():
    # the per-voter cap and the marginal-gain knapsack took 262,243 nodes
    # to find this optimum; the piece knapsack reads 2,619 at the root
    # against an optimum of 2,595
    election = compile_election(*gen_euclidean(0, EuclideanConfig(
        n_voters=1000, n_projects=40)))
    search = _Search(election, "pav", SearchBudget(1000))
    assert Fraction(search.optimum(), search.scale) == \
        Fraction(103911217, 40040)
    assert search.stats.nodes == 421
    search = _Search(election, "pav", SearchBudget(1000))
    search.select(TieBreakPolicy.lex())
    assert search.stats.nodes == 421


# Nodes per search.  "optimum" is the optimum-only search of
# `optimum_value`; the one-pass counts are `select` under lex / worst-sw /
# worst-rp.  Each count sits next to the one it replaced, which it may not
# exceed: the optimum search before rp's bound counted each uncovered voter
# at most once, and before pav's bound was the piece knapsack, and the
# optimum search plus the separate tie search that `select` used to need.
# rp starts from the greedy cover's incumbent, prunes branches with no
# maximal leaf and branches exclusion-first under worst-sw (see `exact`);
# before, its (optimum, one pass) counts were city 34, (1008, 552, 1008),
# euclidean-desk-1 179, (635, 573, 635) and euclidean-desk-2 77,
# (1175, 785, 1175).  On city the cover reaches all 200 voters, so the
# optimum search prunes its root.
#   (instance, objective): (optimum before, optimum,
#                           (optimum + ties before), (one pass))
PINNED_NODES = {
    ("city", "sw"): (32, 32, (62, 62, 62), (32, 32, 32)),
    ("city", "rp"): (661, 1, (1643, 1591, 1643), (654, 169, 654)),
    ("city", "pav"): (114, 32, (227, 227, 227), (41, 41, 41)),
    ("euclidean-desk-1", "sw"): (31, 31, (62, 62, 60), (31, 31, 31)),
    ("euclidean-desk-1", "rp"): (759, 91, (1908, 1772, 1908),
                                 (445, 191, 445)),
    ("euclidean-desk-1", "pav"): (129, 37, (258, 258, 258), (37, 37, 37)),
    ("euclidean-desk-2", "sw"): (23, 23, (50, 50, 48), (27, 27, 25)),
    ("euclidean-desk-2", "rp"): (921, 65, (2860, 2330, 2860),
                                 (1037, 111, 1037)),
    ("euclidean-desk-2", "pav"): (57, 27, (114, 114, 114), (27, 27, 27)),
}


# SearchStats of the optimum search and of the lex one pass:
#   (nodes, knapsack prunes, maximality prunes, maximal leaves,
#    maximal optima, restarts)
# A non-maximal leaf is a maximality prune, so sw's and pav's leaves fell
# by their maximality prunes, and the rest of their counts are unchanged.
PINNED_STATS = {
    ("city", "sw"): ((32, 9, 1, 4, 0, 0), (32, 9, 1, 4, 1, 2)),
    ("city", "rp"): ((1, 1, 0, 0, 0, 0), (654, 5, 128, 106, 78, 0)),
    ("city", "pav"): ((32, 10, 1, 2, 0, 0), (41, 10, 1, 4, 2, 2)),
    ("euclidean-desk-1", "sw"): ((31, 13, 0, 3, 0, 0), (31, 13, 0, 3, 2, 2)),
    ("euclidean-desk-1", "rp"): ((91, 43, 1, 2, 0, 0),
                                 (445, 117, 68, 38, 28, 0)),
    ("euclidean-desk-1", "pav"): ((37, 15, 1, 3, 0, 0),
                                  (37, 15, 1, 3, 1, 1)),
    ("euclidean-desk-2", "sw"): ((23, 10, 0, 2, 0, 0), (27, 10, 0, 4, 3, 1)),
    ("euclidean-desk-2", "rp"): ((65, 33, 0, 0, 0, 0),
                                 (1037, 161, 277, 81, 68, 0)),
    ("euclidean-desk-2", "pav"): ((27, 11, 0, 3, 0, 0), (27, 11, 0, 3, 1, 2)),
}


@pytest.mark.parametrize("name, objective", sorted(PINNED_NODES))
def test_search_nodes_per_phase_are_pinned(name, objective):
    optimum_before, optimum, before, one_pass = PINNED_NODES[name, objective]
    assert optimum <= optimum_before
    assert all(now <= old for now, old in zip(one_pass, before))
    inst, prof = (city() if name == "city"
                  else generate("euclidean-desk", int(name.rsplit("-", 1)[1])))
    search = _Search(compile_election(inst, prof), objective,
                     SearchBudget())
    search.optimum()
    assert search.stats.nodes == optimum
    stats = [search.stats]
    for policy, expected in zip((TieBreakPolicy.lex(),
                                 TieBreakPolicy.worst_sw(),
                                 TieBreakPolicy.worst_rp()), one_pass):
        search = _Search(compile_election(inst, prof), objective,
                         SearchBudget())
        search.select(policy)
        assert search.stats.nodes == expected, policy.variant
        stats.append(search.stats)
    assert (astuple(stats[0]), astuple(stats[1])) == \
        PINNED_STATS[name, objective]
