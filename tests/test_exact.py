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
    # on city, solve_pav takes 41 nodes, solve_av 32 and the rp optimum 34
    inst, prof = city_pair
    with pytest.raises(SearchBudgetExceeded, match=(
            r"^exceeded search budget of 3 nodes "
            r"in the ties phase of the pav search$")):
        solve_pav(inst, prof, search_budget=SearchBudget(max_nodes=3))
    with pytest.raises(SearchBudgetExceeded,
                       match="in the optimum phase of the rp search$"):
        optimum_value("rp", inst, prof, SearchBudget(max_nodes=10))
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


@pytest.mark.parametrize("n_voters, n_projects", [(200, 30), (1000, 40)])
def test_rp_optimum_of_a_large_election_takes_few_nodes(n_voters, n_projects):
    # a coverage bound that counts an uncovered voter once for each
    # affordable project they approve ran past 300,000 nodes on both
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=n_voters,
                                                  n_projects=n_projects))
    assert optimum_value("rp", inst, prof, SearchBudget(1000)) == n_voters


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
    # branching in density order, this select took 1,412,099 nodes
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=200,
                                                  n_projects=30))
    search = _Search(compile_election(inst, prof), "rp", SearchBudget())
    assert search.select(TieBreakPolicy.worst_sw()) == frozenset(
        {"p005", "p011", "p012", "p018", "p025", "p029"})
    assert search.stats.nodes == 197_383


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
# rp branches by reach (see `exact`); on city its first descent funds
# district A alone, so its optimum takes 34 nodes where the density order,
# whose first leaf was optimal, took 19.
#   (instance, objective): (optimum before, optimum,
#                           (optimum + ties before), (one pass))
PINNED_NODES = {
    ("city", "sw"): (32, 32, (62, 62, 62), (32, 32, 32)),
    ("city", "rp"): (661, 34, (1643, 1591, 1643), (1008, 552, 1008)),
    ("city", "pav"): (114, 32, (227, 227, 227), (41, 41, 41)),
    ("euclidean-desk-1", "sw"): (31, 31, (62, 62, 60), (31, 31, 31)),
    ("euclidean-desk-1", "rp"): (759, 179, (1908, 1772, 1908),
                                 (635, 573, 635)),
    ("euclidean-desk-1", "pav"): (129, 37, (258, 258, 258), (37, 37, 37)),
    ("euclidean-desk-2", "sw"): (23, 23, (50, 50, 48), (27, 27, 25)),
    ("euclidean-desk-2", "rp"): (921, 77, (2860, 2330, 2860),
                                 (1175, 785, 1175)),
    ("euclidean-desk-2", "pav"): (57, 27, (114, 114, 114), (27, 27, 27)),
}


# SearchStats of the optimum search and of the lex one pass:
#   (nodes, knapsack prunes, leaves, maximal optima, restarts)
PINNED_STATS = {
    ("city", "sw"): ((32, 9, 5, 0, 0), (32, 9, 5, 1, 2)),
    ("city", "rp"): ((34, 7, 7, 0, 0), (1008, 19, 380, 78, 4)),
    ("city", "pav"): ((32, 10, 3, 0, 0), (41, 10, 5, 2, 2)),
    ("euclidean-desk-1", "sw"): ((31, 13, 3, 0, 0), (31, 13, 3, 2, 2)),
    ("euclidean-desk-1", "rp"): ((179, 77, 13, 0, 0),
                                 (635, 171, 147, 28, 5)),
    ("euclidean-desk-1", "pav"): ((37, 15, 4, 0, 0), (37, 15, 4, 1, 1)),
    ("euclidean-desk-2", "sw"): ((23, 10, 2, 0, 0), (27, 10, 4, 3, 1)),
    ("euclidean-desk-2", "rp"): ((77, 35, 4, 0, 0),
                                 (1175, 224, 364, 68, 3)),
    ("euclidean-desk-2", "pav"): ((27, 11, 3, 0, 0), (27, 11, 3, 1, 2)),
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
