"""Property tests for the compiled election, the equal-shares loop over
money classes, sPAV on voter levels, the bitset EJR search and the integer
branch and bound of the exact rules.

Elections are small and drawn from a small pool of ballots, so duplicate
ballots and empty ballots are common; both change how voters fall into
money classes.
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (clear_memos, oracle_ejr_violated, oracle_equal_shares,
                      oracle_instances_equal, oracle_search, oracle_seq_pav,
                      random_instance)
from pbvoting import core
from pbvoting.core import (ApprovalProfile, PBInstance, Project,
                           compile_election, pav_score, representation,
                           social_welfare)
from pbvoting.exact import (SearchBudget, TieBreakPolicy, _Search,
                            harmonic_gains, optimum_value, solve_av, solve_cc,
                            solve_pav)
from pbvoting.datagen import (EuclideanConfig, gen_euclidean, gen_party_list,
                              generate)
from pbvoting.fairness import (_levels, find_ejr_violation, is_cohesive,
                               max_t_cap)
from pbvoting.sequential import (EqualSharesTrace, NoVotersError, rule_x,
                                 rule_x_eps, seq_pav)


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


@given(elections(), st.data())
def test_ejr_levels_match_a_recount_of_funded_approvals(election, data):
    inst, prof = election
    bundle = data.draw(st.frozensets(st.sampled_from(inst.project_ids)))
    e = compile_election(inst, prof)
    for depth in range(max(map(len, prof.ballots)) + 1):
        under = _levels(e, bundle, depth)
        assert under == [sum(1 << i for i, ballot in enumerate(prof.ballots)
                             if len(ballot & bundle) < k)
                         for k in range(depth + 1)]


@st.composite
def mixed_unit_elections(draw):
    # costs in units of 1, 1/2, 1/3, 1/7 and 1/100, and ballots of up to 8
    # projects, so the search scales harmonic scores by up to lcm(1..8)
    m = draw(st.integers(1, 10))
    ids = [f"p{j}" for j in range(m)]

    def amount(low, high):
        unit = draw(st.sampled_from([1, 2, 3, 7, 100]))
        return Fraction(draw(st.integers(low * unit, high * unit)), unit)

    costs = [amount(1, 20) for _ in ids]
    budget = amount(1, int(sum(costs)))
    ballot = st.frozensets(st.sampled_from(ids), max_size=8)
    if draw(st.booleans()):  # hypothesis rarely draws long ballots itself
        ballot = st.frozensets(st.sampled_from(ids), min_size=min(m, 7),
                               max_size=8)
    pool = draw(st.lists(ballot, min_size=1, max_size=5))
    ballots = draw(st.lists(st.sampled_from(pool), max_size=8))
    instance = PBInstance(tuple(map(Project, ids, costs)), budget)
    return instance, ApprovalProfile(tuple(ballots))


@given(mixed_unit_elections())
def test_compiled_election_matches_a_recount_of_the_ballots(election):
    inst, prof = election
    e = compile_election(inst, prof)
    ids = inst.project_ids
    assert e.ids == ids
    assert e.n_voters == prof.n_voters
    assert e.longest == max(map(len, prof.ballots), default=0)
    # each project's approvers, as a voter bitset, bit i for voter i
    approvers = [frozenset(i for i, ballot in enumerate(prof.ballots)
                           if pid in ballot) for pid in ids]
    assert list(e.project_masks) == [sum(1 << i for i in voters)
                                     for voters in approvers]
    # money: integral in units of 1/unit, and in no coarser unit
    amounts = [inst.budget] + [inst.cost(pid) for pid in ids]
    assert [e.budget, *e.costs] == [a * e.unit for a in amounts]
    for p in range(2, e.unit + 1):
        if e.unit % p == 0 and all(p % d for d in range(2, p)):  # p prime
            assert any((a * (e.unit // p)).denominator != 1 for a in amounts)
    # twins: the first project with the same cost and the same approvers
    for k, pid in enumerate(ids):
        assert e.twins[k] == min(
            l for l, other in enumerate(ids)
            if inst.cost(other) == inst.cost(pid)
            and approvers[l] == approvers[k])


def test_an_election_of_more_than_64_projects_matches_a_recount():
    # 358 projects, so the compile key's project bitmasks are wider than a
    # machine word
    inst, prof = gen_party_list(0)
    assert len(inst.projects) == 358
    clear_memos()
    test_compiled_election_matches_a_recount_of_the_ballots.hypothesis \
        .inner_test((inst, prof))


@given(st.integers(0, 10**6), st.sampled_from([1, 4, 100]), st.data())
def test_an_instance_equals_its_rebuild_and_no_changed_copy(seed, scale,
                                                            data):
    base, prof = random_instance(seed)
    inst = PBInstance([Project(p.id, p.cost / scale) for p in base.projects],
                      base.budget / scale)
    # new Project objects, costs and budget given as decimal strings
    def decimal(x: Fraction) -> str:
        return str(Decimal(x.numerator) / x.denominator)

    rebuilt = PBInstance([Project(p.id, decimal(p.cost))
                          for p in inst.projects], decimal(inst.budget))
    clear_memos()
    election = compile_election(inst, prof)
    for twin in (rebuilt, pickle.loads(pickle.dumps(inst)),
                 pickle.loads(pickle.dumps(rebuilt))):
        assert twin is not inst and oracle_instances_equal(twin, inst)
        assert twin == inst and hash(twin) == hash(inst)
        assert compile_election(twin, prof) is election
    assert core._compile.cache_info().misses == 1
    # one cost up by a cent, the budget up by a cent, one id renamed, and
    # two projects swapped
    projects = list(inst.projects)
    m = len(projects)
    j = data.draw(st.integers(0, m - 1))
    p = projects[j]
    cent = Fraction(1, 100)
    changed = [
        (projects[:j] + [Project(p.id, p.cost + cent)] + projects[j + 1:],
         inst.budget),
        (projects, inst.budget + cent),
        (projects[:j] + [Project(p.id + "x", p.cost)] + projects[j + 1:],
         inst.budget)]
    if m > 1:
        k = (j + data.draw(st.integers(1, m - 1))) % m
        swapped = projects[:]
        swapped[j], swapped[k] = swapped[k], swapped[j]
        changed.append((swapped, inst.budget))
    for other in itertools.starmap(PBInstance, changed):
        assert not oracle_instances_equal(other, inst)
        assert other != inst and inst != other and not other == inst


@settings(max_examples=200)
@given(mixed_unit_elections())
def test_exact_rules_match_oracle_under_every_policy(election):
    inst, prof = election
    secondary = {
        "lex-by-id": lambda b: 0,
        "cheapest-first": inst.cost_of,
        "worst-sw": lambda b: social_welfare(prof, b),
        "worst-rp": lambda b: representation(prof, b),
    }
    for objective, solve in (("sw", solve_av), ("rp", solve_cc),
                             ("pav", solve_pav)):
        best, optima = oracle_search(inst, prof, objective)
        assert optimum_value(objective, inst, prof) == best
        for variant, key in secondary.items():
            assert solve(inst, prof, TieBreakPolicy(variant)) == min(
                optima, key=lambda b: (key(b), sorted(b))), variant
        # random draws as reservoir sampling over the optima that the
        # search visits: those canonical within each class of
        # interchangeable projects, in include-first depth-first order
        search = _Search(compile_election(inst, prof), objective,
                         SearchBudget())
        order = search.ids
        visited = sorted(
            (b for b in optima
             if all(order[p] in b for j, p in enumerate(search.prev_in_class)
                    if p is not None and order[j] in b)),
            key=lambda b: [pid not in b for pid in order])
        for seed in range(3):
            rng, expected = random.Random(seed), None
            for k, bundle in enumerate(visited, 1):
                if rng.randrange(k) == 0:
                    expected = bundle
            assert solve(inst, prof,
                         TieBreakPolicy.random_seeded(seed)) == expected


@given(mixed_unit_elections())
def test_greedy_seed_is_the_coverage_of_a_feasible_bundle(election):
    # the incumbent that rp's searches start from is attained, so it can
    # never exceed the optimum
    inst, prof = election
    search = _Search(compile_election(inst, prof), "rp", SearchBudget())
    cover = {search.ids[j] for j in search._greedy()}
    assert inst.cost_of(cover) <= inst.budget
    assert search._seed() == representation(prof, cover) <= \
        oracle_search(inst, prof, "rp")[0]


def test_picks_match_the_oracle_where_the_greedy_cover_falls_short():
    # the cover takes the three cheap projects, denser than the expensive
    # one, and then cannot afford it; the expensive project alone reaches
    # 6 voters, more than the cover's 3, and the optima add one cheap
    # project to it for 7
    projects = (Project("big", 9),) + tuple(Project(f"c{j}", 1)
                                             for j in range(3))
    inst = PBInstance(projects, 10)
    prof = ApprovalProfile((frozenset({"big"}),) * 6 + tuple(
        frozenset({f"c{j}"}) for j in range(3)))
    search = _Search(compile_election(inst, prof), "rp", SearchBudget())
    assert [search.ids[j] for j in search._greedy()] == ["big"]
    assert search._seed() == 6
    assert search.select(TieBreakPolicy.lex()) == frozenset({"big", "c0"})
    assert search.stats.restarts == 1
    assert oracle_search(inst, prof, "rp")[0] == 7
    test_exact_rules_match_oracle_under_every_policy.hypothesis.inner_test(
        (inst, prof))


@given(mixed_unit_elections(), st.data())
def test_maximal_leaves_are_the_canonical_maximal_bundles(election, data):
    # with no knapsack cut, the leaves that pass the O(1) maximality test
    # are exactly the feasible bundles that no further project fits,
    # canonical within each twin class, in either branch order: no
    # maximal bundle is pruned, and no other one is let through
    inst, prof = election
    ids = inst.project_ids
    for objective in ("sw", "rp", "pav"):
        search = _Search(compile_election(inst, prof), objective,
                         SearchBudget())
        search.exclude_first = data.draw(st.booleans())
        leaves = []

        def leaf(residual):
            chosen = [j for j in range(search.m) if search.chosen[j]]
            # the scan that the O(1) test replaced
            assert all(search.costs[j] > residual for j in range(search.m)
                       if j not in chosen)
            leaves.append(frozenset(search.ids[j] for j in chosen))

        search._dfs(0, search.budget, search.budget + 1, leaf, lambda: 0)
        order = search.ids
        maximal = [bundle for k in range(len(ids) + 1)
                   for bundle in map(frozenset, itertools.combinations(ids, k))
                   if inst.cost_of(bundle) <= inst.budget
                   and all(inst.cost(pid) > inst.budget - inst.cost_of(bundle)
                           for pid in ids if pid not in bundle)
                   and all(order[p] in bundle
                           for j, p in enumerate(search.prev_in_class)
                           if p is not None and order[j] in bundle)]
        assert sorted(map(sorted, leaves)) == sorted(map(sorted, maximal))
        assert search.stats.leaves == len(leaves)


def _knapsack_relaxation(items, budget):
    """Best value of fractionally packed (value, cost) items."""
    total = Fraction(0)
    for value, cost in sorted(items, key=lambda vc: vc[0] / vc[1],
                              reverse=True):
        if cost > budget:
            return total + value * budget / cost
        total += value
        budget -= cost
    return total


@given(mixed_unit_elections(), st.data())
def test_search_bound_lies_between_best_completion_and_relaxation(
        election, data):
    # the bound of a partial bundle, against brute force over the affordable
    # sets of undecided projects, against the fractional knapsack on their
    # marginal gains and, for pav, against each voter's gains over their
    # affordable undecided approvals, all in exact Fractions
    inst, prof = election
    for objective, score in (("sw", social_welfare), ("rp", representation),
                             ("pav", pav_score)):
        search = _Search(compile_election(inst, prof), objective,
                         SearchBudget())
        unit = search.scale if objective == "pav" else 1
        idx = data.draw(st.integers(0, search.m))
        residual = search.budget
        for j in range(idx):  # fund or pass each project, as `_dfs` does
            if search.costs[j] <= residual and data.draw(st.booleans()):
                residual = search._fund(j, residual, 1)
        bound = search._bound(idx, residual)

        chosen = {search.ids[j] for j in range(idx) if search.chosen[j]}
        money = inst.budget - inst.cost_of(chosen)
        rest = [search.ids[j] for j in range(idx, search.m)]
        best = max(score(prof, chosen | set(subset))
                   for k in range(len(rest) + 1)
                   for subset in itertools.combinations(rest, k)
                   if inst.cost_of(subset) <= money)
        now = score(prof, chosen)
        relaxation = now + _knapsack_relaxation(
            [(score(prof, chosen | {pid}) - now, inst.cost(pid))
             for pid in rest if inst.cost(pid) <= money], money)
        assert best * unit <= bound, objective
        if objective == "sw":  # every piece of a project has its density
            assert bound == math.floor(relaxation)
        if objective == "rp":  # overlaps are discounted, and no more than
            # every reachable voter is covered
            assert bound <= relaxation
            reachable = [ballot for ballot in prof.ballots
                         if not ballot & chosen and any(
                             inst.cost(pid) <= money for pid in ballot
                             if pid in rest)]
            assert bound <= now + len(reachable)
        if objective == "pav":  # the pieces can sit above the relaxation,
            # but never above each voter's gains summed
            live = {pid for pid in rest if inst.cost(pid) <= money}
            gains = sum(Fraction(1, len(ballot & chosen) + t)
                        for ballot in prof.ballots
                        for t in range(1, len(ballot & live) + 1))
            assert bound <= (now + gains) * unit


def _ballot_groups(prof):
    """The distinct ballots of a profile and how many voters cast each."""
    return list(Counter(prof.ballots).items())


def _funded_counts(search, groups):
    """Each ballot group's funded approvals, counted from `search.chosen`."""
    funded = {search.ids[j] for j in range(search.m) if search.chosen[j]}
    return [len(ballot & funded) for ballot, _ in groups]


def _recounted_bound(search, groups, idx, residual):
    """The floored piece knapsack of a node, counted from scratch over the
    profile's ballot groups (`_ballot_groups`), with gain tables of its own
    and in exact Fractions.

    A group can still gain if its next funded approval adds something.  The
    live projects are walked by ascending cost per approver who can still
    gain; a group that can gain is a piece of each of them that it approves,
    worth the gain at its funded and walked approvals so far, and costing
    that project's share per approver.
    """
    longest = max((len(ballot) for ballot, _ in groups), default=0)
    gain = {"sw": [1] * (longest + 1), "rp": [1] + [0] * longest,
            "pav": harmonic_gains(longest)}[search.objective]
    harm = list(itertools.accumulate(gain, initial=0))
    counts = _funded_counts(search, groups)
    score = sum(w * harm[c] for (_, w), c in zip(groups, counts))
    assert search.score == score
    walk = []
    for j in range(idx, search.m):
        members = [g for g, (ballot, _) in enumerate(groups)
                   if search.ids[j] in ballot and gain[counts[g]]]
        v = sum(groups[g][1] for g in members)
        if search.costs[j] <= residual and v:
            walk.append((Fraction(search.costs[j], v), members))
    level, pieces = list(counts), []
    for share, members in sorted(walk, key=lambda item: item[0]):
        for g in members:
            w = groups[g][1]
            pieces.append((w * gain[level[g]], w * share))
            level[g] += 1
    return math.floor(score + _knapsack_relaxation(
        [(value, cost) for value, cost in pieces if value], residual))


class _CheckedSearch(_Search):
    """A search that recounts sw and rp at every node, and its bound at
    every node it bounds, from scratch over the profile's ballots."""

    def __init__(self, election, prof, objective, search_budget):
        super().__init__(election, objective, search_budget)
        self.groups = _ballot_groups(prof)

    def _tick(self):
        super()._tick()
        # sw and rp are the worst-sw and worst-rp keys of every objective
        counts = _funded_counts(self, self.groups)
        assert self.sw == sum(w * c for (_, w), c in zip(self.groups, counts))
        assert self.rp == sum(w for (_, w), c in zip(self.groups, counts)
                              if c)

    def _bound(self, idx, residual):
        bound = super()._bound(idx, residual)
        assert bound == _recounted_bound(self, self.groups, idx, residual)
        return bound


def _assert_kept_bounds_are_exact(inst, prof):
    policies = [TieBreakPolicy(variant) for variant in (
        "lex-by-id", "cheapest-first", "worst-sw", "worst-rp")]
    election = compile_election(inst, prof)
    for objective in ("sw", "rp", "pav"):
        _CheckedSearch(election, prof, objective, SearchBudget()).optimum()
        for policy in policies + [TieBreakPolicy.random_seeded(1)]:
            _CheckedSearch(election, prof, objective,
                           SearchBudget()).select(policy)


@settings(max_examples=60)
@given(mixed_unit_elections())
def test_kept_bound_equals_a_recount_at_every_node(election):
    # the funded approvals are kept across funding and undoing, and the
    # bound walks a copy of them; every node of every search must see the
    # sw, rp and bound that a recount from the decided projects gives
    _assert_kept_bounds_are_exact(*election)


def test_kept_bound_equals_a_recount_at_every_node_of_city(city_pair):
    _assert_kept_bounds_are_exact(*city_pair)


def test_kept_bound_equals_a_recount_at_every_node_of_a_desk_election():
    # ballots of up to 7 projects, so that pav's walk makes pieces on deep
    # levels, and the fill takes them out of density order if it is wrong
    _assert_kept_bounds_are_exact(*generate("euclidean-desk", 1))


@pytest.mark.parametrize("objective, costs, budget, ballots, bound", [
    ("rp", [3, 2, 5], 5, ["01", "1", "02", "2"], 3),
    ("pav", [5, 4, 6, 2], 6, ["012", "012", "0", "1", "12"], 30),
    ("pav", [5, 5, 5, 3], 15, ["0123", "", "03", "013", "023"], 83),
])
def test_piece_costs_are_exact_shares(objective, costs, budget, ballots,
                                      bound):
    # the fill takes pieces whose share of their project's cost is not
    # whole; a floored share would leave room for a larger bound
    inst = PBInstance(tuple(Project(f"p{j}", c) for j, c in enumerate(costs)),
                      budget)
    prof = ApprovalProfile(tuple(frozenset(f"p{j}" for j in ballot)
                                 for ballot in ballots))
    election = compile_election(inst, prof)
    search = _Search(election, objective, SearchBudget())
    assert search._bound(0, search.budget) == bound == _recounted_bound(
        search, _ballot_groups(prof), 0, search.budget)


@given(elections())
def test_equal_shares_traces_replay_the_shared_phase(election):
    inst, prof = election
    runs = (lambda trace: rule_x(inst, prof, trace),
            lambda trace: rule_x_eps(inst, prof, trace=trace))

    def traced(run, cold):
        if cold:
            clear_memos()
        trace = EqualSharesTrace()
        return run(trace), trace

    rule_x(inst, prof)  # leaves the election and its phase memoized
    warm = [traced(run, cold=False) for run in runs]
    cold = [traced(run, cold=True) for run in runs]
    assert warm == cold
    for bundle, trace in warm:
        assert set(trace.funded) == bundle
        for pid in trace.funded:
            assert sum(trace.charges[pid]) == inst.cost(pid)
        assert all(b >= 0 for b in trace.final_budgets)
        assert sum(trace.final_budgets) + inst.cost_of(bundle) == inst.budget
    # the replay ends where the approval phase ended
    assert warm[0][1].final_budgets == \
        oracle_equal_shares(inst, prof).final_budgets


# elections of `conftest.random_instance`: ballots drawn freely, so greedy
# sPAV and RX-eps part from greedy AV and RX far more often than in the
# pooled ballots of the strategies above
seeded_elections = st.builds(random_instance, st.integers(0, 10 ** 9))
# party-list block elections: each voter group approves its own projects,
# so money classes stay whole groups until their projects are funded
block_elections = st.builds(generate, st.just("partylist-desk"),
                            st.integers(0, 10 ** 9))


@given(st.one_of(mixed_unit_elections(), seeded_elections, block_elections))
def test_equal_shares_match_the_per_voter_oracle(election):
    inst, prof = election
    if not prof.n_voters:
        with pytest.raises(NoVotersError):
            rule_x_eps(inst, prof)
        return
    for exhaust, run in ((False, lambda trace: rule_x(inst, prof, trace)),
                         (True, lambda trace: rule_x_eps(inst, prof,
                                                         trace=trace))):
        expected = oracle_equal_shares(inst, prof, exhaust)
        trace = EqualSharesTrace()
        assert run(trace) == frozenset(expected.funded)
        assert trace == expected
        assert run(None) == frozenset(expected.funded)


@given(seeded_elections)
def test_rule_x_satisfies_ejr(election):
    # equal shares with approval utilities satisfies EJR (Peters, Pierczynski
    # & Skowron, NeurIPS 2021), an oracle for the approval phase that does
    # not rest on `conftest.oracle_equal_shares`; at max_t_cap the audit
    # covers every feasible witness, so "not violated" reads "satisfied"
    inst, prof = election
    verdict = find_ejr_violation(inst, prof, rule_x(inst, prof),
                                 max_t_cap(inst))
    assert verdict.status == "satisfied", verdict.witness


@given(st.one_of(mixed_unit_elections(), seeded_elections), st.booleans())
def test_seq_pav_matches_the_fraction_oracle(election, reverse):
    inst, prof = election
    if reverse:  # so that instance order and id order differ
        inst = PBInstance(inst.projects[::-1], inst.budget)
    for policy in (TieBreakPolicy.cheapest(), TieBreakPolicy.lex(),
                   TieBreakPolicy.random_seeded(0),
                   TieBreakPolicy.random_seeded(11)):
        assert seq_pav(inst, prof, policy) == \
            oracle_seq_pav(inst, prof, policy)
    # worst-sw and worst-rp have no tie set to minimize over
    for policy in (TieBreakPolicy.worst_sw(), TieBreakPolicy.worst_rp()):
        assert seq_pav(inst, prof, policy) == seq_pav(inst, prof)


def test_seq_pav_matches_the_fraction_oracle_at_voter_scale():
    # 200 voters and ballots of up to 19 projects, longer than the
    # strategies above draw, so funded approvals reach deep levels
    election = gen_euclidean(3, EuclideanConfig(n_voters=200, n_projects=30))
    assert max(map(len, election[1].ballots)) == 19
    test_seq_pav_matches_the_fraction_oracle.hypothesis.inner_test(
        election, False)


# sPAV's gains diminish on the elections of `random_instance`, where it
# often parts from greedy AV; on those of `elections()` it hardly ever does,
# so the two tests below draw both
def _outcomes(inst, prof):
    return (rule_x(inst, prof), rule_x_eps(inst, prof), seq_pav(inst, prof),
            seq_pav(inst, prof, TieBreakPolicy.random_seeded(3)))


@given(st.one_of(elections(), seeded_elections),
       st.randoms(use_true_random=False))
def test_rules_ignore_voter_order(election, rng):
    inst, prof = election
    ballots = list(prof.ballots)
    rng.shuffle(ballots)
    assert _outcomes(inst, ApprovalProfile(tuple(ballots))) == \
        _outcomes(inst, prof)


@given(st.one_of(elections(), seeded_elections), st.integers(2, 4))
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
