import random
from fractions import Fraction

import pytest

from conftest import (clear_memos, oracle_equal_shares_eps, oracle_q,
                      random_instance)
from pbvoting import sequential
from pbvoting.core import (ApprovalProfile, PBInstance, compile_election,
                           representation, social_welfare)
from pbvoting.datagen import EuclideanConfig, gen_euclidean, generate
from pbvoting.exact import TieBreakPolicy, solve_pav
from pbvoting.pabulib import parse_pb, write_pb
from pbvoting.sequential import (EqualSharesTrace, q_value, rule_x,
                                 rule_x_eps, rule_x_pav, seq_pav)


def test_q_value_basic_cases():
    # five approvers with budget 2 each exactly cover a cost of 10 at q=2
    assert q_value(Fraction(10), [Fraction(2)] * 5, [1] * 5) == 2
    # one approver is capped at 1, the other two split the rest at q=5/2
    assert q_value(Fraction(6), [Fraction(1), Fraction(3), Fraction(3)],
                   [1, 1, 1]) == Fraction(5, 2)
    # total money of approvers is 3 < 6: unaffordable
    assert q_value(Fraction(6), [Fraction(1), Fraction(2)], [1, 1]) is None


def test_q_value_ignores_non_approvers():
    assert q_value(Fraction(4), [Fraction(100), Fraction(2), Fraction(2)],
                   [0, 1, 1]) == 2


def test_q_value_input_validation():
    with pytest.raises(ValueError):
        q_value(Fraction(0), [Fraction(1)], [1])
    with pytest.raises(ValueError):
        q_value(Fraction(1), [Fraction(1)], [1, 1])


def test_q_value_matches_breakpoint_oracle():
    rng = random.Random(20240817)
    for trial in range(1000):
        n = rng.randint(1, 8)
        budgets = [Fraction(rng.randint(0, 40), rng.randint(1, 4))
                   for _ in range(n)]
        utilities = [rng.choice([0, 1, 1, 1, Fraction(1, 2), 2])
                     for _ in range(n)]
        cost = Fraction(rng.randint(1, 60), rng.randint(1, 3))
        if not any(u > 0 for u in utilities):
            continue
        assert q_value(cost, budgets, utilities) == \
            oracle_q(cost, budgets, utilities), trial


def test_rule_x_on_city(city_pair):
    inst, prof = city_pair
    trace = EqualSharesTrace()
    bundle = rule_x(inst, prof, trace)
    assert bundle == frozenset(
        {f"A-g{i}" for i in range(5)} | {f"B-e{i}" for i in range(3)})
    assert social_welfare(prof, bundle) == 770
    assert representation(prof, bundle) == 190
    # each funded project is exactly paid for, and nobody overspends
    for pid in trace.funded:
        assert sum(trace.charges[pid]) == inst.cost(pid)
    assert all(b >= 0 for b in trace.final_budgets)
    spent = inst.budget - sum(trace.final_budgets)
    assert spent == inst.cost_of(bundle)


def test_rule_x_charge_conservation_random():
    for seed in range(80):
        inst, prof = random_instance(seed, max_projects=10)
        if prof.n_voters == 0:
            continue
        trace = EqualSharesTrace()
        bundle = rule_x(inst, prof, trace)
        assert inst.cost_of(bundle) <= inst.budget
        for pid in trace.funded:
            assert sum(trace.charges[pid]) == inst.cost(pid), seed
        assert all(b >= 0 for b in trace.final_budgets), seed
        # only approvers pay
        for pid in trace.funded:
            for i, charge in enumerate(trace.charges[pid]):
                if charge:
                    assert pid in prof.ballots[i], (seed, pid, i)


def test_a_cold_voter_scale_election_matches_q_value_in_every_round():
    # some 700 ballot groups of 1000 voters: the integer money of the
    # approval phase reaches denominators and gcds that desk-sized
    # elections never do.  Voter by voter, each funded project must be paid
    # at its q_value threshold, and must have the least (q, cost, id) key
    # of the affordable projects left.
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=1000,
                                                  n_projects=40))
    clear_memos()
    trace = EqualSharesTrace()
    bundle = rule_x(inst, prof, trace)
    phase = sequential._approval_phase(compile_election(inst, prof))
    assert len(phase.funded) >= 5

    def key(project, budgets):
        approves = [int(project.id in ballot) for ballot in prof.ballots]
        q = q_value(project.cost, budgets, approves)
        return approves, None if q is None else (q, project.cost, project.id)

    budgets = [inst.budget / prof.n_voters] * prof.n_voters
    for done, (pid, q) in enumerate(zip(trace.funded, phase.q)):
        keys = {p.id: key(p, budgets) for p in inst.projects
                if p.id not in trace.funded[:done]}
        approves, best = keys[pid]
        assert best == (q, inst.cost(pid), pid)
        assert best == min(k for _, k in keys.values() if k is not None)
        charges = [min(b, q) * u for b, u in zip(budgets, approves)]
        assert trace.charges[pid] == charges
        budgets = [b - c for b, c in zip(budgets, charges)]
    assert trace.final_budgets == budgets
    assert all(key(p, budgets)[1] is None
               for p in inst.projects if p.id not in bundle)


def test_rule_x_eps_extends_rule_x(city_pair):
    inst, prof = city_pair
    base = rule_x(inst, prof)
    extended = rule_x_eps(inst, prof)
    assert base <= extended
    assert inst.cost_of(extended) <= inst.budget
    # on this instance the residual budget is too small to fund more
    assert extended == base


def test_rule_x_eps_fixed_agrees_when_approval_phase_exhausts():
    # When the approval phase alone exhausts the budget (no unfunded project
    # fits the total leftover money), the exhaustion phase is empty and both
    # charge schemes must coincide with rule_x.
    checked = 0
    for seed in range(60):
        inst, prof = random_instance(seed, max_projects=8)
        if prof.n_voters == 0:
            continue
        base = rule_x(inst, prof)
        limit = rule_x_eps(inst, prof)
        if limit != base:
            continue
        checked += 1
        assert oracle_equal_shares_eps(inst, prof,
                                       Fraction(1, 10 ** 8)) == base, seed
    assert checked >= 10


def test_rule_x_eps_mode_divergence_is_pinned():
    # The two exhaustion schemes charge differently and can fund different
    # projects.  Here nobody's group can afford either project alone; the
    # uniform-threshold phase charges everyone alike (r = 9/4 for both, tie
    # to lex -> p00), while a fixed tiny utility makes approvers pay their
    # full budgets first, so the project needing the least outside subsidy
    # wins (p01 needs 3/2 from one outsider, p00 needs 2 from each of two).
    from pbvoting.core import ApprovalProfile, PBInstance, Project
    inst = PBInstance((Project("p00", 9), Project("p01", 9)), Fraction(10))
    prof = ApprovalProfile((frozenset({"p00", "p01"}), frozenset({"p01"}),
                            frozenset({"p00", "p01"}), frozenset()))
    assert rule_x(inst, prof) == frozenset()
    assert rule_x_eps(inst, prof) == {"p00"}
    assert oracle_equal_shares_eps(inst, prof, Fraction(1, 1000)) == {"p01"}
    assert oracle_equal_shares_eps(inst, prof,
                                   Fraction(1, 10 ** 8)) == {"p01"}


def test_rule_x_variants_are_supersets():
    for seed in range(60):
        inst, prof = random_instance(seed, max_projects=9)
        if prof.n_voters == 0:
            continue
        base = rule_x(inst, prof)
        eps = rule_x_eps(inst, prof)
        pav = rule_x_pav(inst, prof)
        assert base <= eps and base <= pav, seed
        assert social_welfare(prof, pav) >= social_welfare(prof, base)
        assert representation(prof, eps) >= representation(prof, base)


def test_rule_x_eps_exhausts_budget():
    for seed in range(60):
        inst, prof = random_instance(seed, max_projects=9)
        if prof.n_voters == 0:
            continue
        bundle = rule_x_eps(inst, prof)
        residual = inst.budget - inst.cost_of(bundle)
        assert all(p.cost > residual
                   for p in inst.projects if p.id not in bundle), seed


def test_rule_x_eps_trace_accounts_for_every_payment(city_pair):
    elections = [city_pair] + [random_instance(seed, max_projects=9)
                               for seed in range(60)]
    exhausted = 0
    for k, (inst, prof) in enumerate(elections):
        trace = EqualSharesTrace()
        bundle = rule_x_eps(inst, prof, trace=trace)
        exhausted += bundle != rule_x(inst, prof)
        assert set(trace.funded) == bundle, k
        assert len(trace.funded) == len(bundle), k
        # exhaustion-phase projects are paid for in full as well
        for pid in trace.funded:
            assert sum(trace.charges[pid]) == inst.cost(pid), (k, pid)
        assert len(trace.final_budgets) == prof.n_voters
        assert all(b >= 0 for b in trace.final_budgets), k
        assert sum(trace.final_budgets) + inst.cost_of(bundle) == \
            inst.budget, k
    assert exhausted >= 10
    # the trace is keyword-only: a positional third argument is an error
    with pytest.raises(TypeError):
        rule_x_eps(inst, prof, "limit")


def test_seq_pav_on_city(city_pair):
    inst, prof = city_pair
    bundle = seq_pav(inst, prof)  # default: cheapest-first, then lex
    assert bundle == frozenset(
        {f"A-g{i}" for i in range(5)} | {f"B-e{i}" for i in range(3)})


def test_seq_pav_is_feasible_and_exhausting():
    # the greedy loop only stops once nothing else fits in the budget
    for seed in range(30):
        inst, prof = random_instance(seed, max_projects=8)
        bundle = seq_pav(inst, prof)
        assert inst.cost_of(bundle) <= inst.budget
        residual = inst.budget - inst.cost_of(bundle)
        assert all(p.cost > residual
                   for p in inst.projects if p.id not in bundle), seed


def test_seq_pav_random_tiebreak_deterministic(city_pair):
    inst, prof = city_pair
    a = seq_pav(inst, prof, TieBreakPolicy.random_seeded(5))
    b = seq_pav(inst, prof, TieBreakPolicy.random_seeded(5))
    assert a == b


POLICIES = (TieBreakPolicy.lex(), TieBreakPolicy.cheapest(),
            TieBreakPolicy.worst_sw(), TieBreakPolicy.worst_rp(),
            TieBreakPolicy.random_seeded(7))


def test_rule_x_pav_residual_matches_the_ballot_residual():
    # the residual pair built from frozenset differences, ballot by ballot
    pairs = ([random_instance(seed) for seed in range(40)]
             + [generate("euclidean-desk", seed) for seed in range(10)])
    for inst, prof in pairs:
        first = rule_x(inst, prof)
        rest = tuple(p for p in inst.projects if p.id not in first)
        residual = inst.budget - inst.cost_of(first)
        parsed = parse_pb(write_pb(inst, prof))[1]
        for policy in POLICIES:
            if rest and residual >= min(p.cost for p in rest):
                expected = first | solve_pav(
                    PBInstance(rest, residual),
                    ApprovalProfile(ballot - first for ballot in prof.ballots),
                    policy)
            else:
                expected = first
            assert rule_x_pav(inst, prof, policy) == expected
            assert rule_x_pav(inst, parsed, policy) == expected
