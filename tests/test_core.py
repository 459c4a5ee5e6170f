import gc
import random
import re
import weakref
from fractions import Fraction

import pytest

import pbvoting
from conftest import (clear_memos, oracle_pav_score, oracle_representation,
                      oracle_social_welfare, random_instance)
from pbvoting import core, sequential
from pbvoting.bench import run_rule
from pbvoting.core import (ApprovalProfile, PBInstance, Project,
                           UnknownProjectError, compile_election, harmonic,
                           is_feasible, pav_score, representation,
                           social_welfare)
from pbvoting.datagen import EuclideanConfig, gen_euclidean
from pbvoting.exact import SearchBudget, TieBreakPolicy
from pbvoting.fairness import find_ejr_violation
from pbvoting.pabulib import parse_pb, write_pb


def test_project_rejects_non_positive_cost():
    with pytest.raises(ValueError):
        Project("p", 0)
    with pytest.raises(ValueError):
        Project("p", Fraction(-1, 2))


def test_instance_rejects_duplicates_and_bad_budget():
    p = Project("p", 1)
    with pytest.raises(ValueError):
        PBInstance((p, Project("p", 2)), 5)
    with pytest.raises(ValueError):
        PBInstance((p,), 0)
    with pytest.raises(ValueError):
        PBInstance((), 5)


def test_costs_are_exact_fractions():
    inst = PBInstance((Project("p", "0.1"), Project("q", "0.2")), "0.3")
    assert inst.cost("p") == Fraction(1, 10)
    assert inst.cost_of(["p", "q"]) == Fraction(3, 10)
    assert is_feasible(inst, ["p", "q"])  # exact: 0.1 + 0.2 == 0.3


def test_unknown_project_errors():
    inst = PBInstance((Project("p", 1),), 1)
    with pytest.raises(UnknownProjectError):
        inst.cost("zz")
    prof = ApprovalProfile((frozenset({"zz"}),))
    with pytest.raises(UnknownProjectError):
        prof.validate(inst)
    with pytest.raises(UnknownProjectError):
        social_welfare(prof, {"zz"}, inst)


def test_scores_on_tiny(tiny_pair):
    inst, prof = tiny_pair
    assert social_welfare(prof, {"p1", "p3"}) == 3
    assert representation(prof, {"p1", "p3"}) == 3
    assert representation(prof, {"p1", "p2"}) == 2
    assert pav_score(prof, {"p1", "p2"}) == Fraction(5, 2)
    assert not is_feasible(inst, {"p1", "p2", "p3"})  # cost 4 > 3


def test_scores_on_city(city_pair):
    inst, prof = city_pair
    a_all = frozenset(pid for pid in inst.project_ids if pid.startswith("A"))
    assert inst.cost_of(a_all) == 1000
    assert social_welfare(prof, a_all) == 800
    assert representation(prof, a_all) == 100
    five_g_three_e = frozenset(
        {f"A-g{i}" for i in range(5)} | {f"B-e{i}" for i in range(3)})
    assert social_welfare(prof, five_g_three_e) == 770
    assert representation(prof, five_g_three_e) == 190
    assert pav_score(prof, five_g_three_e) == \
        100 * harmonic(5) + 90 * harmonic(3)


@pytest.mark.parametrize("ids, voters, message", [
    (("a", "b"), (1, 4), "a voter mask has a bit with no project id"),
    (("a",), (-1,), "a voter mask has a bit with no project id"),
    (("a", "a"), (1,), "duplicate project ids"),
    (("a", "b", "a"), (), "duplicate project ids"),
])
def test_from_masks_refuses_what_it_cannot_name(ids, voters, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ApprovalProfile.from_masks(ids, voters)


def test_profiles_are_equal_when_their_ballots_are():
    ab = ApprovalProfile.from_masks(("a", "b"), (1, 3, 0))
    ba = ApprovalProfile.from_masks(("b", "a", "c"), (2, 3, 0))
    built = ApprovalProfile([{"a"}, {"a", "b"}, set()])
    assert ab == ba == built
    assert hash(ab) == hash(ba) == hash(built)
    assert ab != ApprovalProfile.from_masks(("a", "b"), (2, 3, 0))
    assert ab != ApprovalProfile.from_masks(("a", "b"), (1, 3))


SCORES = ((social_welfare, oracle_social_welfare),
          (representation, oracle_representation),
          (pav_score, oracle_pav_score))


def test_scores_match_ballot_walks():
    for seed in range(60):
        inst, built = random_instance(seed)
        # a project that no voter approves: the parsed profile has an id for
        # it, the profile built from ballots has none
        inst = PBInstance(inst.projects + (Project("nobody's", 1),),
                          inst.budget)
        parsed = parse_pb(write_pb(inst, built))[1]
        rng = random.Random(seed)
        bundle = rng.sample(inst.project_ids,
                            rng.randint(0, len(inst.project_ids)))
        bundle.append("nobody's")
        for profile in (built, parsed):
            for score, oracle in SCORES:
                assert score(profile, bundle) == oracle(built, bundle)
                assert score(profile, bundle, inst) == oracle(built, bundle)
                # an unknown id counts for nothing, unless checked
                assert score(profile, bundle + ["zz"]) == oracle(built, bundle)
                with pytest.raises(UnknownProjectError, match=re.escape(
                        "unknown project id(s) ['zz']")):
                    score(profile, bundle + ["zz"], inst)


def test_a_pabulib_pass_builds_no_ballot_sets(monkeypatch):
    # the pabulib-scale benchmark item: parse the .pb file, run each rule and
    # audit it to depth 6; voters stay project bitmasks throughout, in the
    # parsed profile and in RX-PAV's residual one
    text = write_pb(*gen_euclidean(0, EuclideanConfig(n_voters=1000,
                                                      n_projects=40)))
    built = []
    derive = ApprovalProfile.__dict__["ballots"].func
    monkeypatch.setattr(ApprovalProfile, "ballots", property(
        lambda profile: built.append(profile) or derive(profile)))
    residuals = []
    solve_pav = sequential.solve_pav
    monkeypatch.setattr(sequential, "solve_pav", lambda inst, prof, *args:
                        residuals.append(prof) or solve_pav(inst, prof, *args))
    clear_memos()
    inst, prof, _ = parse_pb(text)
    for rule in ("RX", "RX-eps", "sPAV", "RX-PAV"):
        bundle = run_rule(rule, inst, prof, TieBreakPolicy.lex(),
                          SearchBudget())
        find_ejr_violation(inst, prof, bundle, 6)
    assert len(residuals) == 1
    assert built == []


def test_harmonic():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(10) == sum(Fraction(1, k) for k in range(1, 11))


def test_empty_ballots_contribute_nothing():
    prof = ApprovalProfile((frozenset(), frozenset({"p"})))
    assert social_welfare(prof, {"p"}) == 1
    assert representation(prof, {"p"}) == 1
    assert pav_score(prof, {"p"}) == 1


def test_every_exported_name_resolves():
    for name in pbvoting.__all__:
        assert hasattr(pbvoting, name), name


def test_a_repeated_compile_returns_the_election_at_once(tiny_pair):
    inst, prof = tiny_pair
    # two pairs are held, so the second build does not push out the first
    pairs = [(PBInstance(inst.projects, inst.budget * k),
              ApprovalProfile(prof.ballots)) for k in (1, 2)]
    elections = [compile_election(*pair) for pair in pairs]
    hits = core._compile.cache_info().hits
    for pair, election in zip(pairs, elections):
        assert compile_election(*pair) is election
    assert core._compile.cache_info().hits == hits  # matched by identity
    # ... and through weak references: the value memo keeps each ballot as
    # a project bitmask, so no profile outlives its last holder
    instances = [weakref.ref(inst) for inst, _ in pairs]
    profiles = [weakref.ref(prof) for _, prof in pairs]
    del pairs, pair
    gc.collect()
    assert core._compile.cache_info().currsize == 2
    assert [ref() for ref in profiles] == [None, None]
    # the value memo keys on the instance; once it is cleared, nothing else
    # keeps either instance alive
    core._compile.cache_clear()
    gc.collect()
    assert [ref() for ref in instances] == [None, None]


def test_an_equal_profile_gets_the_same_election(tiny_pair):
    inst, prof = tiny_pair
    election = compile_election(inst, prof)
    copy = ApprovalProfile(tuple(set(ballot) for ballot in prof.ballots))
    assert copy is not prof and copy == prof
    assert compile_election(inst, copy) is election


def test_the_same_profile_with_another_instance_is_compiled_anew(tiny_pair):
    inst, prof = tiny_pair
    richer = PBInstance(inst.projects, inst.budget * 2)
    assert compile_election(inst, prof).budget == inst.budget
    assert compile_election(richer, prof).budget == richer.budget


def test_an_unknown_project_raises_right_after_a_hit(tiny_pair):
    inst, prof = tiny_pair
    assert compile_election(inst, prof) is compile_election(inst, prof)
    bad = ApprovalProfile(prof.ballots + (frozenset({"nope"}),))
    with pytest.raises(UnknownProjectError, match="nope"):
        compile_election(inst, bad)


def test_an_unknown_project_raises_on_a_cold_compile(tiny_pair):
    # building the ballot bitmasks meets the unknown id first; the message
    # is the one that validating the profile gives
    inst, prof = tiny_pair
    clear_memos()
    bad = ApprovalProfile(prof.ballots[:2] + (frozenset({"zz", "p1"}),)
                          + prof.ballots[2:] + (frozenset({"nope"}),))
    with pytest.raises(UnknownProjectError) as raised:
        compile_election(inst, bad)
    assert str(raised.value) == "ballot 2 approves unknown project(s) ['zz']"
    assert core._compile.cache_info().currsize == 0
