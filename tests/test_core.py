import gc
import weakref
from fractions import Fraction

import pytest

import pbvoting
from conftest import clear_memos
from pbvoting import core
from pbvoting.core import (ApprovalProfile, PBInstance, Project,
                           UnknownProjectError, compile_election, harmonic,
                           is_feasible, pav_score, representation,
                           social_welfare)


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
