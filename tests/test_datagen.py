from fractions import Fraction

import pytest

from pbvoting.datagen import (EuclideanConfig, PartyListConfig, PRESETS,
                              gen_euclidean, gen_party_list, generate)


def test_same_seed_same_instance():
    for kind in ("euclidean-desk", "partylist-desk"):
        a_inst, a_prof = generate(kind, 42)
        b_inst, b_prof = generate(kind, 42)
        assert a_inst == b_inst and a_prof == b_prof


def test_different_seeds_differ():
    a, _ = generate("euclidean-desk", 1)
    b, _ = generate("euclidean-desk", 2)
    assert a != b


def test_euclidean_shape_and_validity():
    for seed in range(20):
        inst, prof = generate("euclidean-desk", seed)
        assert prof.n_voters == 40
        assert len(inst.projects) <= 15
        prof.validate(inst)
        # every ballot nonempty, every project approved by someone
        assert all(ballot for ballot in prof.ballots)
        approved = frozenset().union(*prof.ballots)
        assert approved == frozenset(inst.project_ids)
        # costs are whole cents, budget comfortably above 3 * c_min
        for p in inst.projects:
            assert (p.cost * 100).denominator == 1
        assert inst.budget >= 3 * inst.c_min


def test_party_list_shape():
    for seed in range(20):
        inst, prof = generate("partylist-desk", seed)
        assert prof.n_voters == 30
        prof.validate(inst)
        # ballots partition the voters into groups approving disjoint lists
        ballots = set(prof.ballots)
        assert 1 <= len(ballots) <= 8
        seen: set[str] = set()
        for ballot in ballots:
            assert not (set(ballot) & seen)
            seen |= set(ballot)
        assert seen == set(inst.project_ids)
        # cost is linear in group size within each group
        for ballot in ballots:
            group_size = sum(1 for b in prof.ballots if b == ballot)
            for pid in ballot:
                assert inst.cost(pid) == 100 * group_size


def test_party_list_budget_fraction():
    cfg = PartyListConfig(n_voters=12, n_groups_range=(2, 3),
                          projects_per_group_range=(2, 3),
                          budget_fraction=Fraction(1, 4))
    inst, _ = gen_party_list(0, cfg)
    total = sum(p.cost for p in inst.projects)
    assert inst.budget == total / 4


def test_euclidean_ballot_sizes_respect_bounds():
    cfg = EuclideanConfig(n_voters=30, n_projects=10, ballot_mean=2.0,
                          ballot_std=1.0)
    _, prof = gen_euclidean(7, cfg)
    assert all(1 <= len(b) <= 10 for b in prof.ballots)


@pytest.mark.parametrize("kind", ["euclidean", "partylist",
                                  "euclidean-desk", "partylist-desk"])
def test_a_negative_seed_is_rejected_by_name(kind):
    with pytest.raises(ValueError,
                       match=r"^seed must be non-negative, got -1$"):
        generate(kind, -1)


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate("martian", 0)


def test_presets_registered():
    assert set(PRESETS) == {"euclidean-desk", "partylist-desk"}
