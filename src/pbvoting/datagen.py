"""Synthetic instance generators.

Two families:

* Euclidean: voters and projects are points in the unit square; each voter
  approves the projects nearest to them.  Costs are drawn from a shifted
  exponential so that a few projects are much more expensive than most.
* Party-list: voters are partitioned into groups and every group approves
  exactly its own project list; project costs scale with group size.  This
  produces the block structure under which welfare maximization concentrates
  all funding on the largest group.

All randomness flows through ``numpy.random.SeedSequence`` with one child
stream per concern, so adding a new draw to one stream never perturbs the
others, and the same seed reproduces the same instance byte for byte.
Costs and budgets are rounded to whole cents and stored as exact fractions.

Only these generators need numpy, and they import it on their first call:
importing this module, or any other of the library, does not load it, so a
run on Pabulib files or the built-in instances never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import ApprovalProfile, PBInstance, Project

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class EuclideanConfig:
    n_voters: int = 40
    n_projects: int = 15
    budget_fraction: Fraction = Fraction(1, 3)  # of the total project cost
    ballot_mean: float = 10.0
    ballot_std: float = 3.0
    cost_min_range: tuple[float, float] = (100.0, 500.0)
    cost_avg_range: tuple[float, float] = (10_000.0, 20_000.0)
    sigma: float = 0.2  # spatial spread around the square's center


@dataclass(frozen=True)
class PartyListConfig:
    n_voters: int = 200
    n_groups_range: tuple[int, int] = (5, 20)
    projects_per_group_range: tuple[int, int] = (10, 30)
    cost_scale: Fraction = Fraction(100)  # project cost = scale * group size
    budget_fraction: Fraction = Fraction(1, 2)  # of the total project cost


def _cents(x: float) -> Fraction:
    """Round to whole cents and return an exact value."""
    return Fraction(int(round(x * 100)), 100)


def _streams(seed: int, n: int) -> list[np.random.Generator]:
    if seed < 0:  # checked here for every generator, before numpy loads
        raise ValueError(f"seed must be non-negative, got {seed}")
    import numpy as np
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


def _points(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    return rng.normal(0.5, sigma, size=(n, 2)).clip(0.0, 1.0)


def gen_euclidean(seed: int,
                  config: EuclideanConfig = EuclideanConfig()
                  ) -> tuple[PBInstance, ApprovalProfile]:
    """Spatial instance: voters approve their nearest projects."""
    import numpy as np
    cfg = config
    if cfg.n_voters < 1 or cfg.n_projects < 1:
        raise ValueError("need at least one voter and one project")
    pos_rng, cost_rng, ballot_rng = _streams(seed, 3)

    voters = _points(pos_rng, cfg.n_voters, cfg.sigma)
    projects_xy = _points(pos_rng, cfg.n_projects, cfg.sigma)

    c_min = cost_rng.uniform(*cfg.cost_min_range)
    c_avg = cost_rng.uniform(*cfg.cost_avg_range)
    raw = c_min + cost_rng.exponential(c_avg - c_min, size=cfg.n_projects)
    costs = [_cents(c) for c in raw]

    sizes = np.rint(ballot_rng.normal(
        cfg.ballot_mean, cfg.ballot_std, size=cfg.n_voters)).astype(int)
    sizes = np.clip(sizes, 1, cfg.n_projects)

    ids = [f"p{j:03d}" for j in range(cfg.n_projects)]
    dists = np.linalg.norm(
        voters[:, None, :] - projects_xy[None, :, :], axis=2)
    # each voter's projects, nearest first
    order = np.argsort(dists, axis=1, kind="stable").tolist()
    ballots = [frozenset(map(ids.__getitem__, row[:size]))
               for row, size in zip(order, sizes.tolist())]

    approved = frozenset().union(*ballots)
    projects = [Project(pid, c) for pid, c in zip(ids, costs)
                if pid in approved]
    total = sum((p.cost for p in projects), Fraction(0))
    budget = _cents(float(total * cfg.budget_fraction))
    instance = PBInstance(tuple(projects), budget)
    return instance, ApprovalProfile(tuple(ballots))


def gen_party_list(seed: int,
                   config: PartyListConfig = PartyListConfig()
                   ) -> tuple[PBInstance, ApprovalProfile]:
    """Block instance: disjoint groups, each approving its own project list."""
    cfg = config
    if cfg.n_voters < 1:
        raise ValueError("need at least one voter")
    group_rng, project_rng = _streams(seed, 2)

    lo, hi = cfg.n_groups_range
    n_groups = int(group_rng.integers(lo, hi + 1))
    assignment = group_rng.integers(0, n_groups, size=cfg.n_voters)
    sizes = {g: int((assignment == g).sum()) for g in range(n_groups)}
    occupied = [g for g in range(n_groups) if sizes[g] > 0]

    plo, phi = cfg.projects_per_group_range
    projects: list[Project] = []
    lists: dict[int, frozenset[str]] = {}
    for g in occupied:
        count = int(project_rng.integers(plo, phi + 1))
        ids = [f"g{g:02d}p{j:02d}" for j in range(count)]
        cost = cfg.cost_scale * sizes[g]
        projects += [Project(pid, cost) for pid in ids]
        lists[g] = frozenset(ids)

    ballots = tuple(lists[g] for g in assignment)
    total = sum((p.cost for p in projects), Fraction(0))
    budget = _cents(float(total * cfg.budget_fraction))
    instance = PBInstance(tuple(projects), budget)
    return instance, ApprovalProfile(ballots)


# Small presets sized so that every rule (including the exact optimizers)
# finishes in well under a second per instance.
PRESETS: dict[str, tuple[str, object]] = {
    "euclidean-desk": ("euclidean", EuclideanConfig(
        n_voters=40, n_projects=15, ballot_mean=4.0, ballot_std=1.5)),
    "partylist-desk": ("partylist", PartyListConfig(
        n_voters=30, n_groups_range=(4, 8),
        projects_per_group_range=(2, 5))),
}

# every name `generate` accepts: a generator kind or a preset
GENERATOR_NAMES = frozenset(("euclidean", "partylist", *PRESETS))


def generate(name: str, seed: int) -> tuple[PBInstance, ApprovalProfile]:
    """Dispatch by generator kind ("euclidean" | "partylist", each with its
    default config) or preset name."""
    kind, *config = PRESETS.get(name, (name,))
    if kind == "euclidean":
        return gen_euclidean(seed, *config)
    if kind == "partylist":
        return gen_party_list(seed, *config)
    raise ValueError(f"unknown generator or preset {name!r}")
