"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's search code: exhaustive
bitmask enumeration for the optimizers, a full subset scan for the fairness
checker, a breakpoint solve for the payment threshold, and voter-by-voter
runs of equal shares (on that threshold) and of greedy sPAV; the scores,
the profile check and the cohesion test walk the ballots one by one.  Tests
compare the fast implementations against these.  `oracle_parse_pb` is the
`.pb` parser written plainly, stripping every cell of every row.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import settings

from pbvoting import core, sequential
from pbvoting.core import ApprovalProfile, PBInstance, Project, harmonic
from pbvoting.exact import TieBreakPolicy
from pbvoting.instances import city, tiny
from pbvoting.pabulib import (REQUIRED_META, PabulibParseError,
                              _count, _decimal_fraction)
from pbvoting.sequential import EqualSharesTrace

# Property tests draw the same examples on every run and carry no deadline,
# so a slow or busy machine can neither change nor fail their outcome.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter):
    """Print one status line per acceptance criterion after the run."""
    try:
        from test_acceptance import LABELS, RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(LABELS):
        status = RESULTS.get(n, "NOT RUN")
        terminalreporter.write_line(f"criterion {n} ({LABELS[n]}): {status}")


def clear_memos():
    """Forget every compiled election and every equal-shares phase."""
    core._compile.cache_clear()
    sequential._approval_phase.cache_clear()


@pytest.fixture(scope="session")
def city_pair():
    return city()


@pytest.fixture(scope="session")
def tiny_pair():
    return tiny()


# ---------------------------------------------------------------------------
# exhaustive optimizer oracle (bitmask subsets, fine up to ~16 projects)

def oracle_search(instance: PBInstance, profile: ApprovalProfile,
                  objective: str):
    """(optimal value, list of inclusion-maximal optimal bundles)."""
    best, optima = _oracle_tables(instance, profile)[objective]
    return best, list(optima)  # a copy: the tables are cached


@functools.lru_cache(maxsize=1)
def _oracle_tables(instance: PBInstance, profile: ApprovalProfile) -> dict:
    """`oracle_search` for sw, rp and pav, from one enumeration of the
    feasible subsets.  Callers ask for the three objectives of one election
    in a row, so one cached election suffices."""
    ids = list(instance.project_ids)
    m = len(ids)
    cost, voter_masks = _subsets(instance, profile)
    # harmonic scores in units of 1/lcm(1..m), so they add up as integers
    unit = math.lcm(*range(1, m + 1))
    harm = [int(harmonic(k) * unit) for k in range(m + 1)]

    scored = []  # (mask, sw, rp, pav) of every feasible subset
    for mask in range(1 << m):
        if cost[mask] <= instance.budget:
            funded = [(vm & mask).bit_count() for vm in voter_masks]
            scored.append((mask, sum(funded), sum(1 for k in funded if k),
                           sum(harm[k] for k in funded)))
    objectives = ("sw", "rp", "pav")
    best = [max(row[i] for row in scored) for i in (1, 2, 3)]
    optima: dict[str, list] = {objective: [] for objective in objectives}
    for mask, *values in scored:
        hits = [objective for objective, value, top
                in zip(objectives, values, best) if value == top]
        if hits and all(cost[mask | (1 << j)] > instance.budget
                        for j in range(m) if not mask & (1 << j)):
            bundle = frozenset(ids[j] for j in range(m) if mask & (1 << j))
            for objective in hits:
                optima[objective].append(bundle)
    best[2] = Fraction(best[2], unit)
    return {objective: (top, optima[objective])
            for objective, top in zip(objectives, best)}


def _subsets(instance: PBInstance, profile: ApprovalProfile
             ) -> tuple[list[Fraction], list[int]]:
    """The cost of every project subset, indexed by its bitmask over the
    projects in instance order, and each voter's ballot as such a mask."""
    ids = instance.project_ids
    costs = [instance.cost(pid) for pid in ids]
    # cost of each subset: that of the subset without its lowest project,
    # plus that project's cost
    cost = [Fraction(0)] * (1 << len(ids))
    for mask in range(1, len(cost)):
        low = mask & -mask
        cost[mask] = cost[mask ^ low] + costs[low.bit_length() - 1]
    voter_masks = [sum(1 << j for j, pid in enumerate(ids) if pid in ballot)
                   for ballot in profile.ballots]
    return cost, voter_masks


# ---------------------------------------------------------------------------
# scores, the profile check and cohesion, walked ballot by ballot; instance
# equality as the dataclass fields define it

def oracle_social_welfare(profile: ApprovalProfile, bundle) -> int:
    return sum(len(ballot & frozenset(bundle)) for ballot in profile.ballots)


def oracle_representation(profile: ApprovalProfile, bundle) -> int:
    return sum(1 for ballot in profile.ballots if ballot & frozenset(bundle))


def oracle_pav_score(profile: ApprovalProfile, bundle) -> Fraction:
    return sum((harmonic(len(ballot & frozenset(bundle)))
                for ballot in profile.ballots), Fraction(0))


def oracle_unknown_ballot(instance: PBInstance, profile: ApprovalProfile
                          ) -> Optional[str]:
    """The message of validating the profile against the instance: the
    first ballot that approves a project the instance lacks, or None."""
    known = set(instance.project_ids)
    for i, ballot in enumerate(profile.ballots):
        if ballot - known:
            return (f"ballot {i} approves unknown project(s) "
                    f"{sorted(ballot - known)}")
    return None


def oracle_is_cohesive(instance: PBInstance, profile: ApprovalProfile,
                       voters, projects) -> bool:
    """`fairness.is_cohesive` on valid input, walking the ballots: every
    voter approves every project, and their share pays for them."""
    S, T = frozenset(voters), frozenset(projects)
    if not all(T <= profile.ballots[i] for i in S):
        return False
    share = instance.budget * len(S) / profile.n_voters if S else 0
    return share >= sum(instance.cost(pid) for pid in T)


def oracle_instances_equal(a: PBInstance, b: PBInstance) -> bool:
    """Instance equality as the dataclass fields define it: the projects,
    each an id and a `Fraction` cost, in order, and the budget."""
    return (a.projects, a.budget) == (b.projects, b.budget)


# ---------------------------------------------------------------------------
# brute-force fairness oracle: scan every jointly-approved project set

def oracle_ejr_violated(instance: PBInstance, profile: ApprovalProfile,
                        bundle: frozenset, t_cap: int | None = None) -> bool:
    """True iff some cohesive group is under-served by the bundle.

    For any violating (S, T) the group of *all* under-represented supporters
    of T also violates, so scanning each T with that canonical group decides
    the property.  T ranges over all affordable project subsets, of at most
    `t_cap` projects when a cap is given.
    """
    n = profile.n_voters
    if n == 0:
        return False
    share = Fraction(instance.budget, n)
    cost, voter_masks = _subsets(instance, profile)
    overlap = [len(ballot & bundle) for ballot in profile.ballots]
    for mask in range(1, len(cost)):
        size = mask.bit_count()  # |T|
        if cost[mask] > instance.budget or (t_cap is not None
                                            and size > t_cap):
            continue
        supporters = sum(1 for vm, k in zip(voter_masks, overlap)
                         if vm & mask == mask and k < size)
        if supporters and share * supporters >= cost[mask]:
            return True
    return False


# ---------------------------------------------------------------------------
# payment-threshold oracle: solve on the sorted breakpoint segments

def oracle_q(cost, budgets, utilities):
    cost = Fraction(cost)
    pairs = [(Fraction(b), Fraction(u)) for b, u in zip(budgets, utilities)
             if u > 0]
    if sum((b for b, _ in pairs), Fraction(0)) < cost:
        return None

    def paid(q):
        return sum((min(b, u * q) for b, u in pairs), Fraction(0))

    breakpoints = sorted({b / u for b, u in pairs})
    prev = Fraction(0)
    for bp in breakpoints + [None]:
        # on (prev, bp] the set of budget-capped voters is constant
        capped = sum((b for b, u in pairs if b / u <= prev), Fraction(0))
        slope = sum((u for b, u in pairs if b / u > prev), Fraction(0))
        if slope > 0:
            q = (cost - capped) / slope
            if q > prev and (bp is None or q <= bp):
                assert paid(q) == cost
                return q
        prev = bp
    raise AssertionError("no segment solved; inputs degenerate")


# ---------------------------------------------------------------------------
# per-voter oracles for the sequential rules

def oracle_equal_shares(instance: PBInstance, profile: ApprovalProfile,
                        exhaust: bool = False) -> EqualSharesTrace:
    """Equal shares with approval utilities, voter by voter, as a trace.

    Every voter starts with budget/n.  Each round funds the unfunded project
    with minimal `oracle_q` threshold q over its approvers (ties to the
    cheaper project, then the smaller id) and charges each approver
    min(budget, q).  With `exhaust`, the epsilon->0 exhaustion of
    `rule_x_eps` follows as its docstring defines it: the same rounds with
    every voter paying for every project, the minimal uniform threshold r
    over all unfunded projects, and min(budget, r) charged to everyone.
    """
    n = profile.n_voters
    budgets = [Fraction(instance.budget, n)] * n
    trace = EqualSharesTrace()
    payers = [lambda pid: [int(pid in ballot) for ballot in profile.ballots]]
    if exhaust:
        payers.append(lambda pid: [1] * n)
    for utilities in payers:
        while True:
            best = None
            for p in instance.projects:
                if p.id in trace.charges:
                    continue
                q = oracle_q(p.cost, budgets, utilities(p.id))
                if q is not None and (best is None
                                      or (q, p.cost, p.id) < best):
                    best = (q, p.cost, p.id)
            if best is None:
                break
            q, _, pid = best
            charges = [min(b, u * q)
                       for b, u in zip(budgets, utilities(pid))]
            budgets = [b - c for b, c in zip(budgets, charges)]
            trace.funded.append(pid)
            trace.charges[pid] = charges
    trace.final_budgets = budgets
    return trace


def oracle_seq_pav(instance: PBInstance, profile: ApprovalProfile,
                   policy: TieBreakPolicy) -> frozenset:
    """Greedy sPAV, voter by voter, in Fractions.

    Each step adds the affordable project with the largest sum over its
    approvers of 1/(k+1), k the approver's funded approved projects.  Ties
    go to the cheaper project, then the smaller id (cheapest-first), to the
    smaller id (lex-by-id), or to a draw from the policy's seeded generator
    over the tied ids in ascending order (random).
    """
    rng = random.Random(policy.seed) if policy.variant == "random" else None
    funded: set[str] = set()
    left = instance.budget
    while True:
        gains = {p.id: sum((Fraction(1, len(ballot & funded) + 1)
                            for ballot in profile.ballots if p.id in ballot),
                           Fraction(0))
                 for p in instance.projects
                 if p.id not in funded and p.cost <= left}
        if not gains:
            return frozenset(funded)
        top = max(gains.values())
        ties = sorted(pid for pid, gain in gains.items() if gain == top)
        if rng is not None:
            pick = ties[rng.randrange(len(ties))]
        elif policy.variant == "lex-by-id":
            pick = ties[0]
        else:
            pick = min(ties, key=lambda pid: (instance.cost(pid), pid))
        funded.add(pick)
        left -= instance.cost(pick)


def oracle_equal_shares_eps(instance: PBInstance, profile: ApprovalProfile,
                            eps: Fraction) -> frozenset:
    """One equal-shares pass, voter by voter, where non-approvers have
    utility `eps` and approvers utility 1.

    Each round funds the project with minimal `oracle_q` threshold (ties to
    the cheaper project, then the smaller id) and charges every voter
    min(budget, utility * q).  For a small `eps` this approximates the
    limit that `rule_x_eps` runs, but the two can fund different projects.
    """
    n = profile.n_voters
    budgets = [Fraction(instance.budget, n)] * n
    funded: set[str] = set()
    while True:
        best = None
        for p in instance.projects:
            if p.id in funded:
                continue
            utils = [1 if p.id in ballot else eps
                     for ballot in profile.ballots]
            q = oracle_q(p.cost, budgets, utils)
            if q is not None and (best is None
                                  or (q, p.cost, p.id) < best[:3]):
                best = (q, p.cost, p.id, utils)
        if best is None:
            return frozenset(funded)
        q, _, pid, utils = best
        budgets = [b - min(b, u * q) for b, u in zip(budgets, utils)]
        funded.add(pid)


# ---------------------------------------------------------------------------
# random small instances for oracle comparisons

def random_instance(seed: int, max_projects: int = 12
                    ) -> tuple[PBInstance, ApprovalProfile]:
    rng = random.Random(seed)
    m = rng.randint(1, max_projects)
    n = rng.randint(1, 8)
    projects = tuple(Project(f"p{j:02d}", rng.randint(1, 20))
                     for j in range(m))
    total = sum(p.cost for p in projects)
    budget = Fraction(rng.randint(1, int(total)))
    ballots = []
    for _ in range(n):
        k = rng.randint(0, m)
        ballots.append(frozenset(rng.sample([p.id for p in projects], k)))
    return PBInstance(projects, budget), ApprovalProfile(tuple(ballots))


# ---------------------------------------------------------------------------
# plain `.pb` parser: every cell of every row stripped, every vote id checked

def oracle_parse_pb(text: str
                    ) -> tuple[PBInstance, ApprovalProfile, dict[str, str]]:
    """`pabulib.parse_pb` written plainly, with no shortcut for votes.

    Every table row is split into stripped cells, and every row's cell count
    is checked before the VOTES columns and the vote ids.  A project id that
    is empty or holds ``,`` is rejected, since no vote could name it.  Each
    vote's ids are stripped one by one, empty ones skipped and unknown ones
    rejected.  Decimals and counts are read with the library's helpers, and
    every failure is the library's `PabulibParseError`, with the same
    message and line that `parse_pb` must give.
    """
    sections: dict[str, tuple[int, list[tuple[int, str]]]] = {}
    current: Optional[str] = None
    # a line ends at \n, \r\n or \r, and at no other line boundary of
    # `str.splitlines`; a piece after the last break is blank
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        if line in ("META", "PROJECTS", "VOTES"):
            if line in sections:
                raise PabulibParseError(lineno, f"duplicate section {line}")
            sections[line] = (lineno, [])
            current = line
            continue
        if not line.strip():
            continue
        if current is None:
            raise PabulibParseError(lineno, "content before any section header")
        sections[current][1].append((lineno, line))
    for name in ("META", "PROJECTS", "VOTES"):
        if name not in sections:
            raise PabulibParseError(None, f"missing section {name}")

    def table(rows, section):
        if not rows:
            raise PabulibParseError(None, f"section {section} has no header row")
        header_line, header = rows[0]
        columns = tuple(h.strip() for h in header.split(";"))
        data = []
        for lineno, line in rows[1:]:
            cells = tuple(c.strip() for c in line.split(";"))
            if len(cells) != len(columns):
                raise PabulibParseError(
                    lineno, f"{section} row has {len(cells)} cells, "
                    f"header (line {header_line}) has {len(columns)}")
            data.append((lineno, cells))
        return columns, data

    meta: dict[str, str] = {}
    meta_line: dict[str, int] = {}
    for lineno, line in sections["META"][1]:
        parts = line.split(";")
        if len(parts) != 2:
            raise PabulibParseError(lineno, f"META row needs key;value, got {line!r}")
        key, value = parts[0].strip(), parts[1].strip()
        if key == "key" and value == "value" and not meta:
            continue
        if key in meta_line:
            raise PabulibParseError(lineno, f"duplicate meta key {key!r}")
        meta_line[key] = lineno
        meta[key] = value
    for key in REQUIRED_META:
        if key not in meta:
            raise PabulibParseError(None, f"META is missing required key {key!r}")
    vote_type = meta.get("vote_type", "approval")
    if vote_type != "approval":
        raise PabulibParseError(
            None, f"unsupported vote_type {vote_type!r}: only approval "
            "ballots are supported")
    budget = _decimal_fraction(meta["budget"], meta_line["budget"], "budget")
    if budget <= 0:
        raise PabulibParseError(None, f"budget must be positive, got {budget}")
    num_projects, num_votes = (_count(meta[key], key, meta_line[key])
                               for key in ("num_projects", "num_votes"))

    pcols, prows = table(sections["PROJECTS"][1], "PROJECTS")
    for needed in ("project_id", "cost"):
        if needed not in pcols:
            raise PabulibParseError(None, f"PROJECTS is missing column {needed!r}")
    id_col, cost_col = pcols.index("project_id"), pcols.index("cost")
    projects = []
    for lineno, cells in prows:
        pid = cells[id_col]
        if not pid or "," in pid:  # a vote could not name it
            raise PabulibParseError(
                lineno, f"project id {pid!r} cannot be voted for: "
                + ("it is empty" if not pid else "it holds ','"))
        cost = _decimal_fraction(cells[cost_col], lineno, f"project {pid!r}")
        if cost <= 0:
            raise PabulibParseError(
                lineno, f"project {pid!r} has non-positive cost {cells[cost_col]}")
        projects.append(Project(pid, cost))
    if not projects:
        raise PabulibParseError(sections["PROJECTS"][0],
                                "PROJECTS has no project rows")
    known = {p.id for p in projects}
    if len(known) != len(projects):
        raise PabulibParseError(None, "duplicate project ids in PROJECTS")
    if num_projects != len(projects):
        raise PabulibParseError(
            None, f"num_projects={meta['num_projects']} but "
            f"PROJECTS has {len(projects)} rows")

    vcols, vrows = table(sections["VOTES"][1], "VOTES")
    for needed in ("voter_id", "vote"):
        if needed not in vcols:
            raise PabulibParseError(None, f"VOTES is missing column {needed!r}")
    vote_col = vcols.index("vote")
    ballots = []
    for lineno, cells in vrows:
        field = cells[vote_col]
        ids = [s.strip() for s in field.split(",") if s.strip()] if field else []
        for pid in ids:
            if pid not in known:
                raise PabulibParseError(
                    lineno, f"vote references unknown project id {pid!r}")
        ballots.append(frozenset(ids))
    if num_votes != len(ballots):
        raise PabulibParseError(
            None, f"num_votes={meta['num_votes']} but VOTES has "
            f"{len(ballots)} rows")
    return (PBInstance(tuple(projects), budget),
            ApprovalProfile(tuple(ballots)), meta)
