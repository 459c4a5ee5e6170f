"""The benchmark's workloads: what each one runs, and how its outputs are checked.

Every workload is a fixed set of items. ``prepare`` is set-up (it may
generate and write files), ``run_item`` is the timed work for one item, and
``finish`` is the timed work that needs all items. ``check`` compares the
outputs with the digests in ``reference.json`` and returns what differs.

The library is always called through module attributes (``bench.run_rule``,
``pabulib.parse_pb``, ...) so that ``tracing.instrument`` can put spans
around the calls without touching the library.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from pbvoting import bench, datagen, fairness, pabulib
from pbvoting.core import ApprovalProfile, PBInstance, is_feasible
from pbvoting.exact import SearchBudget, SearchBudgetExceeded, TieBreakPolicy


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Corpus:
    """A criterion-7 corpus, run one instance per ``run_experiment`` call.

    The items are the generator seeds ``0 .. n_instances-1``. A full call
    with ``seed=0, n_instances=n_instances`` gives the reference rows; the
    per-instance rows, sorted the way ``run_experiment`` sorts, must
    reproduce that CSV byte for byte.
    """

    name: str
    dataset: str
    rules: tuple[str, ...]
    tiebreak: str
    n_instances: int
    criterion_7: Callable  # summaries by rule -> (assertion, holds) pairs
    t_cap: Optional[int] = None

    def spec(self, seed: int, n_instances: int) -> bench.ExperimentSpec:
        return bench.ExperimentSpec(
            dataset=self.dataset, rules=self.rules, seed=seed,
            n_instances=n_instances, tiebreak=self.tiebreak,
            t_cap=self.t_cap)

    def prepare(self, workdir: Path) -> list[int]:
        return list(range(self.n_instances))

    def run_item(self, seed: int) -> list[bench.ResultRow]:
        try:
            return bench.run_experiment(self.spec(seed, 1))
        except RuntimeError as e:
            # A one-instance call raises when all its rows fail, where the
            # full-corpus call records them; record them the same way.
            # (Instance ids follow bench.load_dataset.)
            return [bench.ResultRow(f"{self.dataset}-{seed:05d}", rule, None,
                                    None, None, None, "", None, str(e))
                    for rule in sorted(self.rules)]

    def finish(self, outputs: list[list[bench.ResultRow]]):
        rows = sorted((r for out in outputs for r in out),
                      key=lambda r: (r.instance, r.rule))
        return rows, bench.aggregate(rows)

    def count_rows(self, result) -> tuple[int, int]:
        rows, _ = result
        return len(rows), sum(1 for r in rows if not r.ok)

    def digest(self, result) -> str:
        rows, _ = result
        return sha256(bench.rows_to_csv(rows))

    def check(self, result, reference: dict, items: list[int]) -> list[str]:
        problems = []
        if self.digest(result) != reference["sha256"]:
            problems.append("rows CSV differs from the reference "
                            "(one full run_experiment call)")
        _, summaries = result
        by_rule = {s.rule: s for s in summaries}
        problems += [f"criterion-7 check failed: {what}"
                     for what, holds in self.criterion_7(by_rule)
                     if not holds]
        return problems


def _euclid_criterion_7(by_rule):
    floor = by_rule["sPAV"].util_mean
    yield "AV util_mean == 1", by_rule["AV"].util_mean == 1
    yield "CC rep_mean == 1", by_rule["CC"].rep_mean == 1
    for rule in ("AV", "PAV", "RX-eps", "RX-PAV"):
        yield f"sPAV util_mean < {rule}", floor < by_rule[rule].util_mean
    yield from _completions_dominate_rx(by_rule)


def _party_criterion_7(by_rule):
    yield "AV ejr_fraction == 0", by_rule["AV"].ejr_fraction == 0
    for rule in ("RX", "RX-eps", "RX-PAV"):
        yield f"{rule} ejr_fraction == 1", by_rule[rule].ejr_fraction == 1
    yield from _completions_dominate_rx(by_rule)


def _completions_dominate_rx(by_rule):
    rx = by_rule["RX"]
    for rule in ("RX-eps", "RX-PAV"):
        yield f"{rule} util_mean >= RX", by_rule[rule].util_mean >= rx.util_mean
        yield f"{rule} rep_mean >= RX", by_rule[rule].rep_mean >= rx.rep_mean


@dataclass(frozen=True)
class RuleItem:
    election: str  # the file's stem
    path: Path
    rule: str
    instance: PBInstance  # as generated
    profile: ApprovalProfile


@dataclass(frozen=True)
class RuleOutcome:
    election: str
    rule: str
    instance: PBInstance  # as parsed from the file
    profile: ApprovalProfile
    bundle: Optional[frozenset]  # None when the rule failed
    verdict: str                 # EJR status, "" on failure


class PabulibScale:
    """Generated Pabulib-sized elections, written to ``.pb`` in set-up.

    An item is one (election, rule) pair, so that every pass times several
    items of a few seconds each rather than one long one. Its timed work is
    parse_pb of the election's file, the rule through ``bench.run_rule``
    with lex-by-id ties, then ``find_ejr_violation`` at a fixed depth on the
    bundle. ``pbbench bench``/``solve`` cannot run these elections: they
    always compute the exact rp optimum, which runs past a 200k-node budget
    at this size.
    """

    name = "pabulib-scale"
    rules = ("RX", "RX-eps", "sPAV", "RX-PAV")
    config = datagen.EuclideanConfig(n_voters=1000, n_projects=40)
    seeds = (0,)
    audit_depth = 6

    def prepare(self, workdir: Path) -> list[RuleItem]:
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for seed in self.seeds:
            inst, prof = datagen.gen_euclidean(seed, self.config)
            path = workdir / f"{self.name}-{seed:02d}.pb"
            path.write_text(pabulib.write_pb(inst, prof), encoding="utf-8")
            items += [RuleItem(path.stem, path, rule, inst, prof)
                      for rule in self.rules]
        return items

    def run_item(self, item: RuleItem) -> RuleOutcome:
        text = item.path.read_text(encoding="utf-8")
        inst, prof, _ = pabulib.parse_pb(text)
        try:
            bundle = bench.run_rule(item.rule, inst, prof, TieBreakPolicy.lex(),
                                    SearchBudget())
        except SearchBudgetExceeded:
            return RuleOutcome(item.election, item.rule, inst, prof, None, "")
        verdict = fairness.find_ejr_violation(inst, prof, bundle,
                                              self.audit_depth).status
        return RuleOutcome(item.election, item.rule, inst, prof, bundle,
                           verdict)

    def finish(self, outputs: list[RuleOutcome]):
        return sorted(outputs,
                      key=lambda o: (o.election, self.rules.index(o.rule)))

    def count_rows(self, result) -> tuple[int, int]:
        return len(result), sum(1 for o in result if o.bundle is None)

    def digest(self, result) -> str:
        lines = []
        for o in result:
            shown = "FAILED" if o.bundle is None else ",".join(sorted(o.bundle))
            lines.append(f"{o.election};{o.rule};{shown};{o.verdict}\n")
        return sha256("".join(lines))

    def check(self, result, reference: dict, items: list[RuleItem]
              ) -> list[str]:
        problems = []
        if self.digest(result) != reference["sha256"]:
            problems.append("(election, rule, bundle, EJR verdict) lines "
                            "differ from the reference")
        generated = {i.election: i for i in items}
        bundles: dict[str, dict[str, Optional[frozenset]]] = {}
        for o in result:
            e = generated[o.election]
            if (o.instance, o.profile) != (e.instance, e.profile):
                problems.append(f"{o.election}: parse_pb(write_pb(x)) != x")
            if o.bundle is not None and not is_feasible(o.instance, o.bundle):
                problems.append(f"{o.election}: {o.rule} bundle over budget")
            bundles.setdefault(o.election, {})[o.rule] = o.bundle
        for election, b in bundles.items():
            for rule in ("RX-eps", "RX-PAV"):
                if None not in (b["RX"], b[rule]) and not b["RX"] <= b[rule]:
                    problems.append(f"{election}: {rule} does not contain RX")
        return problems


WORKLOADS = {
    "corpus-euclid": Corpus(
        "corpus-euclid", "euclidean-desk",
        ("AV", "CC", "PAV", "sPAV", "RX", "RX-eps", "RX-PAV"), "worst-sw",
        n_instances=25, criterion_7=_euclid_criterion_7),
    "corpus-party": Corpus(
        "corpus-party", "partylist-desk", ("AV", "RX", "RX-eps", "RX-PAV"),
        "worst-rp", n_instances=9, criterion_7=_party_criterion_7,
        t_cap=10 ** 9),
    "pabulib-scale": PabulibScale(),
}
