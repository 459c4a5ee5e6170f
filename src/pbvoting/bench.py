"""Benchmark harness: run rules over datasets, produce ratio/EJR tables.

`RULES` is the one rule table: it maps each rule name to its runner
``(instance, profile, policy, search_budget) -> bundle`` and to its plot
marker.  `run_rule`, the spec check, the adversarial replay and the plot all
read it.  Each runner looks its rule function up in this module's globals
when it runs, not when the table is built, so code that rebinds a module
attribute such as ``bench.solve_cc`` (a tracer, a test double) still sees
every call.

A run is described by an :class:`ExperimentSpec`, which `spec_from_config`
builds from the keys of `CONFIG_KEYS`; :func:`run_experiment`
executes every instance x rule pair and returns one :class:`ResultRow` per
pair, a failed pair included, with its reason.  `score_bundles`, which
`pbbench solve` and the city demo share, scores the rows.  A row's sw and
rp are read off the compiled election's voter bitsets
(`core.compile_election`, already built by the rules): the sum of
the funded projects' approver popcounts, and the popcount of their union.  The ratios divide by the instance's exact sw
and rp optima.  An AV bundle attains the sw optimum and a CC bundle the rp
optimum, so these are read off the AV and CC bundles when the spec has those
rules; `optimum_value` searches only for an optimum whose rule is absent or
failed.

Ratios are exact rationals serialized as 6-decimal strings, so a rerun
with the same spec and seed produces byte-identical CSV output.  Wall-clock
times are recorded only when explicitly requested, because timing noise would
break that byte-level determinism.

Random tie-breaking derives one seed per (spec seed, instance id, rule) from
a SHA-256 hash, so adding a rule or an instance to a spec never changes the
draws of existing rows.  Rows are sorted by (instance, rule) before output;
execution order can therefore never change the bytes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (ApprovalProfile, PBInstance, compile_election,
                   representation, social_welfare)
from .datagen import GENERATOR_NAMES, generate
from .exact import (SearchBudget, SearchBudgetExceeded, TieBreakPolicy,
                    optimum_value, solve_av, solve_cc, solve_pav)
from .fairness import check_t_cap, find_ejr_violation
from .instances import city, tiny
from .pabulib import parse_pb
from .sequential import (NoVotersError, rule_x, rule_x_eps, rule_x_pav,
                         seq_pav)

CSV_COLUMNS = ("instance", "rule", "sw", "rp", "util_ratio", "rep_ratio",
               "ejr", "wall_ms", "reason")


@dataclass(frozen=True)
class ExperimentSpec:
    dataset: str                      # city | tiny | generator/preset name | pabulib:<path>
    rules: tuple[str, ...]
    seed: int = 0
    n_instances: int = 1              # generator datasets only
    tiebreak: str = "random"          # TieBreakPolicy variant
    t_cap: Optional[int] = None       # None: per-instance default cap
    max_nodes: int = SearchBudget.max_nodes
    record_time: bool = False

    def __post_init__(self):
        if not self.rules:
            raise ValueError("spec needs at least one rule")
        for k, rule in enumerate(self.rules):
            if rule not in RULE_NAMES:
                raise ValueError(
                    f"unknown rule {rule!r}; choose from {RULE_NAMES}")
            if rule in self.rules[:k]:
                raise ValueError(f"rule {rule!r} is listed twice")
        TieBreakPolicy(self.tiebreak, self.seed)  # rejects unknown variants
        SearchBudget(self.max_nodes)  # rejects a non-positive node budget
        if self.n_instances < 1:
            raise ValueError("n_instances must be positive")
        check_t_cap(self.t_cap)


@dataclass(frozen=True)
class ResultRow:
    instance: str
    rule: str
    sw: Optional[int]
    rp: Optional[int]
    util_ratio: Optional[Fraction]
    rep_ratio: Optional[Fraction]
    ejr: str                          # verdict status, or "" on failure
    wall_ms: Optional[int]            # the rule's own time; scoring and the
                                      # EJR audit are not included
    reason: str                       # "" on success

    @property
    def ok(self) -> bool:
        return not self.reason


@dataclass(frozen=True)
class RuleSummary:
    rule: str
    count: int
    util_mean: Fraction
    util_stderr: float
    rep_mean: Fraction
    rep_stderr: float
    ejr_fraction: Optional[Fraction]  # None when any verdict is unknown


def format_ratio(value: Fraction) -> str:
    """Exact round-half-even serialization with 6 decimal places."""
    scaled = round(value * 10 ** 6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10 ** 6}.{scaled % 10 ** 6:06d}"


def _policy(spec: ExperimentSpec, instance_id: str, rule: str) -> TieBreakPolicy:
    digest = hashlib.sha256(
        f"{spec.seed}:{instance_id}:{rule}".encode()).digest()
    return TieBreakPolicy(spec.tiebreak, int.from_bytes(digest[:8], "big"))


class Rule(NamedTuple):
    run: Callable[[PBInstance, ApprovalProfile, TieBreakPolicy, SearchBudget],
                  frozenset]
    marker: str  # plot marker shape


RULES = {
    "AV": Rule(lambda i, p, t, b: solve_av(i, p, t, b), "circle"),
    "CC": Rule(lambda i, p, t, b: solve_cc(i, p, t, b), "square"),
    "PAV": Rule(lambda i, p, t, b: solve_pav(i, p, t, b), "triangle-up"),
    "sPAV": Rule(lambda i, p, t, b: seq_pav(i, p, t), "diamond"),
    "RX": Rule(lambda i, p, t, b: rule_x(i, p), "triangle-down"),
    "RX-eps": Rule(lambda i, p, t, b: rule_x_eps(i, p), "cross"),
    "RX-PAV": Rule(lambda i, p, t, b: rule_x_pav(i, p, t, b), "plus"),
}

RULE_NAMES = tuple(RULES)


def run_rule(rule: str, instance: PBInstance, profile: ApprovalProfile,
             policy: TieBreakPolicy, search_budget: SearchBudget) -> frozenset:
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; choose from {RULE_NAMES}")
    return RULES[rule].run(instance, profile, policy, search_budget)


def load_dataset(name: str, seed: int = 0, count: int = 1
                 ) -> list[tuple[str, PBInstance, ApprovalProfile]]:
    """(instance id, instance, profile) for each instance of a dataset.

    `seed` and `count` choose the generated instances of a generator
    dataset; the other datasets ignore them.
    """
    if name == "city":
        return [("city", *city())]
    if name == "tiny":
        return [("tiny", *tiny())]
    if name in GENERATOR_NAMES:
        return [(f"{name}-{s:05d}", *generate(name, s))
                for s in range(seed, seed + count)]
    if name.startswith("pabulib:"):
        return [(f.stem, *parse_pb(f.read_text(encoding="utf-8"))[:2])
                for f in pabulib_files(Path(name.split(":", 1)[1]))]
    raise ValueError(f"unknown dataset {name!r}")


def pabulib_files(path: Path) -> list[Path]:
    """The .pb files of dataset ``pabulib:<path>``: a directory's, sorted by
    name, or the file itself."""
    files = sorted(path.glob("*.pb")) if path.is_dir() else [path]
    if not files:
        raise FileNotFoundError(f"no .pb files under {path}")
    return files


def score_bundles(instance: PBInstance, profile: ApprovalProfile,
                  bundles: dict[str, frozenset], search_budget: SearchBudget
                  ) -> dict[str, tuple[int, int, Optional[Fraction],
                                       Optional[Fraction]]]:
    """(sw, rp, util ratio, rep ratio) of each rule's bundle, read off the
    voter bitsets against the optima (see the module docstring).  Raises
    SearchBudgetExceeded when an optimum search runs over its budget."""
    # an AV bundle attains the sw optimum and a CC bundle the rp one
    av, cc = bundles.get("AV"), bundles.get("CC")
    opt_sw = (social_welfare(profile, av) if av is not None
              else optimum_value("sw", instance, profile, search_budget))
    opt_rp = (representation(profile, cc) if cc is not None
              else optimum_value("rp", instance, profile, search_budget))
    election = compile_election(instance, profile)
    approvers = dict(zip(election.ids, election.project_masks))
    scores = {}
    for rule, bundle in bundles.items():
        masks = list(map(approvers.__getitem__, bundle))
        sw = sum(mask.bit_count() for mask in masks)
        rp = functools.reduce(operator.or_, masks, 0).bit_count()
        scores[rule] = (sw, rp, Fraction(sw, opt_sw) if opt_sw else None,
                        Fraction(rp, opt_rp) if opt_rp else None)
    return scores


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    instances = load_dataset(spec.dataset, spec.seed, spec.n_instances)
    budget = SearchBudget(spec.max_nodes)
    rows: list[ResultRow] = []
    for instance_id, inst, prof in instances:
        outcomes = {}  # rule -> (bundle or None, wall_ms, failure reason)
        for rule in spec.rules:
            t0 = time.perf_counter()
            try:
                bundle = run_rule(rule, inst, prof,
                                  _policy(spec, instance_id, rule), budget)
            except (SearchBudgetExceeded, NoVotersError) as e:
                outcomes[rule] = (None, None, str(e))
                continue
            ms = (int(round((time.perf_counter() - t0) * 1000))
                  if spec.record_time else None)
            outcomes[rule] = (bundle, ms, "")
        try:
            scores = score_bundles(inst, prof, {
                rule: bundle for rule, (bundle, _, _) in outcomes.items()
                if bundle is not None}, budget)
        except SearchBudgetExceeded as e:  # fails every row
            outcomes = dict.fromkeys(spec.rules, (None, None, f"optima: {e}"))
        for rule in spec.rules:
            bundle, ms, reason = outcomes[rule]
            if bundle is None:
                rows.append(ResultRow(instance_id, rule, None, None, None,
                                      None, "", None, reason))
                continue
            verdict = find_ejr_violation(inst, prof, bundle, spec.t_cap)
            rows.append(ResultRow(instance_id, rule, *scores[rule],
                                  verdict.status, ms, ""))
    rows.sort(key=lambda r: (r.instance, r.rule))
    return rows


def aggregate(rows: Sequence[ResultRow]) -> list[RuleSummary]:
    """Per-rule mean and standard error of both ratios, plus EJR fraction."""
    by_rule: dict[str, list[ResultRow]] = {}
    for row in rows:
        if row.ok and row.util_ratio is not None and row.rep_ratio is not None:
            by_rule.setdefault(row.rule, []).append(row)
    if not by_rule:
        raise ValueError("no successful rows to aggregate")
    out = []
    for rule in sorted(by_rule):
        got = by_rule[rule]
        k = len(got)
        utils = [r.util_ratio for r in got]
        reps = [r.rep_ratio for r in got]
        ejr = None
        if all(r.ejr != "unknown" for r in got):
            ejr = Fraction(sum(1 for r in got if r.ejr == "satisfied"), k)
        out.append(RuleSummary(rule, k, _mean(utils), _stderr(utils),
                               _mean(reps), _stderr(reps), ejr))
    return out


def _mean(values: Sequence[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)


def _stderr(values: Sequence[Fraction]) -> float:
    k = len(values)
    if k < 2:
        return 0.0
    mu = _mean(values)
    var = sum((v - mu) ** 2 for v in values) / (k - 1)
    return math.sqrt(float(var) / k)


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.instance, r.rule,
            "" if r.sw is None else r.sw,
            "" if r.rp is None else r.rp,
            "" if r.util_ratio is None else format_ratio(r.util_ratio),
            "" if r.rep_ratio is None else format_ratio(r.rep_ratio),
            r.ejr,
            "" if r.wall_ms is None else r.wall_ms,
            r.reason,
        ])
    return buf.getvalue()


def summaries_to_csv(summaries: Sequence[RuleSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rule", "count", "util_mean", "util_stderr",
                     "rep_mean", "rep_stderr", "ejr_pct"])
    for s in summaries:
        writer.writerow([
            s.rule, s.count,
            format_ratio(s.util_mean), f"{s.util_stderr:.6f}",
            format_ratio(s.rep_mean), f"{s.rep_stderr:.6f}",
            "" if s.ejr_fraction is None else format_ratio(
                100 * s.ejr_fraction),
        ])
    return buf.getvalue()


def summaries_to_text(summaries: Sequence[RuleSummary]) -> str:
    header = (f"{'rule':8s} {'n':>4s} {'util':>8s} {'+/-':>8s} "
              f"{'rep':>8s} {'+/-':>8s} {'ejr%':>10s}")
    lines = [header, "-" * len(header)]
    for s in summaries:
        ejr = ("?" if s.ejr_fraction is None
               else format_ratio(100 * s.ejr_fraction))
        lines.append(
            f"{s.rule:8s} {s.count:4d} {format_ratio(s.util_mean):>8s} "
            f"{s.util_stderr:8.6f} {format_ratio(s.rep_mean):>8s} "
            f"{s.rep_stderr:8.6f} {ejr:>10s}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, "
                             f"got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


# config key -> (ExperimentSpec field, reader of the key's text, what the
# text must be); each key is also the dest of a `pbbench bench` flag
CONFIG_KEYS = {
    "dataset": ("dataset", str, ""),
    "rules": ("rules", lambda text: tuple(
        r.strip() for r in text.split(",") if r.strip()), ""),
    "seed": ("seed", int, "an integer"),
    "instances": ("n_instances", int, "an integer"),
    "tiebreak": ("tiebreak", str, ""),
    "tcap": ("t_cap", int, "an integer"),
    "max_nodes": ("max_nodes", int, "an integer"),
    "record_time": ("record_time",
                    lambda text: {"true": True, "false": False}[text.lower()],
                    "true or false"),
}


def spec_from_config(values: dict[str, str]) -> ExperimentSpec:
    """The spec of the given keys; an absent key keeps its field's default."""
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s) {sorted(unknown)}")
    if "dataset" not in values or "rules" not in values:
        raise ValueError("spec needs dataset and rules")
    fields = {}
    for key, text in values.items():
        field, read, kind = CONFIG_KEYS[key]
        try:
            fields[field] = read(text)
        except (ValueError, KeyError):
            raise ValueError(f"{key} must be {kind}, got {text!r}") from None
    return ExperimentSpec(**fields)
