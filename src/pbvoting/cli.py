"""Command-line interface.

Subcommands::

    pbbench solve       one instance, one rule, human-readable result
    pbbench bench       run an experiment spec, emit CSV/SVG artifacts
    pbbench generate    write synthetic instances as .pb files
    pbbench check-ejr   audit a specific bundle for EJR
    pbbench adversarial verify the worst-case families

Exit codes: 0 success, 1 partial failure (failed rows, violated/failed
checks, a search over its node budget, equal shares on an election with no
voters), 2 usage or spec error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from .adversarial import Family, build, default_sweeps, verify
from .bench import (CONFIG_KEYS, _policy, aggregate, format_ratio,
                    load_dataset, pabulib_files, parse_config, rows_to_csv,
                    run_experiment, run_rule, score_bundles, spec_from_config,
                    summaries_to_csv, summaries_to_text)
from .datagen import GENERATOR_NAMES, PRESETS, generate
from .exact import SearchBudget, SearchBudgetExceeded
from .fairness import check_t_cap, find_ejr_violation
from .pabulib import write_pb
from .sequential import NoVotersError


def _dataset_args(p: argparse.ArgumentParser, required: bool):
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--dataset", help="city | tiny | euclidean | "
                       "partylist | pabulib:<path> | preset name")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="shorthand for --dataset <preset>")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pbbench",
        description="participatory-budgeting rules benchmark harness")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one rule on one instance")
    _dataset_args(p, required=True)
    # the spec flags of solve and bench have the dests of their config keys
    # and stay None when absent, so that `spec_from_config` reads them all
    p.add_argument("--rule", dest="rules", metavar="RULE", required=True)
    p.add_argument("--seed")
    p.add_argument("--tiebreak", default="lex-by-id")
    p.add_argument("--tcap")
    p.add_argument("--max-nodes")

    p = sub.add_parser(
        "bench", help="run an experiment, emit CSV/SVG",
        description="A flag given here overrides the same key of the "
        "--config file: --max-nodes sets max_nodes, --preset sets dataset. "
        "A key given by neither keeps its default.")
    p.add_argument("--config", help="flat key=value spec file")
    _dataset_args(p, required=False)
    p.add_argument("--rules", help="comma-separated rule names")
    p.add_argument("--seed")
    p.add_argument("--instances")
    p.add_argument("--tiebreak")
    p.add_argument("--tcap")
    p.add_argument("--max-nodes")
    p.add_argument("--record-time", action="store_const", const="true")
    p.add_argument("--out-csv", help="write per-row results here")
    p.add_argument("--out-summary-csv", help="write per-rule summaries here")
    p.add_argument("--out-svg", help="write the ratio scatter plot here")

    p = sub.add_parser("generate", help="write synthetic .pb files")
    _dataset_args(p, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("check-ejr", help="audit a bundle for EJR")
    _dataset_args(p, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bundle", required=True,
                   help="comma-separated project ids")
    p.add_argument("--tcap", type=int, default=None)

    p = sub.add_parser("adversarial", help="verify worst-case families")
    p.add_argument("--family", default="all",
                   choices=["all"] + [f.value for f in Family])
    p.add_argument("--out-csv")
    return top


def _spec(args, values: dict[str, str]):
    """`spec_from_config` of `values`, each spec flag given put over them."""
    flags = vars(args) | {"dataset": args.preset or args.dataset}
    values.update((key, flags[key]) for key in CONFIG_KEYS
                  if flags.get(key) is not None)
    return spec_from_config(values)


def _load_one(command: str, dataset: str, seed: int):
    """The one election that solve and check-ejr act on.  A ``pabulib:``
    directory must hold one .pb file alone; that is checked before any file
    is parsed."""
    if dataset.startswith("pabulib:"):
        path = Path(dataset.split(":", 1)[1])
        files = pabulib_files(path)
        if len(files) > 1:
            raise ValueError(f"{command} acts on one election, but "
                             f"{path} holds {len(files)} .pb files")
    return load_dataset(dataset, seed)[0]


def _cmd_solve(args) -> int:
    spec = _spec(args, {})  # rejects bad options before the dataset loads
    if len(spec.rules) != 1:
        raise ValueError(f"solve runs one rule, got {args.rules!r}")
    rule = spec.rules[0]
    budget = SearchBudget(spec.max_nodes)
    instance_id, inst, prof = _load_one("solve", spec.dataset, spec.seed)
    # random ties are drawn as for the matching `pbbench bench` row
    bundle = run_rule(rule, inst, prof, _policy(spec, instance_id, rule),
                      budget)
    sw, rp, util, rep = score_bundles(inst, prof, {rule: bundle}, budget)[rule]
    verdict = find_ejr_violation(inst, prof, bundle, spec.t_cap)
    print(f"instance    {instance_id}")
    print(f"rule        {rule}")
    print(f"bundle      {','.join(sorted(bundle))}")
    print(f"cost        {inst.cost_of(bundle)} / {inst.budget}")
    for name, score, ratio in (("sw", sw, util), ("rp", rp, rep)):
        print(f"{name:12s}{score}" if ratio is None
              else f"{name:12s}{score} (ratio {format_ratio(ratio)})")
    print(f"ejr         {verdict.status}")
    if verdict.witness:
        print(f"witness     T={sorted(verdict.witness.projects)} "
              f"|S|={len(verdict.witness.voters)}")
    return 0


def _cmd_bench(args) -> int:
    spec = _spec(args, parse_config(
        Path(args.config).read_text(encoding="utf-8")) if args.config else {})
    rows = run_experiment(spec)
    if args.out_csv:
        Path(args.out_csv).write_text(rows_to_csv(rows), encoding="utf-8")
    # failed rows, and rows of an election with a zero optimum, have no
    # ratios; with none to summarize, the rows CSV is the whole output
    summarized = any(r.util_ratio is not None and r.rep_ratio is not None
                     for r in rows)
    if summarized:
        summaries = aggregate(rows)
        print(summaries_to_text(summaries), end="")
        if args.out_summary_csv:
            Path(args.out_summary_csv).write_text(
                summaries_to_csv(summaries), encoding="utf-8")
        if args.out_svg:
            from .plotting import emit_scatter
            emit_scatter({spec.dataset: summaries}, args.out_svg)
    failed = [r for r in rows if not r.ok]
    for r in failed:
        print(f"FAILED {r.instance} {r.rule}: {r.reason}", file=sys.stderr)
    return 1 if failed or not summarized else 0


def _cmd_generate(args) -> int:
    dataset = args.preset or args.dataset
    if dataset not in GENERATOR_NAMES:
        raise ValueError(f"generate needs a generator dataset, got {dataset!r}")
    if args.count < 1:
        raise ValueError("count must be positive")
    out = Path(args.out_dir)
    for k in range(args.count):
        seed = args.seed + k
        inst, prof = generate(dataset, seed)  # checks the seed first
        text = write_pb(inst, prof, {"description": f"{dataset} seed {seed}"})
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{dataset}-{seed:05d}.pb").write_text(text, encoding="utf-8")
    print(f"wrote {args.count} file(s) to {out}")
    return 0


def _cmd_check_ejr(args) -> int:
    check_t_cap(args.tcap)  # before the dataset loads
    instance_id, inst, prof = _load_one("check-ejr",
                                        args.preset or args.dataset, args.seed)
    bundle = frozenset(s.strip() for s in args.bundle.split(",") if s.strip())
    verdict = find_ejr_violation(inst, prof, bundle, args.tcap)
    print(f"instance  {instance_id}")
    print(f"bundle    {','.join(sorted(bundle))}")
    print(f"verdict   {verdict.status} (t_cap {verdict.cap})")
    if verdict.witness:
        print(f"witness   T={sorted(verdict.witness.projects)} "
              f"|S|={len(verdict.witness.voters)}")
    return 0 if verdict.ok else 1


def _cmd_adversarial(args) -> int:
    sweeps = default_sweeps()
    families = ([Family(args.family)] if args.family != "all"
                else list(sweeps))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "params", "rule", "kind", "achieved",
                     "expected", "bound", "ok"])
    bad = 0
    for family in families:
        for params in sweeps[family]:
            report = verify(build(family, **params))
            case, ok = report.case, report.ok
            bad += not ok
            shown = " ".join(f"{k}={v}" for k, v in params.items())
            writer.writerow([
                family.value, shown, case.target_rule, case.ratio_kind,
                format_ratio(report.achieved_ratio),
                format_ratio(case.expected_ratio),
                f"{case.bound_value:.6f}", "yes" if ok else "NO"])
            status = "ok " if ok else "BAD"
            print(f"{status} {family.value:15s} {shown:24s} "
                  f"ratio={format_ratio(report.achieved_ratio)} "
                  f"bound={case.bound_value:.6f}")
    if args.out_csv:
        Path(args.out_csv).write_text(buf.getvalue(), encoding="utf-8")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "generate": _cmd_generate,
        "check-ejr": _cmd_check_ejr,
        "adversarial": _cmd_adversarial,
    }
    try:
        return handlers[args.command](args)
    except (SearchBudgetExceeded, NoVotersError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
