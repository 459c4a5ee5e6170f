import csv
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import clear_memos
from pbvoting import bench, cli, core, plotting, sequential
from pbvoting.bench import (RULE_NAMES, RULES, ExperimentSpec, ResultRow,
                            RuleSummary, aggregate, format_ratio,
                            parse_config, rows_to_csv, run_experiment,
                            run_rule, spec_from_config)
from pbvoting.core import is_feasible, representation, social_welfare
from pbvoting.datagen import generate
from pbvoting.exact import SearchBudget, TieBreakPolicy
from pbvoting.fairness import find_ejr_violation
from pbvoting.instances import tiny
from pbvoting.plotting import scatter_svg

DATA = Path(__file__).parent / "data"


def _city_spec(**kw):
    defaults = dict(dataset="city",
                    rules=("AV", "CC", "PAV", "sPAV", "RX"), seed=0)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_spec_requires_rules():
    with pytest.raises(ValueError):
        ExperimentSpec(dataset="city", rules=())
    with pytest.raises(ValueError):
        ExperimentSpec(dataset="city", rules=("AV", "XYZ"))
    with pytest.raises(ValueError):
        ExperimentSpec(dataset="city", rules=("AV",), tiebreak="bogus")
    with pytest.raises(ValueError, match="^n_instances must be positive$"):
        ExperimentSpec(dataset="city", rules=("AV",), n_instances=0)


def test_load_dataset_refuses_an_unknown_name_and_an_empty_directory(
        tmp_path):
    with pytest.raises(ValueError, match="^unknown dataset 'martian'$"):
        bench.load_dataset("martian")
    message = f"no .pb files under {tmp_path}"
    with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
        bench.load_dataset(f"pabulib:{tmp_path}")


def test_city_rows_reproduce_reference_ratios():
    rows = run_experiment(_city_spec())
    by_rule = {r.rule: r for r in rows}
    assert by_rule["AV"].util_ratio == 1
    assert by_rule["AV"].rep_ratio == Fraction(1, 2)
    assert by_rule["CC"].rep_ratio == 1
    assert by_rule["PAV"].util_ratio == Fraction(77, 80)   # 0.9625
    assert by_rule["PAV"].rep_ratio == Fraction(19, 20)    # 0.95
    assert by_rule["RX"].util_ratio == Fraction(77, 80)
    assert by_rule["PAV"].ejr == "satisfied"
    assert by_rule["RX"].ejr == "satisfied"
    assert by_rule["AV"].ejr == "violated"


def test_optima_fall_back_to_a_search_when_their_rule_fails():
    # city's CC takes 979 nodes and its rp optimum alone 19, so at 500
    # nodes the CC row fails while the rp optimum is still found
    full = run_experiment(_city_spec(rules=("AV", "CC", "RX")))
    rows = run_experiment(_city_spec(rules=("AV", "CC", "RX"),
                                     max_nodes=500))
    assert [r.reason for r in rows] == [
        "", "exceeded search budget of 500 nodes in the ties phase of "
        "the rp search", ""]
    assert rows[0] == full[0] and rows[2] == full[2]
    assert rows[2].rep_ratio == Fraction(19, 20)


def test_rows_and_csv_are_deterministic():
    a = rows_to_csv(run_experiment(_city_spec()))
    b = rows_to_csv(run_experiment(_city_spec()))
    assert a == b
    assert a.startswith("instance,rule,sw,rp,util_ratio,rep_ratio,ejr,"
                        "wall_ms,reason\n")
    assert "\r" not in a


def test_record_time_fills_the_wall_ms_column():
    def wall_ms_column(rows):
        return [line["wall_ms"]
                for line in csv.DictReader(io.StringIO(rows_to_csv(rows)))]

    timed = run_experiment(ExperimentSpec("tiny", ("AV", "RX"),
                                          record_time=True))
    assert len(timed) == 2
    assert all(type(r.wall_ms) is int and r.wall_ms >= 0 for r in timed)
    assert wall_ms_column(timed) == [str(r.wall_ms) for r in timed]
    plain = run_experiment(ExperimentSpec("tiny", ("AV", "RX")))
    assert [r.wall_ms for r in plain] == [None, None]
    assert wall_ms_column(plain) == ["", ""]


def test_superset_rules_dominate_rule_x():
    spec = ExperimentSpec(dataset="partylist-desk",
                          rules=("RX", "RX-eps", "RX-PAV"),
                          seed=0, n_instances=8)
    rows = run_experiment(spec)
    by_key = {(r.instance, r.rule): r for r in rows}
    for instance in {r.instance for r in rows}:
        base = by_key[(instance, "RX")]
        assert by_key[(instance, "RX-PAV")].sw >= base.sw
        assert by_key[(instance, "RX-eps")].rp >= base.rp


def test_aggregate_arithmetic():
    def row(rule, util, rep):
        return ResultRow("i", rule, 1, 1, Fraction(util), Fraction(rep),
                         "satisfied", None, "")
    single = aggregate([row("AV", 1, 1)])[0]
    assert single.util_mean == 1 and single.util_stderr == 0.0
    pair = aggregate([row("PAV", "9/10", "9/10"),
                      row("PAV", "11/10", "11/10")])[0]
    assert pair.util_mean == 1
    assert pair.util_stderr == pytest.approx(0.1)
    assert pair.ejr_fraction == 1


def test_aggregate_skips_failed_and_errors_when_empty():
    bad = ResultRow("i", "AV", None, None, None, None, "", None, "boom")
    good = ResultRow("i", "AV", 1, 1, Fraction(1), Fraction(1),
                     "violated", None, "")
    assert aggregate([bad, good])[0].count == 1
    with pytest.raises(ValueError):
        aggregate([bad])


def test_aggregate_ejr_unknown_propagates():
    r = ResultRow("i", "AV", 1, 1, Fraction(1), Fraction(1), "unknown",
                  None, "")
    assert aggregate([r])[0].ejr_fraction is None


def test_av_util_mean_is_exactly_one_on_generated_corpus():
    spec = ExperimentSpec(dataset="euclidean-desk", rules=("AV",),
                          seed=0, n_instances=10)
    summary = aggregate(run_experiment(spec))[0]
    assert summary.util_mean == 1
    assert format_ratio(summary.util_mean) == "1.000000"


def test_format_ratio_rounding():
    assert format_ratio(Fraction(77, 80)) == "0.962500"
    assert format_ratio(Fraction(1, 3)) == "0.333333"
    assert format_ratio(Fraction(2, 3)) == "0.666667"
    # round-half-even on an exact .0000005 tie
    assert format_ratio(Fraction(5, 10 ** 7)) == "0.000000"
    assert format_ratio(Fraction(15, 10 ** 7)) == "0.000002"


def test_parse_config_and_spec():
    text = """
    # comment
    dataset = city
    rules = AV, CC
    seed = 3
    tiebreak = lex-by-id
    """
    spec = spec_from_config(parse_config(text))
    # an absent key keeps the dataclass default
    assert spec == ExperimentSpec("city", ("AV", "CC"), seed=3,
                                  tiebreak="lex-by-id")
    assert spec.max_nodes == SearchBudget().max_nodes
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("a=1\na=2")
    with pytest.raises(ValueError, match="key=value"):
        parse_config("just words")
    with pytest.raises(ValueError, match="unknown config key"):
        spec_from_config({"dataset": "city", "rules": "AV", "zz": "1"})
    with pytest.raises(ValueError, match="^spec needs dataset and rules$"):
        spec_from_config({"dataset": "city"})


BAD_VALUES = [
    ("record_time", "yes", "record_time must be true or false, got 'yes'"),
    ("seed", "abc", "seed must be an integer, got 'abc'"),
    ("instances", "2.5", "instances must be an integer, got '2.5'"),
    ("tcap", "", "tcap must be an integer, got ''"),
    ("max_nodes", "1e6", "max_nodes must be an integer, got '1e6'"),
    ("--seed", "abc", "seed must be an integer, got 'abc'"),
    ("--instances", "2.5", "instances must be an integer, got '2.5'"),
    ("--tcap", "", "tcap must be an integer, got ''"),
    ("--max-nodes", "1e6", "max_nodes must be an integer, got '1e6'"),
]


@pytest.mark.parametrize("key, value, error", BAD_VALUES,
                         ids=[key for key, _, _ in BAD_VALUES])
def test_a_bad_config_value_names_its_key(tmp_path, monkeypatch, capsys,
                                          key, value, error):
    # a config key and the `pbbench bench` flag of that key fail alike,
    # before any dataset loads
    calls = []
    monkeypatch.setattr(bench, "load_dataset",
                        lambda *a: calls.append(a) or [])
    if key.startswith("--"):
        argv = ["bench", "--dataset", "city", "--rules", "AV", key, value]
    else:
        config = tmp_path / "spec.cfg"
        config.write_text(f"dataset = city\nrules = AV\n{key} = {value}\n",
                          encoding="utf-8")
        argv = ["bench", "--config", str(config)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert calls == []


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_repeated_rule_is_rejected_by_name(tmp_path, monkeypatch, capsys,
                                             source):
    # one row per (instance, rule) pair: a rule listed twice would emit
    # every row twice and count each instance twice in the summary
    with pytest.raises(ValueError, match="^rule 'AV' is listed twice$"):
        ExperimentSpec("tiny", ("AV", "CC", "AV"))
    calls = []
    monkeypatch.setattr(bench, "load_dataset",
                        lambda *a: calls.append(a) or [])
    if source == "flag":
        argv = ["bench", "--dataset", "tiny", "--rules", "AV,AV"]
    else:
        config = tmp_path / "spec.cfg"
        config.write_text("dataset = tiny\nrules = AV, AV\n",
                          encoding="utf-8")
        argv = ["bench", "--config", str(config)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: rule 'AV' is listed twice\n"
    assert calls == []


def test_record_time_reads_true_or_false_in_any_case():
    for value, expected in (("TRUE", True), ("False", False)):
        spec = spec_from_config({"dataset": "city", "rules": "AV",
                                 "record_time": value})
        assert spec.record_time is expected


def test_scatter_svg_golden():
    rows = run_experiment(_city_spec())
    svg = scatter_svg({"city": aggregate(rows)})
    assert svg == (DATA / "city.svg").read_text(encoding="utf-8")


def test_scatter_marker_count():
    def summary(rule, util, rep):
        return RuleSummary(rule, 1, Fraction(util), 0.0, Fraction(rep),
                           0.0, Fraction(1))
    svg = scatter_svg({
        "d1": [summary("AV", 1, "1/2"), summary("CC", "1/2", 1)],
        "d2": [summary("AV", "3/4", "3/4")],
    })
    # 3 data markers + 2 legend shape markers for the 2 distinct rules
    assert svg.count("<circle") == 2 + 1   # AV twice + legend circle
    assert svg.count("<rect") >= 1 + 1 + 2  # CC marker, legend fills, frames
    with pytest.raises(ValueError):
        scatter_svg({})


def test_every_rule_runs_through_the_table():
    inst, prof = tiny()
    for rule in RULE_NAMES:
        bundle = run_rule(rule, inst, prof, TieBreakPolicy.lex(),
                          SearchBudget())
        assert bundle and is_feasible(inst, bundle), rule
    with pytest.raises(ValueError, match="choose from"):
        run_rule("XYZ", inst, prof, TieBreakPolicy.lex(), SearchBudget())


@pytest.mark.parametrize("dataset", ["city", "euclidean-desk"])
def test_row_scores_equal_the_scores_of_the_bundles(dataset):
    # rows score a bundle from its projects' voter bitsets, not the ballots
    spec = ExperimentSpec(dataset, RULE_NAMES, seed=3, n_instances=2,
                          tiebreak="lex-by-id")
    rows = run_experiment(spec)
    for instance_id, inst, prof in bench.load_dataset(dataset, 3, 2):
        for row in rows:
            if row.instance == instance_id:
                bundle = run_rule(row.rule, inst, prof,
                                  bench._policy(spec, instance_id, row.rule),
                                  SearchBudget())
                assert (row.sw, row.rp) == (social_welfare(prof, bundle),
                                            representation(prof, bundle))


def test_an_experiment_compiles_each_election_once():
    # 7 rules, their optima and 7 audits share one build; RX-PAV adds the
    # build of its residual election, which must not evict the first.  The
    # 14 calls that build nothing find one of the two kept elections by
    # value.
    clear_memos()
    rows = run_experiment(ExperimentSpec("euclidean-desk", RULE_NAMES,
                                         tiebreak="worst-sw"))
    assert len(rows) == len(RULE_NAMES)
    info = core._compile.cache_info()
    assert (info.misses, info.hits) == (2, 14)


def test_an_experiment_runs_the_approval_phase_once():
    # RX, RX-eps and RX-PAV share one equal-shares approval phase
    clear_memos()
    rows = run_experiment(ExperimentSpec("euclidean-desk", RULE_NAMES,
                                         tiebreak="worst-sw"))
    assert all(row.ok for row in rows)
    assert sequential._approval_phase.cache_info().misses == 1


@pytest.mark.parametrize("rule", RULE_NAMES)
def test_a_rule_and_its_audit_share_one_build(rule):
    inst, prof = generate("euclidean-desk", 0)
    clear_memos()
    bundle = run_rule(rule, inst, prof, TieBreakPolicy.lex(), SearchBudget())
    find_ejr_violation(inst, prof, bundle)
    # equal shares leaves money that RX-PAV spends on a residual election
    assert core._compile.cache_info().misses == 1 + (rule == "RX-PAV")


def test_rule_table_looks_its_functions_up_at_call_time(monkeypatch):
    # code that rebinds bench.solve_cc or bench.rule_x_eps must see the calls
    calls = []
    monkeypatch.setattr(bench, "solve_cc",
                        lambda *a: calls.append("CC") or frozenset({"cc"}))
    monkeypatch.setattr(bench, "rule_x_eps",
                        lambda *a: calls.append("RX-eps") or frozenset({"x"}))
    inst, prof = tiny()
    policy, budget = TieBreakPolicy.lex(), SearchBudget()
    assert run_rule("CC", inst, prof, policy, budget) == {"cc"}
    assert run_rule("RX-eps", inst, prof, policy, budget) == {"x"}
    assert calls == ["CC", "RX-eps"]


def test_rule_markers_are_distinct_and_render():
    markers = [RULES[rule].marker for rule in RULE_NAMES]
    assert len(set(markers)) == len(RULE_NAMES) == 7
    for shape in markers:
        assert plotting._marker(shape, 10.0, 10.0, "#000000").startswith("<")
    assert plotting._shape("not-a-rule") == "circle"

