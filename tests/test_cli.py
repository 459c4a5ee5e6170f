import csv
from pathlib import Path

import pytest

from pbvoting import bench, cli
from pbvoting.bench import RULE_NAMES, ExperimentSpec
from pbvoting.cli import main
from pbvoting.core import ApprovalProfile
from pbvoting.datagen import EuclideanConfig, gen_euclidean
from pbvoting.instances import tiny
from pbvoting.pabulib import write_pb

DATA = Path(__file__).parent / "data"


def test_solve_prints_ratios_against_the_optima(capsys):
    assert main(["solve", "--dataset", "city", "--rule", "CC",
                 "--tiebreak", "worst-sw"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:6] == ["sw          380 (ratio 0.475000)",
                          "rp          200 (ratio 1.000000)"]


@pytest.mark.parametrize("dataset", ["city", "euclidean-desk"])
@pytest.mark.parametrize("rule", ["CC", "PAV"])
def test_solve_picks_random_ties_as_bench_does(dataset, rule, tmp_path,
                                               capsys):
    flags = ["--dataset", dataset, "--seed", "3", "--tiebreak", "random"]
    assert main(["solve", "--rule", rule, *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = tmp_path / "rows.csv"
    assert main(["bench", "--rules", rule, "--instances", "1",
                 "--out-csv", str(rows), *flags]) == 0
    [row] = csv.DictReader(rows.read_text(encoding="utf-8").splitlines())
    assert lines[4:6] == [
        f"sw          {row['sw']} (ratio {row['util_ratio']})",
        f"rp          {row['rp']} (ratio {row['rep_ratio']})"]


def test_solve_runs_a_pabulib_sized_election(tmp_path, capsys):
    # both optima of a 1000-voter, 40-project election fit in 10,000 nodes
    inst, prof = gen_euclidean(0, EuclideanConfig(n_voters=1000,
                                                  n_projects=40))
    path = tmp_path / "large.pb"
    path.write_text(write_pb(inst, prof), encoding="utf-8")
    assert main(["solve", "--dataset", f"pabulib:{path}", "--rule", "RX",
                 "--max-nodes", "10000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("instance    large\nrule        RX\n")


def test_solve_reports_a_node_budget_failure(capsys):
    # city's CC takes 979 nodes in its one pass
    assert main(["solve", "--dataset", "city", "--rule", "CC",
                 "--max-nodes", "500"]) == 1
    assert capsys.readouterr().err == (
        "error: exceeded search budget of 500 nodes in the ties phase of "
        "the rp search\n")


def test_bench_reports_a_node_budget_failure_of_every_row(capsys):
    assert main(["bench", "--dataset", "city", "--rules", "CC",
                 "--max-nodes", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no row has ratios, so there is no summary
    assert err == (
        "FAILED city CC: optima: exceeded search budget of 10 nodes in the "
        "optimum phase of the sw search\n")


def test_bench_writes_the_rows_when_every_row_failed(tmp_path, capsys):
    inst, _ = tiny()
    (tmp_path / "empty.pb").write_text(write_pb(inst, ApprovalProfile(())),
                                       encoding="utf-8")
    rows, svg = tmp_path / "rows.csv", tmp_path / "plot.svg"
    assert main(["bench", "--dataset", f"pabulib:{tmp_path}", "--rules",
                 "RX", "--out-csv", str(rows), "--out-svg", str(svg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "FAILED empty RX: equal shares needs at least one voter\n"
    assert rows.read_text(encoding="utf-8").splitlines()[1:] == [
        ",".join(["empty", "RX"] + [""] * 6
                 + ["equal shares needs at least one voter"])]
    assert not svg.exists()


def test_bench_records_a_zero_voter_election_as_failed_rows(tmp_path, capsys):
    inst, prof = tiny()
    (tmp_path / "empty.pb").write_text(write_pb(inst, ApprovalProfile(())),
                                       encoding="utf-8")
    (tmp_path / "tiny.pb").write_text(write_pb(inst, prof), encoding="utf-8")
    rows = tmp_path / "rows.csv"
    assert main(["bench", "--dataset", f"pabulib:{tmp_path}",
                 "--rules", "AV,RX", "--out-csv", str(rows)]) == 1
    assert capsys.readouterr().err == (
        "FAILED empty RX: equal shares needs at least one voter\n")
    lines = rows.read_text(encoding="utf-8").splitlines()
    assert lines[2] == ",".join(["empty", "RX"] + [""] * 6
                                + ["equal shares needs at least one voter"])
    assert [line.split(",")[:2] for line in lines[3:]] == [
        ["tiny", "AV"], ["tiny", "RX"]]


def test_solve_fails_on_a_zero_voter_election(tmp_path, capsys):
    # a partial failure, as in `pbbench bench`, not a usage error
    inst, _ = tiny()
    path = tmp_path / "empty.pb"
    path.write_text(write_pb(inst, ApprovalProfile(())), encoding="utf-8")
    assert main(["solve", "--dataset", f"pabulib:{path}",
                 "--rule", "RX"]) == 1
    assert capsys.readouterr().err == (
        "error: equal shares needs at least one voter\n")


def test_bench_rejects_a_negative_tcap_before_any_rule_runs(monkeypatch,
                                                             capsys):
    calls = []
    monkeypatch.setattr(bench, "solve_cc",
                        lambda *a: calls.append(a) or frozenset())
    assert main(["bench", "--dataset", "city", "--rules", "CC",
                 "--tcap", "-1"]) == 2
    assert capsys.readouterr().err == "error: t_cap must be non-negative\n"
    assert calls == []


@pytest.mark.parametrize("flag, value, error", [
    ("--tcap", "-1", "t_cap must be non-negative"),
    ("--max-nodes", "0", "max_nodes must be positive"),
    ("--tiebreak", "worst", "unknown tie-break variant 'worst'"),
    ("--rule", "XX", f"unknown rule 'XX'; choose from {RULE_NAMES}"),
    ("--rule", "AV,CC", "solve runs one rule, got 'AV,CC'"),
    ("--seed", "abc", "seed must be an integer, got 'abc'"),
])
def test_solve_rejects_a_bad_option_before_any_rule_runs(monkeypatch, capsys,
                                                         flag, value, error):
    calls = []
    monkeypatch.setattr(cli, "load_dataset",
                        lambda *a: calls.append(a) or [])
    assert main(["solve", "--dataset", "city", "--rule", "CC",
                 flag, value]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert calls == []


def test_bench_rejects_a_zero_node_budget_before_loading_a_dataset(
        monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench, "load_dataset",
                        lambda *a: calls.append(a) or [])
    assert main(["bench", "--dataset", "city", "--rules", "AV",
                 "--max-nodes", "0"]) == 2
    assert capsys.readouterr().err == "error: max_nodes must be positive\n"
    assert calls == []


def test_check_ejr_rejects_a_negative_tcap_before_loading_a_dataset(
        monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "load_dataset",
                        lambda *a: calls.append(a) or [])
    assert main(["check-ejr", "--dataset", "city", "--bundle", "A-d0",
                 "--tcap", "-1"]) == 2
    assert capsys.readouterr().err == "error: t_cap must be non-negative\n"
    assert calls == []


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_rejects_a_non_positive_count_before_writing(tmp_path,
                                                              capsys, count):
    out = tmp_path / "corpus"
    assert main(["generate", "--preset", "euclidean-desk", "--count", count,
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: count must be positive\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--dataset", "euclidean-desk", "--rules", "AV"],
    ["solve", "--dataset", "euclidean-desk", "--rule", "AV"],
    ["check-ejr", "--dataset", "partylist-desk", "--bundle", "g00p00"],
    ["generate", "--preset", "euclidean-desk", "--out-dir", "{out}"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_names_its_cause(tmp_path, capsys, argv):
    # every generator checks its seed before it draws, and generate writes
    # no directory for it
    out = tmp_path / "corpus"
    argv = [arg.format(out=out) for arg in argv]
    assert main(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr() == (
        "", "error: seed must be non-negative, got -1\n")
    assert not out.exists()


def _parse_calls(monkeypatch):
    """The texts that `bench.parse_pb` parses from here on."""
    texts = []
    parse_pb = bench.parse_pb
    monkeypatch.setattr(bench, "parse_pb",
                        lambda text: texts.append(text) or parse_pb(text))
    return texts


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--rule", "RX"), ("check-ejr", "--bundle", "p000")])
def test_a_pabulib_directory_of_several_files_is_refused(
        tmp_path, monkeypatch, capsys, command, flag, value):
    out = tmp_path / "gen"
    assert main(["generate", "--preset", "euclidean-desk", "--count", "3",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    texts = _parse_calls(monkeypatch)
    assert main([command, "--dataset", f"pabulib:{out}", flag, value]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {command} acts on one election, but {out} holds 3 .pb "
        "files\n"))
    assert texts == []


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--rule", "RX"),
    ("check-ejr", "--bundle", "A-g0,A-g1,A-g2,A-g3,A-g4,B-e0,B-e1,B-e2")])
def test_a_pabulib_directory_of_one_file_is_read(
        tmp_path, monkeypatch, capsys, command, flag, value):
    text = (DATA / "city.pb").read_text(encoding="utf-8")
    (tmp_path / "city.pb").write_text(text, encoding="utf-8")
    texts = _parse_calls(monkeypatch)
    assert main([command, "--dataset", f"pabulib:{tmp_path}", flag,
                 value]) == 0
    assert capsys.readouterr().out.split()[:2] == ["instance", "city"]
    assert texts == [text]


def _tiny_config(tmp_path):
    config = tmp_path / "spec.cfg"
    config.write_text("dataset = tiny\nrules = AV\ntiebreak = lex-by-id\n",
                      encoding="utf-8")
    return str(config)


def test_bench_checks_the_flags_given_with_a_config(tmp_path, monkeypatch,
                                                    capsys):
    calls = []
    for name in ("solve_av", "solve_cc", "solve_pav"):
        monkeypatch.setattr(bench, name,
                            lambda *a: calls.append(a) or frozenset())
    rows = tmp_path / "rows.csv"
    assert main(["bench", "--config", _tiny_config(tmp_path), "--tcap", "-5",
                 "--max-nodes", "0", "--rules", "CC,PAV", "--record-time",
                 "--out-csv", str(rows)]) == 2
    assert capsys.readouterr() == ("", "error: max_nodes must be positive\n")
    assert calls == []
    assert not rows.exists()


def test_a_bench_flag_overrides_its_config_key(tmp_path, monkeypatch, capsys):
    specs = []
    monkeypatch.setattr(cli, "run_experiment",
                        lambda spec: specs.append(spec)
                        or bench.run_experiment(spec))
    rows = tmp_path / "rows.csv"
    assert main(["bench", "--config", _tiny_config(tmp_path), "--rules", "CC",
                 "--out-csv", str(rows)]) == 0
    assert specs == [ExperimentSpec("tiny", ("CC",), tiebreak="lex-by-id")]
    assert [line.split(",")[:2] for line in
            rows.read_text(encoding="utf-8").splitlines()[1:]] == [
        ["tiny", "CC"]]


def test_bench_needs_a_dataset_and_rules(capsys):
    assert main(["bench", "--rules", "AV"]) == 2
    assert capsys.readouterr().err == "error: spec needs dataset and rules\n"
