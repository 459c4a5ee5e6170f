from pbvoting.cli import main
from pbvoting.datagen import EuclideanConfig, gen_euclidean
from pbvoting.pabulib import write_pb


def test_solve_prints_ratios_against_the_optima(capsys):
    assert main(["solve", "--dataset", "city", "--rule", "CC",
                 "--tiebreak", "worst-sw"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:6] == ["sw          380 (ratio 0.475000)",
                          "rp          200 (ratio 1.000000)"]


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
    assert capsys.readouterr().err == (
        "error: every row failed; first failure: optima: exceeded search "
        "budget of 10 nodes in the optimum phase of the sw search\n")
