"""Walk through the built-in three-district city instance.

Runs every rule on the same election, prints scores, ratios and fairness
verdicts, and shows where the rules disagree: welfare maximization funds a
single district, coverage maximization touches every district, and the
harmonic-score rules land in between.

Run with:  python3 demos/demo_city.py
"""

from pbvoting.bench import score_bundles
from pbvoting.exact import (SearchBudget, TieBreakPolicy, solve_av, solve_cc,
                            solve_pav)
from pbvoting.fairness import find_ejr_violation, max_t_cap
from pbvoting.instances import city
from pbvoting.sequential import rule_x, rule_x_eps, rule_x_pav, seq_pav

LABELS = {
    "AV": "AV   (max total approvals)",
    "CC": "CC   (max voters covered)",
    "PAV": "PAV  (max harmonic score)",
    "sPAV": "sPAV (greedy harmonic)",
    "RX": "RX   (equal shares)",
    "RX-eps": "RX-e (equal shares + exhaust)",
    "RX-PAV": "RX-PAV (equal shares + PAV)",
}


def describe(bundle: frozenset) -> str:
    return ", ".join(sorted(bundle))


def main() -> None:
    instance, profile = city()
    print(f"budget {instance.budget}, {len(instance.projects)} projects, "
          f"{profile.n_voters} voters\n")

    worst_sw = TieBreakPolicy.worst_sw()
    bundles = {
        "AV": solve_av(instance, profile, worst_sw),
        "CC": solve_cc(instance, profile, worst_sw),
        "PAV": solve_pav(instance, profile, worst_sw),
        "sPAV": seq_pav(instance, profile),
        "RX": rule_x(instance, profile),
        "RX-eps": rule_x_eps(instance, profile),
        "RX-PAV": rule_x_pav(instance, profile),
    }
    # the ratios divide by the optima, which the AV and CC bundles attain
    scores = score_bundles(instance, profile, bundles, SearchBudget())
    print(f"best attainable welfare {scores['AV'][0]}, "
          f"best coverage {scores['CC'][1]}\n")

    cap = max_t_cap(instance)
    for rule, bundle in bundles.items():
        sw, rp, util, rep = scores[rule]
        verdict = find_ejr_violation(instance, profile, bundle, cap)
        print(f"{LABELS[rule]}")
        print(f"  funds: {describe(bundle)}")
        print(f"  welfare {sw} (ratio {util}), "
              f"coverage {rp} (ratio {rep}), "
              f"fairness: {verdict.status}")
        if verdict.witness is not None:
            group = sorted(verdict.witness.voters)
            head = ", ".join(map(str, group[:6]))
            more = "..." if len(group) > 6 else ""
            print(f"  slighted group: voters [{head}{more}] "
                  f"deserve {describe(verdict.witness.projects)}")
        print()


if __name__ == "__main__":
    main()
