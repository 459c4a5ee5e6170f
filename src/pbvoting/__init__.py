"""Exact-arithmetic participatory-budgeting voting rules and benchmarks."""

from .core import (ApprovalProfile, Bundle, PBInstance, Project,
                   UnknownProjectError, harmonic, is_feasible, pav_score,
                   representation, social_welfare)
from .exact import (SearchBudget, SearchBudgetExceeded, TieBreakPolicy,
                    optimum_value, solve_av, solve_cc, solve_pav)
from .fairness import (CohesiveWitness, EjrVerdict, find_ejr_violation,
                       is_cohesive, max_t_cap)
from .sequential import (EqualSharesTrace, NoVotersError, q_value, rule_x,
                         rule_x_eps, rule_x_pav, seq_pav)

__version__ = "0.1.0"

__all__ = [
    "ApprovalProfile", "Bundle", "PBInstance", "Project",
    "UnknownProjectError", "harmonic", "is_feasible", "pav_score",
    "representation", "social_welfare",
    "SearchBudget", "SearchBudgetExceeded", "TieBreakPolicy", "optimum_value",
    "solve_av", "solve_cc", "solve_pav",
    "CohesiveWitness", "EjrVerdict", "find_ejr_violation", "is_cohesive",
    "max_t_cap",
    "EqualSharesTrace", "NoVotersError", "q_value", "rule_x", "rule_x_eps",
    "rule_x_pav", "seq_pav", "__version__",
]
