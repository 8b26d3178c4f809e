"""Globally optimal routing: the upper-bound comparators of Section 5."""

from repro.optimal.bandwidth_lp import (
    LpRoutingResult,
    fractional_loads,
    solve_min_max_load_lp,
)
from repro.optimal.distance_opt import optimal_distance_choices
from repro.optimal.solver import (
    DEFAULT_LP_SOLVER,
    LpProblem,
    LpSolution,
    LpSolver,
    ScipyLinprogSolver,
    available_lp_solvers,
    register_lp_solver,
    resolve_lp_solver,
)
from repro.optimal.unilateral import solve_upstream_unilateral_lp

__all__ = [
    "optimal_distance_choices",
    "LpRoutingResult",
    "solve_min_max_load_lp",
    "solve_upstream_unilateral_lp",
    "fractional_loads",
    "DEFAULT_LP_SOLVER",
    "LpProblem",
    "LpSolution",
    "LpSolver",
    "ScipyLinprogSolver",
    "available_lp_solvers",
    "register_lp_solver",
    "resolve_lp_solver",
]
