"""Globally optimal routing: the upper-bound comparators of Section 5."""

from repro.optimal.bandwidth_lp import (
    LpRoutingResult,
    fractional_loads,
    solve_min_max_load_lp,
)
from repro.optimal.solver import (
    DEFAULT_LP_SOLVER,
    CscMatrix,
    LpProblem,
    LpSolution,
    LpSolver,
    ScipyLinprogSolver,
    available_lp_solvers,
    register_lp_solver,
    resolve_lp_solver,
)

__all__ = [
    "LpRoutingResult",
    "solve_min_max_load_lp",
    "fractional_loads",
    "DEFAULT_LP_SOLVER",
    "CscMatrix",
    "LpProblem",
    "LpSolution",
    "LpSolver",
    "ScipyLinprogSolver",
    "available_lp_solvers",
    "register_lp_solver",
    "resolve_lp_solver",
]
