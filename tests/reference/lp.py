"""The LP backend as one ``scipy.optimize.linprog`` call.

Production :class:`repro.optimal.solver.ScipyLinprogSolver` hands scipy's
bundled HiGHS the model and options ``linprog(method=...)`` passes it and
makes ``linprog``'s post-solve check itself. This is the backend it
replaced, kept as it was but for one conversion: ``linprog`` takes scipy
matrices, so a :class:`~repro.optimal.solver.CscMatrix` goes in as the
``csc_array`` of the same arrays. The differential tests solve one
:class:`~repro.optimal.solver.LpProblem` with both and compare ``x``, the
objective and ``success`` with ``==``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_array

from repro.optimal.solver import CscMatrix, LpProblem, LpSolution, LpSolver


def _scipy_matrix(matrix):
    """``matrix``, with a :class:`CscMatrix` as the ``csc_array`` of its
    arrays."""
    if isinstance(matrix, CscMatrix):
        return csc_array(
            (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
        )
    return matrix


class LinprogSolver(LpSolver):
    """scipy.optimize.linprog backend, parameterized by HiGHS method."""

    def __init__(self, name: str, method: str):
        self.name = name
        self._method = method

    def solve(self, problem: LpProblem) -> LpSolution:
        from scipy.optimize import linprog

        result = linprog(
            problem.c,
            A_ub=_scipy_matrix(problem.a_ub),
            b_ub=problem.b_ub,
            A_eq=_scipy_matrix(problem.a_eq),
            b_eq=problem.b_eq,
            bounds=list(problem.bounds),
            method=self._method,
        )
        return LpSolution(
            x=None if result.x is None else np.asarray(result.x, dtype=float),
            objective=float(result.fun) if result.fun is not None else float("nan"),
            success=bool(result.success),
            message=str(result.message),
        )
