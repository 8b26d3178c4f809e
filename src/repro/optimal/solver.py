"""Pluggable LP solver backends for the optimal-routing layer.

Every LP in the repo — the joint min-max-load LP of Section 5.2 and the
Figure 8 upstream-unilateral variant — is assembled once into a neutral
:class:`LpProblem` and handed to an :class:`LpSolver` backend. The three
registered backends (``"highs"``, the default, ``"highs-ds"`` and
``"highs-ipm"``) drive the HiGHS bindings that scipy bundles
(``scipy.optimize._highspy._core``, a private module; verified on scipy
1.17.1 with HiGHS 1.12.0). They hand HiGHS exactly the model and options
``linprog(method=...)`` passes and make ``linprog``'s post-solve check, so
``x``, the objective and ``success`` are bit-identical to ``linprog``'s
(``tests/reference/lp.py`` is that oracle), without its input cleaning or
its per-column Python loop over the basis.

Adding a backend:

1. subclass :class:`LpSolver` and implement :meth:`LpSolver.solve`; it
   receives ``a_ub`` / ``a_eq`` as scipy sparse matrices, so a backend
   that needs dense arrays converts them itself;
2. :func:`register_lp_solver` it under a new name;
3. select it anywhere a ``solver=`` parameter is threaded —
   ``solve_min_max_load_lp``, ``run_bandwidth_case``,
   ``ExperimentConfig(lp_solver=...)``, or the CLI's ``--lp-solver``.

Unknown solver names raise :class:`ConfigurationError` (the library-wide
backend-selection convention); solver *failures* on a concrete problem,
and non-finite or mis-shaped problem data, raise :class:`OptimizationError`.

scipy is imported at the first solve, not with this module: the HiGHS
bindings (and with them ``scipy.optimize``) and the ``scipy.sparse``
matrices a backend stacks its constraints in. Runs that solve no LP
(``distance``, ``multi-isp``) never load scipy at all. A scipy without the
HiGHS module raises :class:`ConfigurationError` naming the module and the
scipy version.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, OptimizationError
from repro.util.validation import validate_choice

__all__ = [
    "LpProblem",
    "LpSolution",
    "LpSolver",
    "ScipyLinprogSolver",
    "register_lp_solver",
    "available_lp_solvers",
    "resolve_lp_solver",
    "DEFAULT_LP_SOLVER",
]

#: Name of the backend used when no solver is selected.
DEFAULT_LP_SOLVER = "highs"

#: scipy's HiGHS bindings: private, so a scipy release may move them.
HIGHS_MODULE = "scipy.optimize._highspy._core"

#: Each ``linprog`` HiGHS method and the HiGHS ``solver`` option it sets
#: (``None`` leaves HiGHS's own default).
_HIGHS_SOLVERS = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}

#: ``linprog``'s post-solve tolerance, ``sqrt(tol) * 10`` at its default
#: ``tol`` of 1e-9.
_CHECK_TOL = np.sqrt(1e-9) * 10


@dataclass(frozen=True)
class LpProblem:
    """A solver-neutral LP: minimize ``c @ x`` subject to

    ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``, and per-variable
    ``bounds``: an ``(n, 2)`` float array of ``(low, high)`` rows, with
    ``-inf``/``inf`` for unbounded (empty means ``linprog``'s default,
    every variable in ``[0, inf)``). ``a_ub`` / ``a_eq`` may be scipy
    sparse matrices or dense arrays; ``None`` means "no constraints of
    that kind".
    """

    c: np.ndarray
    a_ub: object = None
    b_ub: np.ndarray | None = None
    a_eq: object = None
    b_eq: np.ndarray | None = None
    bounds: np.ndarray | tuple = field(default=())


@dataclass(frozen=True)
class LpSolution:
    """A backend's answer, normalized across solvers.

    ``success`` is the only field callers may branch on for correctness;
    ``message`` carries the backend's diagnostic verbatim for error
    surfaces.
    """

    x: np.ndarray | None
    objective: float
    success: bool
    message: str


class LpSolver:
    """Base class for LP backends. Subclass and register to plug in."""

    name: str = "abstract"

    def solve(self, problem: LpProblem) -> LpSolution:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def _highs_core():
    """scipy's HiGHS bindings, imported at the first solve."""
    try:
        return importlib.import_module(HIGHS_MODULE)
    except ImportError as exc:
        import scipy

        raise ConfigurationError(
            f"the HiGHS LP backends need {HIGHS_MODULE}, which scipy "
            f"{scipy.__version__} does not provide ({exc})"
        ) from exc


def _constraints(matrix, rhs, n: int, kind: str):
    """One constraint block in CSC and its right-hand side, checked."""
    from scipy.sparse import csc_array

    matrix = csc_array((0, n) if matrix is None else matrix)
    rhs = np.zeros(0) if rhs is None else np.asarray(rhs, dtype=float)
    if matrix.shape[1] != n or rhs.shape != (matrix.shape[0],):
        raise OptimizationError(
            f"a_{kind} must have {n} columns and b_{kind} one value per "
            f"row, got shapes {matrix.shape} and {rhs.shape}"
        )
    if not (np.isfinite(matrix.data).all() and np.isfinite(rhs).all()):
        raise OptimizationError(
            f"a_{kind} and b_{kind} must not contain inf or NaN"
        )
    return matrix, rhs


def _checked(problem: LpProblem):
    """``(c, a_ub, b_ub, a_eq, b_eq, bounds)`` after the input checks
    ``linprog`` makes, each failure an :class:`OptimizationError`."""
    c = np.asarray(problem.c, dtype=float)
    if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
        raise OptimizationError(
            "c must be a non-empty 1-D array without inf or NaN"
        )
    n = c.shape[0]
    a_ub, b_ub = _constraints(problem.a_ub, problem.b_ub, n, "ub")
    a_eq, b_eq = _constraints(problem.a_eq, problem.b_eq, n, "eq")
    bounds = np.asarray(problem.bounds, dtype=float)
    if bounds.size == 0:
        bounds = np.tile((0.0, np.inf), (n, 1))
    if bounds.shape != (n, 2):
        raise OptimizationError(
            f"bounds must have shape ({n}, 2), got {bounds.shape}"
        )
    if np.isnan(bounds).any() or (bounds[:, 0] > bounds[:, 1]).any():
        raise OptimizationError(
            "bounds must be (low, high) pairs with low <= high, and no NaN"
        )
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def _within_tolerance(x, objective, rows, b_ub, b_eq, bounds) -> bool:
    """``linprog``'s post-solve check of an optimal HiGHS solution.

    No NaN, ``x`` within its bounds and no inequality row over its bound
    or equality row off its value by more than :data:`_CHECK_TOL`.
    """
    slack = b_ub - rows[: b_ub.shape[0]]
    residual = b_eq - rows[b_ub.shape[0]:]
    if (
        np.isnan(x).any()
        or np.isnan(objective)
        or np.isnan(slack).any()
        or np.isnan(residual).any()
    ):
        return False
    low, high = bounds[:, 0] - _CHECK_TOL, bounds[:, 1] + _CHECK_TOL
    return bool(
        np.all((x >= low) & (x <= high))
        and not (slack < -_CHECK_TOL).any()
        and not (np.abs(residual) > _CHECK_TOL).any()
    )


class ScipyLinprogSolver(LpSolver):
    """scipy's HiGHS, driven as ``linprog(method=method)`` drives it.

    ``method="highs"`` is the default backend; ``"highs-ds"`` (dual
    simplex) and ``"highs-ipm"`` (interior point) are registered as
    alternates for cross-backend verification and experimentation. HiGHS
    gets the rows ``[-inf, b_ub]`` then ``[b_eq, b_eq]`` over
    ``vstack((a_ub, a_eq))`` in CSC, presolve on, the dual simplex
    strategy, no output, and the method's ``solver`` option; every vector
    goes in as a list, which pybind copies into HiGHS's vectors about
    twice as fast as an array.
    """

    def __init__(self, name: str, method: str):
        self.name = name
        self._solver = _HIGHS_SOLVERS[
            validate_choice(method, _HIGHS_SOLVERS, "method")
        ]

    def solve(self, problem: LpProblem) -> LpSolution:
        from scipy.sparse import vstack

        core = _highs_core()
        c, a_ub, b_ub, a_eq, b_eq, bounds = _checked(problem)
        a = vstack((a_ub, a_eq), format="csc")
        eq = b_eq.tolist()

        lp = core.HighsLp()
        lp.num_col_ = a.shape[1]
        lp.num_row_ = a.shape[0]
        lp.col_cost_ = c.tolist()
        lp.col_lower_ = bounds[:, 0].tolist()
        lp.col_upper_ = bounds[:, 1].tolist()
        lp.row_lower_ = [-core.kHighsInf] * b_ub.shape[0] + eq
        lp.row_upper_ = b_ub.tolist() + eq
        matrix = lp.a_matrix_
        matrix.num_col_ = a.shape[1]
        matrix.num_row_ = a.shape[0]
        matrix.format_ = core.MatrixFormat.kColwise
        matrix.start_ = a.indptr.tolist()
        matrix.index_ = a.indices.tolist()
        matrix.value_ = a.data.tolist()

        options = core.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = (
            core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        if self._solver is not None:
            options.solver = self._solver

        highs = core._Highs()
        highs.passOptions(options)
        status = core.HighsModelStatus.kModelError
        if (
            highs.passModel(lp) != core.HighsStatus.kError
            and highs.run() != core.HighsStatus.kError
        ):
            status = highs.getModelStatus()
        message = highs.modelStatusToString(status)
        if status != core.HighsModelStatus.kOptimal:
            return LpSolution(
                x=None, objective=float("nan"), success=False, message=message
            )
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        objective = highs.getInfo().objective_function_value
        success = _within_tolerance(
            x, objective, np.array(solution.row_value), b_ub, b_eq, bounds
        )
        if not success:
            message += (
                ", but the solution misses a bound or a constraint by more "
                f"than {_CHECK_TOL:.2E}"
            )
        return LpSolution(
            x=x, objective=objective, success=success, message=message
        )


_REGISTRY: dict[str, LpSolver] = {}


def register_lp_solver(solver: LpSolver, replace: bool = False) -> LpSolver:
    """Register a backend under ``solver.name``; returns it for chaining."""
    name = solver.name
    if not name or name == "abstract":
        raise ConfigurationError(
            f"solver must carry a concrete name, got {name!r}"
        )
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"solver {name!r} is already registered (pass replace=True to "
            "override)"
        )
    _REGISTRY[name] = solver
    return solver


def available_lp_solvers() -> tuple[str, ...]:
    """Registered backend names, default first."""
    names = sorted(_REGISTRY)
    if DEFAULT_LP_SOLVER in names:
        names.remove(DEFAULT_LP_SOLVER)
        names.insert(0, DEFAULT_LP_SOLVER)
    return tuple(names)


def resolve_lp_solver(solver: str | LpSolver | None = None) -> LpSolver:
    """The backend for a ``solver=`` argument.

    ``None`` selects the default (:data:`DEFAULT_LP_SOLVER`); a string is
    looked up in the registry (unknown names raise
    :class:`ConfigurationError` listing the registered backends); an
    :class:`LpSolver` instance passes through unchanged (injection for
    tests and external backends).
    """
    if solver is None:
        solver = DEFAULT_LP_SOLVER
    if isinstance(solver, LpSolver):
        return solver
    try:
        return _REGISTRY[solver]
    except KeyError:
        raise ConfigurationError(
            f"solver must be one of {available_lp_solvers()}, got {solver!r}"
        ) from None


register_lp_solver(ScipyLinprogSolver("highs", "highs"))
register_lp_solver(ScipyLinprogSolver("highs-ds", "highs-ds"))
register_lp_solver(ScipyLinprogSolver("highs-ipm", "highs-ipm"))
