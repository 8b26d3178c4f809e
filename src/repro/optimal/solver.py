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
   receives ``a_ub`` / ``a_eq`` as compressed sparse column matrices
   (:class:`CscMatrix`, or anything with ``format == "csc"``, ``shape``,
   ``indptr``, ``indices`` and ``data``), so a backend that needs another
   layout converts them itself;
2. :func:`register_lp_solver` it under a new name;
3. select it anywhere a ``solver=`` parameter is threaded —
   ``solve_min_max_load_lp``, ``run_bandwidth_case``,
   ``ExperimentConfig(lp_solver=...)``, or the CLI's ``--lp-solver``.

Unknown solver names raise :class:`ConfigurationError` (the library-wide
backend-selection convention); solver *failures* on a concrete problem,
and non-finite, mis-shaped or malformed problem data, raise
:class:`OptimizationError`.

No scipy package is imported, with this module or at a solve. The first
solve loads the compiled HiGHS extension straight from its file in
scipy's install directory (:func:`_highs_core`), so none of scipy's
package ``__init__`` files run, and the constraint matrices are plain
numpy CSC arrays, stacked in numpy. A process that later imports
``scipy.optimize`` reuses the same extension module. A scipy without the
extension's file raises :class:`ConfigurationError` naming the module,
the path searched and the scipy version.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, OptimizationError
from repro.util.validation import validate_choice

__all__ = [
    "CscMatrix",
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

#: The bindings' file inside scipy's install directory, less its suffix
#: (one of ``importlib.machinery.EXTENSION_SUFFIXES``).
_HIGHS_FILE = Path("optimize", "_highspy", "_core")

#: Each ``linprog`` HiGHS method and the HiGHS ``solver`` option it sets
#: (``None`` leaves HiGHS's own default).
_HIGHS_SOLVERS = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}

#: ``linprog``'s post-solve tolerance, ``sqrt(tol) * 10`` at its default
#: ``tol`` of 1e-9.
_CHECK_TOL = np.sqrt(1e-9) * 10


@dataclass(frozen=True)
class CscMatrix:
    """A sparse matrix in compressed sparse column form.

    Column ``j`` holds ``data[indptr[j]:indptr[j + 1]]`` in the rows
    ``indices[indptr[j]:indptr[j + 1]]``: the layout HiGHS reads and the
    arrays of a scipy ``csc_array`` of the same entries.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    format = "csc"

    @property
    def nnz(self) -> int:
        """Stored entries."""
        return int(self.data.shape[0])


@dataclass(frozen=True)
class LpProblem:
    """A solver-neutral LP: minimize ``c @ x`` subject to

    ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``, and per-variable
    ``bounds``: an ``(n, 2)`` float array of ``(low, high)`` rows, with
    ``-inf``/``inf`` for unbounded (empty means ``linprog``'s default,
    every variable in ``[0, inf)``). ``a_ub`` / ``a_eq`` are ``None``
    ("no constraints of that kind") or CSC matrices: a
    :class:`CscMatrix`, or any object with ``format == "csc"``, ``shape``,
    ``indptr``, ``indices`` and ``data``, such as scipy's ``csc_array``.
    Dense arrays and other sparse formats are refused.
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
    """Base class for LP backends. Subclass and register to plug in.

    :meth:`solve` receives the :class:`LpProblem` as its caller built it:
    ``a_ub`` / ``a_eq`` are ``None`` or CSC matrices (see
    :class:`LpProblem`), unchecked until the backend checks them.
    """

    name: str = "abstract"

    def solve(self, problem: LpProblem) -> LpSolution:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def _missing_highs(reason: str) -> ConfigurationError:
    """The error for bindings that cannot load, naming the scipy version
    (read from its metadata, so scipy is not imported)."""
    import importlib.metadata

    try:
        version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        version = "(not installed)"
    return ConfigurationError(
        f"the HiGHS LP backends need {HIGHS_MODULE}, which scipy {version} "
        f"does not provide ({reason})"
    )


def _scipy_dir() -> Path | None:
    """scipy's install directory, found without running its ``__init__``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return Path(spec.submodule_search_locations[0])


def _highs_core():
    """scipy's HiGHS bindings, loaded from their file at the first solve.

    The compiled extension is loaded by file and registered under
    :data:`HIGHS_MODULE`, so no scipy package ``__init__`` runs; a later
    ``import scipy.optimize`` finds it there and reuses it. A ``None``
    in ``sys.modules`` blocks the import, as it would for ``import``.
    """
    if HIGHS_MODULE in sys.modules:
        core = sys.modules[HIGHS_MODULE]
        if core is None:
            raise _missing_highs("its import is blocked")
        return core
    directory = _scipy_dir()
    if directory is None:
        raise _missing_highs("scipy is not installed")
    stem = directory / _HIGHS_FILE
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            break
    else:
        raise _missing_highs(f"no {stem}<suffix> file")
    loader = importlib.machinery.ExtensionFileLoader(HIGHS_MODULE, str(path))
    spec = importlib.util.spec_from_file_location(
        HIGHS_MODULE, path, loader=loader
    )
    core = importlib.util.module_from_spec(spec)
    loader.exec_module(core)
    sys.modules[HIGHS_MODULE] = core
    return core


def _csc(matrix, n: int, kind: str) -> CscMatrix:
    """``matrix`` as a :class:`CscMatrix` of numpy arrays, with the
    structure checks ``csc_array(...)`` made: ``indptr`` of one start per
    column plus one, from 0, non-decreasing, up to the entry count, and
    every row index inside the shape. ``None`` is an empty ``(0, n)``
    block."""
    if matrix is None:
        return CscMatrix(
            (0, n), np.zeros(n + 1, dtype=np.intp), np.zeros(0, dtype=np.intp),
            np.zeros(0),
        )
    if getattr(matrix, "format", None) != "csc":
        raise OptimizationError(
            f"a_{kind} must be a CSC matrix (format 'csc' with shape, "
            f"indptr, indices and data), got {type(matrix).__name__}"
        )
    rows, cols = (int(size) for size in matrix.shape)
    indptr = np.asarray(matrix.indptr)
    indices = np.asarray(matrix.indices)
    data = np.asarray(matrix.data, dtype=float)
    if not (
        indptr.dtype.kind in "iu"
        and indices.dtype.kind in "iu"
        and indptr.shape == (cols + 1,)
        and indices.ndim == 1
        and data.shape == indices.shape
        and indptr[0] == 0
        and indptr[-1] == indices.shape[0]
        and (np.diff(indptr) >= 0).all()
        and (indices.size == 0 or (indices.min() >= 0 and indices.max() < rows))
    ):
        raise OptimizationError(
            f"a_{kind} is not a valid CSC matrix of shape {(rows, cols)}: "
            "indptr must hold one integer start per column plus one, from 0, "
            "non-decreasing, up to len(indices) == len(data), and indices "
            "integer rows in [0, rows)"
        )
    return CscMatrix((rows, cols), indptr, indices, data)


def _vstack(top: CscMatrix, bottom: CscMatrix) -> CscMatrix:
    """``[top; bottom]`` in CSC: each column's ``top`` entries, then its
    ``bottom`` entries with their rows moved below ``top``'s — array for
    array what ``scipy.sparse.vstack(..., format="csc")`` builds."""
    n_top, n_bottom = top.nnz, bottom.nnz
    indices = np.empty(n_top + n_bottom, dtype=np.intp)
    data = np.empty(n_top + n_bottom)
    at = np.arange(n_top) + np.repeat(bottom.indptr[:-1], np.diff(top.indptr))
    indices[at] = top.indices
    data[at] = top.data
    at = np.arange(n_bottom) + np.repeat(top.indptr[1:], np.diff(bottom.indptr))
    indices[at] = bottom.indices + top.shape[0]
    data[at] = bottom.data
    return CscMatrix(
        (top.shape[0] + bottom.shape[0], top.shape[1]),
        top.indptr + bottom.indptr, indices, data,
    )


def _constraints(matrix, rhs, n: int, kind: str):
    """One constraint block in CSC and its right-hand side, checked."""
    matrix = _csc(matrix, n, kind)
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
    ``[a_ub; a_eq]`` in CSC (:func:`_vstack`), presolve on, the dual simplex
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
        core = _highs_core()
        c, a_ub, b_ub, a_eq, b_eq, bounds = _checked(problem)
        a = _vstack(a_ub, a_eq)
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
