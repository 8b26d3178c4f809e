"""Pluggable LP solver backends for the optimal-routing layer.

Every LP in the repo — the joint min-max-load LP of Section 5.2 and the
Figure 8 upstream-unilateral variant — is assembled once into a neutral
:class:`LpProblem` and handed to an :class:`LpSolver` backend. The default
backend is scipy's HiGHS (``"highs"``), which reproduces the historical
hardwired ``linprog(method="highs")`` call exactly, so default results are
bit-identical to the pre-interface code.

Adding a backend:

1. subclass :class:`LpSolver` and implement :meth:`LpSolver.solve`; it
   receives ``a_ub`` / ``a_eq`` as scipy sparse matrices, so a backend
   that needs dense arrays converts them itself;
2. :func:`register_lp_solver` it under a new name;
3. select it anywhere a ``solver=`` parameter is threaded —
   ``solve_min_max_load_lp``, ``run_bandwidth_case``,
   ``ExperimentConfig(lp_solver=...)``, or the CLI's ``--lp-solver``.

Unknown solver names raise :class:`ConfigurationError` (the library-wide
backend-selection convention); solver *failures* on a concrete problem
raise :class:`OptimizationError` at the call site.

``scipy.optimize`` is imported at the first solve, not with this module,
so runs that solve no LP (``distance``, ``multi-isp``) never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

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


@dataclass(frozen=True)
class LpProblem:
    """A solver-neutral LP: minimize ``c @ x`` subject to

    ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``, and per-variable
    ``bounds`` (a sequence of ``(low, high)`` with ``None`` for
    unbounded). ``a_ub`` / ``a_eq`` may be scipy sparse matrices or dense
    arrays; ``None`` means "no constraints of that kind".
    """

    c: np.ndarray
    a_ub: object = None
    b_ub: np.ndarray | None = None
    a_eq: object = None
    b_eq: np.ndarray | None = None
    bounds: tuple = field(default=())


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


class ScipyLinprogSolver(LpSolver):
    """scipy.optimize.linprog backend, parameterized by HiGHS method.

    ``method="highs"`` is the default backend and reproduces the repo's
    historical LP call bit for bit; ``"highs-ds"`` (dual simplex) and
    ``"highs-ipm"`` (interior point) are registered as alternates for
    cross-backend verification and experimentation.
    """

    def __init__(self, name: str, method: str):
        self.name = name
        self._method = method

    def solve(self, problem: LpProblem) -> LpSolution:
        from scipy.optimize import linprog

        result = linprog(
            problem.c,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
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
