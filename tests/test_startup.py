"""Import structure: what a process loads before it does any work.

networkx is a test-only dependency, and no scipy package is ever
imported: the first LP solve loads scipy's compiled HiGHS extension by
file (``repro.optimal.solver._highs_core``), which adds that extension
and its two pybind submodules to ``sys.modules`` and nothing else from
scipy. So neither networkx nor scipy may load with the package, its CLI
or its experiment drivers, nor in a run that solves no LP. This process
has long since imported both through the test oracles, so every check
runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.optimal.solver import HIGHS_MODULE

SRC = str(Path(repro.__file__).resolve().parent.parent)

MODULES = (
    "repro",
    "repro.cli",
    "repro.experiments.distance",
    "repro.experiments.internetwork",
    "repro.experiments.bandwidth",
)
#: Top-level packages no import may load.
HEAVY = ("networkx", "scipy")

#: The HiGHS extension and its pybind submodules: the only scipy modules a
#: run that solves an LP loads.
HIGHS = sorted(
    HIGHS_MODULE + suffix for suffix in ("", ".cb", ".simplex_constants")
)

#: The verbs run without networkx, in this order; only bandwidth solves LPs.
VERBS = (
    ["figure1"],
    ["distance", "--preset", "quick"],
    ["multi-isp", "--preset", "quick", "--isps", "4", "--rounds", "2"],
    ["bandwidth", "--preset", "quick"],
)

CLI_SCRIPT = """
import io, json, sys

sys.modules["networkx"] = None  # every networkx import now raises ImportError

from repro.cli import main
from repro.optimal import bandwidth_lp
from repro.optimal.solver import ScipyLinprogSolver


def loaded():
    # Every loaded scipy module, by exact name.
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")


assemble, solve = bandwidth_lp._link_constraints, ScipyLinprogSolver.solve
at_assembly, at_solve = [], []


def spy_assembly(*args):
    at_assembly.append(loaded())
    return assemble(*args)


def spy_solve(self, problem):
    at_solve.append(loaded())
    return solve(self, problem)


bandwidth_lp._link_constraints = spy_assembly
ScipyLinprogSolver.solve = spy_solve
runs = {}
for argv in %r:
    status = main(argv, out=io.StringIO())
    runs[argv[0]] = [status, len(at_solve), loaded()]
print(json.dumps({"runs": runs, "at_assembly": at_assembly, "at_solve": at_solve}))
"""


def _run_python(code: str, cwd: Path):
    """Run ``code`` in a fresh interpreter on this ``src``; its last stdout
    line, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_imports_leave_networkx_and_scipy_optimize_out(tmp_path):
    # Imports only ever add to sys.modules, so checking after each import
    # in turn proves each module clean on its own, and names the first
    # one that is not. Any scipy submodule counts, scipy.optimize included.
    loaded = _run_python(
        "import importlib, json, sys\n"
        "loaded = {}\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "    loaded[name] = sorted(\n"
        "        m for m in sys.modules\n"
        f"        if m.partition('.')[0] in {HEAVY!r}\n"
        "    )\n"
        "print(json.dumps(loaded))\n",
        tmp_path,
    )
    assert loaded == {name: [] for name in MODULES}


def test_cli_runs_without_networkx_and_loads_optimize_at_first_lp(tmp_path):
    report = _run_python(CLI_SCRIPT % (VERBS,), tmp_path)
    runs = report["runs"]
    # [exit status, LP solves so far, scipy modules loaded]
    assert runs["figure1"] == [0, 0, []]
    assert runs["distance"] == [0, 0, []]
    assert runs["multi-isp"] == [0, 0, []]
    status, solves, after = runs["bandwidth"]
    # The first solve loads the HiGHS extension and nothing else of scipy:
    # no scipy, scipy.sparse or scipy.optimize package, then or later.
    assert status == 0 and solves > 0 and after == HIGHS
    assert report["at_assembly"][0] == []
    assert report["at_solve"] == [[]] + [HIGHS] * (solves - 1)


LOADER_SCRIPT = """
import json, sys

import numpy as np

from repro.optimal.solver import (
    HIGHS_MODULE, CscMatrix, LpProblem, _highs_core, resolve_lp_solver,
)

core = _highs_core()
before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
# min x0 + 2 x1 subject to x0 + x1 >= 1 (as -x0 - x1 <= -1), x0 <= 0.25.
problem = LpProblem(
    c=np.array([1.0, 2.0]),
    a_ub=CscMatrix((1, 2), np.array([0, 1, 2]), np.array([0, 0]),
                   np.array([-1.0, -1.0])),
    b_ub=np.array([-1.0]),
    bounds=np.array([[0.0, 0.25], [0.0, np.inf]]),
)
ours = resolve_lp_solver("highs").solve(problem)

from scipy.optimize import linprog

theirs = linprog(
    problem.c, A_ub=[[-1.0, -1.0]], b_ub=problem.b_ub,
    bounds=list(problem.bounds), method="highs",
)
from scipy.optimize._highspy import _core

print(json.dumps({
    "before": before,
    "success": [ours.success, bool(theirs.success)],
    "x": [ours.x.tolist(), theirs.x.tolist()],
    "same_module": _core is core and sys.modules[HIGHS_MODULE] is core,
}))
"""


def test_highs_extension_loads_by_file_and_serves_scipy_optimize(tmp_path):
    report = _run_python(LOADER_SCRIPT, tmp_path)
    # No scipy package ran: the extension and its submodules only.
    assert report["before"] == HIGHS
    assert report["success"] == [True, True]
    ours, theirs = report["x"]
    assert ours == theirs == [0.25, 0.75]
    # scipy.optimize, imported afterwards, reuses the loaded extension.
    assert report["same_module"]
