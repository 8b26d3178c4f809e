"""Import structure: what a process loads before it does any work.

networkx is a test-only dependency, and ``scipy.optimize`` is imported at
the first LP solve, so neither may load with the package, its CLI or its
experiment drivers. This process has long since imported both, so every
check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

MODULES = (
    "repro",
    "repro.cli",
    "repro.experiments.distance",
    "repro.experiments.internetwork",
    "repro.experiments.bandwidth",
)
HEAVY = ("networkx", "scipy.optimize")

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
from repro.optimal.solver import ScipyLinprogSolver

solve = ScipyLinprogSolver.solve
optimize_at_solve = []


def spy(self, problem):
    optimize_at_solve.append("scipy.optimize" in sys.modules)
    return solve(self, problem)


ScipyLinprogSolver.solve = spy
runs = {}
for argv in %r:
    status = main(argv, out=io.StringIO())
    runs[argv[0]] = [status, len(optimize_at_solve), "scipy.optimize" in sys.modules]
print(json.dumps({"runs": runs, "optimize_at_solve": optimize_at_solve}))
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
    # one that is not.
    loaded = _run_python(
        "import importlib, json, sys\n"
        "loaded = {}\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"    loaded[name] = [m for m in {HEAVY!r} if m in sys.modules]\n"
        "print(json.dumps(loaded))\n",
        tmp_path,
    )
    assert loaded == {name: [] for name in MODULES}


def test_cli_runs_without_networkx_and_loads_optimize_at_first_lp(tmp_path):
    report = _run_python(CLI_SCRIPT % (VERBS,), tmp_path)
    runs = report["runs"]
    # [exit status, LP solves so far, scipy.optimize loaded]
    assert runs["figure1"] == [0, 0, False]
    assert runs["distance"] == [0, 0, False]
    assert runs["multi-isp"] == [0, 0, False]
    status, solves, optimize_loaded = runs["bandwidth"]
    assert status == 0 and solves > 0 and optimize_loaded
    # The first solve imports scipy.optimize; every later one finds it.
    assert report["optimize_at_solve"] == [False] + [True] * (solves - 1)
