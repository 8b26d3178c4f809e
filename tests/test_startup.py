"""Import structure: what a process loads before it does any work.

networkx is a test-only dependency, and scipy is imported at the first LP
(``scipy.sparse`` where the LP assembles its constraints,
``scipy.optimize`` at its solve), so neither may load with the package,
its CLI or its experiment drivers, nor in a run that solves no LP. This
process has long since imported both, so every check runs in a fresh
interpreter.
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
#: Top-level packages no import may load.
HEAVY = ("networkx", "scipy")

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
    # Whether scipy, scipy.sparse and scipy.optimize are loaded.
    return [
        any(m == name or m.startswith(name + ".") for m in sys.modules)
        for name in ("scipy", "scipy.sparse", "scipy.optimize")
    ]


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
    none = [False, False, False]
    # [exit status, LP solves so far, [scipy, .sparse, .optimize] loaded]
    assert runs["figure1"] == [0, 0, none]
    assert runs["distance"] == [0, 0, none]
    assert runs["multi-isp"] == [0, 0, none]
    status, solves, after = runs["bandwidth"]
    assert status == 0 and solves > 0 and after == [True, True, True]
    # No scipy until the first LP assembles its constraints, which loads
    # scipy.sparse; its solve then loads scipy.optimize, and every later
    # LP finds both.
    assert report["at_assembly"][0] == none
    assert report["at_solve"] == [[True, True, False]] + [[True, True, True]] * (
        solves - 1
    )
