"""Every function of ``src/mpde`` is reached by the shipped runs or has a
reason to stay.

A child process runs ``cli.main`` on the four shipped problems under
``sys.settrace`` and reports the code objects of ``mpde`` that started a
frame.  A fresh process keeps what the tests before this one have cached
(the real arithmetics per precision) from hiding a call.  The runs stop at
t-order 60, which reaches the same functions as the shipped n_max in under
a third of the traced time.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mpde"
PROBLEMS = ("heat", "fractional", "product2d", "pure_ode")

# module:qualname -> why it stays although no shipped run calls it
KEPT = {
    "analysis:moment_derivative_bound_probe": "verify oracle: the derivative bound on the data",
    "operators:borel_z": "verify oracle: the space Borel transform of the via-Borel solve",
    "solver:borel_problem": "verify oracle: the problem the via-Borel solve runs on",
    "solver:solve_via_borel": "verify oracle: the direct solve against the via-Borel solve",
    "solver:space_borel_quotients": "verify oracle: the moments of the Borel problem",
    "operators:apply_operator": "bench contract: bench/layers.py wraps it by name",
    "operators:moment_diff_z": "bench contract: bench/layers.py wraps it by name",
    "series:series_add": "bench contract: bench/layers.py wraps it by name",
    "moments:MomentFunction.value_exact": "bench contract: bench/layers.py wraps it by name",
    "problemspec:_fail": "error path: a malformed problem file",
    "solver:ValidationFailure.__init__": "error path: a problem that fails validation",
    "solver:degree_envelope": "documented contract that tests check: the degrees a step holds",
    "solver:dependency_cone": "documented contract that tests check: the majorant's cone",
    "moments:tabulated_moment": "documented contract that tests check: a moment from a table",
    "series:MultiSeries.coefficient": "documented contract that tests check: one coefficient",
    "series:MultiSeries.__eq__": "documented contract that tests check: equality by value",
    "series:MultiSeries.__repr__": "documented contract: a repr that does not print the vector",
    "solver:CauchyProblem.mode": "documented contract that tests check: the problem's mode",
}

CHILD = """
import json, os, sys, tempfile
import mpde
from mpde.cli import main

package = os.path.dirname(os.path.abspath(mpde.__file__))
codes = {}

def trace(frame, event, arg):
    codes[id(frame.f_code)] = frame.f_code

sys.settrace(trace)
try:
    for name in sys.argv[2:]:
        with tempfile.TemporaryDirectory() as out:
            code = main(["run", os.path.join(sys.argv[1], name + ".json"), "--out", out,
                         "--n-max", "60", "--quiet"])
            if code != 0:
                sys.exit(f"{name}: exit {code}")
finally:
    sys.settrace(None)
print(json.dumps(sorted({(os.path.basename(c.co_filename)[:-3], c.co_firstlineno)
                         for c in codes.values()
                         if os.path.dirname(os.path.abspath(c.co_filename)) == package})))
"""


def functions() -> dict:
    """(module, line of the def or its first decorator) -> "module:qualname"
    for every function and method in ``src/mpde``."""
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(module, first)] = f"{module}:{qualname}"
                visit(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def test_every_unreached_function_is_kept_for_a_reason():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ROOT / "problems"), *PROBLEMS],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    reached = {tuple(key) for key in json.loads(proc.stdout)}
    every = functions()
    unreached = {name for key, name in every.items() if key not in reached}
    assert unreached == set(KEPT)
