"""The traced benchmark (bench/layers.py) wraps functions of ``mpde`` by
"module:qualname" and silently drops the metrics of a name that no longer
resolves; every name it lists must resolve to a callable.  It also reads the
returned solution (``working``, ``u`` and each ``coeffs`` dict) for its
solver metrics, which must keep their values on the shipped problems.  A
traced repetition (bench/child.py) of every shipped problem must exit 0 and
end in one strict-JSON result line with every per-layer metric that
BENCHMARK.json declares."""

import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mpde.cli  # noqa: F401  (imports every module the benchmark wraps)
from mpde import pipeline
from mpde.problemspec import parse_problem_file

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"


def _layers() -> dict:
    # executed from its source text, so that loading it writes no bytecode cache
    namespace = {"__name__": "bench_layers"}
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), namespace)
    return namespace


def _targets() -> list:
    namespace = _layers()
    stages = {target for targets in namespace["STAGES"].values() for target in targets}
    return sorted(stages | set(namespace["KERNELS"]))


@pytest.mark.parametrize("target", _targets())
def test_wrapped_name_resolves(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"mpde.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), target


# (working terms, largest exact coefficient in bits, reported share) of the
# direct solution of each shipped run
SOLUTION_METRICS = {
    "product2d": (12341, 257, Fraction(41, 12341)),
    "heat": (40401, 1659, Fraction(201, 40401)),
    "fractional": (40401, 0, Fraction(201, 40401)),
    "pure_ode": (201, 9, Fraction(1)),
}


@pytest.mark.parametrize("name", sorted(SOLUTION_METRICS))
def test_solution_metrics_of_the_shipped_runs(name):
    result = pipeline.run(parse_problem_file(ROOT / "problems" / f"{name}.json"))
    metrics = _layers()["solution_metrics"](result.solution)
    terms, bits, share = SOLUTION_METRICS[name]
    assert metrics == {"solver.working_terms": terms, "solver.reported_frac": float(share),
                       "solver.coeff_bits_max": bits}


def _strict_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(SOLUTION_METRICS))
def test_traced_repetition_ends_in_a_result(name, tmp_path):
    # no bytecode cache may appear in the checkout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), "run",
                           f"problems/{name}.json", str(tmp_path / "out"), "--trace"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_strict_constant)
    assert result["rc"] == 0
    for value in _leaves(result):
        assert isinstance(value, (int, float)) and math.isfinite(value), value
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["layers"]) == {m["name"] for m in declared} - {"trace.overhead_frac"}
