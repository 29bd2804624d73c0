"""The traced benchmark (bench/layers.py) wraps functions of ``mpde`` by
"module:qualname" and silently drops the metrics of a name that no longer
resolves; every name it lists must resolve to a callable.  It also reads the
returned solution (``working``, ``u`` and each ``coeffs`` dict) for its
solver metrics, which must keep their values on the shipped problems."""

import importlib
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
