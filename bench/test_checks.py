"""Negative controls for the benchmark's output checks, and the tracer's
behaviour when `mpde` changes shape.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import shutil
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def seed_outputs(tmp_path_factory):
    """Artifacts of one real `mpde run` on pure_ode (the cheapest workload)."""
    out_dir = tmp_path_factory.mktemp("pure_ode")
    result = run.run_child(["run", run.WORKLOADS["pure_ode"], str(out_dir)], timeout=120)
    assert "error" not in result and result["rc"] == 0, result
    return out_dir


@pytest.fixture
def outputs(seed_outputs, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(seed_outputs, copy)
    return copy


def expected():
    return run.load_reference("pure_ode")


def as_rep(out_dir):
    return {"problems": run.check_outputs(out_dir, expected())}


def test_seed_outputs_pass(outputs):
    assert run.check_outputs(outputs, expected()) == []


@pytest.mark.parametrize("name", run.ARTIFACTS)
def test_one_byte_change_counts_as_failed(outputs, name):
    path = outputs / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    reps = [as_rep(outputs), {"problems": []}]
    assert reps[0]["problems"] == [f"{name} differs from the reference"]
    assert run.failed_frac(reps) == 0.5


def test_wrong_verdict_counts_as_failed(outputs):
    path = outputs / "report.json"
    report = json.loads(path.read_text())
    report["verdict"] = "inconclusive"
    path.write_text(json.dumps(report))
    rep = as_rep(outputs)
    assert "verdict is 'inconclusive'" in rep["problems"]
    assert run.failed_frac([rep]) == 1.0


def test_nonzero_exact_residual_counts_as_failed(outputs):
    path = outputs / "report.json"
    report = json.loads(path.read_text())
    report["residual"] = {"exact_zero": False, "max_relative": "1e-300"}
    path.write_text(json.dumps(report))
    assert run.check_outputs(outputs, expected())


def test_added_report_field_is_allowed(outputs):
    path = outputs / "report.json"
    report = json.loads(path.read_text())
    report["diagnostics"] = {"bits": [1, 2, 3]}
    path.write_text(json.dumps(report))
    assert run.check_outputs(outputs, expected()) == []


def test_tracer_rebinds_imported_names_and_skips_removed_functions(monkeypatch):
    for name in [n for n in sys.modules if n == "mpde" or n.startswith("mpde.")]:
        monkeypatch.delitem(sys.modules, name)
    series = types.SimpleNamespace(coeffs={(0,): Fraction(3, 4), (1,): Fraction(1)})
    solution = types.SimpleNamespace(u=types.SimpleNamespace(coeffs=[series]),
                                     working=types.SimpleNamespace(coeffs=[series, series]))

    def solve_formal(problem, n_max):
        return solution

    # A module layout without `operators` or `moments`, where `cli` imported
    # `solve_formal` by name, as `from .solver import solve_formal` does.
    solver = types.ModuleType("mpde.solver")
    solver.solve_formal = solve_formal
    cli = types.ModuleType("mpde.cli")
    cli.solve_formal = solve_formal
    cli.main = lambda: cli.solve_formal(None, 3)
    monkeypatch.setitem(sys.modules, "mpde.solver", solver)
    monkeypatch.setitem(sys.modules, "mpde.cli", cli)

    tracer = Tracer()
    tracer.install()
    assert cli.solve_formal is solver.solve_formal
    assert cli.solve_formal.__wrapped__ is solve_formal
    assert cli.main() is solution

    metrics = tracer.metrics()
    assert metrics["solver.solve_s"] > 0
    assert metrics["solver.working_terms"] == 4
    assert metrics["solver.reported_frac"] == 0.5
    assert metrics["solver.coeff_bits_max"] == 5
    assert not any(name.startswith(("operators.", "moments.")) for name in metrics)
