import ast
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mpde import TimeSeries, cli, combine, gamma_moment, pipeline, problemspec, series, solver
from mpde.cli import _report_dict, main, run_pipeline
from mpde.moments import MAX_MOMENT_FACTORS
from mpde.precision import EXACT
from mpde.problemspec import (MAX_MOMENT_DEPTH, materialize_problem, parse_problem_document,
                              parse_problem_file)
from helpers import exact_values_read, solve_formal_reference

ROOT = Path(__file__).resolve().parent.parent
HEAT = ROOT / "problems" / "heat.json"
FRACTIONAL = ROOT / "problems" / "fractional.json"
PURE_ODE = ROOT / "problems" / "pure_ode.json"
PRODUCT2D = ROOT / "problems" / "product2d.json"
# artifact digests and report fields of the shipped runs, recorded by bench/record_reference.py
REFERENCE = ROOT / "bench" / "reference.json"


def _fit(window, points_used, s_hat, stderr, log_h, log_c):
    return {"ok": True, "window": list(window), "points_used": points_used,
            "zero_entries": 0, "note": "",
            "s_hat": s_hat, "stderr": stderr, "log_H": log_h, "log_C": log_c}


# the growth blocks of the shipped runs' report.json, recorded before the growth
# checks read the log-bound sequence; the fitted floats were recorded from a LAPACK
# least squares, and the Gram-Schmidt fit differs from them in the last bits (at
# most 2.1e-11 relative, and 4.5e-14 absolute near zero)
SHIPPED_ANALYSIS = {
    "heat": {
        "fit": _fit((50, 200), 151, 1.004579831129439, 4.4893400452522866e-05,
                    1.3600047004425435, -1.909977945754485),
        "forcing_fit": None,
        "gevrey_bound_witness": {"order": "1/1", "H": "3.93607336301", "C": "1.0",
                                 "bounded": True},
        "intermediate_bound": {"d": "2/1", "bounded": True, "tail_max": "1.0",
                               "middle_max": "1.0"},
    },
    "fractional": {
        "fit": _fit((50, 200), 151, 1.5068584503660754, 6.711410163201158e-05,
                    1.6934927978437746, -2.6941438883597217),
        "forcing_fit": None,
        "gevrey_bound_witness": {"order": "3/2", "H": "5.52656634286", "C": "1.0",
                                 "bounded": True},
        "intermediate_bound": {"d": "2/1", "bounded": True, "tail_max": "1.40408113192",
                               "middle_max": "1.40131963317"},
    },
    "pure_ode": {
        "fit": _fit((50, 200), 151, 0.009204855619471984, 9.069116476304262e-05,
                    -0.052816711671003665, -2.665369748976368),
        "forcing_fit": _fit((50, 199), 150, 0.0, 0.0, 0.0, 0.0),
        "gevrey_bound_witness": {"order": "0/1", "H": "0.973856237016", "C": "1.0268456082",
                                 "bounded": True},
        "intermediate_bound": {"d": "1/1", "bounded": True, "tail_max": "0.973856237016",
                               "middle_max": "0.966974134328"},
    },
    "product2d": {
        "fit": _fit((10, 40), 31, 1.0215777909020776, 0.0005956884367045066,
                    -1.4665754225291123, 0.978367501457567),
        "forcing_fit": _fit((10, 39), 30, -9.423324235366153e-16, 2.303858789448667e-15,
                            -1.3862943611198872, -4.491926928094834e-14),
        "gevrey_bound_witness": {"order": "1/1", "H": "0.263115065296", "C": "2.85046391835",
                                 "bounded": True},
        "intermediate_bound": {"d": "2/1", "bounded": True, "tail_max": "0.0678486838305",
                               "middle_max": "0.0703211636816"},
    },
}


# solution.working_degrees of the shipped runs: the degree of u_n that a
# reported coefficient reads, n = 0..n_max
WORKING_DEGREES = {
    "heat": list(range(400, -1, -2)),
    "fractional": list(range(400, -1, -2)),
    "pure_ode": [0] * 201,
    "product2d": list(range(40, -1, -1)),
}


# report.json's exact_bits of the shipped runs: the bit growth of the exact
# direct solve under solver.REDUCE_BITS (null in float mode); product2d's u_0
# is its initial series over 2^40, built to the envelope degree 40, so step 0
# stays within REDUCE_BITS
EXACT_BITS = {
    "heat": {"numerator_max": 1723, "denominator_max": 65, "reduced_steps": 18},
    "fractional": None,
    "pure_ode": {"numerator_max": 1, "denominator_max": 8, "reduced_steps": 0},
    "product2d": {"numerator_max": 238, "denominator_max": 138, "reduced_steps": 7},
}


def read(path: Path):
    return path.read_bytes()


class TestRunPipeline:
    def test_heat_small_run(self, tmp_path):
        code = run_pipeline(HEAT, tmp_path, n_max=40, quiet=True)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["inverse_k1"] == "1/1"
        assert report["verdict"] == "consistent"
        assert "validation" not in report
        assert report["newton_polygon"]["slopes"] == ["1/1"]
        assert report["residual"]["exact_zero"] is True
        assert report["residual_full"] == "0"
        assert report["majorant_dominates"] is True
        for name in ("report.json", "coeffs.csv", "bounds.csv", "polygon.svg"):
            assert (tmp_path / name).exists()

    def test_fractional_small_run(self, tmp_path):
        code = run_pipeline(FRACTIONAL, tmp_path, n_max=48, quiet=True)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["inverse_k1"] == "3/2"
        assert report["arithmetic_mode"] == "float"
        assert 1.3 <= report["fit"]["s_hat"] <= 1.7

    def test_pure_ode_small_run(self, tmp_path):
        code = run_pipeline(PURE_ODE, tmp_path, n_max=60, quiet=True)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["inverse_k1"] == "0/1"
        assert abs(report["fit"]["s_hat"]) <= 0.05
        assert report["forcing_fit"] is not None
        assert abs(report["forcing_fit"]["s_hat"]) <= 0.05

    def test_product2d_small_run(self, tmp_path):
        code = run_pipeline(PRODUCT2D, tmp_path, n_max=24, quiet=True)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["newton_polygon"]["slopes"] == ["1/1", "2/1"]
        assert report["inverse_k1"] == "1/1"

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_pipeline(HEAT, out1, n_max=30, quiet=True) == 0
        assert run_pipeline(HEAT, out2, n_max=30, quiet=True) == 0
        for name in ("report.json", "coeffs.csv", "bounds.csv", "polygon.svg"):
            assert read(out1 / name) == read(out2 / name), name

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = run_pipeline(tmp_path / "nope.json", tmp_path, quiet=True)
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(HEAT.read_text())
        del doc["operator"]["M"]
        bad.write_text(json.dumps(doc))
        assert run_pipeline(bad, tmp_path, quiet=True) == 1
        err = capsys.readouterr().err
        assert "operator" in err and "M" in err

    def test_order_condition_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(HEAT.read_text())
        doc["operator"]["terms"] = [{"j": 1, "alpha": [1], "coeff": ["1"]}]
        bad.write_text(json.dumps(doc))
        assert run_pipeline(bad, tmp_path, quiet=True) == 1
        err = capsys.readouterr().err
        assert "term_order" in err and "j=1" in err

    def test_forcing_of_wrong_gevrey_class_yields_exit_two(self, tmp_path):
        # pure-ODE operator promises order 0, but the forcing grows like n!^2,
        # so the solution cannot be convergent: verdict inconsistent, exit 2
        import math

        doc = json.loads(PURE_ODE.read_text())
        doc["data"]["forcing"] = {
            "kind": "terms",
            "terms": [{"n": n, "alpha": [0], "value": str(math.factorial(n) ** 2)}
                      for n in range(80)],
        }
        doc["run"]["n_max"] = 80
        doc["run"]["fit_window"] = [20, 80]
        spec = tmp_path / "bad_forcing.json"
        spec.write_text(json.dumps(doc))
        code = run_pipeline(spec, tmp_path, quiet=True)
        assert code == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "inconsistent"
        assert report["inverse_k1"] == "0/1"
        assert report["gevrey_bound_witness"]["bounded"] is False

    def test_float_literal_rejected_in_exact_mode(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(HEAT.read_text())
        doc["operator"]["terms"][0]["coeff"] = [-1.5]
        bad.write_text(json.dumps(doc))
        assert run_pipeline(bad, tmp_path, quiet=True) == 1
        assert "float" in capsys.readouterr().err

    def test_flag_overrides_change_run(self, tmp_path):
        run_pipeline(HEAT, tmp_path, n_max=24, degree=2, radius="1/4", quiet=True)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_max"] == 24
        assert report["report_degree"] == 2
        assert report["radius"] == "1/4"
        rows = (tmp_path / "coeffs.csv").read_text().strip().splitlines()
        assert rows[0] == "n,alpha_1,re,im"
        degrees = {int(r.split(",")[1]) for r in rows[1:]}
        assert degrees <= {0, 1, 2} and 2 in degrees


class TestShippedProblems:
    @pytest.mark.parametrize("path", [HEAT, FRACTIONAL, PURE_ODE, PRODUCT2D],
                             ids=lambda p: p.stem)
    def test_shipped_run_is_consistent(self, tmp_path, path):
        # full shipped run shapes: fitted order matches 1/k_1 and the root
        # test at s = 1/k_1 stays bounded
        assert run_pipeline(path, tmp_path, quiet=True) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "consistent"
        assert report["gevrey_bound_witness"]["bounded"] is True
        assert report["intermediate_bound"]["bounded"] is True
        assert report["majorant_dominates"] is True
        # byte-identical to the recorded reference
        want = json.loads(REFERENCE.read_text())[path.stem]
        for name in ("coeffs.csv", "bounds.csv", "polygon.svg"):
            assert hashlib.sha256(read(tmp_path / name)).hexdigest() == want["sha256"][name], name
        for field in ("verdict", "inverse_k1", "newton_polygon", "residual",
                      "majorant_dominates"):
            assert report[field] == want["report"][field], field
        assert report["solution"]["working_degrees"] == WORKING_DEGREES[path.stem]
        assert report["exact_bits"] == EXACT_BITS[path.stem]
        # the growth blocks, against the values recorded above; the fitted
        # floats within 1e-9 relative (1e-12 absolute for the noise-level
        # values of a constant forcing)
        pinned = SHIPPED_ANALYSIS[path.stem]
        for block in ("gevrey_bound_witness", "intermediate_bound"):
            assert report[block] == pinned[block], block
        for block in ("fit", "forcing_fit"):
            got, expected = report[block], pinned[block]
            if expected is None:
                assert got is None, block
                continue
            for key in ("ok", "window", "points_used", "zero_entries", "note"):
                assert got[key] == expected[key], (block, key)
            for key in ("s_hat", "stderr", "log_H", "log_C"):
                assert got[key] == pytest.approx(expected[key], rel=1e-9, abs=1e-12), (block, key)


class TestSelfCheck:
    """A run that contradicts a claim it checks writes its artifacts, then
    ends in ``error: self-check failed: ...`` and exit 3."""

    @staticmethod
    def run(tmp_path, capsys, path, n_max):
        code = run_pipeline(path, tmp_path, n_max=n_max, quiet=True)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "coeffs.csv").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("factor, code", [(2, 3), (1, 0)], ids=["above", "at"])
    def test_float_residual_bound(self, tmp_path, capsys, monkeypatch, factor, code):
        bound = mpmath.ldexp(1, -(256 - 32))
        monkeypatch.setattr(pipeline, "residual_max_relative", lambda problem, sol: bound * factor)
        got, err = self.run(tmp_path, capsys, FRACTIONAL, 48)
        assert got == code
        if code:
            assert err == ("error: self-check failed: the float residual "
                           f"{mpmath.nstr(bound * 2, 12)} exceeds 2^-(prec-32)\n")
        else:
            assert err == ""

    def test_nonzero_exact_residual(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "residual_max_relative",
                            lambda problem, sol: mpmath.ldexp(1, -300))
        code, err = self.run(tmp_path, capsys, HEAT, 40)
        assert code == 3
        assert err.startswith("error: self-check failed: the exact residual is ")
        assert err.endswith(", not 0\n")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["residual"]["exact_zero"] is False

    def test_majorant_not_dominating(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "majorizes", lambda g, f: False)
        code, err = self.run(tmp_path, capsys, HEAT, 40)
        assert code == 3
        assert err == "error: self-check failed: the majorant does not dominate the solution\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["majorant_dominates"] is False



def _traced_peak(fn) -> int:
    """The tracemalloc peak of fn(), in bytes above what was traced before it.
    A full collection first empties the free lists, whose reuse tracemalloc
    does not see."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMajorantFirst:
    """``pipeline.run`` solves the majorant first and keeps only its reported
    coefficients, so it never holds two working solutions at once."""

    def test_majorant_working_is_freed_before_the_direct_solve(self, monkeypatch):
        solve_majorant, solve_formal = pipeline.solve_majorant, pipeline.solve_formal
        refs, dead = [], []

        def majorant(*args):
            maj = solve_majorant(*args)
            refs.append(weakref.ref(maj.working))
            return maj

        def direct(*args):
            dead.append(bool(refs) and refs[0]() is None)
            return solve_formal(*args)

        monkeypatch.setattr(pipeline, "solve_majorant", majorant)
        monkeypatch.setattr(pipeline, "solve_formal", direct)
        pipeline.run(parse_problem_file(FRACTIONAL, overrides={"n_max": 40}))
        assert dead == [True]

    def test_run_peak_holds_one_solution(self):
        # the run's peak above that of the direct solve and the residual alone
        # stays under half of what the majorant's solution holds (about the
        # whole of it when both solutions are alive at once)
        n_max = 60

        def spec_file():
            return parse_problem_file(FRACTIONAL, overrides={"n_max": n_max})

        def direct_alone():
            spec = spec_file()
            with mpmath.workprec(spec.run.precision_bits):
                problem = materialize_problem(spec)
                sol = solver.solve_formal(problem, n_max, spec.run.report_degree)
                solver.residual_max_relative(problem, sol)

        pipeline.run(spec_file())   # fills the caches that outlive a run
        spec = spec_file()
        with mpmath.workprec(spec.run.precision_bits):
            problem = materialize_problem(spec)
            solver.solve_majorant(problem, n_max, spec.run.report_degree)
            majorant_size = _traced_peak(
                lambda: solver.solve_majorant(problem, n_max, spec.run.report_degree))
        alone = _traced_peak(direct_alone)
        run = _traced_peak(lambda: pipeline.run(spec_file()))
        assert run - alone < majorant_size / 2

    def test_domination_is_read_from_the_majorant(self, tmp_path, capsys, monkeypatch):
        solve_majorant = pipeline.solve_majorant

        def lowered(*args):
            # one reported coefficient of the majorant halved
            maj = solve_majorant(*args)
            steps = list(maj.working.coeffs)
            n = next(n for n, c in enumerate(maj.u.coeffs) if c.coeffs)
            alpha, value = next(iter(maj.u.coeffs[n].coeffs.items()))
            c = steps[n]
            steps[n] = series.make_series(c.dim, {**c.coeffs, alpha: value / 2},
                                          c.valid_degree, c.mode)
            return replace(maj, working=TimeSeries(tuple(steps)))

        monkeypatch.setattr(pipeline, "solve_majorant", lowered)
        code, err = TestSelfCheck.run(tmp_path, capsys, HEAT, 40)
        assert code == 3
        assert err == "error: self-check failed: the majorant does not dominate the solution\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["majorant_dominates"] is False


class TestRecurrencePlan:
    """Each solve of ``pipeline.run`` builds one read plan: each term's
    shifted coefficients once and the degree envelope in one walk; the
    materialization of the data walks the envelope once more, and the run
    walks the dependency cone once, for the majorant, and drops it before
    the direct solve."""

    @pytest.mark.parametrize("path", [HEAT, PRODUCT2D, FRACTIONAL, PURE_ODE],
                             ids=lambda p: p.stem)
    def test_one_plan_per_solve(self, monkeypatch, path):
        calls, cones = Counter(), []

        def counted(name):
            inner = getattr(solver, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(solver, name, wrapper)

        for name in ("_shifted_coefficients", "_envelope_walk", "_cone_walk"):
            counted(name)
        cone_walk, solve_formal = solver._cone_walk, pipeline.solve_formal

        class Cone(list):
            """A list that a weak reference can point to."""

        def cone(*args):
            out = Cone(cone_walk(*args))
            cones.append(weakref.ref(out))
            return out

        def direct(*args):
            cones.append(cones[0]() is None)
            return solve_formal(*args)

        monkeypatch.setattr(solver, "_cone_walk", cone)
        monkeypatch.setattr(pipeline, "solve_formal", direct)
        spec_file = parse_problem_file(path)
        result = pipeline.run(spec_file)
        terms = len(spec_file.operator.terms)
        assert calls == Counter(_shifted_coefficients=3 * terms, _envelope_walk=3, _cone_walk=1)
        assert cones[1:] == [True]
        assert result.growth.verdict == "consistent"


class TestNaNContradictsClaims:
    """One NaN element in a float solution or majorant fails the claim that
    reads it: the residual and the domination check do not skip it."""

    @staticmethod
    def fractional_run():
        spec_file = parse_problem_file(FRACTIONAL, overrides={"n_max": 12})
        return materialize_problem(spec_file), pipeline.run(spec_file)

    @staticmethod
    def with_nan(ts, n, alpha):
        """The time series with the coefficient (n, alpha) replaced by NaN."""
        coeffs = list(ts.coeffs)
        c = coeffs[n]
        coeffs[n] = series.make_series(c.dim, {**c.coeffs, alpha: mpmath.nan},
                                       c.valid_degree, "float")
        return TimeSeries(tuple(coeffs))

    def test_nan_in_the_solution_fails_the_residual(self):
        problem, result = self.fractional_run()
        sol = result.solution
        nan_sol = replace(sol, working=self.with_nan(sol.working, 4, (1,)))
        residual = solver.residual_max_relative(problem, nan_sol)
        assert mpmath.isnan(residual)
        assert replace(result, residual=residual).failed_claims() == [
            "the float residual nan exceeds 2^-(prec-32)"]

    def test_nan_in_the_majorant_fails_domination(self):
        problem, result = self.fractional_run()
        maj = solver.solve_majorant(problem, 12, 0)
        nan_u = self.with_nan(maj.u, 4, (0,))
        dominated = all(series.majorizes(g, f)
                        for g, f in zip(nan_u.coeffs, result.solution.u.coeffs))
        assert replace(result, dominated=dominated).failed_claims() == [
            "the majorant does not dominate the solution"]


class TestValidateOnce:
    def test_heat_run_validates_once(self, monkeypatch):
        # the problem is validated once, not again by each solve
        original = solver.validate
        calls = []

        def counting(problem):
            calls.append(problem)
            return original(problem)

        for name, module in list(sys.modules.items()):
            if name.startswith("mpde") and getattr(module, "validate", None) is original:
                monkeypatch.setattr(module, "validate", counting)
        pipeline.run(parse_problem_file(HEAT))
        assert len(calls) == 1


class TestSeriesScaleCalls:
    @pytest.mark.parametrize("problem, calls", [
        (PRODUCT2D, 40), (HEAT, 0), (FRACTIONAL, 0), (PURE_ODE, 200)])
    def test_only_the_data_is_scaled(self, monkeypatch, problem, calls):
        # the solve scales its steps in its own arithmetic; series_scale
        # builds the time-geometric forcing, one call per t-order
        original = series.series_scale
        counted = []

        def counting(f, scalar):
            counted.append(scalar)
            return original(f, scalar)

        for name, module in list(sys.modules.items()):
            if name.startswith("mpde") and getattr(module, "series_scale", None) is original:
                monkeypatch.setattr(module, "series_scale", counting)
        pipeline.run(parse_problem_file(problem))
        assert len(counted) == calls


class TestKernelForm:
    def test_run_builds_no_unreported_coefficient(self, monkeypatch):
        # every series holds its coefficients as integer numerators over one
        # denominator: materializing the data decodes no value, pipeline.run
        # decodes one (so builds one Fraction) per reported coefficient of
        # the solve and the majorant, and no series keeps a decoded
        # coefficient dict next to its vector
        spec_file = parse_problem_file(HEAT, overrides={"n_max": 12})
        decoded = []

        def counting(x, den):
            decoded.append(x)
            return Fraction(x, den)

        monkeypatch.setitem(vars(EXACT), "decode", counting)
        data = materialize_problem(spec_file)
        result = pipeline.run(spec_file)
        sol = result.solution
        fields = {"dim", "arithmetic", "vec", "den", "valid_degree"}
        assert all(set(vars(c)) == fields for c in (*sol.working.coeffs, *sol.u.coeffs))
        # the solve's and the majorant's u: one coefficient per t-order each
        assert len(decoded) == 2 * 13
        monkeypatch.undo()
        assert sol.valid_degrees == tuple(2 * (12 - n) for n in range(13))
        want = solve_formal_reference(data, 12)
        assert [c.coeffs for c in sol.working.coeffs] == [c.coeffs for c in want.working.coeffs]


class TestExactMomentRange:
    """Exact heat with the space moment ``space``: the run evaluates
    m1(0..2 n_max) and no further, so a value past that range is never
    asked for, and an irrational value inside it is an error line."""

    N_MAX = 12

    def run(self, tmp_path, capsys, monkeypatch, space):
        spec_file = parse_problem_file(HEAT, overrides={"n_max": self.N_MAX})
        spec_file = replace(spec_file, operator=replace(spec_file.operator, m=(space,)))
        monkeypatch.setattr(cli, "parse_problem_file", lambda *args: spec_file)
        out = tmp_path / "out"
        code = main(["run", "heat.json", "--out", str(out), "--quiet"])
        return code, capsys.readouterr().err, out

    def test_irrational_past_the_read_range(self, tmp_path, capsys, monkeypatch):
        space = gamma_moment(1)
        code, err, out = self.run(tmp_path, capsys, monkeypatch, space)
        assert code == 0 and err == ""
        assert exact_values_read(space) == 2 * self.N_MAX + 1
        report = json.loads((out / "report.json").read_text())
        assert report["residual"]["exact_zero"] is True
        plain = tmp_path / "plain"
        assert main(["run", str(HEAT), "--n-max", str(self.N_MAX), "--out", str(plain),
                     "--quiet"]) == 0
        assert (out / "coeffs.csv").read_bytes() == (plain / "coeffs.csv").read_bytes()

    def test_irrational_inside_the_read_range(self, tmp_path, capsys, monkeypatch):
        # Gamma(1 + n/2)^2, of order 1, is irrational at every odd n
        half = gamma_moment(Fraction(1, 2))
        code, err, out = self.run(tmp_path, capsys, monkeypatch,
                                  combine(half, half, "product"))
        assert code == 1
        assert err.startswith("error:") and "not rational" in err and "Traceback" not in err
        assert not (out / "report.json").exists()


class TestSparseData:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_no_zero_rows_in_coeffs_csv(self, tmp_path, mode):
        # polynomial data: most of every graded layout is zero
        doc = json.loads(HEAT.read_text())
        doc["data"]["initial"] = [{"kind": "polynomial", "coeffs": ["1", "0", "3"]}]
        spec = tmp_path / "sparse.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(spec), "--n-max", "20", "--degree", "2", "--mode", mode,
                     "--out", str(out), "--quiet"]) in (0, 2)
        rows = list(csv.reader(io.StringIO((out / "coeffs.csv").read_text())))[1:]
        # u_0 = 1 + 3z^2 and u_1 = 6 are the only nonzero coefficients
        assert [row[:2] for row in rows] == [["0", "0"], ["0", "2"], ["1", "0"]]
        assert all(Fraction(re) != 0 for _, _, re, _ in rows)


# fractional's residual as report.json's residual_full, recorded before the
# majorant was pruned to its dependency cone; it pins every bit
FRACTIONAL_RESIDUAL = ("47985402962147439906421950826999666919229878022895611996802630"
                       "93612963786649*2^-507")


@pytest.fixture(scope="module")
def fractional_result():
    return pipeline.run(parse_problem_file(FRACTIONAL))


class TestResidualFull:
    def test_fractional_golden(self, fractional_result):
        assert _report_dict(fractional_result)["residual_full"] == FRACTIONAL_RESIDUAL

    def test_round_trip(self, fractional_result):
        man, exp = _report_dict(fractional_result)["residual_full"].split("*2^")
        with mpmath.workprec(fractional_result.run.precision_bits):
            assert mpmath.mpf(int(man)) * 2 ** int(exp) == fractional_result.residual


class TestSvgOutput:
    def test_heat_svg_labels_slope(self, tmp_path):
        run_pipeline(HEAT, tmp_path, n_max=24, quiet=True)
        svg = (tmp_path / "polygon.svg").read_text()
        assert "k=1" in svg
        assert svg.count("<circle") == 4    # 2 generator points + 2 vertices

    def test_pure_ode_svg_single_point(self, tmp_path):
        run_pipeline(PURE_ODE, tmp_path, n_max=24, quiet=True)
        svg = (tmp_path / "polygon.svg").read_text()
        assert svg.count("<circle") == 2    # 1 generator point + 1 vertex
        assert "k=" not in svg

    def test_product2d_svg_two_labels(self, tmp_path):
        run_pipeline(PRODUCT2D, tmp_path, n_max=20, quiet=True)
        svg = (tmp_path / "polygon.svg").read_text()
        assert "k=1" in svg and "k=2" in svg


class TestEntryPoint:
    def test_main_function(self, tmp_path, capsys):
        code = main(["run", str(HEAT), "--out", str(tmp_path), "--n-max", "24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1/k1 = 1/1" in out and "verdict: consistent" in out

    def test_console_script_subprocess(self, tmp_path):
        # the child imports mpde from this checkout, installed or not
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mpde.cli", "run", str(HEAT),
             "--out", str(tmp_path), "--n-max", "24", "--quiet"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert (tmp_path / "report.json").exists()

    def test_runs_without_numpy(self, tmp_path):
        # a None entry in sys.modules makes every import of numpy fail
        script = ("import sys; sys.modules['numpy'] = None\n"
                  "from mpde.cli import main\n"
                  f"sys.exit(main(['run', {str(HEAT)!r}, '--out', {str(tmp_path)!r},"
                  " '--n-max', '20', '--quiet']))\n")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.json").exists()

    def test_mpmath_is_the_only_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert [dep.split(">")[0] for dep in project["dependencies"]] == ["mpmath"]

    def test_precision_default(self, tmp_path):
        doc = json.loads(HEAT.read_text())
        del doc["run"]["precision_bits"]
        spec = tmp_path / "heat_noprec.json"
        spec.write_text(json.dumps(doc))
        assert run_pipeline(spec, tmp_path, n_max=24, quiet=True) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["precision_bits"] == 256


class TestBoundaryInputs:
    @pytest.mark.parametrize("flags", [
        ["--n-max", "0"], ["--n-max", "5"], ["--degree", "-1"], ["--radius", "0"],
        ["--precision", "8"],
    ], ids=lambda flags: f"{flags[0].lstrip('-')}={flags[1]}")
    def test_rejected_with_error_line(self, tmp_path, capsys, flags):
        code = main(["run", str(HEAT), "--out", str(tmp_path), "--quiet", *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_unwritable_out_is_error_line(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        code = main(["run", str(PURE_ODE), "--n-max", "20", "--quiet", "--out", str(taken)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot write artifacts to {taken}:")
        assert "Traceback" not in err
        assert taken.read_text() == "a file, not a directory\n"


class TestUsageErrors:
    """A command line argparse rejects ends like an input error: one
    ``error:`` line, exit 1, no usage block (exit 2 means "inconsistent")."""

    @pytest.mark.parametrize("argv, line", [
        (["run", str(HEAT), "--n-max", "abc"], "error: argument --n-max: invalid int value: 'abc'"),
        (["run", str(HEAT), "--precision", "1.5"],
         "error: argument --precision: invalid int value: '1.5'"),
        (["run"], "error: the following arguments are required: spec"),
        (["run", str(HEAT), "--bogus"], "error: unrecognized arguments: --bogus"),
        ([], "error: the following arguments are required: command"),
    ], ids=["n_max_not_int", "precision_not_int", "missing_spec", "unknown_flag", "bare"])
    def test_one_error_line_exit_one(self, tmp_path, capsys, argv, line):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)] if argv else argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err == line + "\n"
        assert not (tmp_path / "report.json").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mpde run")


def _set(path, value):
    """A document edit: put ``value`` at ``path`` (keys and list indices)."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _add_key(path, key, value=1):
    """A document edit: put ``value`` at ``key`` of the object at ``path``."""
    return _set((*path, key), value)


# (edit of heat.json that adds a field no parser reads, the path and key of the
# one error line)
UNKNOWN_FIELDS = {
    "top_level": (_add_key((), "comment", "x"), "top level", "comment"),
    "moment": (_add_key(("moments", "m1"), "factors", ["m0", "m0"]), "moments.m1", "factors"),
    "operator": (_add_key(("operator",), "m", 1), "operator", "m"),
    "term": (_add_key(("operator", "terms", 0), "ord_override", 1),
             "operator.terms[0]", "ord_override"),
    "term_truncated": (_add_key(("operator", "terms", 0), "truncated", True),
                       "operator.terms[0]", "truncated"),
    "data": (_add_key(("data",), "forcings", {}), "data", "forcings"),
    "series": (_add_key(("data", "initial", 0), "ration", "1"), "data.initial[0]", "ration"),
    "series_terms_entry": (_set(("data", "initial"), [{"kind": "terms", "terms": [
        {"alpha": [0], "value": "1", "n": 0}]}]), "data.initial[0].terms[0]", "n"),
    "forcing": (_add_key(("data", "forcing"), "ratio", "1"), "data.forcing", "ratio"),
    "forcing_space": (_set(("data", "forcing"), {"kind": "time_geometric", "ratio": "1",
                                                 "space": {"kind": "zero", "sigma": "1"}}),
                      "data.forcing.space", "sigma"),
    "forcing_terms_entry": (_set(("data", "forcing"), {"kind": "terms", "terms": [
        {"n": 0, "alpha": [0], "value": "1", "values": "1"}]}),
        "data.forcing.terms[0]", "values"),
    "run": (_add_key(("run",), "radus", "1/8"), "run", "radus"),
}


MALFORMED = {
    **{f"unknown_{name}": edit for name, (edit, _, _) in UNKNOWN_FIELDS.items()},
    "term_not_object": _set(("operator", "terms"), [5]),
    "alpha_entry_string": _set(("operator", "terms", 0, "alpha"), ["x"]),
    "forcing_alpha_int": _set(("data", "forcing"), {
        "kind": "terms", "terms": [{"n": 0, "alpha": 3, "value": "1"}]}),
    # n past the last forcing order of the run: still parsed
    "forcing_entry_past_last_order": _set(("data", "forcing"), {
        "kind": "terms", "terms": [{"n": 500, "alpha": "bad", "value": "x"}]}),
    "space_not_object": _set(("data", "forcing"), {
        "kind": "time_geometric", "ratio": "1", "space": 5}),
    "M_boolean": _set(("operator", "M"), True),
    "coeffs_string": _set(("data", "initial"), [{"kind": "polynomial", "coeffs": "12"}]),
    "name_number": _set(("name",), 5),
    "name_null": _set(("name",), None),
    "name_object": _set(("name",), {"a": 1}),
}


def _add_term(term, mode=None):
    """A document edit: append ``term`` to the operator (and set the run's mode)."""
    def edit(doc):
        doc["operator"]["terms"].append(term)
        if mode is not None:
            doc["run"]["mode"] = mode
    return edit


# terms whose stored coefficients put a piece of the recurrence at p <= 0, so
# that step n would read u_n itself: a coefficient is zero only when it equals
# 0, so however small the float at t^0 is, ord_t is 0
READS_AHEAD = {
    "float_below_threshold": _add_term(
        {"j": 1, "alpha": [1], "coeff": [1e-50, "1"]}, mode="float"),
}


class TestMalformedDocuments:
    @staticmethod
    def run_edited(tmp_path, capsys, edit):
        """Run ``main`` on heat.json after ``edit``; exit code and stderr."""
        doc = json.loads(HEAT.read_text())
        edit(doc)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["run", str(spec), "--out", str(out), "--n-max", "24", "--quiet"])
        assert not (out / "report.json").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
    def test_wrong_json_type_is_error_line(self, tmp_path, capsys, edit):
        code, err = self.run_edited(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("edit, path, key", UNKNOWN_FIELDS.values(),
                             ids=UNKNOWN_FIELDS.keys())
    def test_unknown_field_is_one_error_line(self, tmp_path, capsys, edit, path, key):
        code, err = self.run_edited(tmp_path, capsys, edit)
        assert code == 1
        assert err == f"error: {path}: unknown field '{key}'\n"

    @pytest.mark.parametrize("edit", READS_AHEAD.values(), ids=READS_AHEAD.keys())
    def test_piece_reading_ahead_fails_term_order(self, tmp_path, capsys, edit):
        code, err = self.run_edited(tmp_path, capsys, edit)
        assert code == 1
        assert err == "error: condition term_order violated at term j=1, alpha=(1,) (ord_t=0)\n"


def _problemspec_names() -> set:
    """Every field that a ``_only`` call of ``problemspec`` names and every
    ``kind`` value that it compares against."""
    names = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "mpde" / "problemspec.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_only":
            names.update(a.value for a in node.args[2:] if isinstance(a, ast.Constant))
        elif isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "kind":
            for right in node.comparators:
                for c in (right.elts if isinstance(right, ast.Tuple) else [right]):
                    names.add(c.value)
    return names


def test_problem_file_docstring_names_every_field_and_kind():
    # a field or kind the parser reads and the field reference omits
    names = _problemspec_names()
    assert {"coeff", "value", "time_geometric", "gamma"} <= names
    assert sorted(n for n in names if f'"{n}"' not in problemspec.__doc__) == []


class TestZeroRule:
    def test_tiny_float_coefficient_counts_at_every_precision(self, tmp_path, capsys):
        # a coefficient is zero only when it equals 0: the term 1e-20 * D_z^4
        # sets the polygon at 64 bits as it does at 256
        doc = json.loads(FRACTIONAL.read_text())
        doc["operator"]["terms"].append({"j": 0, "alpha": [4], "coeff": [1e-20]})
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps(doc))
        reports = []
        for bits in ("64", "256"):
            out = tmp_path / bits
            assert main(["run", str(spec), "--out", str(out), "--n-max", "60",
                         "--precision", bits, "--quiet"]) == 0
            assert capsys.readouterr().err == ""
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[0]["newton_polygon"] == reports[1]["newton_polygon"]
        assert [r["inverse_k1"] for r in reports] == ["7/2", "7/2"]


def _set_data(problem: Path, field: str, value) -> dict:
    doc = json.loads(problem.read_text())
    doc["data"][field] = value
    return doc


GEVREY_HALF = {"kind": "gevrey_factorial", "sigma": "1/2"}
# (problem document, the field path the error line names)
GENERATOR_ERRORS = {
    "polynomial_in_two_variables": (
        _set_data(PRODUCT2D, "initial", [{"kind": "polynomial", "coeffs": ["1", "2"]}]),
        "data.initial[0]"),
    "fractional_sigma_exact": (_set_data(HEAT, "initial", [GEVREY_HALF]), "data.initial[0]"),
    "negative_sigma": (
        _set_data(HEAT, "initial", [{"kind": "gevrey_factorial", "sigma": "-1"}]),
        "data.initial[0]"),
    "fractional_sigma_exact_forcing": (
        _set_data(HEAT, "forcing", {"kind": "time_geometric", "ratio": "1/2",
                                    "space": GEVREY_HALF}),
        "data.forcing.space"),
}


# a placeholder that the file text replaces with a bare JSON number literal
LITERAL = "@literal@"
# the literals json reads as a nan or an infinity (1e400 overflows to inf)
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]
# (edit of heat.json in float mode, the field path the error line names)
NON_FINITE_FIELDS = {
    "operator_coeff": (_set(("operator", "terms", 0, "coeff"), [LITERAL]),
                       "operator.terms[0].coeff[0]"),
    "geometric_ratio": (_set(("data", "initial"), [{"kind": "geometric", "ratio": LITERAL}]),
                        "data.initial[0].ratio"),
    "terms_value": (_set(("data", "initial"), [{"kind": "terms", "terms": [
        {"alpha": [0], "value": LITERAL}]}]), "data.initial[0].terms[0].value"),
    "polynomial_coeff": (_set(("data", "initial"), [{"kind": "polynomial",
                                                     "coeffs": ["1", LITERAL]}]),
                         "data.initial[0].coeffs[1]"),
}


def _edited_heat(*edits) -> str:
    """The text of heat.json after ``edits``."""
    doc = json.loads(HEAT.read_text())
    for edit in edits:
        edit(doc)
    return json.dumps(doc)


# (problem file text, the field its error line names, the rest of the line)
INPUT_ERRORS = {
    "invalid_json": ("{x", "invalid JSON at line 1, column 2",
                     "Expecting property name enclosed in double quotes"),
    "cyclic_moment": (
        _edited_heat(_add_key(("moments",), "a", {"kind": "product", "factors": ["m1", "b"]}),
                     _add_key(("moments",), "b", {"kind": "quotient", "factors": ["a", "m0"]})),
        "moments", "cyclic moment declaration through 'a'"),
    "undeclared_moment": (
        _edited_heat(_add_key(("moments",), "a", {"kind": "product", "factors": ["m1", "g"]})),
        "moments", "reference to undeclared moment function 'g'"),
    "negative_gamma_order": (
        _edited_heat(_set(("moments", "m0"), {"kind": "gamma", "order": "-1"})),
        "moments.m0", "gamma moment order must be >= 0, got -1"),
    "three_operands": (
        _edited_heat(_add_key(("moments",), "a", {"kind": "product",
                                                  "factors": ["m0", "m1", "m1"]})),
        "moments.a", "product/quotient needs exactly two operands"),
    "empty_coeff": (_edited_heat(_set(("operator", "terms", 0, "coeff"), [])),
                    "operator.terms[0].coeff",
                    "no t-coefficient is nonzero, so the term adds nothing"),
    "all_zero_coeff": (_edited_heat(_add_term({"j": 0, "alpha": [1], "coeff": ["0", "0"]})),
                       "operator.terms[1].coeff",
                       "no t-coefficient is nonzero, so the term adds nothing"),
    # entries past the degree 24 that heat reads at --n-max 12, checked but not kept
    "initial_term_wrong_length_past_read_degree": (
        _edited_heat(_set(("data", "initial"), [{"kind": "terms", "terms": [
            {"alpha": [60, 0], "value": "1"}]}])),
        "data.initial[0].terms[0].alpha", "must be a list of 1 integers, got [60, 0]"),
    "forcing_term_negative_past_read_degree": (
        _edited_heat(_set(("data", "forcing"), {"kind": "terms", "terms": [
            {"n": 0, "alpha": [-60], "value": "1"}]})),
        "data.forcing.terms[0].alpha[0]", "must be an integer >= 0, got -60"),
    "initial_term_bad_value_past_read_degree": (
        _edited_heat(_set(("data", "initial"), [{"kind": "terms", "terms": [
            {"alpha": [60], "value": "x"}]}])),
        "data.initial[0].terms[0].value", "cannot parse 'x' as a rational ('p/q')"),
    "polynomial_bad_value_past_read_degree": (
        _edited_heat(_set(("data", "initial"), [{"kind": "polynomial",
                                                 "coeffs": ["1"] * 30 + ["1/0"]}])),
        "data.initial[0].coeffs[30]", "cannot parse '1/0' as a rational ('p/q')"),
    "name_number": (_edited_heat(_set(("name",), 5)), "name", "must be a string, got 5"),
}


class TestGeneratorErrors:
    @staticmethod
    def assert_error_names(tmp_path, capsys, text, field):
        """``mpde run`` on the document ``text`` exits 1 with one error line
        naming ``field`` and writes no artifact; returns the line."""
        spec = tmp_path / "bad.json"
        spec.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), "--n-max", "12", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
        assert "make_series" not in err
        assert not out.exists() or not any(out.iterdir())
        return err

    @pytest.mark.parametrize("doc, field", GENERATOR_ERRORS.values(),
                             ids=GENERATOR_ERRORS.keys())
    def test_error_names_the_field(self, tmp_path, capsys, doc, field):
        self.assert_error_names(tmp_path, capsys, json.dumps(doc), field)

    @pytest.mark.parametrize("literal", NON_FINITE)
    @pytest.mark.parametrize("edit, field", NON_FINITE_FIELDS.values(),
                             ids=NON_FINITE_FIELDS.keys())
    def test_non_finite_float_literal(self, tmp_path, capsys, edit, field, literal):
        doc = json.loads(HEAT.read_text())
        doc["run"]["mode"] = "float"
        edit(doc)
        text = json.dumps(doc).replace(json.dumps(LITERAL), literal)
        assert literal in text
        self.assert_error_names(tmp_path, capsys, text, field)

    @pytest.mark.parametrize("text, field, message", INPUT_ERRORS.values(),
                             ids=INPUT_ERRORS.keys())
    def test_input_error_line(self, tmp_path, capsys, text, field, message):
        err = self.assert_error_names(tmp_path, capsys, text, field)
        assert err == f"error: {field}: {message}\n"


def _initial_terms(*alphas) -> list:
    return [{"kind": "terms", "terms": [{"alpha": [a], "value": "1"} for a in alphas]}]


def _forcing_terms(*alphas) -> dict:
    return {"kind": "terms", "terms": [{"n": 0, "alpha": [a], "value": "1"} for a in alphas]}


# (data field of heat.json, its value, the value with one more entry past the
# degree that --n-max 12 reads: 24 for the initial series, 22 for the forcing)
PAST_READ_DEGREE = {
    "initial_term": ("initial", _initial_terms(0, 1), _initial_terms(0, 1, 60)),
    "forcing_term": ("forcing", _forcing_terms(0), _forcing_terms(0, 60)),
    "polynomial_degree_30": ("initial", [{"kind": "polynomial", "coeffs": ["1"] * 25}],
                             [{"kind": "polynomial", "coeffs": ["1"] * 31}]),
}


class TestDataKinds:
    """Data descriptors that no shipped problem uses, run or materialized."""

    @pytest.mark.parametrize("field, value, past", PAST_READ_DEGREE.values(),
                             ids=PAST_READ_DEGREE.keys())
    def test_entry_past_the_read_degree_checked_not_kept(self, tmp_path, field, value, past):
        artifacts = []
        for k, data in enumerate((value, past)):
            spec, out = tmp_path / f"{k}.json", tmp_path / f"out{k}"
            spec.write_text(json.dumps(_set_data(HEAT, field, data)))
            assert main(["run", str(spec), "--out", str(out), "--n-max", "12", "--quiet"]) == 0
            artifacts.append({name: read(out / name) for name in
                              ("report.json", "coeffs.csv", "bounds.csv", "polygon.svg")})
        assert artifacts[0] == artifacts[1]

    def test_zero_initial_data(self, tmp_path):
        spec = tmp_path / "zero.json"
        spec.write_text(json.dumps(_set_data(HEAT, "initial", [{"kind": "zero"}])))
        assert run_pipeline(spec, tmp_path / "out", n_max=24, quiet=True) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["residual_full"] == "0"
        assert report["verdict"] == "inconclusive"

    def test_gevrey_factorial_half_in_float_mode(self):
        doc = _set_data(HEAT, "initial", [GEVREY_HALF])
        doc["run"].update(mode="float", n_max=12, precision_bits=100)
        spec_file = parse_problem_document(doc)
        with mpmath.workprec(spec_file.run.precision_bits):
            phi = materialize_problem(spec_file).initial[0]
            want = [mpmath.power(math.factorial(l), mpmath.mpf(1) / 2)
                    for l in range(phi.valid_degree + 1)]
        assert [phi.coefficient((l,)) for l in range(phi.valid_degree + 1)] == want
        assert want[3] != mpmath.sqrt(6)   # rounded at 100 bits, not at 256

    def test_float_time_geometric_forcing_at_run_precision(self):
        # the ratio is raised to each power at the run precision, as the
        # geometric initial data are, not multiplied up in double precision
        doc = _set_data(PRODUCT2D, "forcing", {"kind": "time_geometric", "ratio": 0.3})
        doc["run"]["mode"] = "float"
        forcing = materialize_problem(parse_problem_document(doc)).forcing
        assert forcing.n_max == 39
        for k, f_k in enumerate(forcing.coeffs):
            assert f_k.coefficient((0, 0)) == mpmath.mpf(0.3) ** k, k


def _moment_chain(levels: int, reverse: bool = False) -> dict:
    """heat.json with its space moment a chain of ``levels`` nested
    declarations: c0 = Gamma_1, and c_k the product of c_{k-1} and the
    order-0 moment z, declared from c0 up (or from the top down)."""
    doc = json.loads(HEAT.read_text())
    chain = {"c0": {"kind": "gamma", "order": "1"}}
    for k in range(1, levels):
        chain[f"c{k}"] = {"kind": "product", "factors": [f"c{k - 1}", "z"]}
    names = list(chain)[::-1] if reverse else list(chain)
    doc["moments"] = {"m0": doc["moments"]["m0"], "z": {"kind": "gamma", "order": "0"},
                      **{name: chain[name] for name in names}}
    doc["operator"]["space_moments"] = [f"c{levels - 1}"]
    return doc


class TestNestingLimits:
    """Input nested too deeply for a recursive reader ends in an error line."""

    def test_deeply_nested_file(self, tmp_path, capsys):
        TestGeneratorErrors.assert_error_names(
            tmp_path, capsys, "[" * 100000 + "]" * 100000, "top level")

    # c100 is the first declaration more than MAX_MOMENT_DEPTH = 100 deep; from
    # the top down, c1499 is resolved first
    @pytest.mark.parametrize("reverse, field", [(False, "moments.c100"),
                                                (True, "moments.c1499")],
                             ids=["bottom_up", "top_down"])
    def test_long_moment_chain(self, tmp_path, capsys, reverse, field):
        TestGeneratorErrors.assert_error_names(
            tmp_path, capsys, json.dumps(_moment_chain(1500, reverse)), field)

    @pytest.mark.parametrize("reverse", [False, True], ids=["bottom_up", "top_down"])
    def test_moment_chain_at_the_limit_runs(self, reverse):
        assert _assert_clean_exit(_moment_chain(MAX_MOMENT_DEPTH, reverse)) == 0

    def test_self_product_past_the_factor_cap(self, tmp_path, capsys):
        # a_k = a_{k-1} * a_{k-1} from a0 = Gamma_1, so a40 would be Gamma_1^(2^40)
        # with m(2) = 2^(2^40); a7, Gamma_1^128, is the first past the cap
        doc = json.loads(HEAT.read_text())
        moments = {"m0": doc["moments"]["m0"], "a0": {"kind": "gamma", "order": "1"}}
        for k in range(1, 41):
            moments[f"a{k}"] = {"kind": "product", "factors": [f"a{k - 1}"] * 2}
        doc["moments"], doc["operator"]["space_moments"] = moments, ["a40"]
        spec = tmp_path / "deep.json"
        spec.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["run", str(spec), "--out", str(tmp_path / "out"), "--n-max", "12",
                     "--quiet"])
        assert time.perf_counter() - start < 1
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: moments.a7: moment function would be a product of 128 "
                       f"factors; at most {MAX_MOMENT_FACTORS} are allowed\n")


def _paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


PURE_ODE_DOC = json.loads(PURE_ODE.read_text())
FUZZED_DOCS = {"pure_ode": PURE_ODE_DOC, "heat": json.loads(HEAT.read_text())}
SMALL_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3))
# fresh containers each draw: a later edit may write into one
SMALL_JSON = st.one_of(SMALL_SCALARS, st.builds(list), st.builds(dict),
                       st.lists(SMALL_SCALARS, min_size=1, max_size=3))
# a field set on an operator term: an unknown one or its t-derivative power
TERM_FIELDS = st.one_of(st.tuples(st.sampled_from(["ord_override", "truncate", "truncated"]),
                                  SMALL_JSON),
                        st.tuples(st.just("j"), st.integers(0, 3)))


def _object_terms(doc) -> list:
    """The operator terms of ``doc`` that are still objects after earlier edits."""
    operator = doc.get("operator") if isinstance(doc, dict) else None
    terms = operator.get("terms") if isinstance(operator, dict) else None
    return [t for t in terms if isinstance(t, dict)] if isinstance(terms, list) else []


def _assert_clean_exit(doc) -> int:
    """``mpde run`` on ``doc`` raises nothing and exits 0, 2, or 1 with an
    error line; returns the exit code."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "fuzzed.json"
        spec.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(err):
            code = main(["run", str(spec), "--out", str(Path(tmp) / "out"),
                         "--n-max", "12", "--degree", "0", "--quiet"])
    assert code in (0, 1, 2)
    if code == 1:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    return code


class TestFuzzedDocument:
    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(list(_paths(PURE_ODE_DOC))), value=SMALL_JSON)
    def test_one_replaced_subtree(self, path, value):
        doc = json.loads(json.dumps(PURE_ODE_DOC))
        if path:
            _set(path, value)(doc)
        else:
            doc = value
        _assert_clean_exit(doc)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(FUZZED_DOCS)), data=st.data())
    def test_up_to_three_edits(self, name, data):
        doc = json.loads(json.dumps(FUZZED_DOCS[name]))
        for _ in range(data.draw(st.integers(1, 3))):
            terms = _object_terms(doc)
            if terms and data.draw(st.booleans()):
                key, value = data.draw(TERM_FIELDS)
                data.draw(st.sampled_from(terms))[key] = value
                continue
            path = data.draw(st.sampled_from(list(_paths(doc))))
            value = data.draw(SMALL_JSON)
            if path:
                _set(path, value)(doc)
            else:
                doc = value
        _assert_clean_exit(doc)


class TestPrecisionScope:
    def test_main_leaves_precision_unchanged(self, tmp_path, capsys):
        assert main(["run", str(HEAT), "--n-max", "24", "--precision", "128", "--quiet",
                     "--out", str(tmp_path / "ok")]) == 0
        assert mpmath.mp.prec == 256
        bad = tmp_path / "bad.json"
        doc = json.loads(HEAT.read_text())
        doc["operator"]["terms"] = [{"j": 1, "alpha": [1], "coeff": ["1"]}]
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad), "--precision", "128", "--quiet",
                     "--out", str(tmp_path / "bad")]) == 1
        assert mpmath.mp.prec == 256

    def test_pipeline_run_is_pure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec_file = parse_problem_file(HEAT, overrides={"n_max": 24, "precision_bits": 128})
        result = pipeline.run(spec_file)
        assert result.growth.verdict == "consistent"
        assert list(tmp_path.iterdir()) == []
        assert mpmath.mp.prec == 256
