"""Command line pipeline: parse a problem file, run the pipeline core
(``pipeline.run``), and write the report artifacts.

Artifacts written to the output directory:
  report.json   validation results, polygon data, exact 1/k_1 ("p/q"),
                fitted order/constants, the residual (also unrounded, as
                "residual_full"), verdicts
  coeffs.csv    solution coefficients, one row per (n, alpha)
  bounds.csv    the bound sequence b_n used for fitting
  polygon.svg   deterministic rendering of the Newton polygon

Exit status: 0 when the fitted order is consistent with 1/k_1 (or the fit is
inconclusive), 2 when inconsistent, 1 with an ``error:`` line on stderr for
input or validation errors (no artifacts are written then), and 3 with an
``error: self-check failed: ...`` line when the run contradicts a claim it
checks: the majorant does not dominate the solution, or the residual is
nonzero in exact mode or above 2^-(prec-32) relative in float mode (the
artifacts are written first).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from . import analysis, pipeline
from .precision import to_mpf
from .problemspec import parse_problem_file
from .series import coefficient_rows
from .solver import ValidationFailure
from .svgrender import render_polygon_svg


def _frac_str(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _float_str(x) -> str:
    return mpmath.nstr(x, 12) if x is not None else "n/a"


def _binary_str(x) -> str:
    """The nonnegative mpf x without rounding: "man*2^exp" ("0" for zero,
    "+inf" for infinity)."""
    if x == 0:
        return "0"
    if not mpmath.isfinite(x):
        return str(x)
    return f"{x.man}*2^{x.exp}"


def _fit_dict(fit: analysis.FitResult) -> dict:
    return {
        "ok": fit.ok,
        "s_hat": float(fit.s_hat) if fit.ok else None,
        "stderr": float(fit.stderr) if fit.ok else None,
        "log_H": float(fit.log_h) if fit.ok else None,
        "log_C": float(fit.log_c) if fit.ok else None,
        "window": list(fit.window),
        "points_used": fit.n_used,
        "zero_entries": fit.zero_count,
        "note": fit.note,
    }


def _report_dict(result: pipeline.PipelineResult) -> dict:
    """The contents of report.json."""
    run, poly, sol, growth = result.run, result.polygon, result.solution, result.growth
    return {
        "problem_name": result.name,
        "arithmetic_mode": run.mode,
        "precision_bits": run.precision_bits,
        "n_max": run.n_max,
        "report_degree": run.report_degree,
        "radius": _frac_str(run.radius),
        "validation": {
            "passed": result.validation.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in result.validation.checks
            ],
        },
        "newton_polygon": {
            "points": [[_frac_str(x), _frac_str(y)] for x, y in poly.points],
            "vertices": [[_frac_str(x), _frac_str(y)] for x, y in poly.vertices],
            "slopes": [_frac_str(k) for k in poly.slopes],
        },
        "inverse_k1": _frac_str(growth.inverse_k1),
        "d": _frac_str(growth.d),
        "solution": {
            "n_max": sol.n_max,
            "report_degree": sol.report_degree,
            "working_degrees": list(sol.valid_degrees),
        },
        "residual": {
            "max_relative": _float_str(result.residual),
            "exact_zero": result.residual == 0,
        },
        "residual_full": _binary_str(result.residual),
        "majorant_dominates": result.dominated,
        "fit": _fit_dict(growth.fit),
        "gevrey_bound_witness": {
            "order": _frac_str(growth.witness.order),
            "H": _float_str(growth.witness.H),
            "C": _float_str(growth.witness.C),
            "bounded": growth.witness.bounded,
        },
        "intermediate_bound": {
            "d": _frac_str(growth.intermediate.d),
            "bounded": growth.intermediate.bounded,
            "tail_max": _float_str(growth.intermediate.tail_max),
            "middle_max": _float_str(growth.intermediate.middle_max),
        },
        "forcing_fit": _fit_dict(result.forcing_fit) if result.forcing_fit is not None else None,
        "verdict": growth.verdict,
    }


def _write_artifacts(result: pipeline.PipelineResult, out: Path) -> None:
    """Write the four artifacts; the CSVs format at the run's precision (mp.dps + 2)."""
    out.mkdir(parents=True, exist_ok=True)
    with mpmath.workprec(result.run.precision_bits):
        with open(out / "report.json", "w") as fh:
            json.dump(_report_dict(result), fh, indent=2, sort_keys=True)
            fh.write("\n")

        sol = result.solution
        with open(out / "coeffs.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n"] + [f"alpha_{j + 1}" for j in range(sol.u.dim)]
                            + ["re", "im"])
            for n, series_n in enumerate(sol.u.coeffs):
                for row in coefficient_rows(series_n):
                    writer.writerow([str(n)] + row)

        with open(out / "bounds.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "b_n"])
            for n, b in enumerate(result.growth.bounds):
                writer.writerow([str(n), mpmath.nstr(to_mpf(b), mpmath.mp.dps + 2)])

    with open(out / "polygon.svg", "w") as fh:
        fh.write(render_polygon_svg(result.polygon))


def run_pipeline(spec_path, out_dir, *, n_max=None, degree=None, precision=None,
                 radius=None, mode=None, quiet=False) -> int:
    """Full pipeline; returns the process exit code.

    The keyword arguments override the file's run block and are checked like it.
    """
    overrides = {"n_max": n_max, "report_degree": degree, "precision_bits": precision,
                 "radius": radius, "mode": mode}
    try:
        result = pipeline.run(parse_problem_file(spec_path, overrides))
    except ValidationFailure as exc:
        for check in exc.report.checks:
            if not check.passed:
                print(f"error: condition {check.name} {check.detail}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for message in result.polygon_warnings:
        print(f"warning: {message}", file=sys.stderr)
    growth = result.growth
    if not quiet:
        print(f"{result.name}: 1/k1 = {_frac_str(growth.inverse_k1)} "
              f"(slopes: {', '.join(str(k) for k in result.polygon.slopes) or 'none'})")
        print(f"fit: s_hat = {growth.fit.s_hat if growth.fit.ok else 'n/a'} "
              f"(stderr {growth.fit.stderr if growth.fit.ok else 'n/a'}); "
              f"verdict: {growth.verdict}")

    out = Path(out_dir)
    try:
        _write_artifacts(result, out)
    except OSError as exc:
        print(f"error: cannot write artifacts to {out}: {exc}", file=sys.stderr)
        return 1
    if not quiet:
        print(f"artifacts written to {out}")
    failed = result.failed_claims()
    if failed:
        print(f"error: self-check failed: {'; '.join(failed)}", file=sys.stderr)
        return 3
    return 2 if growth.verdict == "inconsistent" else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpde",
        description="Formal solutions of moment PDE Cauchy problems and "
                    "Gevrey-order verification against the Newton polygon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the full pipeline on a problem file")
    run_p.add_argument("spec", help="path to the JSON problem file")
    run_p.add_argument("--out", default="mpde_out", help="output directory")
    run_p.add_argument("--n-max", type=int, default=None, help="override run.n_max")
    run_p.add_argument("--degree", type=int, default=None, help="override run.report_degree")
    run_p.add_argument("--precision", type=int, default=None, help="override precision bits")
    run_p.add_argument("--radius", default=None, help="override the report radius (p/q)")
    run_p.add_argument("--mode", choices=("exact", "float"), default=None,
                       help="override the arithmetic mode")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    return run_pipeline(args.spec, args.out, n_max=args.n_max, degree=args.degree,
                        precision=args.precision, radius=args.radius,
                        mode=args.mode, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
