"""The pipeline core: one problem, from validation to the growth verdict,
with no printing and no files.

``run`` carries out the whole argument once: validate the problem, build the
Newton polygon and the exact 1/k_1, solve the coefficient recurrence, check
that the majorant dominates the solution and that the residual vanishes, and
fit the Gevrey order of the bound sequence.  Float work runs at the run's
precision inside ``mpmath.workprec``, so the caller's precision is the same
afterwards, also when a stage raises.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import mpmath
from mpmath import mpf

from .analysis import (FitResult, GrowthReport, coefficient_bounds, fit_gevrey_order,
                       log_bounds, make_growth_report)
from .polygon import NewtonPolygon, build_polygon, inverse_k1
from .problemspec import ProblemSpecFile, RunConfig, materialize_problem
from .series import majorizes
from .solver import (SolutionSeries, ValidationFailure, ValidationReport,
                     residual_max_relative, solve_formal, solve_majorant)


@dataclass(frozen=True)
class PipelineResult:
    """What the report, the artifacts and the progress lines read."""

    name: str
    run: RunConfig
    validation: ValidationReport
    polygon: NewtonPolygon
    polygon_warnings: tuple
    solution: SolutionSeries
    dominated: bool
    residual: mpf
    growth: GrowthReport
    forcing_fit: Optional[FitResult]

    def failed_claims(self) -> list:
        """The paper's claims that this run contradicts, one message each:
        the majorant dominates the solution, and the relative residual is 0
        in exact mode and at most 2^-(prec-32) in float mode."""
        failed = []
        if not self.dominated:
            failed.append("the majorant does not dominate the solution")
        residual = mpmath.nstr(self.residual, 12)
        if self.run.mode == "exact":
            if self.residual != 0:
                failed.append(f"the exact residual is {residual}, not 0")
        elif not self.residual <= mpmath.ldexp(1, 32 - self.run.precision_bits):
            failed.append(f"the float residual {residual} exceeds 2^-(prec-32)")
        return failed


def run(spec_file: ProblemSpecFile) -> PipelineResult:
    """Run every stage on a parsed problem file.

    Raises ValidationFailure when a solvability condition fails and
    ValueError when a stage rejects its input.
    """
    cfg = spec_file.run
    with mpmath.workprec(cfg.precision_bits):
        problem = materialize_problem(spec_file)
        report = problem.validation
        if not report.passed:
            raise ValidationFailure(report)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            poly = build_polygon(problem.spec)
        inv_k1 = inverse_k1(problem.spec)

        sol = solve_formal(problem, cfg.n_max, cfg.report_degree)
        maj = solve_majorant(problem, cfg.n_max, cfg.report_degree)
        dominated = all(
            majorizes(maj.u.coeffs[n], sol.u.coeffs[n]) for n in range(sol.n_max + 1)
        )
        rel_residual = residual_max_relative(problem, sol)

        bounds = coefficient_bounds(sol.u, cfg.radius)
        growth = make_growth_report(bounds, inv_k1, problem.spec.M, problem.spec.m0.order,
                                    cfg.fit_window)

        # the forcing's own order, fitted from the run's window start to its end
        forcing_fit = None
        f_bounds = coefficient_bounds(problem.forcing, cfg.radius)
        lo, hi = cfg.fit_window[0], len(f_bounds) - 1
        if hi >= 8 and hi - lo + 1 >= 8 and any(f_bounds):
            forcing_fit = fit_gevrey_order(log_bounds(f_bounds), (lo, hi))

    return PipelineResult(
        name=spec_file.name,
        run=cfg,
        validation=report,
        polygon=poly,
        polygon_warnings=tuple(str(w.message) for w in caught),
        solution=sol,
        dominated=dominated,
        residual=rel_residual,
        growth=growth,
        forcing_fit=forcing_fit,
    )
