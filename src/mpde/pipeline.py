"""The pipeline core: one problem, from its materialized data to the
growth verdict, with no printing and no files.

``run`` carries out the whole argument once, in this order:

1. materialize the problem, which validates it (``solver.validate``);
2. build the Newton polygon and the exact 1/k_1;
3. solve the majorant recurrence and keep only its reported coefficients;
4. solve the coefficient recurrence;
5. check that the majorant dominates the solution on the reported
   coefficients;
6. check that the residual of every working step vanishes;
7. fit the Gevrey order of the bound sequence.

The majorant comes first because domination reads only its reported
coefficients.  Its working steps (the dependency cone) are dropped as soon
as those are sliced out, before the direct solve allocates.  So a run holds
at most one working solution, plus the residual's window of t-orders, and
never two.  Float work runs at the run's
precision inside ``mpmath.workprec``, so the caller's precision is the same
afterwards, also when a stage raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import mpmath
from mpmath import mpf

from .analysis import (FitResult, GrowthReport, coefficient_bounds, fit_gevrey_order,
                       log_bounds, make_growth_report)
from .polygon import NewtonPolygon, build_polygon, inverse_k1
from .problemspec import ProblemSpecFile, RunConfig, materialize_problem
from .series import majorizes
from .solver import SolutionSeries, residual_max_relative, solve_formal, solve_majorant


@dataclass(frozen=True)
class PipelineResult:
    """What the report, the artifacts and the progress lines read."""

    name: str
    run: RunConfig
    polygon: NewtonPolygon
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

    Raises ValueError when the problem fails ``solver.validate`` or a
    stage rejects its input.
    """
    cfg = spec_file.run
    with mpmath.workprec(cfg.precision_bits):
        problem = materialize_problem(spec_file)
        poly = build_polygon(problem.spec)
        inv_k1 = inverse_k1(problem.spec)

        # the majorant first, and only its reported coefficients kept: its
        # working steps are garbage before the direct solve allocates its own
        maj_u = solve_majorant(problem, cfg.n_max, cfg.report_degree).u
        sol = solve_formal(problem, cfg.n_max, cfg.report_degree)
        dominated = all(
            majorizes(maj_u.coeffs[n], sol.u.coeffs[n]) for n in range(sol.n_max + 1)
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
        polygon=poly,
        solution=sol,
        dominated=dominated,
        residual=rel_residual,
        growth=growth,
        forcing_fit=forcing_fit,
    )
