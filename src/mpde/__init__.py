"""mpde: formal power-series solutions of moment PDE Cauchy problems,
Newton polygons, and Gevrey-order growth verification."""

from .moments import (
    ExactValueUnavailable,
    MomentFunction,
    combine,
    gamma_moment,
    regularity_constants,
    tabulated_moment,
)
from .series import (
    MultiSeries,
    generator_series,
    majorizes,
    make_series,
    series_add,
    series_scale,
    sup_bound,
    zero_series,
)
from .operators import (
    OperatorSpec,
    OperatorTerm,
    TimeSeries,
    apply_operator,
    borel_z,
    moment_diff_z,
)
from .polygon import (
    NewtonPolygon,
    build_polygon,
    generator_points,
    inverse_k1,
)
from .solver import (
    CauchyProblem,
    SolutionSeries,
    ValidationFailure,
    ValidationReport,
    borel_problem,
    residual_max_relative,
    solve_formal,
    solve_majorant,
    solve_via_borel,
    validate,
)
from .analysis import (
    BoundWitness,
    FitResult,
    GrowthReport,
    coefficient_bounds,
    decide_verdict,
    fit_gevrey_order,
    intermediate_bound_roots,
    log_bounds,
    make_growth_report,
    moment_derivative_bound_probe,
    verify_gevrey_bound,
)
from .problemspec import (
    ProblemSpecFile,
    RunConfig,
    SpecError,
    materialize_problem,
    parse_problem_file,
)
from .svgrender import render_polygon_svg

__version__ = "0.1.0"
