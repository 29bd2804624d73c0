"""Per-layer tracing for the traced benchmark run.

`Tracer.install()` wraps selected public functions of the `mpde` modules
from outside the package: nothing under `src/` knows it is traced.  Each
wrapped call is a span (name, start, end, parent).  Because product2d opens
millions of kernel spans, spans are folded into per-name totals as they close
instead of being kept in a list:

- a function's self time is its span's duration minus the durations of the
  wrapped spans it directly contains;
- a stage's time is the summed duration of its spans that have no enclosing
  stage span, so the stages partition the pipeline and a solve nested in
  `solve_majorant` counts toward the majorant, not toward the solve.

A wrapped function is rebound in every `mpde.*` module namespace that holds
it, because `cli` and `solver` import names directly.  A function that a
later version of `mpde` removes is skipped, and its metrics are left out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Stage metrics: metric name -> the functions ("module:qualname") whose
# outermost spans it sums.
STAGES = {
    "problemspec.parse_s": ("problemspec:parse_problem_file",),
    "problemspec.materialize_s": ("problemspec:materialize_problem",),
    "solver.validate_s": ("solver:validate",),
    "polygon.build_s": ("polygon:build_polygon", "polygon:inverse_k1"),
    "solver.solve_s": ("solver:solve_formal",),
    "solver.majorant_s": ("solver:solve_majorant",),
    "solver.residual_s": ("solver:residual_max_relative",),
    "series.majorizes_s": ("series:majorizes",),
    "analysis.growth_s": ("analysis:coefficient_bounds", "analysis:make_growth_report",
                          "analysis:fit_gevrey_order"),
    "svgrender.render_s": ("svgrender:render_polygon_svg",),
}

# Kernels and the command-line entry: timed by self time, counted by calls.
KERNELS = (
    "operators:moment_diff_z",
    "operators:apply_operator",
    "moments:MomentFunction.value_exact",
    "moments:MomentFunction.value",
    "series:series_add",
    "series:series_scale",
    "cli:main",
    "cli:run_pipeline",
)

# Functions whose arguments identify a distinct value: (self, n).
_DISTINCT = {"moments:MomentFunction.value_exact", "moments:MomentFunction.value"}


def _values(series):
    coeffs = getattr(series, "coeffs", ())
    return coeffs.values() if isinstance(coeffs, dict) else coeffs


class Tracer:
    """Collects span totals for one traced pipeline run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stage_s = defaultdict(float)
        self.distinct = defaultdict(set)
        self.coeffs_in = 0
        self.solutions = []
        self.installed = set()
        self._stack = []          # open spans: [start, seconds covered by child spans]
        self._stage_depth = 0

    def install(self) -> None:
        """Wrap every listed function that the imported `mpde` still has."""
        stage_of = {target: stage for stage, targets in STAGES.items() for target in targets}
        for target in (*stage_of, *KERNELS):
            module_name, qualname = target.split(":")
            owner = sys.modules.get(f"mpde.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            wrapper = self._wrap(target, fn, stage_of.get(target))
            if path:
                setattr(owner, attr, wrapper)
            else:
                for name, module in list(sys.modules.items()):
                    if (name == "mpde" or name.startswith("mpde.")) and \
                            getattr(module, attr, None) is fn:
                        setattr(module, attr, wrapper)
            self.installed.add(target)

    def _wrap(self, target, fn, stage):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        distinct = self.distinct[target] if target in _DISTINCT else None
        is_diff_z = target == "operators:moment_diff_z"
        is_solve = target == "solver:solve_formal"

        def wrapper(*args, **kwargs):
            outermost = False
            if stage is not None:
                outermost = self._stage_depth == 0
                self._stage_depth += 1
            if distinct is not None:
                distinct.add(args[:2])
            elif is_diff_z and args:
                self.coeffs_in += len(_values(args[0]))
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                calls[target] += 1
                self_s[target] += duration - frame[1]
                if stage is not None:
                    self._stage_depth -= 1
                    if outermost:
                        self.stage_s[stage] += duration
            if is_solve and outermost:
                self.solutions.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics of the finished run, keyed by benchmark metric name."""
        out = {}
        for stage, targets in STAGES.items():
            if any(t in self.installed for t in targets):
                out[stage] = self.stage_s[stage]
        if "solver:validate" in self.installed:
            out["solver.validate.calls"] = self.calls["solver:validate"]
        if "operators:apply_operator" in self.installed:
            out["operators.apply_operator.calls"] = self.calls["operators:apply_operator"]
        if "operators:moment_diff_z" in self.installed:
            out["operators.moment_diff_z.calls"] = self.calls["operators:moment_diff_z"]
            out["operators.moment_diff_z.self_s"] = self.self_s["operators:moment_diff_z"]
            out["operators.moment_diff_z.coeffs_in"] = self.coeffs_in
        for target in ("moments:MomentFunction.value_exact", "moments:MomentFunction.value"):
            if target in self.installed:
                name = "moments." + target.rsplit(".", 1)[1]
                calls = self.calls[target]
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self.self_s[target]
                out[f"{name}.distinct_frac"] = len(self.distinct[target]) / calls if calls else 0.0
        for target in ("series:series_add", "series:series_scale"):
            if target in self.installed:
                name = target.replace(":", ".")
                out[f"{name}.calls"] = self.calls[target]
                out[f"{name}.self_s"] = self.self_s[target]
        if any(t.startswith("cli:") for t in self.installed):
            out["cli.self_s"] = self.self_s["cli:main"] + self.self_s["cli:run_pipeline"]
        if self.solutions:
            out.update(solution_metrics(self.solutions[0]))
        return out


def solution_metrics(sol) -> dict:
    """Useful-work ratio and exact coefficient size of a returned solution."""
    working = [len(_values(c)) for c in sol.working.coeffs]
    reported = [len(_values(c)) for c in sol.u.coeffs]
    bits = 0
    for c in sol.working.coeffs:
        for v in _values(c):
            if hasattr(v, "denominator"):
                bits = max(bits, v.numerator.bit_length() + v.denominator.bit_length())
    total = sum(working)
    return {
        "solver.working_terms": total,
        "solver.reported_frac": sum(reported) / total if total else 0.0,
        "solver.coeff_bits_max": bits,
    }
