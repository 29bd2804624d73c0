"""Declarative problem files: a single JSON document describing moment
functions, the operator, the Cauchy data, and run parameters.

Orders and exact values are written as "p/q" strings so nothing is lost in
text form; plain integers are accepted too.  Float literals are only legal
in float mode, and must be finite.  Every field must have the JSON type it
is read as: objects, lists, strings, and integers that are not booleans.  An
object may hold only the fields listed for it below: any other key is an
error that names it.  ``problems/heat.json`` is a complete example.  The
fields, with a default after ``=`` where a field may be left out:

    top level   "name" = "problem", "moments", "operator", "data", "run"
    "moments"   name -> {"kind": "gamma", "order": s}, the moment Gamma(1 + s n),
                or {"kind": "product" | "quotient", "factors": [name, name]}
    "operator"  "M" >= 1, "time_moment" (a name), "space_moments" (a name per
                variable), "terms" = [{"j": j, "alpha": [...], "coeff": [...]}]
    "data"      "initial" (M series), "forcing" = {"kind": "zero"}
    a series    {"kind": "zero"}, {"kind": "geometric", "ratio": r} (r^|alpha|),
                {"kind": "polynomial", "coeffs": [...]} (one variable),
                {"kind": "gevrey_factorial", "sigma": s} ((l!)^s on each axis),
                {"kind": "terms", "terms": [{"alpha": [...], "value": v}, ...]}
    "forcing"   {"kind": "zero"}, {"kind": "time_geometric", "ratio": r, "space":
                series = 1} (r^n times the series), or {"kind": "terms", "terms":
                [{"n": n, "alpha": [...], "value": v}, ...]}
    "run"       "n_max" >= 1, "report_degree" = 0, "mode" = "exact" | "float",
                "precision_bits" = 256, "radius" = "1/2",
                "fit_window" = [max(1, n_max // 4), n_max]

A term is a_{j,alpha}(t) D_t^j D_z^alpha, and its "coeff" lists the
t-coefficients of the polynomial a_{j,alpha}, zero past the end of the list:
a coefficient that is not a polynomial has to be written out to
t^(n_max - M), the highest power that a run to n_max reads.  The data are
built to the z-degree that the run reads (``solver.degree_envelope``) and
the forcing to the last t-order it reads: a "terms" entry or "polynomial"
coefficient past either is checked like any other, but not kept, so whether
a file is valid does not depend on n_max.  A product or
quotient moment resolves to the normal form of ``moments.combine``, a
product of gamma powers with at most ``moments.MAX_MOMENT_FACTORS`` (64)
factors.  Declarations nest at most ``MAX_MOMENT_DEPTH`` (100) deep: a gamma
moment is one level, and a product or quotient one more than its deeper
operand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .moments import MomentFunction, combine, gamma_moment
from .operators import OperatorSpec, OperatorTerm, TimeSeries
from .precision import DEFAULT_PRECISION_BITS, to_number
from .series import MultiSeries, generator_series, make_series, series_scale, zero_series
from .solver import CauchyProblem, degree_envelope


class SpecError(ValueError):
    """Malformed problem file; the message names the offending field."""


# the deepest nesting of moment declarations that a problem file may use
MAX_MOMENT_DEPTH = 100


@dataclass(frozen=True)
class RunConfig:
    n_max: int
    report_degree: int
    precision_bits: int
    radius: Fraction
    fit_window: tuple
    mode: str


@dataclass(frozen=True)
class ProblemSpecFile:
    name: str
    operator: OperatorSpec
    initial_descriptors: tuple
    forcing_descriptor: dict
    run: RunConfig


def _fail(path: str, msg: str):
    raise SpecError(f"{path}: {msg}")


def _only(obj: dict, path: str, *fields: str) -> dict:
    """``obj``, once it is an object holding no key but ``fields``."""
    if not isinstance(obj, dict):
        _fail(path, f"must be an object, got {obj!r}")
    for key in obj:
        if key not in fields:
            _fail(path, f"unknown field {key!r}")
    return obj


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    if not isinstance(obj, dict):
        _fail(path, f"must be an object, got {obj!r}")
    if key not in obj:
        if required:
            _fail(path, f"missing field {key!r}")
        return default
    return obj[key]


def _parse_int(value, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        _fail(path, f"must be an integer >= {minimum}, got {value!r}")
    return value


def _parse_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"must be a list, got {value!r}")
    return value


def _parse_name(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"must be a moment function name, got {value!r}")
    return value


def _parse_index(value, dim: int, path: str) -> tuple:
    """A multi-index: a list of dim nonnegative integers."""
    if not isinstance(value, list) or len(value) != dim:
        _fail(path, f"must be a list of {dim} integers, got {value!r}")
    return tuple(_parse_int(a, f"{path}[{k}]") for k, a in enumerate(value))


def _parse_fraction(value, path: str) -> Fraction:
    if isinstance(value, bool):
        _fail(path, "expected a rational, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(path, f"cannot parse {value!r} as a rational ('p/q')")
    _fail(path, f"orders and exact values must be 'p/q' strings or integers, got {value!r}")


def _parse_value(value, mode: str, path: str):
    """A coefficient literal: rational text always; bare floats in float mode."""
    if isinstance(value, bool):
        _fail(path, "expected a number, got a boolean")
    if isinstance(value, (int, str)):
        return _parse_fraction(value, path)
    if isinstance(value, float):
        if mode != "float":
            _fail(path, "float literals are only allowed in float mode; use 'p/q'")
        # json reads NaN, Infinity and out-of-range literals such as 1e400
        if not math.isfinite(value):
            _fail(path, f"must be a finite number, got {value!r}")
        return value
    _fail(path, f"cannot parse value {value!r}")


def _parse_moments(section: dict, path: str) -> dict:
    if not isinstance(section, dict):
        _fail(path, "must be an object of name -> declaration")
    resolved: dict = {}
    depths: dict = {}   # name -> levels of a resolved product or quotient

    def resolve(name: str, trail: tuple) -> MomentFunction:
        # trail[0], the declaration being resolved, nests at least this deep
        if len(trail) + depths.get(name, 1) > MAX_MOMENT_DEPTH:
            _fail(f"{path}.{(trail or (name,))[0]}",
                  f"moment declarations nest more than {MAX_MOMENT_DEPTH} deep")
        if name in resolved:
            return resolved[name]
        if name in trail:
            _fail(path, f"cyclic moment declaration through {name!r}")
        if name not in section:
            _fail(path, f"reference to undeclared moment function {name!r}")
        decl = section[name]
        where = f"{path}.{name}"
        kind = _get(decl, "kind", where)
        if kind == "gamma":
            _only(decl, where, "kind", "order")
            order = _parse_fraction(_get(decl, "order", where), f"{where}.order")
            try:
                m = gamma_moment(order)
            except ValueError as exc:
                _fail(where, str(exc))
        elif kind in ("product", "quotient"):
            _only(decl, where, "kind", "factors")
            names = _parse_list(_get(decl, "factors", where), f"{where}.factors")
            if len(names) != 2:
                _fail(where, "product/quotient needs exactly two operands")
            children = [resolve(_parse_name(n, where), trail + (name,)) for n in names]
            depths[name] = 1 + max(depths.get(n, 1) for n in names)
            try:
                m = combine(children[0], children[1], kind)
            except ValueError as exc:
                _fail(where, str(exc))
        else:
            _fail(where, f"unknown moment kind {kind!r}")
        resolved[name] = m
        return m

    for name in section:
        resolve(name, ())
    return resolved


def _parse_operator(section: dict, moments: dict, mode: str, path: str) -> OperatorSpec:
    _only(section, path, "M", "time_moment", "space_moments", "terms")
    M = _parse_int(_get(section, "M", path), f"{path}.M", minimum=1)
    tm_name = _parse_name(_get(section, "time_moment", path), f"{path}.time_moment")
    if tm_name not in moments:
        _fail(f"{path}.time_moment", f"undeclared moment function {tm_name!r}")
    sm_names = _get(section, "space_moments", path)
    if not isinstance(sm_names, list) or not sm_names:
        _fail(f"{path}.space_moments", "must be a nonempty list of moment names")
    for nm in sm_names:
        if _parse_name(nm, f"{path}.space_moments") not in moments:
            _fail(f"{path}.space_moments", f"undeclared moment function {nm!r}")
    dim = len(sm_names)
    terms = []
    raw_terms = _get(section, "terms", path, required=False, default=[])
    for i, t in enumerate(_parse_list(raw_terms, f"{path}.terms")):
        where = f"{path}.terms[{i}]"
        _only(t, where, "j", "alpha", "coeff")
        j = _parse_int(_get(t, "j", where), f"{where}.j")
        alpha = _parse_index(_get(t, "alpha", where), dim, f"{where}.alpha")
        coeff_raw = _parse_list(_get(t, "coeff", where), f"{where}.coeff")
        coeff = tuple(_parse_value(c, mode, f"{where}.coeff[{k}]")
                      for k, c in enumerate(coeff_raw))
        try:
            terms.append(OperatorTerm(j=j, alpha=alpha, coeff=coeff))
        except ValueError as exc:   # j and alpha are checked above: coeff is all zero
            _fail(f"{where}.coeff", str(exc))
    try:
        return OperatorSpec(M=M, m0=moments[tm_name],
                            m=tuple(moments[nm] for nm in sm_names), terms=tuple(terms))
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_run(section: dict, path: str) -> RunConfig:
    _only(section, path, "n_max", "report_degree", "mode", "precision_bits", "radius",
          "fit_window")
    n_max = _parse_int(_get(section, "n_max", path), f"{path}.n_max", minimum=1)
    report_degree = _parse_int(section.get("report_degree", 0), f"{path}.report_degree")
    mode = section.get("mode", "exact")
    if mode not in ("exact", "float"):
        _fail(f"{path}.mode", f"mode must be 'exact' or 'float', got {mode!r}")
    bits = _parse_int(section.get("precision_bits", DEFAULT_PRECISION_BITS),
                      f"{path}.precision_bits", minimum=16)
    radius = _parse_fraction(section.get("radius", "1/2"), f"{path}.radius")
    if radius <= 0:
        _fail(f"{path}.radius", "radius must be positive")
    window = section.get("fit_window")
    if window is not None and (not isinstance(window, list) or len(window) != 2
                               or not all(isinstance(w, int) and not isinstance(w, bool)
                                          for w in window)):
        _fail(f"{path}.fit_window", "must be [lo, hi] with integer entries")
    if window is None or window[1] > n_max:
        window = [max(1, n_max // 4), n_max]
    if window[0] < 0 or window[1] - window[0] + 1 < 8:
        _fail(f"{path}.fit_window", f"fit window {window} must start at n >= 0 and span "
              f"at least 8 points (n_max {n_max})")
    return RunConfig(n_max=n_max, report_degree=report_degree, precision_bits=bits,
                     radius=radius, fit_window=(window[0], window[1]), mode=mode)


def parse_problem_file(path, overrides=None) -> ProblemSpecFile:
    """Parse a problem file; ``overrides`` replaces fields of its run block.

    Overridden fields go through the same checks as the file's own; None
    values leave the file's field as it is.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SpecError("top level: problem file nests too deeply to parse") from exc
    if overrides and isinstance(doc, dict) and isinstance(doc.get("run"), dict):
        doc["run"] = {**doc["run"], **{k: v for k, v in overrides.items() if v is not None}}
    return parse_problem_document(doc)


def parse_problem_document(doc: dict) -> ProblemSpecFile:
    if not isinstance(doc, dict):
        raise SpecError("top level: problem file must be a JSON object")
    _only(doc, "top level", "name", "moments", "operator", "data", "run")
    run = _parse_run(_get(doc, "run", "run"), "run")
    moments = _parse_moments(_get(doc, "moments", "moments"), "moments")
    operator = _parse_operator(_get(doc, "operator", "operator"), moments, run.mode, "operator")
    data = _only(_get(doc, "data", "data"), "data", "initial", "forcing")
    initial = _get(data, "initial", "data")
    if not isinstance(initial, list) or len(initial) != operator.M:
        _fail("data.initial", f"need exactly M = {operator.M} initial series")
    forcing = _get(data, "forcing", "data", required=False, default={"kind": "zero"})
    name = doc.get("name", "problem")
    if not isinstance(name, str):
        _fail("name", f"must be a string, got {name!r}")
    return ProblemSpecFile(
        name=name,
        operator=operator,
        initial_descriptors=tuple(initial),
        forcing_descriptor=forcing,
        run=run,
    )


def _materialize_generator(desc: dict, dim: int, degree: int, mode: str, path: str) -> MultiSeries:
    kind = _get(desc, "kind", path)
    if kind == "zero":
        _only(desc, path, "kind")
        return zero_series(dim, degree, mode)
    if kind == "geometric":
        _only(desc, path, "kind", "ratio")
        params = {"ratio": _parse_value(_get(desc, "ratio", path), mode, f"{path}.ratio")}
    elif kind == "polynomial":
        _only(desc, path, "kind", "coeffs")
        coeffs = [_parse_value(c, mode, f"{path}.coeffs[{k}]")
                  for k, c in enumerate(_parse_list(_get(desc, "coeffs", path),
                                                    f"{path}.coeffs"))]
        # a coefficient past the degree the run reads is checked, not kept
        params = {"coeffs": coeffs[:degree + 1]}
    elif kind == "gevrey_factorial":
        _only(desc, path, "kind", "sigma")
        params = {"sigma": _parse_fraction(_get(desc, "sigma", path), f"{path}.sigma")}
    elif kind == "terms":
        _only(desc, path, "kind", "terms")
        table = {}
        for k, entry in enumerate(_parse_list(_get(desc, "terms", path), f"{path}.terms")):
            where = f"{path}.terms[{k}]"
            _only(entry, where, "alpha", "value")
            alpha = _parse_index(_get(entry, "alpha", where), dim, f"{where}.alpha")
            value = _parse_value(_get(entry, "value", where), mode, f"{where}.value")
            # an entry past the degree the run reads is checked, not kept
            if sum(alpha) <= degree:
                table[alpha] = value
        return make_series(dim, table, degree, mode)
    else:
        _fail(path, f"unknown series kind {kind!r}")
    try:
        return generator_series(kind, dim, degree, mode, **params)
    except ValueError as e:
        _fail(path, str(e))


def _materialize_forcing(desc: dict, dim: int, n_top: int, degree: int, mode: str,
                         path: str) -> TimeSeries:
    kind = _get(desc, "kind", path)
    if kind == "zero":
        _only(desc, path, "kind")
        return TimeSeries((zero_series(dim, degree, mode),) * (n_top + 1))
    if kind == "time_geometric":
        _only(desc, path, "kind", "ratio", "space")
        ratio = _parse_value(_get(desc, "ratio", path), mode, f"{path}.ratio")
        space_desc = desc.get("space", {"kind": "terms",
                                        "terms": [{"alpha": [0] * dim, "value": "1"}]})
        space = _materialize_generator(space_desc, dim, degree, mode, f"{path}.space")
        c = to_number(ratio, mode)
        return TimeSeries(tuple(series_scale(space, c ** k) for k in range(n_top + 1)))
    if kind == "terms":
        _only(desc, path, "kind", "terms")
        tables: dict = {}
        for k, entry in enumerate(_parse_list(_get(desc, "terms", path), f"{path}.terms")):
            where = f"{path}.terms[{k}]"
            _only(entry, where, "n", "alpha", "value")
            n = _parse_int(_get(entry, "n", where), f"{where}.n")
            alpha = _parse_index(_get(entry, "alpha", where), dim, f"{where}.alpha")
            value = _parse_value(_get(entry, "value", where), mode, f"{where}.value")
            # an entry past the last order or the degree the run reads is checked, not kept
            if n <= n_top and sum(alpha) <= degree:
                tables.setdefault(n, {})[alpha] = value
        out = []
        for n in range(n_top + 1):
            out.append(make_series(dim, tables.get(n, {}), degree, mode))
        return TimeSeries(tuple(out))
    _fail(path, f"unknown forcing kind {kind!r}")


def materialize_problem(spec_file: ProblemSpecFile) -> CauchyProblem:
    """Build the CauchyProblem to the degrees that the run reads.

    Every initial series is materialized to the largest
    ``solver.degree_envelope`` of the steps below M, and every forcing
    coefficient to the largest of the steps from M on (the report degree if
    the run reads none).
    """
    run = spec_file.run
    op = spec_file.operator
    dim = op.dim
    envelope = degree_envelope(op, run.n_max, run.report_degree)
    initial = tuple(
        _materialize_generator(desc, dim, max(envelope[:op.M]), run.mode, f"data.initial[{j}]")
        for j, desc in enumerate(spec_file.initial_descriptors)
    )
    n_top = max(0, run.n_max - op.M)
    forcing = _materialize_forcing(spec_file.forcing_descriptor, dim, n_top,
                                   max(envelope[op.M:], default=run.report_degree),
                                   run.mode, "data.forcing")
    return CauchyProblem(spec=op, initial=initial, forcing=forcing)
