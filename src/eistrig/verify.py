"""End-to-end verification of the construction, reported as machine-readable items.

Each check produces one report item:

    residual  -- the worst observed deviation for that identity
    bound     -- what the deviation is allowed to be (carried error bound)
    status    -- "pass" iff residual <= bound, "inconclusive" when the
                 evaluation itself could not settle the question

For grid checks the reported pair belongs to the worst-margin point (the one
maximizing residual - bound, compared on the exact balls), so a passing report
shows the tightest call made; the four that read f share one check_jet per
grid point.  Margin-style checks (strip decay, route agreement) report a
signed margin against a zero bound; negative means passing with room.

Every check runs on every invocation; a check that raises is recorded as
inconclusive, never dropped.  The single check that consults a stored
platform-derived constant (`pi_reference`) is omitted when
``self_contained`` is set, which is the point of that mode.

Report serialization is deterministic: identical configurations produce
byte-identical JSON and text apart from the ``generated_at`` field, and all
reals are rendered as decimal strings.

A run and every table import no mpmath: each check takes the grid as exact
pairs (re, im, W), formed once from the rational grid, and the printing
module prints every decimal from the dyadic tuples of the balls, with the
digits that mpmath's nstr prints; only the worst item's point is formatted.
"""

from __future__ import annotations

import datetime
import functools
import io
import json
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ConfigurationError, EistrigError
from .fixedpoint import fixed_balls, floor_abs, to_ball
from .lattice import (check_jet, eisenstein_k, first_order_ode_residual, naive_symmetric_value,
                      nonvanishing_scan, second_order_ode_residual, strip_decay)
from .laurent import (combination_first_order, combination_second_order,
                      implied_identities)
from .precision import (ZERO, BoundedValue, PrecisionContext, Record, _quotient, dyadic, read_real,
                        to_pair)
from .printing import _digits, format_real, modulus, nstr, str_real
from .sympoly import SymbolPoly, render_poly
from .trig import (cosec_identity_check, cosine, evaluator, ivp_initial_data,
                   ivp_residual, pythagoras_residual, reciprocal_ode_residual,
                   taylor_cosine)
from .zetasums import coeff_a

#: decimal digits of pi, kept only for the pi_reference check (clearly
#: labeled in its report item as the sole platform-derived comparison)
PI_REFERENCE_DECIMAL = (
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
)

_REPORT_SCHEMA = 1


class RunConfig(Record):
    """Configuration of one verification run (also echoed into the report)."""

    __slots__ = ("precision_bits", "tolerance", "symbolic_order", "real_points",
                 "complex_points", "y_values", "route_points", "self_contained", "perturb_a0")

    def __init__(self, precision_bits: int = 128, tolerance: str = "1e-12",
                 symbolic_order: int = 8, real_points: int = 64, complex_points: int = 16,
                 y_values: tuple = (1, 2, 5, 10, 50, 100), route_points: int = 41,
                 self_contained: bool = False, perturb_a0: str | None = None):
        self._set(precision_bits, tolerance, symbolic_order, real_points, complex_points,
                  y_values, route_points, self_contained, perturb_a0)

    def context(self) -> PrecisionContext:
        if self.symbolic_order % 2 or not 6 <= self.symbolic_order <= 16:
            raise ConfigurationError(
                f"symbolic order must be an even integer in [6, 16], got {self.symbolic_order!r}")
        if self.real_points < 2 or self.complex_points < 0 or self.route_points < 2:
            raise ConfigurationError("grid sizes must be positive (>= 2 real points)")
        if not self.y_values or any(y < 1 for y in self.y_values):
            raise ConfigurationError("strip heights must be >= 1")
        if self.perturb_a0 is not None:
            try:
                _, man, exp, _ = read_real(self.perturb_a0, 128)
                if exp and not man:
                    raise ValueError("a non-finite perturbation")
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(
                    f"perturbation not parseable as a real number: {self.perturb_a0!r}") from exc
        return PrecisionContext(self.precision_bits, self.tolerance)

    def real_grid(self) -> list[Fraction]:
        """Evenly spaced rationals on [1/20, 19/20] (poles excluded)."""
        lo, span, n = Fraction(1, 20), Fraction(9, 10), self.real_points
        return [lo + i * span / (n - 1) for i in range(n)]

    def complex_grid(self) -> list[tuple[Fraction, Fraction]]:
        """A product grid over [1/10, 9/10] x [1/10, 2] i, row-major in re."""
        n = self.complex_points
        if n == 0:
            return []
        m_re = max(1, int(n ** 0.5))
        m_im = -(-n // m_re)
        res = [Fraction(1, 10) + j * Fraction(8, 10) / max(1, m_re - 1) for j in range(m_re)]
        ims = [Fraction(1, 10) + l * Fraction(19, 10) / max(1, m_im - 1) for l in range(m_im)]
        pts = [(re, im) for re in res for im in ims]
        return pts[:n]

    def echo(self) -> dict:
        """The fields in order, as the report echoes them."""
        return dict(zip(self.__slots__, self._fields()), y_values=list(self.y_values))


class ReportItem(Record):
    __slots__ = ("check_id", "identity", "parameters", "residual", "bound", "status")

    def __init__(self, check_id: str, identity: str, parameters: Mapping[str, object],
                 residual: str, bound: str, status: str):  # "pass" | "fail" | "inconclusive"
        self._set(check_id, identity, parameters, residual, bound, status)


class VerificationReport(Record):
    __slots__ = ("schema", "generated_at", "config", "items", "suite_status")

    def __init__(self, schema: int, generated_at: str, config: Mapping[str, object],
                 items: tuple, suite_status: str):
        self._set(schema, generated_at, config, items, suite_status)

    def passed(self) -> bool:
        return self.suite_status == "pass"


def _ball_item(check_id: str, identity: str, parameters: dict,
               labeled: Sequence[tuple[object, BoundedValue]],
               ctx: PrecisionContext) -> ReportItem:
    """Worst-margin item over balls labeled by a string or a grid point (an
    exact pair, printed for the worst item alone): pass iff every |value| <=
    radius, margins floor|value| - radius and verdict from the exact balls at
    one scale."""
    _, balls = fixed_balls([bv for _, bv in labeled])
    worst = max(range(len(balls)), key=lambda i: floor_abs(*balls[i][:2]) - balls[i][2])
    worst_label, worst_bv = labeled[worst]
    params = dict(parameters, points=len(labeled),
                  worst_at=worst_label if isinstance(worst_label, str) else nstr(worst_label))
    status = "pass" if all(re * re + im * im <= err * err for re, im, err in balls) else "fail"
    return ReportItem(check_id, identity, params,
                      residual=format_real(modulus(worst_bv.re, worst_bv.im, worst_bv.prec), ctx),
                      bound=format_real(worst_bv.rad, ctx), status=status)


def _margin_item(check_id: str, identity: str, parameters: dict,
                 labeled: Sequence[tuple[str, int]], P: int,
                 ctx: PrecisionContext) -> ReportItem:
    """Worst signed margin against a zero bound, the exact margins m 2^-P
    each rounded up once to the precision: pass iff every margin <= 0."""
    worst_label, worst = max(((label, _rounded(m, ctx.precision, True)) for label, m in labeled),
                             key=lambda item: item[1])
    params = dict(parameters, cases=len(labeled), worst_at=worst_label)
    status = "pass" if worst <= 0 else "fail"
    return ReportItem(check_id, identity, params,
                      residual=format_real(dyadic(worst, -P), ctx), bound="0", status=status)


# -- individual checks ------------------------------------------------------------


def _check_pole_cancellation(config: RunConfig, ctx: PrecisionContext, combinations) -> ReportItem:
    order = config.symbolic_order
    a0, a1, a2 = (SymbolPoly.symbol(i) for i in range(3))
    c2, c1 = combinations
    mismatches = []
    for d in range(-4, 0):
        if not c2.coefficient(d).is_zero():
            mismatches.append(f"second-order z^{d}")
    if c2.coefficient(0) != a0 * a0 * 6 - a1 * 10:
        mismatches.append("second-order constant")
    for d in range(-6, -2):
        if not c1.coefficient(d).is_zero():
            mismatches.append(f"first-order z^{d}")
    if c1.coefficient(-2) != a0 * a0 * 12 - a1 * 20:
        mismatches.append("first-order z^-2")
    if c1.coefficient(0) != a0 * a0 * a0 * 8 - a2 * 28:
        mismatches.append("first-order constant")
    params = {
        "order": order,
        "second_order_constant": render_poly(c2.coefficient(0)),
        "first_order_constant": render_poly(c1.coefficient(0)),
    }
    if mismatches:
        params["mismatches"] = mismatches
    return ReportItem(
        "pole_cancellation",
        "all pole parts of f''-6f^2+12a0 f and (f')^2-4f^3+12a0 f^2 cancel exactly",
        params, residual=str(len(mismatches)), bound="0",
        status="pass" if not mismatches else "fail")


def _check_implied_identities(config: RunConfig, ctx: PrecisionContext, combinations) -> ReportItem:
    relations = implied_identities(config.symbolic_order, *combinations)
    max_symbol = max(r.max_symbol() for r in relations)
    sign, man, exp, bc = ctx._tol
    sub = ctx.refined((sign, man, exp - 12, bc))  # tolerance / 4096
    a_values = [coeff_a(d, sub) for d in range(max_symbol + 1)]
    labeled = [(render_poly(r), r.substitute(a_values, ctx)) for r in relations]
    return _ball_item(
        "implied_identities",
        "coefficient relations forced by pole cancellation vanish numerically",
        {"order": config.symbolic_order}, labeled, ctx)


def _rounded(x: int, prec: int, up: bool) -> int:
    """x rounded once to prec bits, up (toward +inf) or down, at its scale."""
    n = abs(x).bit_length() - prec
    if n <= 0:
        return x
    return -(-x >> n) << n if up else x >> n << n


def _check_strip_decay(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    reports = strip_decay(config.y_values, Fraction(1, 2), ctx)
    # each margin exact, at one scale, from the dyadic |f| balls and the majorants' lower ends
    S, balls = fixed_balls([rep.f_magnitude for rep in reports])
    P = max([S] + [rep.majorant[2] for rep in reports])
    upper = [v + r << P - S for v, _, r in balls]
    lower = [max(v - r, 0) << P - S for v, _, r in balls]
    ys = [str_real(rep.height, rep.prec) for rep in reports]
    margins = [(f"domination at y={y}", up - (low << P - Q))
               for y, up, (low, _, Q) in zip(ys, upper, (rep.majorant for rep in reports))]
    margins += [(f"decrease y={y0} -> y={y1}", up - low)
                for y1, y0, up, low in zip(ys[1:], ys, upper[1:], lower)]
    return _margin_item(
        "strip_decay",
        "|f(1/2 + iy)| is dominated by the explicit lattice majorant and decreasing in y",
        {"y_values": ",".join(str(y) for y in config.y_values)}, margins, P, ctx)


def _check_ode_second_order(config: RunConfig, ctx: PrecisionContext,
                            grid: Sequence, jet: Callable) -> ReportItem:
    shift = ctx.exact(config.perturb_a0) if config.perturb_a0 is not None else 0
    labeled = [(zp, second_order_ode_residual(zp, ctx, shift, jet(zp))) for zp in grid]
    params = {} if config.perturb_a0 is None else {"perturb_a0": config.perturb_a0}
    return _ball_item("ode_second_order", "f'' - 6 f^2 + 12 a0 f = 0 on the grid",
                      params, labeled, ctx)


def _check_ode_first_order(config: RunConfig, ctx: PrecisionContext,
                           grid: Sequence, jet: Callable) -> ReportItem:
    labeled = [(zp, first_order_ode_residual(zp, ctx, jet(zp))) for zp in grid]
    return _ball_item("ode_first_order", "(f')^2 - 4 f^3 + 12 a0 f^2 = 0 on the grid",
                      {}, labeled, ctx)


def _check_nonvanishing(config: RunConfig, ctx: PrecisionContext,
                        grid: Sequence, jet: Callable) -> ReportItem:
    report = nonvanishing_scan(grid, ctx, [jet(zp) for zp in grid])
    least = report.min_modulus
    magnitude = format_real(modulus(least.re, least.im, least.prec), ctx)
    return ReportItem(
        "nonvanishing", "|f| exceeds its own error radius everywhere on the grid",
        {"points": len(report.points), "min_at": nstr(report.min_point),
         "min_modulus": magnitude},
        residual=format_real(least.rad, ctx), bound=magnitude,
        status="pass" if not least.consistent_with_zero() else "fail")


_RECIPROCAL_POINTS = ("0.15", "0.3", "0.5", "0.7", "0.85")
_IVP_POINTS = ("0.25", "1.0", "1.7", "2.5")


def _check_reciprocal_ode(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    labeled = [(p, reciprocal_ode_residual(p, ctx)) for p in _RECIPROCAL_POINTS]
    return _ball_item(
        "reciprocal_ode", "g'' + 12 a0 g = 2 for g = 1/f", {}, labeled, ctx)


def _check_ivp(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    labeled = [(p, ivp_residual(p, ctx)) for p in _IVP_POINTS]
    c0, cp0 = ivp_initial_data(ctx)
    labeled.append(("c(0) - 1", _gap(c0, ctx.ball(1), ctx)))
    labeled.append(("c'(0)", cp0))
    return _ball_item(
        "ivp", "c'' + c = 0 with c(0) = 1 and c'(0) = 0", {}, labeled, ctx)


def _cosine_routes(config: RunConfig, ctx: PrecisionContext):
    """(z, lattice-route ball, Taylor-route ball) at config.route_points
    evenly spaced points of [-1, 1], z the exact pair of each."""
    n = config.route_points
    for i in range(n):
        zp = ctx.exact(Fraction(-1) + 2 * Fraction(i, n - 1))
        yield zp, cosine(zp, ctx), taylor_cosine(zp, ctx)


def _gap(a: BoundedValue, b: BoundedValue, ctx: PrecisionContext) -> BoundedValue:
    """a - b within r_a + r_b, from the exact dyadic centres and radii,
    rounded once (fixedpoint.to_ball)."""
    P, ((ar, ai, ea), (br, bi, eb)) = fixed_balls((a, b))
    return to_ball(ar - br, ai - bi, ea + eb, P, ctx.precision)


def _check_route_agreement(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    labeled = [(zp, _gap(lattice_route, series_route, ctx))
               for zp, lattice_route, series_route in _cosine_routes(config, ctx)]
    return _ball_item(
        "route_agreement",
        "cosine via the lattice sums agrees with its power series within summed bounds",
        {}, labeled, ctx)


def _check_pythagoras(config: RunConfig, ctx: PrecisionContext,
                      grid: Sequence) -> ReportItem:
    labeled = [(zp, pythagoras_residual(zp, ctx)) for zp in grid]
    return _ball_item(
        "pythagoras", "s(z)^2 + c(z)^2 = 1 on the grid", {}, labeled, ctx)


def _check_cosec_identity(config: RunConfig, ctx: PrecisionContext,
                          grid: Sequence, jet: Callable) -> ReportItem:
    labeled = [(zp, cosec_identity_check(zp, ctx, jet(zp))) for zp in grid]
    return _ball_item("cosec_identity", "f(z) s(pi z)^2 = pi^2 on the grid", {}, labeled, ctx)


def _check_pi_reference(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    pi, prec = evaluator(ctx).pi.value, ctx.precision
    # |pi-hat - reference| and its bound exact, each rounded once, outward;
    # the reference and eps = 2^(1-precision) as exact balls
    exact = [BoundedValue.of(t, None, ZERO, prec)
             for t in (read_real(PI_REFERENCE_DECIMAL, prec), (0, 1, 1 - prec, 1))]
    P, ((centre, _, radius), (reference, _, _), (eps, _, _)) = fixed_balls((pi, *exact))
    residual, bound = abs(centre - reference), radius + 4 * eps
    return ReportItem(
        "pi_reference",
        "computed pi matches a stored platform-derived constant "
        "(the only check that consults one)",
        {"computed": format_real(pi.re, ctx), "provenance": evaluator(ctx).pi.provenance},
        residual=format_real(dyadic(_rounded(residual, prec, True), -P), ctx),
        bound=format_real(dyadic(_rounded(bound, prec, False), -P), ctx),
        status="pass" if residual <= bound else "fail")


# -- the run ----------------------------------------------------------------------


def run_verification(config: RunConfig | None = None) -> VerificationReport:
    """Run every check and collect the report; never raises past config errors.
    The four checks that read f share one check_jet per grid point, memoised
    for this run (an exception is not held: it recurs in each such check),
    and the two symbolic checks one pair of combination series."""
    config = config or RunConfig()
    ctx = config.context()
    order = config.symbolic_order
    combinations = (combination_second_order(order), combination_first_order(order))
    prec = ctx.precision
    grid = [ctx.exact(q) for q in config.real_grid()]
    grid += [to_pair(read_real(re, prec), read_real(im, prec)) for re, im in config.complex_grid()]
    jet = functools.cache(lambda zp: check_jet(zp, ctx))

    checks: list[tuple[str, Callable[[], ReportItem]]] = [
        ("pole_cancellation", lambda: _check_pole_cancellation(config, ctx, combinations)),
        ("implied_identities", lambda: _check_implied_identities(config, ctx, combinations)),
        ("strip_decay", lambda: _check_strip_decay(config, ctx)),
        ("ode_second_order", lambda: _check_ode_second_order(config, ctx, grid, jet)),
        ("ode_first_order", lambda: _check_ode_first_order(config, ctx, grid, jet)),
        ("nonvanishing", lambda: _check_nonvanishing(config, ctx, grid, jet)),
        ("reciprocal_ode", lambda: _check_reciprocal_ode(config, ctx)),
        ("ivp", lambda: _check_ivp(config, ctx)),
        ("route_agreement", lambda: _check_route_agreement(config, ctx)),
        ("pythagoras", lambda: _check_pythagoras(config, ctx, grid)),
        ("cosec_identity", lambda: _check_cosec_identity(config, ctx, grid, jet)),
    ]
    if not config.self_contained:
        checks.append(("pi_reference", lambda: _check_pi_reference(config, ctx)))

    items = []
    for check_id, run in checks:
        try:
            items.append(run())
        except EistrigError as exc:
            items.append(ReportItem(check_id, "(not evaluated)",
                                    {"error": f"{type(exc).__name__}: {exc}"},
                                    residual="inf", bound="0", status="inconclusive"))
    suite_status = "pass" if all(i.status == "pass" for i in items) else "fail"
    generated = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return VerificationReport(_REPORT_SCHEMA, generated, config.echo(),
                              tuple(items), suite_status)


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "schema": report.schema,
        "generated_at": report.generated_at,
        "config": dict(report.config),
        "checks": [
            {
                "check_id": item.check_id,
                "identity": item.identity,
                "parameters": dict(item.parameters),
                "residual": item.residual,
                "bound": item.bound,
                "status": item.status,
            }
            for item in report.items
        ],
        "suite_status": report.suite_status,
    }


def render_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def render_text(report: VerificationReport) -> str:
    lines = [
        f"identity verification report (schema {report.schema})",
        f"generated_at: {report.generated_at}",
        "config: " + ", ".join(f"{k}={v}" for k, v in report.config.items()),
        "",
    ]
    width = max(len(item.check_id) for item in report.items)
    for item in report.items:
        lines.append(f"{item.check_id:<{width}}  {item.status.upper():<12} "
                     f"residual={item.residual}  bound={item.bound}")
        lines.append(f"{'':<{width}}  {item.identity}")
    passed = sum(1 for i in report.items if i.status == "pass")
    lines.append("")
    lines.append(f"suite: {report.suite_status.upper()} ({passed}/{len(report.items)} checks)")
    return "\n".join(lines) + "\n"


# -- tables -----------------------------------------------------------------------


def _csv(rows: Sequence[Sequence[str]]) -> str:
    import csv  # only the tables write CSV
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def strip_decay_table(config: RunConfig | None = None) -> str:
    """CSV y,f_abs,f_err,decay_bound along the line Re z = 1/2."""
    config = config or RunConfig()
    ctx = config.context()
    rows = [("y", "f_abs", "f_err", "decay_bound")]
    for rep in strip_decay(config.y_values, Fraction(1, 2), ctx):
        _, high, P = rep.majorant
        rows.append((str_real(rep.height, rep.prec), format_real(rep.f_magnitude.re, ctx),
                     format_real(rep.f_magnitude.rad, ctx), format_real(dyadic(high, -P), ctx)))
    return _csv(rows)


def convergence_table(config: RunConfig | None = None, z="0.3") -> str:
    """CSV N,value,tail_bound,abs_error_vs_ref for plain symmetric truncation."""
    config = config or RunConfig()
    ctx = config.context()
    ref_ctx = ctx.refined("1e-30")
    zp = ctx.exact(z)
    reference = eisenstein_k(2, zp, ref_ctx)
    rows = [("N", "value", "tail_bound", "abs_error_vs_ref")]
    n = 4
    while n <= 1024:
        approx = naive_symmetric_value(2, zp, n, ctx)
        # the tail 2 (N - 1/2)^-1 = 4/(2N - 1) (symmetric_tail_bound) rounded once; the
        # difference from the reference rounded to nearest at its precision, then at ctx's
        a, r, W = to_pair(approx.re, reference.re)
        err = dyadic(abs(a - r), -W, ref_ctx.precision, "n")
        rows.append((str(n), format_real(approx.re, ctx),
                     format_real(_quotient(4, 2 * n - 1, ctx.precision), ctx), format_real(err, ctx)))
        n *= 2
    return _csv(rows)


def route_error_table(config: RunConfig | None = None) -> str:
    """CSV z,eisenstein_route,taylor_route,abs_diff,summed_bounds on [-1, 1]."""
    config = config or RunConfig()
    ctx = config.context()
    rows = [("z", "eisenstein_route", "taylor_route", "abs_diff", "summed_bounds")]
    for zp, lattice_route, series_route in _cosine_routes(config, ctx):
        gap = _gap(lattice_route, series_route, ctx)
        rows.append((nstr(zp, _digits(ctx)),
                     format_real(lattice_route.re, ctx), format_real(series_route.re, ctx),
                     format_real(modulus(gap.re, gap.im, gap.prec), ctx), format_real(gap.rad, ctx)))
    return _csv(rows)
