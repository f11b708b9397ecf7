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
"""

from __future__ import annotations

import datetime
import functools
import io
import json
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from mpmath.libmp import from_man_exp

from .errors import ConfigurationError, EistrigError
from .fixedpoint import fixed_balls, fixed_reals, floor_abs, to_ball
from .lattice import (check_jet, eisenstein_k, first_order_ode_residual, naive_symmetric_value,
                      nonvanishing_scan, second_order_ode_residual, strip_decay,
                      symmetric_tail_bound)
from .laurent import (combination_first_order, combination_second_order,
                      implied_identities)
from .precision import BoundedValue, PrecisionContext, Record, format_real
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
                PrecisionContext().real(self.perturb_a0)
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


def _fmt_point(zp, ctx: PrecisionContext) -> str:
    return ctx.mp.nstr(zp, 12)


def _ball_item(check_id: str, identity: str, parameters: dict,
               labeled: Sequence[tuple[str, BoundedValue]],
               ctx: PrecisionContext) -> ReportItem:
    """Worst-margin item over labeled balls: pass iff every |value| <= radius,
    margins floor|value| - radius and verdict from the exact balls at one scale."""
    _, balls = fixed_balls([bv for _, bv in labeled])
    worst = max(range(len(balls)), key=lambda i: floor_abs(*balls[i][:2]) - balls[i][2])
    worst_label, worst_bv = labeled[worst]
    params = dict(parameters, points=len(labeled), worst_at=worst_label)
    status = "pass" if all(re * re + im * im <= err * err for re, im, err in balls) else "fail"
    return ReportItem(check_id, identity, params,
                      residual=format_real(worst_bv.magnitude(), ctx),
                      bound=format_real(worst_bv.radius, ctx), status=status)


def _margin_item(check_id: str, identity: str, parameters: dict,
                 labeled: Sequence[tuple[str, object]],
                 ctx: PrecisionContext) -> ReportItem:
    """Worst signed margin against a zero bound: pass iff every margin <= 0."""
    worst_label, worst = max(labeled, key=lambda item: item[1])
    params = dict(parameters, cases=len(labeled), worst_at=worst_label)
    status = "pass" if worst <= 0 else "fail"
    return ReportItem(check_id, identity, params,
                      residual=format_real(worst, ctx), bound="0", status=status)


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
    sub = ctx.refined(ctx.tolerance / 4096)
    a_values = [coeff_a(d, sub) for d in range(max_symbol + 1)]
    labeled = [(render_poly(r), r.substitute(a_values, ctx)) for r in relations]
    return _ball_item(
        "implied_identities",
        "coefficient relations forced by pole cancellation vanish numerically",
        {"order": config.symbolic_order}, labeled, ctx)


def _rounded(x: int, P: int, ctx: PrecisionContext, rnd: str):
    """x 2^-P rounded once to ctx's precision, up ("c") or down ("f")."""
    return ctx.mp.make_mpf(from_man_exp(x, -P, ctx.precision, rnd))


def _check_strip_decay(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    reports = strip_decay(config.y_values, Fraction(1, 2), ctx)
    # each margin exact from the dyadic |f| balls and majorant ends, rounded up once
    P, xs = fixed_reals([x for rep in reports
                         for x in (rep.f_magnitude.value, rep.f_magnitude.radius, rep.decay_bound_low)])
    upper = [v + r for v, r in zip(xs[0::3], xs[1::3])]
    lower = [max(v - r, 0) for v, r in zip(xs[0::3], xs[1::3])]
    margins = [(f"domination at y={rep.y}", up - low)
               for rep, up, low in zip(reports, upper, xs[2::3])]
    margins += [(f"decrease y={low_rep.y} -> y={rep.y}", up - low)
                for rep, low_rep, up, low in zip(reports[1:], reports, upper[1:], lower)]
    labeled = [(label, _rounded(m, P, ctx, "c")) for label, m in margins]
    return _margin_item(
        "strip_decay",
        "|f(1/2 + iy)| is dominated by the explicit lattice majorant and decreasing in y",
        {"y_values": ",".join(str(y) for y in config.y_values)}, labeled, ctx)


def _check_ode_second_order(config: RunConfig, ctx: PrecisionContext,
                            grid: Sequence, jet: Callable) -> ReportItem:
    shift = ctx.real(config.perturb_a0) if config.perturb_a0 is not None else 0
    labeled = [(_fmt_point(zp, ctx), second_order_ode_residual(zp, ctx, shift, jet(zp)))
               for zp in grid]
    params = {} if config.perturb_a0 is None else {"perturb_a0": config.perturb_a0}
    return _ball_item("ode_second_order", "f'' - 6 f^2 + 12 a0 f = 0 on the grid",
                      params, labeled, ctx)


def _check_ode_first_order(config: RunConfig, ctx: PrecisionContext,
                           grid: Sequence, jet: Callable) -> ReportItem:
    labeled = [(_fmt_point(zp, ctx), first_order_ode_residual(zp, ctx, jet(zp))) for zp in grid]
    return _ball_item("ode_first_order", "(f')^2 - 4 f^3 + 12 a0 f^2 = 0 on the grid",
                      {}, labeled, ctx)


def _check_nonvanishing(config: RunConfig, ctx: PrecisionContext,
                        grid: Sequence, jet: Callable) -> ReportItem:
    report = nonvanishing_scan(grid, ctx, [jet(zp) for zp in grid])
    return ReportItem(
        "nonvanishing", "|f| exceeds its own error radius everywhere on the grid",
        {"points": len(report.points),
         "min_at": _fmt_point(report.min_point, ctx),
         "min_modulus": format_real(report.min_modulus.magnitude(), ctx)},
        residual=format_real(report.min_modulus.radius, ctx),
        bound=format_real(report.min_modulus.magnitude(), ctx),
        status="pass" if not report.min_modulus.consistent_with_zero() else "fail")


_RECIPROCAL_POINTS = ("0.15", "0.3", "0.5", "0.7", "0.85")
_IVP_POINTS = ("0.25", "1.0", "1.7", "2.5")


def _check_reciprocal_ode(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    labeled = [(p, reciprocal_ode_residual(p, ctx)) for p in _RECIPROCAL_POINTS]
    return _ball_item(
        "reciprocal_ode", "g'' + 12 a0 g = 2 for g = 1/f", {}, labeled, ctx)


def _check_ivp(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    labeled = [(p, ivp_residual(p, ctx)) for p in _IVP_POINTS]
    c0, cp0 = ivp_initial_data(ctx)
    labeled.append(("c(0) - 1", BoundedValue(c0.value - 1, c0.radius)))
    labeled.append(("c'(0)", cp0))
    return _ball_item(
        "ivp", "c'' + c = 0 with c(0) = 1 and c'(0) = 0", {}, labeled, ctx)


def _cosine_routes(config: RunConfig, ctx: PrecisionContext):
    """(z, lattice-route ball, Taylor-route ball) at config.route_points
    evenly spaced points of [-1, 1]."""
    n = config.route_points
    for i in range(n):
        zp = ctx.from_fraction(Fraction(-1) + 2 * Fraction(i, n - 1))
        yield zp, cosine(zp, ctx), taylor_cosine(zp, ctx)


def _gap(a: BoundedValue, b: BoundedValue, ctx: PrecisionContext) -> BoundedValue:
    """a - b within r_a + r_b, from the exact dyadic centres and radii,
    rounded once (fixedpoint.to_ball)."""
    P, ((ar, ai, ea), (br, bi, eb)) = fixed_balls((a, b))
    return to_ball(ar - br, ai - bi, ea + eb, P, ctx.precision)


def _check_route_agreement(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    labeled = [(_fmt_point(zp, ctx), _gap(lattice_route, series_route, ctx))
               for zp, lattice_route, series_route in _cosine_routes(config, ctx)]
    return _ball_item(
        "route_agreement",
        "cosine via the lattice sums agrees with its power series within summed bounds",
        {}, labeled, ctx)


def _check_pythagoras(config: RunConfig, ctx: PrecisionContext,
                      grid: Sequence) -> ReportItem:
    labeled = [(_fmt_point(zp, ctx), pythagoras_residual(zp, ctx)) for zp in grid]
    return _ball_item(
        "pythagoras", "s(z)^2 + c(z)^2 = 1 on the grid", {}, labeled, ctx)


def _check_cosec_identity(config: RunConfig, ctx: PrecisionContext,
                          grid: Sequence, jet: Callable) -> ReportItem:
    labeled = [(_fmt_point(zp, ctx), cosec_identity_check(zp, ctx, jet(zp))) for zp in grid]
    return _ball_item("cosec_identity", "f(z) s(pi z)^2 = pi^2 on the grid", {}, labeled, ctx)


def _check_pi_reference(config: RunConfig, ctx: PrecisionContext) -> ReportItem:
    pi = evaluator(ctx).pi.value
    # |pi-hat - reference| and its bound exact, each rounded once, outward
    P, (centre, radius, reference, eps) = fixed_reals(
        [pi.value, pi.radius, ctx.mp.mpf(PI_REFERENCE_DECIMAL), ctx.eps])
    residual, bound = abs(centre - reference), radius + 4 * eps
    return ReportItem(
        "pi_reference",
        "computed pi matches a stored platform-derived constant "
        "(the only check that consults one)",
        {"computed": format_real(pi.value, ctx), "provenance": evaluator(ctx).pi.provenance},
        residual=format_real(_rounded(residual, P, ctx, "c"), ctx),
        bound=format_real(_rounded(bound, P, ctx, "f"), ctx),
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
    grid = [ctx.from_fraction(q) for q in config.real_grid()]
    grid += [ctx.mp.mpc(ctx.from_fraction(re), ctx.from_fraction(im))
             for re, im in config.complex_grid()]
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
        rows.append((str(rep.y), format_real(rep.f_magnitude.value, ctx),
                     format_real(rep.f_magnitude.radius, ctx), format_real(rep.decay_bound, ctx)))
    return _csv(rows)


def convergence_table(config: RunConfig | None = None, z="0.3") -> str:
    """CSV N,value,tail_bound,abs_error_vs_ref for plain symmetric truncation."""
    config = config or RunConfig()
    ctx = config.context()
    ref_ctx = ctx.refined(ctx.mp.mpf("1e-30"))
    zp = ctx.point(z)
    reference = eisenstein_k(2, zp, ref_ctx)
    rows = [("N", "value", "tail_bound", "abs_error_vs_ref")]
    n = 4
    while n <= 1024:
        approx = naive_symmetric_value(2, zp, n, ctx)
        err = abs(ref_ctx.mp.mpf(approx.value) - reference.value)
        rows.append((str(n), format_real(approx.value, ctx),
                     format_real(symmetric_tail_bound(2, n, ctx), ctx), format_real(err, ctx)))
        n *= 2
    return _csv(rows)


def route_error_table(config: RunConfig | None = None) -> str:
    """CSV z,eisenstein_route,taylor_route,abs_diff,summed_bounds on [-1, 1]."""
    config = config or RunConfig()
    ctx = config.context()
    rows = [("z", "eisenstein_route", "taylor_route", "abs_diff", "summed_bounds")]
    for zp, lattice_route, series_route in _cosine_routes(config, ctx):
        gap = _gap(lattice_route, series_route, ctx)
        rows.append((format_real(zp, ctx),
                     format_real(lattice_route.value, ctx), format_real(series_route.value, ctx),
                     format_real(gap.magnitude(), ctx), format_real(gap.radius, ctx)))
    return _csv(rows)
