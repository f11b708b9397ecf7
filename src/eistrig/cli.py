"""Command-line interface: verify, eval, expand, table.

Subcommands
-----------
verify   run the identity verification suite and print the report (JSON or text)
eval     evaluate one function at one point, printing value and error radius
expand   print exact symbolic expansions (rational coefficients)
table    emit one CSV diagnostic table (strip decay, convergence, route error)

Exit codes
----------
0  success (for verify: every check passed)
1  verification ran and at least one check failed
2  unusable configuration or arguments
3  evaluation point within the pole guard of an integer
4  output could not be written
5  requested tolerance or zero-separation could not be reached

Each command imports the layers it runs, and none imports mpmath.  eval
reads its point once as an exact pair and prints the value and the radius
from the ball's dyadic tuples (the printing module, the digits mpmath's
nstr prints).
"""

from __future__ import annotations

import argparse
import sys

from .errors import (ConfigurationError, InconclusiveNonvanishingError,
                     PoleProximityError, ToleranceUnreachableError)
from .precision import PrecisionContext
from .printing import _digits, format_real, format_value

#: each kind of table, built by verify.<kind>_table
_TABLE_KINDS = ("strip_decay", "convergence", "route_error")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _context(args) -> PrecisionContext:
    return PrecisionContext(args.precision, args.tolerance)


# each command imports the layers it runs, so that a process loads only those
def _cmd_verify(args) -> int:
    from .verify import RunConfig, render_json, render_text, run_verification
    config = RunConfig(
        precision_bits=args.precision,
        tolerance=args.tolerance,
        symbolic_order=args.order,
        self_contained=args.self_contained,
        perturb_a0=args.perturb_a0,
    )
    report = run_verification(config)
    rendered = render_json(report) if args.format == "json" else render_text(report)
    _emit(rendered, args.out)
    return 0 if report.passed() else 1


def _cmd_eval(args) -> int:
    from .lattice import eisenstein_k, pass_size, reduce_point
    from .trig import cosine, evaluator, g_eval, sine
    from .zetasums import zeta_even
    ctx = _context(args)
    name = args.function
    detail = f"precision = {ctx.precision} bits, tolerance = {args.tolerance}"
    if name == "zeta":
        try:
            s = int(args.point)
        except ValueError:
            raise ConfigurationError(
                f"zeta expects an even integer argument, got {args.point!r}") from None
        if s < 2 or s % 2:
            raise ConfigurationError(
                "the series-based zeta covers even integers s >= 2 only")
        bv = zeta_even(s // 2, ctx)
    else:
        z = ctx.exact(args.point)
        if name in ("f", "g"):
            bv = eisenstein_k(2, z, ctx) if name == "f" else g_eval(z, ctx)
            u = reduce_point(z, ctx)
        else:
            bv = cosine(z, ctx) if name == "cos" else sine(z, ctx)
            u = evaluator(ctx).reduced_w(z)[0]
        route, pairs, size = pass_size(u, ctx.tolerance_exponent)
        detail = {"Laurent": f"Laurent route, {pairs} explicit pairs, D = {size}",
                  "strip": f"strip remainder, m = {size}",
                  "lattice": f"lattice route, N = {size}"}[route] + f", {detail}"
    value = format_value(bv.re, bv.im, _digits(ctx))
    print(f"{name}({args.point}) = {value} +/- {format_real(bv.rad, ctx)}")
    print(f"parameters: {detail}")
    return 0


def _cmd_expand(args) -> int:
    from .laurent import (combination_first_order, combination_second_order,
                          derivative_polynomials, series_f)
    target, order = args.target, args.order
    if target == "qpolys":
        if not 1 <= order <= 16:
            raise ConfigurationError(
                f"qpolys expects an order in [1, 16], got {order!r}")
        for k, poly in enumerate(derivative_polynomials(order), start=1):
            print(f"q{k} = {poly}")
        return 0
    if order % 2 or not 0 <= order <= 16:
        raise ConfigurationError(
            f"expansion order must be even and in [0, 16], got {order!r}")
    try:
        if target == "f":
            series = series_f(order)
        elif target == "comb2":
            series = combination_second_order(order)
        else:
            series = combination_first_order(order)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    print(str(series))
    return 0


def _cmd_table(args) -> int:
    from . import verify
    config = verify.RunConfig(precision_bits=args.precision, tolerance=args.tolerance)
    _emit(getattr(verify, f"{args.kind}_table")(config), args.out)
    return 0


def _add_precision_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", default="1e-12",
                        help="target error radius (default 1e-12)")
    parser.add_argument("--precision", type=int, default=128,
                        help="working precision in bits (default 128)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eistrig",
        description="pi and trigonometry constructed from the lattice sums "
                    "eps_k(z) = sum 1/(z-n)^k, with carried error bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity verification suite")
    _add_precision_options(p)
    p.add_argument("--order", type=int, default=8,
                   help="symbolic expansion order (even, default 8)")
    p.add_argument("--self-contained", action="store_true", dest="self_contained",
                   help="omit the single check that consults a stored platform constant")
    p.add_argument("--perturb-a0", dest="perturb_a0", default=None, metavar="EPS",
                   help="shift a0 by EPS (sanity check: verification must then fail)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate one function at one point")
    p.add_argument("function", choices=("f", "g", "cos", "sin", "zeta"))
    p.add_argument("point", help="evaluation point, e.g. 0.5 or 0.1+0.2i "
                                 "(for zeta: an even integer)")
    _add_precision_options(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("expand", help="print exact symbolic expansions")
    p.add_argument("target", choices=("f", "comb2", "comb1", "qpolys"))
    p.add_argument("order", type=int)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("table", help="emit one CSV diagnostic table")
    p.add_argument("kind", choices=_TABLE_KINDS)
    _add_precision_options(p)
    p.add_argument("--out", default=None, help="write the table to this path")
    p.set_defaults(func=_cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PoleProximityError as exc:
        print(f"eistrig: {exc}", file=sys.stderr)
        return 3
    except (ToleranceUnreachableError, InconclusiveNonvanishingError) as exc:
        print(f"eistrig: {exc}", file=sys.stderr)
        return 5
    except (ConfigurationError, ValueError, ZeroDivisionError) as exc:
        print(f"eistrig: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"eistrig: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
