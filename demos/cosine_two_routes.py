"""Two independent routes to the cosine, cross-checked ball against ball.

Route 1 (lattice):  c(z) = 1 - 2 pi^2 g(z / 2pi), where g = 1/f is the
reciprocal of the lattice sum and pi was itself reconstructed from
zeta(2).  Nothing trigonometric is evaluated anywhere -- only lattice
sums, reciprocals, and square roots.

Route 2 (series):   the even Taylor series of the solution of the
initial value problem  c'' + c = 0, c(0) = 1, c'(0) = 0,  summed with
an explicit remainder bound.  Valid on a bounded window around 0.

The two routes share no code beyond the integer ball kernel, so agreement
within the summed radii is a genuine cross-check of both.  The table
compares them on [-1, 1]; afterwards a few classical values are shown
through the lattice route alone, including c at the reconstructed pi
(which must enclose -1) and the addition-free extension to large
arguments by exact periodicity.

Run:  python3 demos/cosine_two_routes.py
"""

from fractions import Fraction

from eistrig import (PrecisionContext, cosine, evaluator, pythagoras_residual,
                     sine, taylor_cosine)
from eistrig.sympoly import SymbolPoly


def main():
    ctx = PrecisionContext()
    mp = ctx.mp

    print("=" * 76)
    print("lattice route vs series route on [-1, 1]")
    print("=" * 76)
    print(f"  {'z':>6}  {'lattice route':>24}  {'series route':>24}"
          f"  {'|diff|':>9}")
    worst_diff = worst_sum = mp.mpf(0)
    for i in range(9):
        z = ctx.point(Fraction(i - 4, 4))
        a = cosine(z, ctx)
        b = taylor_cosine(z, ctx)
        diff = abs(a.value - b.value)
        worst_diff = max(worst_diff, diff)
        worst_sum = max(worst_sum, a.radius + b.radius)
        print(f"  {mp.nstr(z, 4):>6}  {mp.nstr(a.value, 20):>24}"
              f"  {mp.nstr(b.value, 20):>24}  {mp.nstr(diff, 3):>9}")
    print(f"\n  worst |difference| {mp.nstr(worst_diff, 3)}"
          f"  <=  worst summed radii {mp.nstr(worst_sum, 3)}")
    print()

    print("=" * 76)
    print("classical values through the lattice route alone")
    print("=" * 76)
    # pi^ is itself a ball; evaluating c at a *rounded* multiple of it can
    # only pin down c to within |c'| <= 1 times the argument's radius, so
    # that width is charged explicitly in the allowance column.
    pi_hat = evaluator(ctx).pi.value
    cases = (
        ("c(pi^)  ", Fraction(1), mp.mpf(-1), "-1 "),
        ("c(pi^/2)", Fraction(1, 2), mp.mpf(0), "0  "),
        ("c(pi^/3)", Fraction(1, 3), mp.mpf("0.5"), "1/2"),
    )
    for label, scale, target, target_label in cases:
        arg = (SymbolPoly.symbol(0) * scale).substitute([pi_hat], ctx)
        c = cosine(arg.value, ctx)
        residual = abs(c.value - target)
        allowed = c.radius + arg.radius
        verdict = "ok" if residual <= allowed else "DISAGREE"
        print(f"  {label} vs {target_label}: off by {mp.nstr(residual, 3):>9}"
              f"  allowed {mp.nstr(allowed, 3):>9}  {verdict}")
    c_i = cosine(mp.mpc(0, 2), ctx)
    print(f"  c(2i)      = {mp.nstr(c_i.value, 20)} +/- {mp.nstr(c_i.radius, 3)}"
          "   (hyperbolic cosine of 2)")
    print()

    print("periodicity: shifting by 2 pi^ k displaces the input by at most")
    print("2k times the pi^ radius, a few ulps of pi^ each, so the allowed")
    print("drift stays at the returned radii up to k = 10^6:")
    base = ctx.point("0.7")
    c_base = cosine(base, ctx)
    for k in (1, 1000, 10**6):
        shifted = cosine(base + 2 * k * pi_hat.value, ctx)
        drift = abs(shifted.value - c_base.value)
        allowed = shifted.radius + c_base.radius + 2 * k * pi_hat.radius
        verdict = "ok" if drift <= allowed else "DISAGREE"
        print(f"  k = {k:>7}:  drift {mp.nstr(drift, 3):>9}"
              f"  allowed {mp.nstr(allowed, 3):>9}  {verdict}")
    print()

    print("pythagorean residual c^2 + s^2 - 1 (s from the derivative route):")
    for label in ("0.3", "1.1", "2.9"):
        z = ctx.point(label)
        res = pythagoras_residual(z, ctx)
        s = sine(z, ctx)
        print(f"  z = {label}:  s = {mp.nstr(s.value, 12):>15}"
              f"  residual {mp.nstr(res.value, 3)} inside +/- {mp.nstr(res.radius, 3)}")


if __name__ == "__main__":
    main()
