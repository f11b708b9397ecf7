"""Decay of the lattice sum away from the real axis.

On the vertical line z = x + iy the lattice sum f(z) = sum 1/(z - n)^2
is bounded by an explicit, elementary majorant obtained by comparing
each term with its distance to the nearest integer:

    |f(x + iy)|  <=  3/y^2 + 2 sum_(n>=1) 1/(n^2 + y^2)

The majorant is itself a convergent lattice-style sum; its first
M = min(64 + 4 ceil(y), 4096) terms are summed directly in integers at
scale 2^-P, each truncation counted in units of 2^-P, and the rest lies
between M / (M(M+1) + y^2) and 1/M, which brackets it in a certified
interval.  The table
prints |f| and the majorant side by side for increasing y: the function
decays to zero exponentially fast (it is, after all, pi^2/sin^2(pi z)
in disguise, though this package never uses that closed form), while
the majorant decays only like 1/y -- so domination gets easier and
easier, and the bound certifies that f tends to 0 uniformly in x.

This uniform decay is what pins down the constant of integration when
the reciprocal 1/f is shown to satisfy g'' + 12 a0 g = 2, and from
there the whole trigonometric construction.

Run:  python3 demos/strip_decay_table.py
"""

from fractions import Fraction

from eistrig import PrecisionContext, strip_decay
from eistrig.precision import to_mp

Y_VALUES = (1, 2, 3, 5, 8, 12, 20, 50, 100)


def main():
    ctx = PrecisionContext()
    for x in (Fraction(0), Fraction(1, 2)):
        print("=" * 72)
        print(f"|f(x + iy)| along x = {x}")
        print("=" * 72)
        print(f"  {'y':>4}  {'|f|':>12}  {'majorant >=':>12}  dominated")
        reports = strip_decay(Y_VALUES, x, ctx)
        for y, rep in zip(Y_VALUES, reports):
            mag = rep.f_magnitude
            low, _, P = rep.majorant
            print(f"  {str(y):>4}  {ctx.mp.nstr(mag.upper(), 4):>12}"
                  f"  {ctx.mp.nstr(to_mp(low, 0, P, ctx.mp), 4):>12}"
                  f"  {'yes' if rep.dominated else 'NO'}")
        decreasing = all(cur.f_magnitude.upper() < prev.f_magnitude.lower()
                         for prev, cur in zip(reports, reports[1:]))
        print(f"\n  strictly decreasing in y: {'yes' if decreasing else 'NO'}")
        print()
    print("(|f| falls like exp(-2 pi y): about 2.7 digits per unit of y.")
    print(" The 1/y majorant is far from sharp, but it is elementary,")
    print(" uniform in x, and enough to force the decay to zero.)")


if __name__ == "__main__":
    main()
