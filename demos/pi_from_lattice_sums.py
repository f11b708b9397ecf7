"""Reconstructing pi from integer lattice sums alone.

The only analytic inputs here are sums over the integers: the even zeta
values zeta(2k) = sum 1/n^(2k) evaluated by Euler-Maclaurin summation
with the remainder bound of DLMF 2.10, and the lattice sum
f(z) = sum 1/(z - n)^2 whose expansion coefficient a0 equals 2 zeta(2).
The constant

    pi := sqrt(3 a0) = sqrt(6 zeta(2))

is then checked for internal consistency, never against a stored
reference: evaluations at different tolerances must agree within their
own error radii, and the independent identity 2 zeta(2)^2 = 5 zeta(4)
(forced by the Laurent algebra) must hold inside its combined ball.

The second half contrasts plain symmetric truncation of f with the
accelerated evaluation: the naive partial sums gain roughly one digit
per tenfold increase in N, while the evaluator reaches full precision
from the Laurent series f(u) = u^-2 + sum a_d u^(2d), a_d = 2(2d+1)
zeta(2d+2), near the origin (|u| <= 5/8, as at z = 0.3), and from a few
symmetric pairs plus two Euler-Maclaurin tails beyond them elsewhere.

Run:  python3 demos/pi_from_lattice_sums.py
"""

from eistrig import (PrecisionContext, compute_pi, eisenstein_k,
                     naive_symmetric_value, symmetric_tail_bound, zeta_even)
from eistrig.lattice import pass_size, reduce_point
from eistrig.sympoly import SymbolPoly


def main():
    print("=" * 72)
    print("pi = sqrt(6 zeta(2)) at successively tighter tolerances")
    print("=" * 72)
    tolerances = ("1e-6", "1e-12", "1e-18", "1e-24", "1e-30")
    balls = []
    for tol in tolerances:
        bits = max(128, 64 + 8 * len(tol))
        ctx = PrecisionContext(precision=bits, tolerance=tol)
        pi_ball = compute_pi(ctx).value
        balls.append((ctx, pi_ball))
        print(f"  tol {tol:>6}:  {ctx.mp.nstr(pi_ball.value, 34)}"
              f"  +/- {ctx.mp.nstr(pi_ball.radius, 3)}")
    print()

    print("pairwise consistency (no reference constant involved):")
    for (ctx_a, a), (_, b) in zip(balls, balls[1:]):
        mp = ctx_a.mp
        gap = abs(mp.mpf(a.value) - mp.mpf(b.value))
        allowed = mp.mpf(a.radius) + mp.mpf(b.radius)
        verdict = "ok" if gap <= allowed else "DISAGREE"
        print(f"  |pi_a - pi_b| = {mp.nstr(gap, 3)}"
              f"  <= {mp.nstr(allowed, 3)}  {verdict}")
    print()

    print("=" * 72)
    print("independent cross-check: 2 zeta(2)^2 = 5 zeta(4)")
    print("=" * 72)
    ctx = PrecisionContext(tolerance="1e-21")
    z2 = zeta_even(1, ctx)
    z4 = zeta_even(2, ctx)
    a0, a1 = SymbolPoly.symbol(0), SymbolPoly.symbol(1)
    combo = (a0 * a0 * 2 - a1 * 5).substitute([z2, z4], ctx)
    print(f"  zeta(2) = {ctx.mp.nstr(z2.value, 25)} +/- {ctx.mp.nstr(z2.radius, 3)}")
    print(f"  zeta(4) = {ctx.mp.nstr(z4.value, 25)} +/- {ctx.mp.nstr(z4.radius, 3)}")
    print(f"  residual {ctx.mp.nstr(combo.value, 3)}"
          f" inside +/- {ctx.mp.nstr(combo.radius, 3)}:"
          f" {'ok' if combo.consistent_with_zero() else 'VIOLATED'}")
    print()

    print("=" * 72)
    print("why acceleration matters: f(0.3) by plain symmetric truncation")
    print("=" * 72)
    ctx = PrecisionContext()
    z = ctx.point("0.3")
    accelerated = eisenstein_k(2, z, ctx)
    print(f"  accelerated value: {ctx.mp.nstr(accelerated.value, 30)}"
          f" +/- {ctx.mp.nstr(accelerated.radius, 3)}\n")
    print(f"  {'N':>6}  {'partial sum':>32}  {'tail bound':>12}  {'true error':>12}")
    n = 8
    while n <= 8192:
        naive = naive_symmetric_value(2, z, n, ctx)
        tail = symmetric_tail_bound(2, n, ctx)
        err = abs(naive.value - accelerated.value)
        print(f"  {n:>6}  {ctx.mp.nstr(naive.value, 20):>32}"
              f"  {ctx.mp.nstr(tail, 3):>12}  {ctx.mp.nstr(err, 3):>12}")
        n *= 4
    print()
    print("The tail bound shrinks like 1/N, so plain truncation would need")
    print("N ~ 1e12 terms for twelve digits; the evaluation above summed")
    route, pairs, size = pass_size(reduce_point(z, ctx), ctx.tolerance_exponent)
    if route == "Laurent":
        after = f" after {pairs} explicit pairs" if pairs else ""
        print(f"{size} terms of the Laurent series{after} and bounded its tail.")
    elif route == "strip":
        print(f"nothing: the Euler-Maclaurin remainder of order {size} bounds it.")
    else:
        print(f"{size} symmetric pairs and added the two Euler-Maclaurin tails.")


if __name__ == "__main__":
    main()
