"""Rigorous evaluation of the lattice sums eps_k(z) = sum_{n in Z} 1/(z-n)^k.

The k=2 sum is the function f the whole construction rests on: even,
period 1, a double pole at each integer, f(z) = z^-2 + a0 + a1 z^2 + ...,
and f' = -2 eps_3, f'' = 6 eps_4.  One lattice pass gives eps_k for
consecutive k at one point, each to its own target (all bounds explicit):

1. Reduce Re z to [-1/2, 1/2] by subtracting the nearest integer, exactly,
   in integers (reduce_point), which enforces bit-exact periodicity.
   Points with both components within 10 ulp of an integer are rejected:
   every bound degenerates there.
2. Pick the route from u and the targets alone (_route), the first that
   applies: the strip remainder where |Im u| >= y*(k, e) for every k
   (_strip_order); the Laurent route of the least i <= 2 with |u| <= rho 2^i,
   rho = 5/8 (_laurent_bound, which bounds |u| from above in integers); else
   the lattice route.  rho and the cap i <= 2 are constants: every trig point
   reduces to |u| <= 0.6, near rho 2^i the series needs about twice the
   terms it needs at 2^i / 4, and i = 3 is no faster.
3. The sums run in Python integers at scale 2^-P (fixedpoint), every
   rounding truncating toward zero and counted.  The pass has one entry,
   in integers: the reduced point u as the pair (ur, ui, W), (ur + i ui)
   2^-W, exact for a point given in binary floating point (reduce_point,
   from PrecisionContext.exact, which builds no mpf for any point) and at
   the trig evaluator's scale for w = z / 2 pi, and each target as a
   binary exponent e, 2^e <= t (ctx.tolerance_exponent for the
   context's tolerance, computed once per context).  P is the tightest
   target's bits plus KERNEL_GUARD_BITS, raised until u is exact where that
   costs at most (k+1) log2(1/|u|) + 8 more bits; otherwise u is truncated
   to 2^-P, moves by less than 2 units, and the move is charged as an
   integer count (_move_charge).  The pass returns P and, per k, the
   integer sum with its error count; each caller rounds a ball to its
   context's precision once (fixedpoint.to_ball).
4. Laurent route (_laurent_sums), L = 2^i, w = u / L:
      eps_k(u) = sum_{|n| < L} (u - n)^-k
                 + L^-k 2 (-1)^k sum_{j = k mod 2} C(k+j-1, j) Z_i(k+j) w^j,
   Z_i(s) = sum_{n >= L} (L/n)^s (Z_0 = zeta): the pairs by _explicit_sums,
   then D terms as a polynomial in v = w^2, exact, at the scale of the
   Z_i(2m) table (zetasums.zeta_table, one per i and scale for every k;
   _horner_row forms each C Z_i once per table), by fixedpoint.series:
   Horner's rule for a real u, for a complex u the real recurrence of two
   products and one rounding per term; then times w once for odd k; w and
   L^-k are shifts.  A rounding at step j reaches the sum times |v|^j, and
   |v| <= rho^2 < 1/2, so the kernel counts 2 units (real) or 4 (complex)
   in all.  The tail, with Z_i <= 2L, is at most L^(1-k) T_J /
   (1 - r_J) from the first omitted power J on, because the term ratio r_j
   = (k+j+1)(k+j) |w|^2 / ((j+1)(j+2)) decreases in j; _laurent_terms picks
   D so that this, in integers, is at most a quarter of the target.
5. Lattice route (_lattice_sums), for |u| > 4 rho below y*: u^-k and the
   pairs (u -/+ n)^-k for n <= N (_explicit_sums), each from the reciprocal
   r = 1/(u - n) truncated once at 2^-P.  Its powers are exact and summed
   exactly, then truncated once, so the count is one constant per pass:
   (2N+1) ec k M^(k-1) units of 2^-kP, with M >= 2^P/|u| bounding every
   |r| (|u - n| >= |u|), plus one unit for the truncation (ec = 1 real,
   2 complex).  N comes
   from truncation_n for the tightest target: the tails' floor
   e^(-2 pi |N+1 -/+ u|) lies well below it.  The rest is two
   Euler-Maclaurin tails at the base point N+1,
      sum_{n>N} (u+n)^-k + (u-n)^-k = T(u) + (-1)^k T(-u),
   T(c) = sum_{n>N} (n+c)^-k, one zetasums.em_tails call per tail for every
   k at the same scale, each with its DLMF 2.10 bound and its counted
   rounding: its order m chosen before summing, and its terms one
   polynomial in x = (N+1 +- u)^-2 (truncated once) with real coefficients
   from a table per (k, scale), summed by the same kernel, where |x| <= 4/9
   (|N+1 +- u| >= 3/2 for N >= 1, and >= |Im u| >= 2.45 for N = 0).  This
   route is also the test oracle of the other two.
6. Strip remainder (_strip_sums): Euler-Maclaurin over the whole line
   leaves eps_k(x+iy) = R_m, |R_m| <= 8 |B_2m| / (2m)! (k)_2m |y|^(1-k-2m);
   from y* on the pass returns the zero ball with that radius at the
   point's own height, rounded up in units.

eisenstein_k is the one-exponent pass; fixed_jet, the pass for [f, f', f'']
in integers, holds its balls over a disc about the point (its radius a
count of units of 2^-W), serves the g jet of the trig evaluators and, as
check_jet (one per point, at the tightest target of its readers), the ODE
residuals, the nonvanishing scan and the cosec check.  jet_bounds steers
every pass for f, the strip heights of strip_decay included: integer
exponents for |f| and its first guess, |f'| and |f''| from |eps_k(u)| <=
|u|^-k + 2^(k+2).
Where f must exclude zero, _resolved_f is the one refine-until-nonzero loop:
integer passes at ever tighter targets that return their integer ball.
pass_size reports the route, its pairs summed term by term and its size (D,
m or N), as eistrig eval prints them.  Plain symmetric truncation with its
closed-form bound 2 (N-1/2)^(1-k)/(k-1) (symmetric_tail_bound,
naive_symmetric_value) is kept for convergence tables and tail-validity
tests; it shares the explicit sum of step 5.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from math import comb, isqrt
from typing import Sequence

from .errors import (InconclusiveNonvanishingError, PoleProximityError,
                     ToleranceUnreachableError)
from .fixedpoint import (ball_mul, cpow, fixed_balls, floor_abs, nearest, series, to_ball,
                         tshift)
from .precision import (TERM_CAP, BoundedValue, PrecisionContext, Record, _le, dyadic,
                        read_real, to_pair)
from .zetasums import (KERNEL_GUARD_BITS, MAX_ORDER, _bernoulli_over, em_tails, zeta_fixed,
                       zeta_table)

#: pole guard: reject z within 10 ulp (at working precision) of an integer
POLE_GUARD_ULPS = 10


def reduced(re: int, im: int, W: int):
    """(re + i im) 2^-W minus its nearest integer (ties to even), exactly."""
    return re - (nearest(re, W) << W), im, W


def reduce_point(z, ctx: PrecisionContext):
    """z minus its nearest integer as the exact pair (ur, ui, W): the reduced
    point u = (ur + i ui) 2^-W that a lattice pass takes, from ctx.exact."""
    return reduced(*ctx.exact(z))


def magnitude(ur: int, ui: int, W: int) -> int:
    """mpmath's mag of the nonzero pair (ur + i ui) 2^-W: its modulus is below
    2^magnitude (one more for a complex point with both parts nonzero)."""
    m = max(abs(ur).bit_length(), abs(ui).bit_length()) - W
    return m + 1 if ur and ui else m


def to_float(x: int, W: int) -> float:
    """|x| 2^-W as a float, from its 64 leading bits; at most 2^1000."""
    s = max(0, abs(x).bit_length() - 64)
    return math.ldexp(abs(x) >> s, min(s - W, 936))


def in_pole_guard(u, precision: int, R: int = 0) -> bool:
    """Both components of the reduced point u = (ur, ui, W) at most 10 ulp at
    the precision, or at most 2R units of 2^-W (then |u| <= 1.5 times that):
    the pole guard's test, in integers."""
    ur, ui, W = u
    m = max(abs(ur), abs(ui))
    return m <= 2 * R or m << precision - 1 <= POLE_GUARD_ULPS << W


def truncation_n(u, e: int) -> int:
    """Symmetric pairs that a lattice pass sums explicitly (any k) at the
    reduced point u = (ur, ui, W), for the tightest target 2^e.

    The tails beyond N bottom out near e^(-2 pi r), r = |N+1 -/+ u|.  N is
    the least N >= 0 with 2 pi r >= 1.5 ln(2^-e/2) + 10: the 10 covers the
    floor's prefactor for every k, and the extra half of the target's
    digits lets the tails close in a few orders.  High in the strip |Im u|
    alone is far enough, and N = 0.
    """
    x, y = to_float(u[0], u[2]), to_float(u[1], u[2])
    rho = (-1.5 * math.log(2) * (e + 1) + 10) / (2 * math.pi)
    if rho <= y:
        return 0
    return max(0, math.ceil(math.sqrt(rho * rho - y * y) + x - 1))


def _explicit_sums(exponents, ur: int, ui: int, N: int, P: int) -> list[tuple[int, int, int]]:
    """[(re, im, err)] for u^-k + sum_{n=1..N} [(u-n)^-k + (u+n)^-k], one per
    k, u = (ur + i ui) 2^-P, |Re u| <= 1/2: (re + i im) 2^-P within err units
    of 2^-P (l1 norm).

    Every n != 0, and n = 0 from |u| >= 5/2 on (the lattice route; inside it,
    where |u| can be tiny, n = 0 is the exact power and one division per
    component, which errs by less than a unit each), takes r = 1/(u - n)
    truncated once at 2^-P, which errs by less than e = 1 unit (real) or
    sqrt 2 (complex).  Its powers r^k are exact, summed exactly at 2^-kP and
    truncated once to 2^-P.  As |u - n| >= |u| for n != 0, the nearest such
    term bounds every |r| by M units, and |x^k - y^k| <= k M^(k-1) |x - y| for
    |x|, |y| <= M; the l1 norm is at most sqrt 2 times the modulus, so each
    term errs by less than ec k M^(k-1) units of 2^-kP, ec = 1 (real) or 2
    (complex).  The count is that times the number of terms, rounded up at
    2^-P, plus ec for the one truncation."""
    one, k0 = 1 << P, exponents[0]
    ec = 2 if ui else 1
    beyond = 4 * (ur * ur + ui * ui) >= 25 << 2 * P  # |u| >= 5/2
    out = []
    if beyond:
        out = [(0, 0, 0)] * len(exponents)
    elif ui:  # n = 0: conj(u^k) 2^(P(k+1)) / |u|^2k
        vr, vi = cpow(ur, ui, k0)
        m = ur * ur + ui * ui
        d = m ** k0
        for i, k in enumerate(exponents):
            if i:
                vr, vi, d = vr * ur - vi * ui, vr * ui + vi * ur, d * m
            x, y = vr << P * (k + 1), vi << P * (k + 1)
            out.append((x // d if x >= 0 else -(-x // d), -(y // d) if y >= 0 else -y // d, ec))
    else:
        v = ur ** k0
        for i, k in enumerate(exponents):
            if i:
                v *= ur
            x = 1 << P * (k + 1)
            out.append((x // v if v > 0 else -(x // -v), 0, ec))
    T = 2 * N + beyond  # the terms from r, n = N..1, 0 if beyond, -1..-N
    if not T:
        return out
    drs = chain(range(ur - N * one, ur, one), (ur,) if beyond else (),
                range(ur + one, ur + N * one + 1, one))  # u - n at 2^-P
    more = [[0, 0] for _ in exponents[1:]]
    sr = si = 0
    if ui:  # conj(r) 2^P = (u - n) 2^(2P) / |u - n|^2 for ui > 0, r 2^P for ui < 0
        two_p, ui2 = 2 * P, ui * ui
        y = abs(ui) << two_p
        for dr in drs:
            m = dr * dr + ui2
            rr, ri = (dr << two_p) // m if dr >= 0 else -((-dr << two_p) // m), y // m
            pr, pi = (rr - ri) * (rr + ri), 2 * rr * ri
            if k0 == 3:
                pr, pi = pr * rr - pi * ri, pr * ri + pi * rr
            elif k0 == 4:
                pr, pi = (pr - pi) * (pr + pi), 2 * pr * pi
            elif k0 > 4:
                for _ in range(k0 - 2):
                    pr, pi = pr * rr - pi * ri, pr * ri + pi * rr
            sr += pr
            si += pi
            for acc in more:
                pr, pi = pr * rr - pi * ri, pr * ri + pi * rr
                acc[0] += pr
                acc[1] += pi
    else:
        for dr in drs:
            r = (1 << 2 * P) // dr if dr > 0 else -((1 << 2 * P) // -dr)
            p = r ** k0
            sr += p
            for acc in more:
                p *= r
                acc[0] += p
    M = -(-(1 << 2 * P) // floor_abs(ur if beyond else abs(ur) - one, ui))
    for i, (k, (sr, si)) in enumerate(zip(exponents, [[sr, si]] + more)):
        s, (re, im, err) = (k - 1) * P, out[i]
        si = -si if ui > 0 else si
        out[i] = (re + tshift(sr, -s), im + tshift(si, -s),
                  err - (-T * ec * k * M ** (k - 1) >> s) + ec)
    return out


def eisenstein_k(k: int, z, ctx: PrecisionContext) -> BoundedValue:
    """sum_{n in Z} 1/(z-n)^k with radius <= the context tolerance, or
    ToleranceUnreachableError (near an integer one ulp of |value| exceeds it)."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"eisenstein_k expects an integer k >= 2, got {k!r}")
    P, (sums,) = _lattice_pass((k,), reduce_point(z, ctx), ctx, (ctx.tolerance_exponent,))
    out = to_ball(*sums, P, ctx.precision)
    return ctx.certified(out, lambda nstr: f"eisenstein_k(k={k}) rounds to radius {nstr(out.rad, 3)} "
                         f"at {ctx.precision} bits, above tolerance {nstr(ctx._tol, 5)}")


#: f^(i) = (-1)^i (i+1)! eps_(i+2)
_JET_FACTORS = (1, -2, 6)


def fixed_jet(u, ctx: PrecisionContext, targets, R: int = 0):
    """(P, [f, f', f''][:n]) at the reduced point u = (ur, ui, W) from one
    lattice pass, n = len(targets) <= 3, eps_(i+2) to 2^targets[i]: order i is
    the ball (re, im, err), (re + i im) 2^-P within err units of 2^-P.

    An f ball that does not exclude zero is replaced by _resolved_f's, from
    2^-60 tighter on, at the larger of the two scales.  For R > 0 each order
    holds at every point of the disc of radius R units of 2^-W about u: there
    f^(i) moves by at most (i+2)! (D^-k + 2^(k+2)) r, k = i+3, D a lower bound
    of |u| - r (|eps_k| <= |u|^-k + 2^(k+2), jet_bounds); the widening is
    counted in units, and PoleProximityError is raised when the disc reaches
    an integer.
    """
    P, sums = _lattice_pass(range(2, 2 + len(targets)), u, ctx, targets)
    jet = [(c * re, c * im, abs(c) * err) for c, (re, im, err) in zip(_JET_FACTORS, sums)]
    fr, fi, ef = jet[0]
    if floor_abs(fr, fi) <= ef:
        *f, S = _resolved_f(u, ctx, targets[0] - 60)
        T = max(P, S)
        jet = [(re << T - P, im << T - P, err << T - P) for re, im, err in jet]
        jet[0] = tuple(x << T - S for x in f)
        P = T
    if not R:
        return P, jet
    ur, ui, W = u
    # the radius rounded up to units of 2^-P; u is within 2 units of its truncation
    R = R << P - W if P >= W else -(-R >> W - P)
    D = floor_abs(tshift(ur, P - W), tshift(ui, P - W)) - 2 - R
    if D <= 0:
        from .printing import nstr
        raise PoleProximityError(f"the disc of radius {nstr(dyadic(R, -P), 3)} about "
                                 f"{nstr(u, 12)} reaches an integer")
    out = []
    for i, (re, im, err) in enumerate(jet):
        k, c = i + 3, math.factorial(i + 2) * R
        # c (2^(Pk) / D^k + 2^(k+2)) units: (i+2)! ((D 2^-P)^-k + 2^(k+2)) r 2^P, rounded up
        out.append((re, im, err - (-(c << P * k) // D ** k) + (c << k + 2)))
    return P, out


def _lattice_pass(exponents, u, ctx: PrecisionContext, targets):
    """(P, [(re, im, err)]): eps_k at the reduced point u = (ur, ui, W) for
    consecutive k, each to its target 2^e (e in targets, a binary exponent),
    (re + i im) 2^-P within err units of 2^-P, by the route _route picks."""
    ur0, ui0, W = u
    # within the guard (10 ulp < 2^-59, as precision >= 64) u truncates to 0 at 2^-32
    if not (tshift(ur0, 32 - W) or tshift(ui0, 32 - W)) and in_pole_guard(u, ctx.precision):
        from .printing import nstr
        raise PoleProximityError(
            f"the reduced point {nstr(u, 12)} is within the pole guard ({POLE_GUARD_ULPS} "
            f"ulp = {nstr(dyadic(POLE_GUARD_ULPS, 1 - ctx.precision), 3)}) of an integer")
    route, size, plan = _route(u, exponents, targets)
    if route == "lattice" and 2 * size + 1 > TERM_CAP:
        raise ToleranceUnreachableError(
            f"symmetric truncation needs {2 * size + 1} terms, above the cap {TERM_CAP}")
    # the scale: the rounding count far below the tightest target, so e + P >= 27
    F = _exact_scale(u)
    P = _kernel_scale(u, F, KERNEL_GUARD_BITS + max(0, -1 - min(targets)), exponents[-1])
    if route == "strip":
        return P, _strip_sums(exponents, u, P, plan)
    for _ in range(3):
        ur, ui = tshift(ur0, P - W), tshift(ui0, P - W)
        if route == "lattice":
            sums = _lattice_sums(exponents, ur, ui, size, P, [1 << e + P - 2 for e in targets])
        else:
            sums = _laurent_sums(exponents, ur, ui, P, *plan)
        if sums is not None:
            out = []
            for k, e, (re, im, err) in zip(exponents, targets, sums):
                err += _move_charge(k, ur, ui, P) if F > P else 0
                if err > 1 << e + P:
                    break
                out.append((re, im, err))
            else:
                return P, out
        P += 64
    raise ToleranceUnreachableError(f"the lattice sums k = {list(exponents)} could not "
                                    f"reach targets {[f'2^{e}' for e in targets]}")


def _exact_scale(u) -> int:
    """The least scale at which the pair u = (ur, ui, W) is exact."""
    ur, ui, W = u
    low = ur | ui
    return max(0, W - (low & -low).bit_length() + 1) if low else 0


def pass_size(u, e: int) -> tuple[str, int, int]:
    """The route of a pass for f = eps_2 at the reduced point u to the target
    2^e, the pairs it sums term by term and its size: ("Laurent", 2^i - 1, D terms
    of the series), ("strip", 0, the order m) or ("lattice", N, N)."""
    route, size, plan = _route(u, (2,), (e,))
    if route == "Laurent":
        return route, (1 << plan[0]) - 1, size
    return route, 0 if route == "strip" else size, size


def _route(u, exponents, targets):
    """(route, size, plan), from u and the targets 2^e alone:
    ("strip", m, orders) where |Im u| >= y*(k, e) (_strip_order) for every k;
    else ("Laurent", D, (i, degrees, tails)) where |u| <= rho 2^i (the least i
    <= 2, _laurent_bound), with the terms per exponent that bring the tail
    below 2^(e-2), and those bounds; else ("lattice", N, None), N pairs and
    two Euler-Maclaurin tails.  The strip test is skipped at once where
    e^(-2 pi |Im u|) is above 2^(e+8) for some target: |eps_k|, about
    (2 pi)^k e^(-2 pi |Im u|), and so its bound are above 2^e there."""
    ur, ui, W = u
    if ui and all(9.07 * to_float(ui, W) + 8 > -e for e in targets):
        orders = [_strip_order(k, e) for k, e in zip(exponents, targets)]
        y, S = _height(ui, W)
        if None not in orders and tshift(y, 8 - S) >= max(Y for Y, *_ in orders):
            return "strip", orders[0][1], orders
    bound = _laurent_bound(u)
    if bound is None:
        return "lattice", truncation_n(u, min(targets)), None
    i, m, x = bound
    # Z_i(s) <= 1 + L/(s-1) <= 2 L, and the factor L^-k: the series needs 2^((k-1) i) less
    tails = tuple(e - 2 + (k - 1) * i for k, e in zip(exponents, targets))
    degrees = [_laurent_terms(k, m, x, e) for k, e in zip(exponents, tails)]
    return "Laurent", degrees[0], (i, degrees, tails)


def _lattice_sums(exponents, ur: int, ui: int, N: int, P: int, limits):
    """[(re, im, err)] for eps_k at u = (ur + i ui) 2^-P, one per k: the
    explicit sum over |n| <= N and the two Euler-Maclaurin tails beyond it,
    each tail bound at most limits[i] units; None at the tails' floor."""
    upper = em_tails(exponents, ((N + 1) << P) + ur, ui, P, limits)
    lower = em_tails(exponents, ((N + 1) << P) - ur, -ui, P, limits)
    if upper is None or lower is None:
        return None
    out = []
    for k, (vr, vi, err), (ar, ai, ea, ba, _), (br, bi, eb, bb, _) in zip(
            exponents, _explicit_sums(exponents, ur, ui, N, P), upper, lower):
        # sum_{n>N} (u+n)^-k + (u-n)^-k = T(u) + (-1)^k T(-u)
        sign = 1 if k % 2 == 0 else -1
        out.append((vr + ar + sign * br, vi + ai + sign * bi, err + ea + ba + eb + bb))
    return out


@functools.lru_cache(maxsize=256)
def _strip_order(k: int, e: int):
    """(Y, m, num, den): the least height y* = Y 2^-8 at which the strip
    remainder of order m, num y^(1-k-2m) / den, is at most 2^e, m the order
    (at most MAX_ORDER) that minimises that height, found in floats and
    checked in integers; None above 2^40.

    Euler-Maclaurin (DLMF 2.10.1) over the whole line for F(t) = (u - t)^-k,
    k >= 2, leaves eps_k(x + iy) = R_m: the boundary terms vanish, and so does
    the integral of F.  With |B~_2m(t) - B_2m| <= 2 |B_2m| and the integral of
    |u - t|^(-k-2m) at most pi |y|^(1-k-2m) ((1 + s^2)^-a <= (1 + s^2)^-1),
    |eps_k| <= 8 |C_m| (k)_2m |y|^(1-k-2m), C_m = B_2m / (2m)!, B_2m = 2m b / d
    exact from the tangent numbers (zetasums._bernoulli_over): num / den is
    that coefficient, 16 m |b| (k)_2m / (d (2m)!).
    """
    # log2 of the height where order m reaches 2^e, |C_m| ~ 2 / (2 pi)^2m
    best = None
    for m in range(1, MAX_ORDER + 1):
        n = k + 2 * m - 1
        size = 4 - 2 * m * math.log2(2 * math.pi) + (math.lgamma(n + 1) - math.lgamma(k)) / math.log(2)
        height = (size - e) / n
        if best is not None and height > best[0]:
            break
        best = height, m
    if best[0] > 40:  # a target no pass at a sane scale asks for
        return None
    m = best[1]
    n = k + 2 * m - 1
    b, d = _bernoulli_over(m)
    num, den = 16 * m * abs(b) * math.perm(n, 2 * m), d * math.factorial(2 * m)
    Y = max(1, int(2 ** (best[0] + 8)) - 1)
    # num (Y 2^-8)^-n <= 2^e, in integers
    while num << max(0, 8 * n - e) > den * Y**n << max(0, e - 8 * n):
        Y += 1
    return Y, m, num, den


def _height(ui: int, W: int):
    """(y, S): |ui| 2^-W >= y 2^-S, y its 32 leading bits."""
    shift = max(0, abs(ui).bit_length() - 32)
    return abs(ui) >> shift, W - shift


def _strip_sums(exponents, u, P: int, orders):
    """[(0, 0, err)] for eps_k at u, one per k: the zero ball whose radius is
    the strip remainder num |Im u|^(1-k-2m) / den of _strip_order, at a lower
    bound of |Im u| of 32 bits, rounded up to units of 2^-P."""
    y, S = _height(u[1], u[2])
    out = []
    for k, (_, m, num, den) in zip(exponents, orders):
        n = k + 2 * m - 1
        x, den = P + S * n, den * y**n
        out.append((0, 0, -(-(num << max(0, x)) // (den << max(0, -x)))))
    return out


#: the Laurent route's radius rho = 5/8 at scale 2^-32: it serves |u| <= rho 2^i
_LAURENT_RADIUS = 5 << 29

#: i <= _MAX_SHIFT: a route with i = 3 ran no faster at 192 bits, and it
#: would add a fourth table with a longer head to build
_MAX_SHIFT = 2


def _laurent_bound(u):
    """(i, m, x) for the least i <= _MAX_SHIFT with |u| <= rho 2^i, rho = 5/8,
    and m 2^-x >= U 2^-32 >= |u / 2^i|, m <= 2^8, U also >= |u truncated at
    2^-P| 2^(32-i) for every P and at most rho 2^32: the Laurent route's
    selection; None beyond."""
    ur, ui, W = u
    ur, ui = tshift(ur, 32 - W), tshift(ui, 32 - W)
    ur, ui = abs(ur) + 1, abs(ui) + 1
    top = _LAURENT_RADIUS << _MAX_SHIFT
    if ur > top or ui > top:
        return None
    U = isqrt(ur * ur + ui * ui) + 1
    for i in range(_MAX_SHIFT + 1):
        if U <= _LAURENT_RADIUS << i:
            U = -(-U >> i)
            shift = max(0, U.bit_length() - 8)
            return i, (U >> shift) + 1, 32 - shift
    return None


#: the D of the 4096 (k, m, x, e) used last; lru_cache is thread-safe
@functools.lru_cache(maxsize=4096)
def _laurent_terms(k: int, m: int, x: int, e: int) -> int:
    """D: the terms of the Laurent series of eps_k (powers u^j, j = k mod 2 up
    to k mod 2 + 2D - 2) that bring its tail to at most 2^e at |u| <= m 2^-x.

    The tail from the first omitted power J on is, with zeta <= 2, at most
    T_J / (1 - r_J), T_J = 4 C(k+J-1, J) |u|^J and r_J = (k+J+1)(k+J) |u|^2 /
    ((J+1)(J+2)) the ratio of T_(J+2) to T_J, which decreases in j.  J starts
    from a float estimate and moves up by 2 until the test holds in integers.
    """
    lu = x - math.log2(m)  # about log2(1/|u|)
    J = (2 - e) / lu
    J = (2 - e + math.log2(comb(k + max(0, int(J)), k - 1))) / lu
    J = max(k & 1, math.ceil(J))
    J += (J - k) & 1
    while True:
        num, den = (k + J + 1) * (k + J) * m * m, (J + 1) * (J + 2) << 2 * x
        if den > num:
            lhs, rhs, s = 4 * comb(k + J - 1, J) * den * m**J, den - num, e + x * J
            if (lhs <= rhs << s) if s >= 0 else (lhs << -s <= rhs):
                return (J - (k & 1)) // 2
        J += 2


@functools.lru_cache(maxsize=256)
def _table_count(exponents, tails) -> int:
    """The Z_i(2m) that a Laurent pass asks for: D at |u / 2^i| <= 161 2^-8, the bound of
    _laurent_bound at rho, so the table's size depends on scales and targets alone."""
    return max((k + 1) // 2 + _laurent_terms(k, 161, 8, e) - 1 for k, e in zip(exponents, tails))


def _laurent_sums(exponents, ur: int, ui: int, P: int, i: int, degrees, tails):
    """[(re, im, err)] for eps_k at u = (ur + i ui) 2^-P, one per k, from
      eps_k(u) = sum_{|n| < L} (u - n)^-k
                 + L^-k 2 (-1)^k sum_{j = k mod 2} C(k+j-1, j) Z_i(k+j) w^j,
    L = 2^i, w = u / L (the same integers at scale 2^-(P+i)), |w| <= rho: the
    pairs by _explicit_sums; degrees[i] terms of the sum S by _laurent_row,
    then 2 S L^-k (times -w for odd k) truncated to 2^-P, and the tail bound
    2^tails[i] L^(1-k)."""
    q, zetas, zerr = zeta_table(P, _table_count(exponents, tails), i)
    d, shift = q - P, 2 * (P + i)
    vr, vi = ur * ur - ui * ui, 2 * ur * ui
    ec = 2 if ui else 1
    out = []
    for k, D, e, (hr, hi, herr) in zip(exponents, degrees, tails,
                                       _explicit_sums(exponents, ur, ui, (1 << i) - 1, P)):
        sr, si, h = _laurent_row(i, q, k, zetas, zerr, D, vr, vi, shift)
        # 2 S L^-k within 2 h L^-k units of 2^-Q, one more truncation
        err = -(-2 * h >> d + k * i) + ec + herr + (1 << P + e - (k - 1) * i)
        if k % 2:  # -2 S w L^-k at 2^-(Q+P+i+ki)
            xr, xi, s = -2 * (sr * ur - si * ui), -2 * (sr * ui + si * ur), q + i + k * i
        else:
            xr, xi, s = 2 * sr, 2 * si, d + k * i
        out.append(((xr >> s if xr >= 0 else -(-xr >> s)) + hr,
                    (xi >> s if xi >= 0 else -(-xi >> s)) + hi, err))
    return out


def _laurent_row(i: int, q: int, k: int, zetas: tuple, zerr: int, D: int, vr: int, vi: int,
                 shift: int):
    """(re, im, err): the first D terms of S = sum_{j = k mod 2} C(k+j-1, j)
    Z_i(k+j) v^((j - k mod 2)/2) at v = (vr + i vi) 2^-shift, |v| <= rho^2,
    from the Z_i values zetas at scale 2^-q, each within zerr units, by
    fixedpoint.series: (re + i im) 2^-q within err units.  With |v| <= rho^2
    < 1/2 the kernel counts 2 units (real v) or 4 (complex); table entries
    within e units of 2^-q add to S at most e sum_j C(k+j-1, j) rho^(j - k
    mod 2) <= e (1 - rho)^-k = e (8/3)^k units (the sum over even or odd j
    of the series of (1 - x)^-k, over x for odd k, increases with x)."""
    re, im, h = series(_horner_row(i, q, k, zetas), D, vr, vi, shift)
    return re, im, h - (-zerr * 8**k // 3**k)


#: (i, q, k) -> (values, row), about _ROWS_HELD at most: a get, a set and a clear
#: are each atomic under the GIL, and a row serves only the tuple it was built from
_rows: dict = {}
_ROWS_HELD = 64


def _horner_row(i: int, q: int, k: int, zetas: tuple) -> list:
    """[C(k+j-1, j) Z_i(k+j) for j = k mod 2, k mod 2 + 2, ...] from the values
    zetas of the Z_i table at scale 2^-q."""
    held = _rows.get((i, q, k))
    if held is not None and held[0] is zetas:
        return held[1]
    row = [comb(k + j - 1, j) * zetas[(k + j) // 2 - 1] for j in range(k % 2, 2 * len(zetas) - k + 1, 2)]
    if len(_rows) >= _ROWS_HELD:
        _rows.clear()
    _rows[i, q, k] = zetas, row
    return row


def _kernel_scale(u, F: int, P: int, k: int) -> int:
    """The scale of a pass at u up to exponent k: at least P, and u exact (at
    its F fraction bits) unless that takes more than the (k+1) log2(1/|u|) + 8
    further bits which keep _move_charge small (a tiny Re u or Im u would
    otherwise set the scale); |u| < 2^magnitude(u)."""
    return max(P, min(F, P + (k + 1) * max(0, 1 - magnitude(*u)) + 8))


def _move_charge(k: int, ur: int, ui: int, P: int) -> int:
    """Units of 2^-P that cover eps_k(u) - eps_k(u'), u' = (ur + i ui) 2^-P, u
    truncated at 2^-P: u is within 2 units of u', so every point of the segment
    from u to u' lies D = floor|u'| - 4 units or more from 0 (and, with
    |Re u| <= 1/2, from every integer; _kernel_scale keeps D near |u|), and
    |eps_k(u) - eps_k(u')| <= 2k ((D 2^-P)^-(k+1) + 2^(k+3)) units, from
    |eps_(k+1)| <= |u|^-(k+1) + 2^(k+3) (jet_bounds)."""
    D = floor_abs(ur, ui) - 4
    return -(-(2 * k << P * (k + 1)) // D ** (k + 1)) + (2 * k << k + 3)


def _resolved_f(u, ctx: PrecisionContext, e: int):
    """(re, im, err, P): f at the reduced point u from a pass to the target
    2^e, tightened by 2^(-60 tries) at the tries-th retry, until the ball
    excludes zero (f is nowhere zero); InconclusiveNonvanishingError after 8
    tightenings."""
    for tries in range(9):
        e -= 60 * tries
        P, ((re, im, err),) = _lattice_pass((2,), u, ctx, (e,))
        if floor_abs(re, im) > err:
            return re, im, err, P
    from .printing import nstr
    raise InconclusiveNonvanishingError(
        f"|f({nstr(u, 8)})| stayed within its radius down to target 2^{e}")


def jet_bounds(u, floor: int):
    """(lf, F0, F1, F2), binary exponents that steer a pass for [f, f', f'']
    at the reduced point u = (ur, ui, W), from |u| < 2^m and |Im u| alone.
    2^lf is the first steer for a lower end of |f|: the smaller of the
    Laurent term |u|^-2 > 2^-2m and 2^(4 - int(9.07 |Im u|)) (|f| = pi^2 /
    |sin(pi u)|^2 ~ 4 pi^2 e^(-2 pi |Im u|) off the axis, 2 pi / ln 2 < 9.07),
    the latter not below 2^floor.  2^F0 >= |f| + 1, 2^F1 >= |f'| + 1 and
    2^F2 >= |f''|, from |eps_k(u)| <= |u|^-k + 2 sum_{n>=1} (n - 1/2)^-k <
    |u|^-k + 2^(k+2) (|Re u| <= 1/2) at |u| >= 2^lo, lo = m - 1 (m - 2 if Im u != 0)."""
    ur, ui, W = u
    m = magnitude(ur, ui, W)
    lo = m - (2 if ui else 1)
    decay = max(4 - int(9.07 * min(to_float(ui, W), 1e6)), floor)
    return min(-2 * m, decay), max(-2 * lo, 5) + 1, max(-3 * lo, 5) + 2, max(-4 * lo, 6) + 4


# -- ODE residuals -------------------------------------------------------------


def check_jet(z, ctx: PrecisionContext):
    """fixed_jet's (P, [f, f', f'']) at z from one pass, each order to the
    tightest target of the grid checks that read it, in integers from
    jet_bounds at the floor 2^(-4 precision): f to t1 and to the cosec
    check's target at 2^lf, f' to t1 / 2 and f'' to t2 / 6, where t1 =
    tolerance / (4 (1 + 2 |f'| + 24 |f|^2 + 96 |f|)) < tolerance and t2 =
    tolerance / (4 (24 |f| + 53)) are the ODE residuals', |f| + 1 <= 2^F0
    and |f'| + 1 <= 2^F1."""
    u, T = reduce_point(z, ctx), ctx.tolerance_exponent
    lf, F0, F1, _ = jet_bounds(u, -4 * ctx.precision)
    e1 = T - (4 + (8 << F1) + (96 << 2 * F0) + (384 << F0)).bit_length()
    e2 = T - ((96 << F0) + 212).bit_length()
    return fixed_jet(u, ctx, (min(e1, T - 1 - max(8 - lf, 4)), e1 - 1, e2 - 3))


def second_order_ode_residual(z, ctx: PrecisionContext, a0_shift=0, jet=None) -> BoundedValue:
    """f''(z) - 6 f(z)^2 + 12 a0 f(z), consistent with zero within its radius.

    a0_shift adds a real perturbation to a0, read as ctx.exact reads it (a
    test-of-the-test: the residual then sits near 12 * shift * f(z) instead
    of zero).  f and f'' come from jet, check_jet(z, ctx) when none is
    given: f and f'' to t2 = tolerance / (4 (24 |f| + 53)) or tighter; a0 is
    read at the jet's scale; exact products at scale 2^-2P, rounded once.
    """
    P, (f, _, f2) = jet or check_jet(z, ctx)
    a0 = _a0_fixed(P, ctx.exact(a0_shift))
    return to_ball(*_combination(2 * P, ((1, f2, P), (-6, ball_mul(f, f), 2 * P),
                                         (12, ball_mul(a0, f), 2 * P))), 2 * P, ctx.precision)


def first_order_ode_residual(z, ctx: PrecisionContext, jet=None) -> BoundedValue:
    """(f'(z))^2 - 4 f(z)^3 + 12 a0 f(z)^2, consistent with zero, as above:
    f and f' to t1 = tolerance / (4 (2 |f'| + 24 |f|^2 + 96 |f| + 1)), 2^-3P."""
    P, (f, fp, _) = jet or check_jet(z, ctx)
    f_sq = ball_mul(f, f)
    return to_ball(*_combination(3 * P, (
        (1, ball_mul(fp, fp), 2 * P), (-4, ball_mul(f_sq, f), 3 * P),
        (12, ball_mul(_a0_fixed(P), f_sq), 3 * P))), 3 * P, ctx.precision)


def _a0_fixed(P: int, shift=(0, 0, 0)):
    """The ball a0 + shift at the pass's scale 2^-P: a0 = 2 zeta(2), zeta(2)
    read from the Z_0 table (zetasums.zeta_fixed, a few units); the real
    shift, an exact pair (re, 0, W), truncated at 2^-P, within one unit."""
    value, err = zeta_fixed(1, P)
    sr, _, W = shift
    return (2 * value + tshift(sr, P - W), 0, 2 * err + 1) if sr else (2 * value, 0, 2 * err)


def _combination(S: int, terms):
    """sum c x over the terms (c, x, Px), x a ball at scale 2^-Px, Px <= S,
    as the ball (re, im, err) at scale 2^-S, exactly."""
    re = im = err = 0
    for c, (xr, xi, ex), Px in terms:
        re += c * xr << S - Px
        im += c * xi << S - Px
        err += abs(c) * ex << S - Px
    return re, im, err


# -- nonvanishing --------------------------------------------------------------


class NonvanishingReport(Record):
    """Outcome of a grid scan proving f != 0 at every point."""

    __slots__ = ("points", "values", "min_modulus", "min_point")

    def __init__(self, points: tuple, values: tuple, min_modulus: BoundedValue, min_point):
        self._set(points, values, min_modulus, min_point)


def nonvanishing_scan(grid: Sequence, ctx: PrecisionContext, jets=None) -> NonvanishingReport:
    """Prove |f(z)| > 0 at each grid point from the f of its check_jet (in
    jets, or computed here), which fixed_jet refines until |value| > radius;
    InconclusiveNonvanishingError if some point cannot be resolved.  The
    report keeps each point as given."""
    points = tuple(grid)
    balls = [(*f, P) for P, (f, *_) in jets or [check_jet(zp, ctx) for zp in points]]
    values = tuple(to_ball(*b, ctx.precision) for b in balls)
    S = max(P for *_, P in balls)  # the least lower end floor|f| - err, exact at 2^-S
    least = min(range(len(points)), key=lambda i: (floor_abs(*balls[i][:2]) - balls[i][2]) << S - balls[i][3])
    return NonvanishingReport(points, values, _modulus(*balls[least], ctx.precision), points[least])


def _modulus(re: int, im: int, err: int, P: int, prec: int) -> BoundedValue:
    """|f| for the ball (re, im, err) at 2^-P: floor|re + i im| within
    err + 1 units (err when im == 0, where it is exact), rounded once."""
    return to_ball(floor_abs(re, im), 0, err + (1 if im else 0), P, prec)


# -- strip decay ---------------------------------------------------------------


class StripBoundReport(Record):
    """|f(x+iy)| against the analytic strip majorant 3/y^2 + 2 sum 1/(n^2+y^2).

    The report holds integers: height, the tuple of y at prec bits, and
    majorant, (low, high, P), a certified bracket [low 2^-P, high 2^-P] of
    the majorant (_majorant: a partial sum in fixed point, every truncation
    counted, plus the lower or the upper end of its tail).  Domination is
    decided on the safe side and exactly: the upper end of f_magnitude,
    value + radius, against low, both at one scale.
    """

    __slots__ = ("height", "f_magnitude", "majorant", "dominated", "prec")

    def __init__(self, height: tuple, f_magnitude: BoundedValue, majorant: tuple,
                 dominated: bool, prec: int):
        self._set(height, f_magnitude, majorant, dominated, prec)


def strip_decay(y_values: Sequence, x, ctx: PrecisionContext) -> list[StripBoundReport]:
    """Evaluate |f(x+iy)| and the strip majorant for each y (|y| >= 1, |x| <= 1).

    Each height is steered alone, from jet_bounds: _resolved_f starts at
    the target 2^min(T, lf - 24), 2^T <= tolerance and 2^lf <= 2^(4 -
    int(9.07 |y|)) the first steer for |f|, which lies below pi^2 /
    cosh^2(pi y) <= |f| for |y| >= 1; so one pass resolves every height
    above the floor, y = 100 with |f| ~ 1e-271 included.  lf is floored at
    T - 2160, where the refine loop's eight tightenings would stop, so a
    huge height ends in InconclusiveNonvanishingError after passes to at
    most 2^(T - 4344).  Steering never touches the bounds.
    """
    T, prec = ctx.tolerance_exponent, ctx.precision
    one, xt = (0, 1, 0, 1), read_real(x, prec)
    if not _le((0, *xt[1:]), one):
        raise ValueError(f"strip offset x must satisfy |x| <= 1, got {x!r}")
    reports: list[StripBoundReport] = []
    for y in y_values:
        yt = read_real(y, prec)
        if not _le(one, (0, *yt[1:])):
            raise ValueError(f"strip requires finite |y| >= 1, got {y!r}")
        u = reduced(*to_pair(xt, yt))
        mag = _modulus(*_resolved_f(u, ctx, min(T, jet_bounds(u, T - 2160)[0] - 24)), prec)
        low, high, P = _majorant(to_pair(yt), ctx)
        S, ((value, _, radius),) = fixed_balls((mag,))
        # value + radius <= low 2^-P, at the finer of the two scales
        dominated = value + radius << max(P - S, 0) <= low << max(S - P, 0)
        reports.append(StripBoundReport(yt, mag, (low, high, P), dominated, prec))
    return reports


#: the most terms the strip majorant sums, reached from y > 1008 on
_MAJORANT_TERMS = 4096


def _majorant(y, ctx: PrecisionContext):
    """(low, high, P): a certified bracket [low 2^-P, high 2^-P] for 3/y^2 +
    2 sum_{n>=1} 1/(n^2 + y^2), y the exact pair (yr, 0, W) of a real: the
    terms n <= M = min(64 + 4 ceil|y|, 4096) summed in integers at scale
    2^-P, P = max(ctx.precision, W), so y is exact, 3/y^2 and each term by
    one division truncating toward zero (less than 2M + 1 units in all), and the tail in
    [M / (M(M+1) + y^2), 1/M]: for n > M, n^2 + y^2 <= n(n+1) (1 + y^2 /
    (M(M+1))), and sum_{n>M} 1/(n(n+1)) = 1/(M+1).  low adds the lower end
    truncated, high the upper end rounded up; high - low < 2/4096 + 2M + 4
    units for every |y| >= 1."""
    yr, _, W = y
    P = max(ctx.precision, W)
    yf = abs(yr) << P - W
    y2 = yf * yf  # y^2 at scale 2^-2P
    one = 1 << 3 * P  # 2^P units over a denominator at scale 2^-2P
    M = min(64 + 4 * -(-yf >> P), _MAJORANT_TERMS)
    low = 3 * one // y2 + 2 * sum(one // ((n * n << 2 * P) + y2) for n in range(1, M + 1))
    high = low + 2 * M + 1 + -(-(2 << P) // M)  # the truncations, then 2/M rounded up
    low += 2 * (M * one // ((M * (M + 1) << 2 * P) + y2))
    return low, high, P


# -- naive truncation (tables and tail-validity tests) --------------------------


def symmetric_tail_bound(k: int, N: int, ctx: PrecisionContext):
    """Closed-form integral-test bound for plain symmetric truncation at N:
    sum_{|n|>N} |z-n|^-k <= 2 (N-1/2)^(1-k)/(k-1) for |Re z| <= 1/2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    mp = ctx.mp
    return 2 * (mp.mpf(N) - mp.mpf(1) / 2) ** (1 - k) / (k - 1)


def naive_symmetric_value(k: int, z, N: int, ctx: PrecisionContext) -> BoundedValue:
    """Plain symmetric truncation at N with the closed-form tail bound,
    counted in integers (_symmetric_tail_units).

    Kept for convergence tables; the corrected evaluator is sharper.
    """
    u = reduce_point(z, ctx)
    if in_pole_guard(u, ctx.precision):
        raise PoleProximityError("point is within the pole guard of an integer")
    F = _exact_scale(u)
    P = _kernel_scale(u, F, ctx.precision, k)
    ur, ui = tshift(u[0], P - u[2]), tshift(u[1], P - u[2])
    (re, im, err), = _explicit_sums((k,), ur, ui, N, P)
    if F > P:
        err += _move_charge(k, ur, ui, P)
    return to_ball(re, im, err + _symmetric_tail_units(k, N, P), P, ctx.precision)


def _symmetric_tail_units(k: int, N: int, P: int) -> int:
    """symmetric_tail_bound(k, N) in units of 2^-P, rounded up, in integers:
    2 (N - 1/2)^(1-k) / (k-1) = 2^k / ((2N - 1)^(k-1) (k-1))."""
    return -(-(1 << P + k) // ((2 * N - 1) ** (k - 1) * (k - 1)))
