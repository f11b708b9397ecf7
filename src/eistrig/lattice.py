"""Rigorous evaluation of the lattice sums eps_k(z) = sum_{n in Z} 1/(z-n)^k.

The k=2 sum is the function f the whole construction rests on: even,
period 1, a double pole at each integer, f(z) = z^-2 + a0 + a1 z^2 + ...

Evaluation strategy (all bounds explicit):

1. Reduce Re z to [-1/2, 1/2] by subtracting the nearest integer (exact in
   binary floating point), which enforces bit-exact periodicity and keeps
   the summation center small.  Points within 10 ulp of an integer are
   rejected: the double pole makes every bound degenerate there.
2. Sum u^-k and the symmetric pairs (u-n)^-k + (u+n)^-k for n <= N,
   with N from truncation_n: the least N at which the tails' asymptotic
   floor e^(-2 pi |N+1 -/+ u|) lies well below the tolerance (N = 0 high
   in the strip).
3. Add the rest of the lattice as two Euler-Maclaurin tails at the base
   point N+1,
      sum_{n>N} (u+n)^-k + (u-n)^-k = T(u) + (-1)^k T(-u),
      T(c) = sum_{n>N} (n+c)^-k,
   each from zetasums.shifted_tail with the DLMF 2.10 remainder bound.
   Working precision is boosted internally when the answer is much smaller
   than the summands (e.g. f(iy) for large y), and the result is demoted
   to the caller's precision with the rounding charged to the radius.

The closed-form bound 2 (N-1/2)^(1-k)/(k-1) for plain symmetric truncation
is kept (symmetric_tail_bound, naive_symmetric_value) for convergence
tables and tail-validity tests; it shares the explicit sum of step 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (InconclusiveNonvanishingError, PoleProximityError,
                     ToleranceUnreachableError)
from .precision import (TERM_CAP, BoundedValue, PrecisionContext, RunningSum,
                        mp_context)
from .zetasums import coeff_a, shifted_tail

#: pole guard: reject z within 10 ulp (at working precision) of an integer
POLE_GUARD_ULPS = 10


def pole_distance(z, ctx: PrecisionContext):
    """(reduced point u, |u|): distance from z to the nearest integer."""
    mp = ctx.mp
    zp = ctx.point(z)
    re = zp.real if isinstance(zp, mp.mpc) else zp
    m = int(mp.nint(re))
    u = zp - m
    return u, abs(u)


def truncation_n(u, ctx: PrecisionContext) -> int:
    """Symmetric pairs that eisenstein_k sums explicitly (any k) at the
    reduced point u of pole_distance.

    The tails beyond N bottom out near e^(-2 pi r), r = |N+1 -/+ u|.  N is
    the least N >= 0 with 2 pi r >= 1.5 ln(1/tol) + 10: the 10 covers the
    floor's prefactor for every k, and the extra half of the tolerance's
    digits lets the tails close in a few orders.  High in the strip |Im u|
    alone is far enough, and N = 0.
    """
    x, y = abs(float(u.real)), abs(float(u.imag))
    rho = (-1.5 * math.log(2) * ctx.mp.mag(ctx.tolerance) + 10) / (2 * math.pi)
    if rho <= y:
        return 0
    return max(0, math.ceil(math.sqrt(rho * rho - y * y) + x - 1))


def _symmetric_sum(k: int, u, N: int, mp) -> RunningSum:
    """u^-k + sum_{n=1..N} [(u-n)^-k + (u+n)^-k] in the context of u (mp)."""
    acc = RunningSum(mp, ops_per_term=10)
    acc.add(u ** (-k))
    for n in range(1, N + 1):
        acc.add((u - n) ** (-k) + (u + n) ** (-k))
    return acc


def eisenstein_k(k: int, z, ctx: PrecisionContext) -> BoundedValue:
    """sum_{n in Z} 1/(z-n)^k with radius <= the context tolerance, or
    ToleranceUnreachableError (near an integer one ulp of |value| exceeds it)."""
    out = _lattice_sum(k, z, ctx)
    if out.radius > ctx.tolerance:
        mp = ctx.mp
        raise ToleranceUnreachableError(
            f"eisenstein_k(k={k}) rounds to radius {mp.nstr(out.radius, 3)} "
            f"at {ctx.precision} bits, above tolerance {mp.nstr(ctx.tolerance, 5)}")
    return out


def _lattice_sum(k: int, z, ctx: PrecisionContext) -> BoundedValue:
    """The lattice sum at tolerance ctx.tolerance, demoted to ctx's precision;
    near an integer the demotion alone may push the radius past the tolerance.
    f_deriv and the steering and refine paths below take that ball as it is."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"eisenstein_k expects an integer k >= 2, got {k!r}")
    mp = ctx.mp
    u, dist = pole_distance(z, ctx)
    guard = POLE_GUARD_ULPS * ctx.eps
    if dist <= guard:
        raise PoleProximityError(
            f"z = {mp.nstr(ctx.point(z), 12)} is within the pole guard "
            f"({POLE_GUARD_ULPS} ulp = {mp.nstr(guard, 3)}) of an integer")
    tol = ctx.tolerance
    N = truncation_n(u, ctx)
    if 2 * N + 1 > TERM_CAP:
        raise ToleranceUnreachableError(
            f"symmetric truncation needs {2 * N + 1} terms, above the cap {TERM_CAP}")
    # working precision: resolve tol below the summand magnitude scale
    s_bits = max(0, -k * mp.mag(dist)) + 4
    prec_eff = max(ctx.precision, -mp.mag(tol) + s_bits + 40)
    for _ in range(3):
        wp = mp_context(prec_eff)
        uu = wp.mpc(u) if u.imag != 0 else wp.mpf(u.real)
        upper = shifted_tail(k, N + 1, uu, wp, tol / 4)
        lower = shifted_tail(k, N + 1, -uu, wp, tol / 4)
        if upper is not None and lower is not None:
            # sum_{n>N} (u+n)^-k + (u-n)^-k = T(u) + (-1)^k T(-u)
            tail = upper[0] + lower[0] if k % 2 == 0 else upper[0] - lower[0]
            direct = _symmetric_sum(k, uu, N, wp)
            value = direct.value + tail
            radius = upper[1] + lower[1] + direct.allowance() \
                + wp.ldexp(1, 1 - prec_eff) * (abs(tail) + abs(value))
            if radius <= tol:
                return ctx.adopt(BoundedValue(value, radius))
        prec_eff += 64
    raise ToleranceUnreachableError(
        f"eisenstein_k(k={k}) could not reach tolerance {mp.nstr(tol, 5)}")


def f_deriv(order: int, z, ctx: PrecisionContext) -> BoundedValue:
    """Derivatives of the k=2 sum: order 0 -> f, 1 -> -2 eps_3, 2 -> 6 eps_4,
    each the ball of _lattice_sum (the identity checks carry its radius)."""
    if order == 0:
        return _lattice_sum(2, z, ctx)
    if order == 1:
        scale = -2
    elif order == 2:
        scale = 6
    else:
        raise ValueError(f"f_deriv supports orders 0, 1, 2; got {order!r}")
    sub = ctx.refined(ctx.tolerance / (2 * abs(scale) + 1))
    base = _lattice_sum(2 + order, z, sub)
    return ctx.bscale(ctx.adopt(base), scale)


def _resolved_f(z, work: PrecisionContext) -> BoundedValue:
    """f(z) at the context work, its tolerance tightened by 2^(-60 tries) until
    the ball excludes zero (f is nowhere zero); InconclusiveNonvanishingError
    after 8 tightenings."""
    mp = work.mp
    bv = _lattice_sum(2, z, work)
    tol = work.tolerance
    tries = 0
    while bv.consistent_with_zero():
        tries += 1
        if tries > 8:
            raise InconclusiveNonvanishingError(
                f"|f({mp.nstr(z, 8)})| stayed within its radius down to "
                f"tolerance {mp.nstr(tol, 3)}")
        tol = tol * mp.ldexp(1, -60 * tries)
        bv = _lattice_sum(2, z, work.refined(tol))
    return bv


def coarse_bounds(z, ctx: PrecisionContext, order: int = 0) -> list[BoundedValue]:
    """Balls [f, f', f''][:order + 1] at z in the coarse context of ctx, for
    steering sub-tolerances; the f ball excludes zero, so lower() may divide."""
    coarse = ctx.coarse()
    balls = [_resolved_f(z, coarse)]
    if order >= 1:
        balls.append(ctx.bscale(_lattice_sum(3, z, coarse), -2))
    if order >= 2:
        balls.append(ctx.bscale(_lattice_sum(4, z, coarse), 6))
    return balls


# -- ODE residuals -------------------------------------------------------------


def second_order_ode_residual(z, ctx: PrecisionContext, a0_shift=0) -> BoundedValue:
    """f''(z) - 6 f(z)^2 + 12 a0 f(z), consistent with zero within its radius.

    a0_shift adds an exact perturbation to a0 (a test-of-the-test: the
    residual then sits near 12 * shift * f(z) instead of zero).
    """
    zp = ctx.point(z)
    mf = _lattice_sum(2, zp, ctx.coarse()).upper() + 1
    scale = 1 + 24 * mf + 52
    sub = ctx.refined(ctx.tolerance / (4 * scale))
    f2 = ctx.adopt(f_deriv(2, zp, sub))
    f0 = ctx.adopt(f_deriv(0, zp, sub))
    a0 = _shifted_a0(ctx, sub, a0_shift)
    res = ctx.badd(ctx.badd(f2, ctx.bscale(ctx.bmul(f0, f0), -6)),
                   ctx.bscale(ctx.bmul(a0, f0), 12))
    return res


def first_order_ode_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """(f'(z))^2 - 4 f(z)^3 + 12 a0 f(z)^2, consistent with zero."""
    zp = ctx.point(z)
    coarse = ctx.coarse()
    mf = _lattice_sum(2, zp, coarse).upper() + 1
    mfp = ctx.bscale(_lattice_sum(3, zp, coarse), -2).upper() + 1
    scale = 1 + 2 * mfp + 24 * mf * mf + 96 * mf
    sub = ctx.refined(ctx.tolerance / (4 * scale))
    fp = ctx.adopt(f_deriv(1, zp, sub))
    f0 = ctx.adopt(f_deriv(0, zp, sub))
    a0 = _shifted_a0(ctx, sub, 0)
    f0sq = ctx.bmul(f0, f0)
    res = ctx.badd(ctx.badd(ctx.bmul(fp, fp),
                            ctx.bscale(ctx.bmul(f0sq, f0), -4)),
                   ctx.bscale(ctx.bmul(a0, f0sq), 12))
    return res


def _shifted_a0(ctx: PrecisionContext, sub: PrecisionContext, shift) -> BoundedValue:
    a0 = ctx.adopt(coeff_a(0, sub))
    if shift:
        sv = ctx.real(shift)
        a0 = BoundedValue(a0.value + sv, a0.radius + ctx.eps * abs(a0.value + sv))
    return a0


# -- nonvanishing --------------------------------------------------------------


@dataclass(frozen=True)
class NonvanishingReport:
    """Outcome of a grid scan proving f != 0 at every point."""

    points: tuple
    values: tuple
    min_modulus: BoundedValue
    min_point: object


def nonvanishing_scan(grid: Sequence, ctx: PrecisionContext) -> NonvanishingReport:
    """Prove |f(z)| > 0 at each grid point by refining until |value| > radius.

    Raises InconclusiveNonvanishingError if some point cannot be resolved.
    """
    points = tuple(ctx.point(z) for z in grid)
    values = tuple(_resolved_f(zp, ctx) for zp in points)
    least = min(range(len(points)), key=lambda i: values[i].lower())
    return NonvanishingReport(points, values, _abs_ball(values[least], ctx),
                              points[least])


def _abs_ball(bv: BoundedValue, ctx) -> BoundedValue:
    return BoundedValue(abs(bv.value), bv.radius + ctx.eps * abs(bv.value))


# -- strip decay ---------------------------------------------------------------


@dataclass(frozen=True)
class StripBoundReport:
    """|f(x+iy)| against the analytic strip majorant 3/y^2 + 2 sum 1/(n^2+y^2).

    decay_bound is a certified upper value for the majorant; decay_bound_low
    a certified lower value (partial sums bracket the tail).  Domination is
    asserted on the safe side: |f| upper end vs the majorant's lower end.
    """

    y: object
    f_magnitude: BoundedValue
    decay_bound: object
    decay_bound_low: object
    dominated: bool


def strip_decay(y_values: Sequence, x, ctx: PrecisionContext) -> list[StripBoundReport]:
    """Evaluate |f(x+iy)| and the strip majorant for each y (|y| >= 1, |x| <= 1).

    The per-y evaluation tolerance is steered by log-linear extrapolation of
    the magnitudes already resolved (|f| decays like e^(-2 pi y)), so even
    y = 100 with |f| ~ 1e-271 resolves; steering never touches the bounds.
    """
    mp = ctx.mp
    xr = ctx.real(x)
    if abs(xr) > 1:
        raise ValueError(f"strip offset x must satisfy |x| <= 1, got {mp.nstr(xr, 8)}")
    reports: list[StripBoundReport] = []
    resolved: list[tuple[float, int]] = []  # (y, mag bits of |f|)
    for y in y_values:
        yr = ctx.real(y)
        if abs(yr) < 1:
            raise ValueError(f"strip requires |y| >= 1, got {mp.nstr(yr, 8)}")
        tol = ctx.tolerance
        if len(resolved) >= 2:
            (y1, b1), (y2, b2) = resolved[-2], resolved[-1]
            slope = (b2 - b1) / (y2 - y1)
            predicted = b2 + slope * (float(yr) - y2)
            tol = min(tol, mp.ldexp(1, int(predicted) - 24))
        bv = _resolved_f(mp.mpc(xr, yr), ctx.refined(tol))
        mag = _abs_ball(bv, ctx)
        low, high = _majorant(yr, ctx)
        reports.append(StripBoundReport(yr, mag, high, low,
                                        dominated=bool(mag.upper() <= low)))
        resolved.append((float(yr), int(mp.mag(mag.value))))
    return reports


_MAJORANT_TERMS = 4096


def _majorant(y, ctx: PrecisionContext):
    """Certified bracket [low, high] for 3/y^2 + 2 sum_{n>=1} 1/(n^2 + y^2).

    The partial sum is a lower value; sum_{n>N} 1/(n^2+y^2) <= 1/N gives the
    upper end.  Rounding is charged at count * eps * value scale.
    """
    mp = ctx.mp
    y2 = y * y
    acc = RunningSum(mp, ops_per_term=3)
    for n in range(_MAJORANT_TERMS, 0, -1):
        acc.add(1 / (n * n + y2))
    base = 3 / y2 + 2 * acc.value
    slack = 2 * acc.allowance() + 4 * ctx.eps * abs(base)
    low = base - slack
    high = base + mp.mpf(2) / _MAJORANT_TERMS + slack
    return low, high


# -- naive truncation (tables and tail-validity tests) --------------------------


def symmetric_tail_bound(k: int, N: int, ctx: PrecisionContext):
    """Closed-form integral-test bound for plain symmetric truncation at N:
    sum_{|n|>N} |z-n|^-k <= 2 (N-1/2)^(1-k)/(k-1) for |Re z| <= 1/2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    mp = ctx.mp
    return 2 * (mp.mpf(N) - mp.mpf(1) / 2) ** (1 - k) / (k - 1)


def naive_symmetric_value(k: int, z, N: int, ctx: PrecisionContext) -> BoundedValue:
    """Plain symmetric truncation at N with the closed-form tail bound.

    Kept for convergence tables; the corrected evaluator is sharper.
    """
    mp = ctx.mp
    u, dist = pole_distance(z, ctx)
    if dist <= POLE_GUARD_ULPS * ctx.eps:
        raise PoleProximityError("point is within the pole guard of an integer")
    acc = _symmetric_sum(k, u, N, mp)
    value = acc.value
    if hasattr(value, "imag") and value.imag == 0:
        value = value.real
    return BoundedValue(value, symmetric_tail_bound(k, N, ctx) + acc.allowance())
