"""Pi, the reciprocal g = 1/f, cosine, and sine built from the lattice sums.

Construction path:

    pi    := sqrt(6 zeta(2))            (zeta(2) by Euler-Maclaurin summation)
    g(z)  := 1/f(z), g(integer) := 0    (f nowhere zero; double zeros of g)
    c(z)  := 1 - 2 pi^2 g(z / 2 pi)
    s(z)  := pi g'(z / 2 pi)            (= -c', sign s > 0 just above 0)
    g'    := -f' / f^2,  g'' := (2 f'^2 - f f'') / f^3
             (checks g'' + 12 a0 g = 2 and, with c''(z) = -g''(z / 2 pi) / 2,
             c'' + c = 0)

Construction purity: nothing in this module calls platform trigonometric or
exponential functions or a platform pi constant; the only primitives are
field arithmetic, square roots, nearest-integer reduction, and the bounded
lattice/zeta evaluators.  Platform references appear solely in tests.

Because c and s run through f, which reduces its argument by the nearest
integer exactly, both inherit exact periodicity in the computed period
2 pi-hat.  One steered jet serves every evaluator here: _g_jet gives
[g, g', g''] from one lattice pass for [f, f', f''] per try, each f order
as tight as the g orders asked for need, steered in integer binary
exponents by the leading Laurent terms, later tries by their own balls.
The jet stays in the fixed-point kernel from the reduced point to the
returned balls: g, g' and g'' are formed from the pass's integer balls in
units of 2^-Q with every rounding counted, and each is rounded to the
context's precision once, as are a0 and pi^2, one integer zeta(2) ball
times 2 and 6.  pi-hat is computed to a few ulps of the context's
precision, so w = z / (2 pi-hat) is a ball of a few ulps of |w|;
lattice.fixed_jet holds the jet over that disc with the bound eps_bound on
the next derivative, so each returned ball holds at every point of it.  Far
off the real axis, where |f| is tiny and eps_bound is not, that widening
outgrows the tolerance and cos and sin raise ToleranceUnreachableError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import PoleProximityError, ToleranceUnreachableError
from .fixedpoint import ball_mul, ball_quotient, floor_abs, to_ball
from .precision import BoundedValue, PrecisionContext
from .lattice import (POLE_GUARD_ULPS, f_jet, fixed_jet, guarded_distance, reduce_point,
                      within)
from .zetasums import KERNEL_GUARD_BITS, zeta_tail

PI_PROVENANCE = "sqrt(6·ζ(2))"


@dataclass(frozen=True)
class PiValue:
    """The computed pi with its provenance tag."""

    value: BoundedValue
    provenance: str = PI_PROVENANCE


def compute_pi(ctx: PrecisionContext) -> PiValue:
    """pi as sqrt(6 zeta(2)), to a few ulps of the context's precision."""
    return evaluator(ctx).pi


class TrigEvaluator:
    """pi, a0 and pi^2 for one context, to a few ulps of its precision, from
    one integer zeta(2) ball times 2 and 6: pi^2 = 6 zeta(2) = 3 a0 exactly.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        P, z2, err = zeta_tail(2, 0, ctx.eps / 2)
        self.a0 = to_ball(2 * z2, 0, 2 * err, P, ctx.mp)
        self.pi_sq = to_ball(6 * z2, 0, 6 * err, P, ctx.mp)
        self.pi = PiValue(ctx.bsqrt(self.pi_sq))
        self.half_inv_pi = ctx.brecip(ctx.bscale(self.pi.value, 2))

    def w_ball(self, zp) -> BoundedValue:
        """z / (2 pi) as a ball; the radius is the argument uncertainty."""
        return self.ctx.bmul(self.ctx.ball(zp), self.half_inv_pi)

    def cosine_from_g(self, gb: BoundedValue) -> BoundedValue:
        """1 - 2 pi^2 g from the ball gb of g(w)."""
        ctx = self.ctx
        return ctx.bsub(ctx.ball(1), ctx.bscale(ctx.bmul(self.pi_sq, gb), 2))


#: the evaluators of the 32 contexts used last
_cached_evaluator = functools.lru_cache(maxsize=32)(TrigEvaluator)


def evaluator(ctx: PrecisionContext) -> TrigEvaluator:
    """The TrigEvaluator of ctx, from the bounded cache; a plain function, so
    that profilers which wrap the public functions see its calls."""
    return _cached_evaluator(ctx)


# -- the g jet -------------------------------------------------------------------


def _g_jet(x, work: PrecisionContext, r, tols) -> list[BoundedValue]:
    """[g, g', g''][:n] at every point of the disc |x' - x| <= r, n = len(tols),
    order i within tols[i] (None: only as tight as the higher orders need),
    from one lattice.fixed_jet pass per try.  g = 1/f, g' = -f'/f^2 and
    g'' = (2 f'^2 - f f'')/f^3 are formed from the pass's integer balls at
    scale 2^-Q, Q the tightest tolerance's bits plus KERNEL_GUARD_BITS, each
    by exact products and one division charged over the whole f ball
    (fixedpoint.ball_quotient), and each order is rounded to work's
    precision once.

    The steering only picks the pass's targets, in integer binary exponents.
    f^(j) goes to min over i >= j of tols[i] / (2 (i+1) S_ij), S_ij the
    first-order sensitivity of g^(i) to f^(j) at |f| >= lf, |f'| <= mfp and
    |f''| <= mf2, and f to at most lf/4, which keeps its ball off zero; each
    target is snapped down to a power of 2^8.  The first try takes lf from
    the smaller of the Laurent term |u|^-2 and 2^(4 - int(9.07 |Im u|))
    (|f| decays like 4 pi^2 e^(-2 pi |Im u|)), the latter not below eps/4t
    for the tightest tolerance t, and mfp and mf2 from eps_bound; the next
    try takes them from the last try's balls, the third 2^-6 tighter;
    ToleranceUnreachableError after three.
    Within the pole guard g and g' are zero-centred balls, |g| <= 1.5 |u|^2
    and |g'| = |sin(2 pi u)| / pi <= 3 |u| there, and g'' raises
    PoleProximityError.
    """
    mp, n = work.mp, len(tols)

    def fits(jet):
        return all(t is None or b.radius <= t for b, t in zip(jet, tols))

    u = reduce_point(x, work)
    if within(u, max(POLE_GUARD_ULPS * work.eps, 2 * r)):
        if n > 2:
            raise PoleProximityError(f"g'' at {mp.nstr(x, 8)} is within the pole guard of an integer")
        near = r + (mp.ldexp(1, mp.mag(u)) if u else 0)  # |u| < 2^mag(u)
        jet = [BoundedValue(mp.mpf(0), b * (1 + work.eps)) for b in (1.5 * near ** 2, 3 * near)][:n]
        if fits(jet):
            return jet
    else:
        # binary exponents: 2^te[i] <= tols[i], |u| < 2^m, |u| >= 2^lo
        te = [None if t is None else mp.mag(t) - 1 for t in tols]
        tmin = min(e for e in te if e is not None)
        m = mp.mag(u)
        lo = m - (2 if mp.im(u) else 1)
        # |f(u)| = pi^2/|sin(pi u)|^2 ~ 4 pi^2 e^(-2 pi |Im u|) off the axis, and
        # 2 pi/ln 2 < 9.07: the first steer for |f| takes the smaller estimate,
        # but not below eps/4t, where one ulp of |g| exceeds the tolerance t
        decay = max(4 - int(9.07 * min(abs(float(mp.im(u))), 1e6)), -work.precision - 2 - tmin)
        # log2 of lf and of the eps_bound estimates 2 eps_bound(3) and 6 eps_bound(4)
        bounds = [min(-2 * m, decay), max(-3 * lo, 5) + 2, max(-4 * lo, 6) + 4]
        Q = KERNEL_GUARD_BITS - min(0, tmin)
        for attempt in range(3):
            lf, mfp, mf2 = bounds
            sens = ((-2 * lf,),
                    (1 + mfp - 3 * lf, -2 * lf),
                    (1 + max(3 + 2 * mfp - 4 * lf, 1 + mf2 - 3 * lf), 2 + mfp - 3 * lf, -2 * lf))
            ts = [min(te[i] - (1, 2, 3)[i] - sens[i][j] for i in range(j, n) if te[i] is not None)
                  for j in range(n)]
            ts[0] = min(ts[0], lf - 2)
            # snapped to a power of 2^8, then over |c| <= 2^(0, 1, 3) for eps_(j+2)
            targets = [mp.ldexp(1, 8 * ((t - 6 * (attempt // 2)) // 8) - (0, 1, 3)[j])
                       for j, t in enumerate(ts)]
            S, (f, *fd) = fixed_jet(u, work, targets, r)
            # g^(i) = p_i / f^(i+1): p_0 = 1, p_1 = -f', p_2 = 2 f'^2 - f f''
            numerators = [(1, 0, 0)]
            if n > 1:
                fr, fi, ef = fd[0]
                numerators.append((-fr, -fi, ef))
            if n > 2:
                (ar, ai, ea), (br, bi, eb) = ball_mul(fd[0], fd[0]), ball_mul(f, fd[1])
                numerators.append((2 * ar - br, 2 * ai - bi, 2 * ea + eb))
            fixed = [ball_quotient(p, f, i + 1, S + Q) for i, p in enumerate(numerators)]
            jet = [to_ball(*b, Q, mp) for b in fixed]
            if fits(jet):
                return jet
            bounds[0] = (floor_abs(*f[:2]) - f[2]).bit_length() - 1 - S
            bounds[1:n] = [(abs(re) + abs(im) + err).bit_length() - S for re, im, err in fd]
    raise ToleranceUnreachableError(
        f"the g jet at {mp.nstr(x, 8)} keeps radii {', '.join(mp.nstr(b.radius, 3) for b in jet)} "
        f"at {work.precision} bits, above tolerances "
        f"{', '.join('-' if t is None else mp.nstr(t, 3) for t in tols)}")


def g_eval(z, ctx: PrecisionContext) -> BoundedValue:
    """1/f(z), extended by g(integer) := 0 (the double zero of g).

    Within the pole guard of an integer the reciprocal route is unusable;
    there |g(z)| <= 1.5 |z - n|^2 (from f(u) = u^-2 (1 + O(u^2)) with an
    explicit series bound), so a zero-centered ball with that radius is
    returned.  Elsewhere f is evaluated tightly enough that the reciprocal
    ball meets the context tolerance, or ToleranceUnreachableError is raised.
    """
    return _g_jet(ctx.point(z), ctx, 0, (ctx.tolerance,))[0]


# -- cosine and sine ---------------------------------------------------------------


def _at_w(name, zp, ctx: PrecisionContext, value_at) -> BoundedValue:
    """value_at(ev, w) for ctx's evaluator ev and the ball w = zp / 2 pi, within
    the tolerance, or ToleranceUnreachableError naming name(zp), chained from
    the jet's."""
    mp, tol, ev = ctx.mp, ctx.tolerance, evaluator(ctx)
    cause = None
    try:
        bv = value_at(ev, ev.w_ball(zp))
        if bv.radius <= tol:
            return bv
    except ToleranceUnreachableError as exc:
        cause = exc
    raise ToleranceUnreachableError(
        f"{name}({mp.nstr(zp, 8).strip('()')}) cannot be certified to tolerance {mp.nstr(tol, 5)} "
        f"at {ctx.precision} bits") from cause


def cosine(z, ctx: PrecisionContext) -> BoundedValue:
    """c(z) = 1 - 2 pi^2 g(z / 2 pi); c(0) = 1 exactly; g to tolerance/160
    over the disc of z / 2 pi.  ToleranceUnreachableError where the radius
    cannot meet the tolerance."""
    zp = ctx.point(z)
    if zp == 0:
        return ctx.ball(1)
    return _at_w("cos", zp, ctx, lambda ev, w: ev.cosine_from_g(
        _g_jet(w.value, ctx, w.radius, (ctx.tolerance / 160,))[0]))


def sine(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z) = pi g'(z / 2 pi) (= -c'); s(0) = 0 exactly; g' to tolerance/4
    over the disc of z / 2 pi.

    Within the pole guard of a period multiple, where the quotient route
    degenerates, |g'(w)| <= 3 (|u| + r_w) gives a zero-centered ball.
    ToleranceUnreachableError where the radius cannot meet the tolerance.
    """
    zp = ctx.point(z)
    if zp == 0:
        return ctx.ball(0)
    return _at_w("sin", zp, ctx, lambda ev, w: ctx.bmul(
        ev.pi.value, _g_jet(w.value, ctx, w.radius, (None, ctx.tolerance / 4))[1]))


# -- Taylor route ----------------------------------------------------------------


def taylor_cosine(z, ctx: PrecisionContext) -> BoundedValue:
    """Partial sums of sum (-1)^m z^(2m) / (2m)! with a geometric tail bound.

    Enforced domain |z| <= 4: terms must enter steady decay (ratio <= 1/2)
    before the truncation bound applies, and they decay factorially, so the
    loop ends.  ToleranceUnreachableError when the radius (tail plus
    rounding allowance) exceeds the tolerance.
    """
    mp = ctx.mp
    zp = ctx.point(z)
    az = abs(zp)
    if az > 4:
        raise ValueError(f"taylor_cosine is restricted to |z| <= 4, got |z| = {mp.nstr(az, 6)}")
    if zp == 0:
        return ctx.ball(1)
    tol = ctx.tolerance
    z2 = zp * zp
    term = mp.mpf(1)
    total = mp.mpf(1)
    abs_total = mp.mpf(1)
    m = 0
    while True:
        m += 1
        term = -term * z2 / ((2 * m - 1) * (2 * m))
        ratio = az * az / ((2 * m + 1) * (2 * m + 2))
        if abs(term) <= tol / 4 and ratio <= mp.mpf(1) / 2:
            break
        total += term
        abs_total += abs(term)
    radius = 2 * abs(term) + ctx.eps * abs_total * (m * 5 + 1)
    if radius > tol:
        raise ToleranceUnreachableError(
            f"taylor_cosine({mp.nstr(zp, 8)}) keeps radius {mp.nstr(radius, 3)} "
            f"at {ctx.precision} bits, above tolerance {mp.nstr(tol, 5)}")
    value = total
    if hasattr(value, "imag") and value.imag == 0:
        value = value.real
    return BoundedValue(value, radius)


# -- jet residuals -----------------------------------------------------------------


def reciprocal_ode_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """g''(z) + 12 a0 g(z) - 2 with g to tolerance/160 and g'' to tolerance/4
    from one jet at z."""
    g, _, g2 = _g_jet(ctx.point(z), ctx, 0, (ctx.tolerance / 160, None, ctx.tolerance / 4))
    res = ctx.badd(g2, ctx.bscale(ctx.bmul(evaluator(ctx).a0, g), 12))
    return ctx.bsub(res, ctx.ball(2))


def ivp_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """c''(z) + c(z) with c(z) = 1 - 2 pi^2 g(w) and c''(z) = -g''(w)/2 from
    one jet held over the disc of w = z / 2 pi."""
    ev = evaluator(ctx)
    w = ev.w_ball(ctx.point(z))
    g, _, g2 = _g_jet(w.value, ctx, w.radius, (ctx.tolerance / 160, None, ctx.tolerance / 4))
    return ctx.badd(BoundedValue(-g2.value / 2, g2.radius / 2), ev.cosine_from_g(g))


def ivp_initial_data(ctx: PrecisionContext):
    """(c(0), c'(0)) = (cosine(0), -sine(0)): both exact, because f is even."""
    return cosine(0, ctx), ctx.bneg(sine(0, ctx))


# -- identity checks ---------------------------------------------------------------


def cosec_identity_check(z, ctx: PrecisionContext) -> BoundedValue:
    """f(z) s(pi z)^2 - pi^2, consistent with zero for noninteger z.

    s(pi z) = pi g'(z / 2), from one g jet at the exact point z / 2 (no disc).
    |s(pi z)| = pi / sqrt|f(z)| <= ms = 4 / sqrt(lf) + 1 for |f| >= lf (first
    _g_jet's first steer, the smaller of the Laurent term |u|^-2 and
    2^(4 - int(9.07 |Im u|)), then f's own ball), so f goes to tolerance /
    (8 ms^2) and g' to tolerance / (64 |f| ms); a bad estimate only costs
    sharpness or a pass.
    """
    mp = ctx.mp
    zp = ctx.point(z)
    tol = ctx.tolerance
    # the decay steer floored at 2^(-4 precision): farther off the axis f goes
    # through the refine loop rather than one pass at an unbounded scale
    decay = max(4 - int(9.07 * min(abs(float(mp.im(zp))), 1e6)), -4 * ctx.precision)
    lf = min(guarded_distance(zp, ctx) ** -2, mp.ldexp(1, decay))
    for _ in range(2):
        fb = f_jet(zp, ctx, (tol * lf / (8 * (4 + mp.sqrt(lf)) ** 2),))[0]
        if fb.lower() >= lf:
            break
        lf = fb.lower()
    ms = 4 / mp.sqrt(fb.lower()) + 1
    g1 = _g_jet(zp / 2, ctx, 0, (None, tol / (64 * fb.upper() * ms)))[1]
    ev = evaluator(ctx)
    sb = ctx.bmul(ev.pi.value, g1)
    return ctx.bsub(ctx.bmul(fb, ctx.bmul(sb, sb)), ev.pi_sq)


def pythagoras_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z)^2 + c(z)^2 - 1, consistent with zero everywhere; c = 1 - 2 pi^2 g(w)
    and s = pi g'(w) from one [g, g'] jet at w = z / 2 pi, g to tolerance/(160 m)
    and g' to tolerance/(32 m); m = 2^(int(1.45 |Im z|) + 1) > e^|Im z| >= |c|, |s|
    (1.45 > log2 e), so the radius stays near tolerance/2."""
    zp, mp = ctx.point(z), ctx.mp
    ev, tol = evaluator(ctx), ctx.tolerance
    m = mp.ldexp(1, int(1.45 * abs(mp.im(zp))) + 1)
    w = ev.w_ball(zp)
    g, g1 = _g_jet(w.value, ctx, w.radius, (tol / (160 * m), tol / (32 * m)))
    cb, sb = ev.cosine_from_g(g), ctx.bmul(ev.pi.value, g1)
    return ctx.bsub(ctx.badd(ctx.bmul(sb, sb), ctx.bmul(cb, cb)), ctx.ball(1))
