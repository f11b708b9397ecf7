"""Pi, the reciprocal g = 1/f, cosine, and sine built from the lattice sums.

Construction path:

    pi    := sqrt(6 zeta(2))            (zeta(2) by Euler-Maclaurin summation)
    g(z)  := 1/f(z), g(integer) := 0    (f nowhere zero; double zeros of g)
    c(z)  := 1 - 2 pi^2 g(z / 2 pi)
    s(z)  := -pi f'(z / 2 pi) / f(z / 2 pi)^2     (= -c', sign s > 0 just above 0)
    g''   := (2 f'^2 - f f'') / f^3     (checks g'' + 12 a0 g = 2 and, with
             c''(z) = -g''(z / 2 pi) / 2, c'' + c = 0)

Construction purity: nothing in this module calls platform trigonometric or
exponential functions or a platform pi constant; the only primitives are
field arithmetic, square roots, nearest-integer reduction, and the bounded
lattice/zeta evaluators.  Platform references appear solely in tests.

Because c and s run through f, which reduces its argument by the nearest
integer exactly, both inherit exact periodicity in the computed period
2 pi-hat.  g and c each make one lattice pass for f at their point, s one
for f and f', steered by the leading Laurent terms, later passes by their
own balls.  pi-hat is computed to a few ulps of the context's precision, so
w = z / (2 pi-hat) is a ball of a few ulps of |w|; lattice.widen_jet holds
the jet over that disc with the bound eps_bound on the next derivative, so
each returned ball holds at every point of it.  Far off the real axis,
where |f| is tiny and eps_bound is not, that widening outgrows the
tolerance and the evaluators raise ToleranceUnreachableError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import PoleProximityError, ToleranceUnreachableError
from .precision import BoundedValue, PrecisionContext
from .lattice import POLE_GUARD_ULPS, eps_bound, f_jet, pole_distance, widen_jet
from .zetasums import zeta_even

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
    one zeta(2) ball: pi^2 = 6 zeta(2) = 3 a0 exactly.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        z2 = ctx.adopt(zeta_even(1, ctx.refined(ctx.eps)))
        self.a0 = ctx.bscale(z2, 2)
        self.pi_sq = ctx.bscale(z2, 6)
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


def _snap(tol, mp):
    """Largest power of 2^8 at or below tol.

    Sub-tolerances steered from magnitudes vary smoothly with the point;
    snapping them keeps the derived contexts, the keys of the evaluator and
    mpmath context caches, few.  It only ever tightens a tolerance.
    """
    return mp.ldexp(1, 8 * ((int(mp.mag(tol)) - 1) // 8))


# -- g = 1/f --------------------------------------------------------------------


def g_eval(z, ctx: PrecisionContext) -> BoundedValue:
    """1/f(z), extended by g(integer) := 0 (the double zero of g).

    Within the pole guard of an integer the reciprocal route is unusable;
    there |g(z)| <= 1.5 |z - n|^2 (from f(u) = u^-2 (1 + O(u^2)) with an
    explicit series bound), so a zero-centered ball with that radius is
    returned.  Elsewhere f is evaluated tightly enough that the reciprocal
    ball meets the context tolerance, or ToleranceUnreachableError is raised.
    """
    return _reciprocal(ctx.point(z), ctx)


def _reciprocal(x, work: PrecisionContext, r=0) -> BoundedValue:
    """g within work.tolerance at every point of the disc |x' - x| <= r.
    The first pass steers from the Laurent term |f| ~ |u|^-2, the next from
    the last f ball, the third 2^-6 tighter."""
    mp = work.mp
    tol = work.tolerance
    _, au = pole_distance(x, work)
    if au <= max(POLE_GUARD_ULPS * work.eps, 2 * r):
        near = mp.mpf(1.5) * (au + r) ** 2
        gb = BoundedValue(mp.mpf(0), near + work.eps * near)
        if gb.radius <= tol:
            return gb
    else:
        lf = au ** -2
        for attempt in range(3):
            sub_tol = _snap(min(tol * lf * lf / 2, lf / 4) * mp.ldexp(1, -6 * (attempt // 2)), mp)
            fb = widen_jet(f_jet(x, work, (sub_tol,)), x, r, work)[0]
            gb = work.brecip(fb)
            if gb.radius <= tol:
                return gb
            lf = fb.lower()
    raise ToleranceUnreachableError(
        f"g({mp.nstr(x, 8)}) = 1/f keeps radius {mp.nstr(gb.radius, 3)} at "
        f"{work.precision} bits, above tolerance {mp.nstr(tol, 5)}")


# -- cosine ---------------------------------------------------------------------


def cosine(z, ctx: PrecisionContext) -> BoundedValue:
    """c(z) = 1 - 2 pi^2 g(z / 2 pi); c(0) = 1 exactly; g to tolerance/160
    over the disc of z / 2 pi."""
    zp = ctx.point(z)
    if zp == 0:
        return ctx.ball(1)
    ev = evaluator(ctx)
    w = ev.w_ball(zp)
    return ev.cosine_from_g(ctx.adopt(_reciprocal(w.value, ctx.refined(ctx.tolerance / 160),
                                                  w.radius)))


# -- sine -----------------------------------------------------------------------


def sine(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z) = -pi f'(z / 2 pi) / f(z / 2 pi)^2 (= -c'); s(0) = 0 exactly.

    Within a small guard of a period multiple, where the quotient route
    degenerates, |s(z)| <= 2 (pi + r_pi)(|u| + r_w) gives a zero-centered ball.
    ToleranceUnreachableError where the radius cannot meet the tolerance.
    """
    return _sincos(z, ctx)[1]


def _sincos(z, ctx: PrecisionContext):
    """(c(z), s(z)) from one jet pass at w = z / 2 pi, held over w's disc and
    steered as g's (from |f'| ~ 2|u|^-3 too) for s within the tolerance and g
    within 1/160 of it; ToleranceUnreachableError when s misses the tolerance
    after three passes."""
    mp = ctx.mp
    zp = ctx.point(z)
    if zp == 0:
        return ctx.ball(1), ctx.ball(0)
    ev = evaluator(ctx)
    w = ev.w_ball(zp)
    _, au = pole_distance(w.value, ctx)
    pi, tol = ev.pi.value, ctx.tolerance
    if au <= max(32 * ctx.eps, 4 * w.radius):
        span = (au + w.radius) * (pi.value + pi.radius) * 2
        s = BoundedValue(mp.mpf(0), span * (1 + mp.ldexp(1, -20)) + mp.ldexp(1, -2 * ctx.precision))
        if s.radius <= tol:
            return cosine(zp, ctx), s
    else:
        lf, mfp = au ** -2, 2 * au ** -3
        for attempt in range(3):
            rho = tol / (64 * (mfp / (lf * lf) + 1)) * mp.ldexp(1, -6 * (attempt // 2))
            eps_f = _snap(min(rho * lf / 2, lf / 4, tol * lf * lf / 320), mp)
            fb, fpb = widen_jet(f_jet(w.value, ctx, (eps_f, _snap(rho * (mfp + lf) / 2, mp))),
                                w.value, w.radius, ctx)
            lf, mfp = fb.lower(), fpb.upper()
            s = ctx.bneg(ctx.bmul(pi, ctx.bmul(fpb, ctx.brecip(ctx.bmul(fb, fb)))))
            if s.radius <= tol:
                return ev.cosine_from_g(ctx.brecip(fb)), s
    raise ToleranceUnreachableError(
        f"sin({mp.nstr(zp, 8)}) keeps radius {mp.nstr(s.radius, 3)} at "
        f"{ctx.precision} bits, above tolerance {mp.nstr(tol, 5)}")


# -- Taylor route ----------------------------------------------------------------


def taylor_cosine(z, ctx: PrecisionContext) -> BoundedValue:
    """Partial sums of sum (-1)^m z^(2m) / (2m)! with a geometric tail bound.

    Enforced domain |z| <= 4: terms must enter steady decay (ratio <= 1/2)
    before the truncation bound applies.
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
        if m > 200:
            break
    tail = 2 * abs(term)
    allowance = ctx.eps * abs_total * (m * 5 + 1)
    value = total
    if hasattr(value, "imag") and value.imag == 0:
        value = value.real
    return BoundedValue(value, tail + allowance)


# -- jet residuals -----------------------------------------------------------------


def _g_jet(x, ctx: PrecisionContext, r=0):
    """(g, g'') at every point of the disc |x' - x| <= r, adopted to ctx, from
    one jet pass: g = 1/f and g'' = (2 f'^2 - f f'')/f^3.

    The pass is sized for g within tolerance/160 and g'' within tolerance/4
    from the upper bounds eps_bound and the Laurent term |f| ~ |u|^-2, a
    lower bound on the real axis; off the axis, where |f| can fall below
    it, the pass is made once more, steered from the first one's f ball.
    PoleProximityError within the pole guard of an integer.
    """
    _, dist = pole_distance(x, ctx)
    lf, mf = dist ** -2, eps_bound(2, dist) + 1
    mfp, mf2 = 2 * eps_bound(3, dist) + 1, 6 * eps_bound(4, dist) + 1
    for _ in range(2):
        # g'' moves by k t when f, f' and f'' each move by t (first order)
        k = (1 + 4 * mfp / lf + (2 * mf * mf2 + 6 * mfp * mfp) / (lf * lf)) / (lf * lf)
        sub = ctx.refined(ctx.tolerance / (4 * max(k, 40 / (lf * lf))), mf)
        fb, fpb, f2b = widen_jet(f_jet(x, sub, (sub.tolerance,) * 3), x, r, sub)
        g = sub.brecip(fb)
        if fb.lower() >= lf:
            break
        lf = fb.lower()
    num = sub.bsub(sub.bscale(sub.bmul(fpb, fpb), 2), sub.bmul(fb, f2b))
    g2 = sub.bmul(num, sub.bmul(g, sub.bmul(g, g)))
    return ctx.adopt(g), ctx.adopt(g2)


def reciprocal_ode_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """g''(z) + 12 a0 g(z) - 2 with g and g'' from one jet pass at z."""
    g, g2 = _g_jet(ctx.point(z), ctx)
    res = ctx.badd(g2, ctx.bscale(ctx.bmul(evaluator(ctx).a0, g), 12))
    return ctx.bsub(res, ctx.ball(2))


def ivp_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """c''(z) + c(z) with c(z) = 1 - 2 pi^2 g(w) and c''(z) = -g''(w)/2 from
    one jet pass held over the disc of w = z / 2 pi."""
    ev = evaluator(ctx)
    w = ev.w_ball(ctx.point(z))
    g, g2 = _g_jet(w.value, ctx, w.radius)
    return ctx.badd(BoundedValue(-g2.value / 2, g2.radius / 2), ev.cosine_from_g(g))


def ivp_initial_data(ctx: PrecisionContext):
    """(c(0), c'(0)) = (cosine(0), -sine(0)): both exact, because f is even."""
    return cosine(0, ctx), ctx.bneg(sine(0, ctx))


# -- identity checks ---------------------------------------------------------------


def cosec_identity_check(z, ctx: PrecisionContext) -> BoundedValue:
    """f(z) s(pi z)^2 - pi^2, consistent with zero for noninteger z.

    Steering sizes come from the identity: |s(pi z)| ~ pi / sqrt|f(z)| and
    |s'| = |c| <= sqrt(1 + |s|^2); a bad estimate only costs sharpness.  pi z
    takes the pi of the sine's context, sharp where |f| |s| ~ 1/|u| is large.
    """
    mp = ctx.mp
    zp = ctx.point(z)
    _, dist = pole_distance(zp, ctx)
    if dist <= POLE_GUARD_ULPS * ctx.eps:
        raise PoleProximityError("the cosec identity degenerates at integers")
    tol, lf = ctx.tolerance, dist ** -2  # the Laurent term, then f's own ball
    for _ in range(2):
        fb = f_jet(zp, ctx, (_snap(tol * lf / (8 * (4 + mp.sqrt(lf)) ** 2), mp),))[0]
        if fb.lower() >= lf:
            break
        lf = fb.lower()
    ms = 4 / mp.sqrt(fb.lower()) + 1
    sub = ctx.refined(_snap(tol / (16 * (fb.upper() + 1) * ms), mp))
    pi = evaluator(sub).pi.value
    s_arg = pi.value * sub.point(zp)
    sb = ctx.adopt(sine(s_arg, sub))
    arg_r = abs(zp) * pi.radius + sub.eps * abs(s_arg)
    sb = BoundedValue(sb.value, sb.radius + (ms + 1) * arg_r)
    return ctx.bsub(ctx.bmul(fb, ctx.bmul(sb, sb)), evaluator(ctx).pi_sq)


def pythagoras_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z)^2 + c(z)^2 - 1, consistent with zero everywhere; c and s from
    _sincos at tolerance/(8 m), m = |c| + |s| + 1 <= 3 on the real axis, and
    once more where their balls ask for a tighter snapped tolerance."""
    zp, mp = ctx.point(z), ctx.mp
    sub_tol = _snap(ctx.tolerance / 24, mp)
    for _ in range(2):
        cb, sb = (ctx.adopt(b) for b in _sincos(zp, ctx.refined(sub_tol)))
        need = _snap(ctx.tolerance / (8 * (cb.upper() + sb.upper() + 1)), mp)
        if need >= sub_tol:
            break
        sub_tol = need
    total = ctx.badd(ctx.bmul(sb, sb), ctx.bmul(cb, cb))
    return ctx.bsub(total, ctx.ball(1))
