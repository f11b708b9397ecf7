"""Pi, the reciprocal g = 1/f, cosine, and sine built from the lattice sums.

Construction path:

    pi    := sqrt(6 zeta(2))            (zeta(2) by Euler-Maclaurin summation)
    g(z)  := 1/f(z), g(integer) := 0    (f nowhere zero; double zeros of g)
    c(z)  := 1 - 2 pi^2 g(z / 2 pi)
    s(z)  := -pi f'(z / 2 pi) / f(z / 2 pi)^2     (= -c', sign s > 0 just above 0)

Construction purity: nothing in this module calls platform trigonometric or
exponential functions or a platform pi constant; the only primitives are
field arithmetic, square roots, nearest-integer reduction, and the bounded
lattice/zeta evaluators.  Platform references appear solely in tests.

Because the evaluation of c and s runs through f, which reduces its argument
by the nearest integer exactly, both functions inherit exact periodicity in
the computed period 2 pi-hat.  The division z / (2 pi-hat) carries pi-hat's
radius into an argument uncertainty; it is transferred into the result radius
through an explicit local derivative bound (coarse evaluation inflated 4x,
documented allowance).  For |z| up to ~50 the result radius stays below the
context tolerance; for huge |z| it grows linearly with |z| (the honest cost
of a computed period) and the soundness guarantee is unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import PoleProximityError, ToleranceUnreachableError
from .precision import BoundedValue, PrecisionContext
from .lattice import (POLE_GUARD_ULPS, coarse_bounds, eisenstein_k, f_deriv,
                      pole_distance)
from .zetasums import coeff_a, zeta_even

PI_PROVENANCE = "sqrt(6·ζ(2))"

#: evaluation tolerance for cached pi / a0 relative to the context tolerance
_PI_SHARPEN = 10  # pi is computed at tolerance * 2**-_PI_SHARPEN


@dataclass(frozen=True)
class PiValue:
    """The computed pi with its provenance tag."""

    value: BoundedValue
    provenance: str = PI_PROVENANCE


def compute_pi(ctx: PrecisionContext) -> PiValue:
    """pi as sqrt(6 zeta(2)), radius <= the context tolerance."""
    sub = ctx.refined(ctx.tolerance / 3)
    z2 = zeta_even(1, sub)
    six = ctx.bscale(ctx.adopt(z2), 6)
    return PiValue(ctx.bsqrt(six))


class TrigEvaluator:
    """Caches pi and a0 for one context so repeated evaluations share them.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        sharp = ctx.refined(ctx.tolerance * ctx.mp.ldexp(1, -_PI_SHARPEN))
        pv = compute_pi(sharp)
        self.pi = PiValue(ctx.adopt(pv.value), pv.provenance)
        self.a0 = ctx.adopt(coeff_a(0, sharp))
        self.pi_sq = ctx.bmul(self.pi.value, self.pi.value)
        self.half_inv_pi = ctx.brecip(ctx.bscale(self.pi.value, 2))

    def w_ball(self, zp) -> BoundedValue:
        """z / (2 pi) as a ball; the radius is the argument uncertainty."""
        return self.ctx.bmul(self.ctx.ball(zp), self.half_inv_pi)


_EVALUATORS: dict[PrecisionContext, TrigEvaluator] = {}
_EV_LOCK = threading.Lock()


def evaluator(ctx: PrecisionContext) -> TrigEvaluator:
    ev = _EVALUATORS.get(ctx)
    if ev is None:
        with _EV_LOCK:
            ev = _EVALUATORS.get(ctx)
            if ev is None:
                ev = TrigEvaluator(ctx)
                _EVALUATORS[ctx] = ev
    return ev


def _snap(tol, mp):
    """Largest power of 2^8 at or below tol.

    Sub-evaluation tolerances derived from coarse magnitudes vary smoothly
    with the point; snapping them to a small set of values keeps the derived
    contexts, and with them the keys of _EVALUATORS and of the per-precision
    mpmath context cache, few across points.  Snapping only ever tightens a
    tolerance.
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
    mp = ctx.mp
    zp = ctx.point(z)
    u, dist = pole_distance(zp, ctx)
    if dist == 0:
        return ctx.ball(0)
    if dist <= POLE_GUARD_ULPS * ctx.eps:
        near = mp.mpf(1.5) * dist * dist
        return BoundedValue(mp.mpf(0), near + ctx.eps * near)
    lf = coarse_bounds(zp, ctx)[0].lower()
    tol = ctx.tolerance
    for attempt in range(2):
        sub_tol = _snap(min(tol * lf * lf / 2, lf / 4) * mp.ldexp(1, -6 * attempt), mp)
        fb = eisenstein_k(2, zp, ctx.refined(sub_tol))
        gb = ctx.brecip(ctx.adopt(fb))
        if gb.radius <= tol:
            return gb
    raise ToleranceUnreachableError(
        f"g({mp.nstr(zp, 8)}) = 1/f keeps radius {mp.nstr(gb.radius, 3)} at "
        f"{ctx.precision} bits, above tolerance {mp.nstr(tol, 5)}")


# -- cosine ---------------------------------------------------------------------


def cosine(z, ctx: PrecisionContext) -> BoundedValue:
    """c(z) = 1 - 2 pi^2 g(z / 2 pi); c(0) = 1 exactly."""
    mp = ctx.mp
    zp = ctx.point(z)
    if zp == 0:
        return ctx.ball(1)
    ev = evaluator(ctx)
    w = ev.w_ball(zp)
    _, au = pole_distance(w.value, ctx)
    # lg bounds |g'| = |f'/f^2| near w: near an integer, where f explodes,
    # by g'(u) = 2u + O(u^3); elsewhere from the coarse f and f' (inflated 4x).
    if au <= mp.mpf("0.05"):
        lg = 3 * (au + w.radius) + mp.ldexp(1, -ctx.precision // 2)
    else:
        fc, fpc = coarse_bounds(w.value, ctx, order=1)
        lf = fc.lower()
        lg = 4 * fpc.upper() / (lf * lf) + mp.mpf(1) / 1024
    tol = ctx.tolerance
    for attempt in range(2):
        eps_g = tol / 160 * mp.ldexp(1, -6 * attempt)
        gb = ctx.adopt(g_eval(w.value, ctx.refined(eps_g)))
        gb = BoundedValue(gb.value, gb.radius + lg * w.radius)
        c = ctx.bsub(ctx.ball(1), ctx.bscale(ctx.bmul(ev.pi_sq, gb), 2))
        if c.radius <= tol:
            return c
    return c


# -- sine -----------------------------------------------------------------------


def sine(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z) = -pi f'(z / 2 pi) / f(z / 2 pi)^2 (= -c'); s(0) = 0 exactly.

    Within a small guard of a period multiple the quotient route degenerates;
    there |s(z)| = |sin of the offset| <= 2 (pi + r_pi)(|u| + r_w) gives an
    honest zero-centered ball.
    """
    mp = ctx.mp
    zp = ctx.point(z)
    if zp == 0:
        return ctx.ball(0)
    ev = evaluator(ctx)
    w = ev.w_ball(zp)
    u, au = pole_distance(w.value, ctx)
    guard = max(32 * ctx.eps, 4 * w.radius)
    if au <= guard:
        span = (au + w.radius) * (ev.pi.value.value + ev.pi.value.radius) * 2
        span = span * (1 + mp.ldexp(1, -20)) + mp.ldexp(1, -2 * ctx.precision)
        return BoundedValue(mp.mpf(0), span)
    fc, fpc, f2c = coarse_bounds(w.value, ctx, order=2)
    lf = fc.lower()
    mfp = fpc.upper()
    qmag = mfp / (lf * lf) + 1
    lq = 4 * (f2c.upper() / (lf * lf) + 2 * mfp * mfp / (lf * lf * lf)) + 1
    tol = ctx.tolerance
    for attempt in range(2):
        rho = tol / (64 * qmag) * mp.ldexp(1, -6 * attempt)
        eps_f = _snap(min(rho * lf / 2, lf / 4), mp)
        eps_fp = _snap(rho * (mfp + lf) / 2, mp)
        fb = ctx.adopt(eisenstein_k(2, w.value, ctx.refined(eps_f)))
        fpb = ctx.adopt(f_deriv(1, w.value, ctx.refined(eps_fp)))
        q = ctx.bmul(fpb, ctx.brecip(ctx.bmul(fb, fb)))
        q = BoundedValue(q.value, q.radius + lq * w.radius)
        s = ctx.bneg(ctx.bmul(ev.pi.value, q))
        if s.radius <= tol:
            return s
    return s


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


# -- finite-difference residuals ---------------------------------------------------


def fd_step(ctx: PrecisionContext, h=None):
    """Default central-difference step: tolerance^(1/4) clamped to [1e-6, 1e-3]."""
    mp = ctx.mp
    if h is not None:
        step = ctx.real(h)
        if not step > 0:
            raise ValueError("finite-difference step must be positive")
        return step
    step = mp.sqrt(mp.sqrt(ctx.tolerance))
    return min(max(step, mp.mpf("1e-6")), mp.mpf("1e-3"))


def reciprocal_ode_residual(z, ctx: PrecisionContext, h=None) -> BoundedValue:
    """g''(z) + 12 a0 g(z) - 2 with g'' by central differences.

    The radius combines the five g-evaluation balls with the O(h^2)
    discretization bound h^2 M4 / 12, M4 estimated from the fourth central
    difference (inflated 2x plus a unit floor).
    """
    zp = ctx.point(z)
    step = fd_step(ctx, h)
    ev = evaluator(ctx)
    samples = _fd_samples(g_eval, zp, step, ctx)
    d2, disc = _second_difference(samples, step, ctx)
    res = ctx.badd(d2, ctx.bscale(ctx.bmul(ev.a0, samples[2]), 12))
    res = ctx.bsub(res, ctx.ball(2))
    return BoundedValue(res.value, res.radius + disc)


def ivp_residual(z, ctx: PrecisionContext, h=None) -> BoundedValue:
    """c''(z) + c(z) with c'' by central differences (same error model)."""
    zp = ctx.point(z)
    step = fd_step(ctx, h)
    samples = _fd_samples(cosine, zp, step, ctx)
    d2, disc = _second_difference(samples, step, ctx)
    res = ctx.badd(d2, samples[2])
    return BoundedValue(res.value, res.radius + disc)


def ivp_initial_data(ctx: PrecisionContext, h=None):
    """(c(0), central-difference c'(0) ball including its discretization bound).

    c(0) is exact; |c'(0)| must vanish within the second ball's radius.
    """
    step = fd_step(ctx, h)
    c0 = cosine(0, ctx)
    sub = ctx.refined(ctx.tolerance * step / 8)
    cp = (ctx.adopt(cosine(step, sub)), ctx.adopt(cosine(-step, sub)))
    diff = ctx.bsub(cp[0], cp[1])
    inv = ctx.brecip(ctx.ball(2 * step))
    d1 = ctx.bmul(diff, inv)
    # |c'''| <= 1 + |c| near 0; third-derivative bound via the cheap floor
    m3 = cp[0].upper() + cp[1].upper() + 1
    disc = step * step * m3 / 6
    return c0, BoundedValue(d1.value, d1.radius + disc)


def _fd_samples(fn, zp, step, ctx: PrecisionContext):
    """fn at z - 2h .. z + 2h, each evaluated at tolerance * h^2 / 16."""
    sub = ctx.refined(ctx.tolerance * step * step / 16)
    offsets = (-2, -1, 0, 1, 2)
    out = []
    for k in offsets:
        bv = fn(zp + k * step, sub)
        out.append(ctx.adopt(bv))
    return out


def _second_difference(samples, step, ctx: PrecisionContext):
    """((u(z+h) - 2u(z) + u(z-h)) / h^2 ball, discretization bound h^2 M4 / 12)."""
    mp = ctx.mp
    um2, um1, u0, up1, up2 = samples
    hb = ctx.ball(step)
    h2 = ctx.bmul(hb, hb)
    num = ctx.badd(ctx.badd(up1, um1), ctx.bscale(u0, -2))
    d2 = ctx.bmul(num, ctx.brecip(h2))
    # fourth central difference -> M4 estimate (2x inflation + unit floor)
    d4 = ctx.badd(ctx.badd(um2, up2),
                  ctx.badd(ctx.bscale(ctx.badd(um1, up1), -4), ctx.bscale(u0, 6)))
    h4 = ctx.bmul(h2, h2)
    m4 = 2 * ctx.bmul(d4, ctx.brecip(h4)).upper() + 1
    disc = step * step * m4 / 12
    return d2, mp.mpf(disc)


# -- identity checks ---------------------------------------------------------------


def cosec_identity_check(z, ctx: PrecisionContext) -> BoundedValue:
    """f(z) s(pi z)^2 - pi^2, consistent with zero for noninteger z."""
    mp = ctx.mp
    zp = ctx.point(z)
    _, dist = pole_distance(zp, ctx)
    if dist <= POLE_GUARD_ULPS * ctx.eps:
        raise PoleProximityError("the cosec identity degenerates at integers")
    ev = evaluator(ctx)
    s_arg = ev.pi.value.value * zp
    arg_r = abs(zp) * ev.pi.value.radius + ctx.eps * abs(s_arg)
    fc = coarse_bounds(zp, ctx)[0]
    mf = fc.upper()
    # steering sizes, from the identity itself: |s(pi z)| ~ pi / sqrt|f(z)|
    # and |s'| = |c| <= sqrt(1 + |s|^2); a bad estimate only costs sharpness,
    # never soundness, since every radius below is carried exactly.
    ms = 4 / mp.sqrt(fc.lower()) + 1
    ls = ms + 1
    tol = ctx.tolerance
    eps_f = _snap(tol / (8 * ms * ms), mp)
    eps_s = _snap(tol / (16 * (mf + 1) * ms), mp)
    fb = ctx.adopt(f_deriv(0, zp, ctx.refined(eps_f)))
    sb = ctx.adopt(sine(s_arg, ctx.refined(eps_s)))
    sb = BoundedValue(sb.value, sb.radius + ls * arg_r)
    return ctx.bsub(ctx.bmul(fb, ctx.bmul(sb, sb)), ev.pi_sq)


def pythagoras_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z)^2 + c(z)^2 - 1, consistent with zero everywhere."""
    zp = ctx.point(z)
    coarse = ctx.coarse()
    ms = sine(zp, coarse).upper() + cosine(zp, coarse).upper() + 1
    sub = ctx.refined(_snap(ctx.tolerance / (8 * ms), ctx.mp))
    sb, cb = ctx.adopt(sine(zp, sub)), ctx.adopt(cosine(zp, sub))
    total = ctx.badd(ctx.bmul(sb, sb), ctx.bmul(cb, cb))
    return ctx.bsub(total, ctx.ball(1))
