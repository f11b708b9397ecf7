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
[g, g', g''] from one lattice pass for [f, f', f''] per try, each order to
a binary exponent and steered in integers.

A call runs in integers from the point to the returned ball.  Each
context's evaluator keeps pi^2, pi-hat and (2 pi-hat)^-1 as integer balls
at one scale 2^-P, about 128 bits below the context's ulp, so w = z (2
pi-hat)^-1 is one integer product, reduced by its nearest integer, with
its radius a count of units of 2^-P.  lattice.fixed_jet holds the f jet
over that disc; g, g', g'', c = 1 - 2 pi^2 g, s = pi-hat g', the residuals
and the identity checks are exact products and counted divisions of
integer balls, and each returned ball is rounded once (fixedpoint.to_ball).
With so small a disc, cos and sin raise ToleranceUnreachableError off the
axis only near the rounding limit, where one ulp of |c| or |s| reaches the
tolerance.
"""

from __future__ import annotations

import functools
from math import isqrt

from .errors import InconclusiveNonvanishingError, PoleProximityError, ToleranceUnreachableError
from .fixedpoint import ball_mul, ball_quotient, floor_abs, rounded_count, tdiv, to_ball, tshift
from .precision import BoundedValue, PrecisionContext, Record, dyadic
from .lattice import check_jet, fixed_jet, in_pole_guard, jet_bounds, reduce_point, reduced
from .zetasums import KERNEL_GUARD_BITS, zeta_fixed

PI_PROVENANCE = "sqrt(6·ζ(2))"


class PiValue(Record):
    """The computed pi with its provenance tag."""

    __slots__ = ("value", "provenance")

    def __init__(self, value: BoundedValue, provenance: str = PI_PROVENANCE):
        self._set(value, provenance)


def compute_pi(ctx: PrecisionContext) -> PiValue:
    """pi as sqrt(6 zeta(2)), to a few ulps of the context's precision."""
    return evaluator(ctx).pi


class TrigEvaluator:
    """pi^2, pi-hat and (2 pi-hat)^-1 for one context as integer balls
    (re, im, err) at one scale 2^-P, P = KERNEL_GUARD_BITS + precision + 127,
    from one zeta(2) ball read from the Z_0 table (zetasums.zeta_fixed, a
    few units of 2^-P): pi^2 = 6 zeta(2) = 3 a0 exactly, pi-hat = sqrt(pi^2)
    by isqrt and (2 pi-hat)^-1 by one counted division, each within a few
    units.  pi, a0 and pi^2 are also kept rounded once to the context's
    precision, and g_exp, the binary exponent 2^g_exp <= tolerance/160 to
    which cosine, the reciprocal and ivp residuals and pythagoras take g.

    Immutable after construction; safe for concurrent use.
    """

    def __init__(self, ctx: PrecisionContext):
        self.ctx = ctx
        prec = ctx.precision
        P = KERNEL_GUARD_BITS + prec + 127
        z2, err = zeta_fixed(1, P)
        self.scale = P
        self.pi_sq_fixed = (6 * z2, 0, 6 * err)
        # pi^2 > 9 within its error: |sqrt(x) - sqrt(x')| <= |x - x'| / 6, plus the isqrt floor
        self.pi_fixed = (isqrt(6 * z2 << P), 0, err + 1)
        self.half_inv_pi = ball_quotient((1, 0, 0), tuple(2 * x for x in self.pi_fixed), 1, 2 * P)
        self.a0 = to_ball(2 * z2, 0, 2 * err, P, prec)
        self.pi_sq = to_ball(*self.pi_sq_fixed, P, prec)
        self.pi = PiValue(to_ball(*self.pi_fixed, P, prec))
        self.g_exp = ctx.exponent_below(160)

    def reduced_w(self, z):
        """(u, R) for the exact pair z = (zr, zi, Z) (ctx.exact): w = z (2 pi-hat)^-1,
        one product truncated to 2^-P, minus its nearest integer, is the reduced
        point u = (ur, ui, P), and the true z / 2 pi lies within R units of it."""
        zr, zi, Z = z
        h, _, eh = self.half_inv_pi
        R = -(-(abs(zr) + abs(zi)) * eh >> Z) + (2 if zi else 1)
        return reduced(tshift(zr * h, -Z), tshift(zi * h, -Z), self.scale), R


#: the evaluators of the 32 contexts used last; lru_cache is thread-safe, and two
#: threads that build one context's evaluator at once get two equal ones
_cached_evaluator = functools.lru_cache(maxsize=32)(TrigEvaluator)


def evaluator(ctx: PrecisionContext) -> TrigEvaluator:
    """The TrigEvaluator of ctx, from the bounded cache; a plain function, so
    that profilers which wrap the public functions see its calls."""
    return _cached_evaluator(ctx)


# -- the g jet -------------------------------------------------------------------


def _g_jet(u, work: PrecisionContext, R: int, exps, rounded: bool = False):
    """(Q, [g, g', g''][:n]) at every point of the disc of radius R units of
    2^-W about the reduced point u = (ur, ui, W), n = len(exps): order i is the
    ball (re, im, err) at scale 2^-Q within 2^exps[i], a binary exponent (None:
    only as tight as the higher orders need), and with rounded, also once
    rounded to work's precision (fixedpoint.rounded_count); from one
    lattice.fixed_jet pass per try.  g = 1/f, g' = -f'/f^2 and g'' = (2 f'^2
    - f f'')/f^3 are formed from the pass's integer balls, Q the tightest
    exponent's bits plus KERNEL_GUARD_BITS, each by exact products and one
    division charged over the whole f ball (fixedpoint.ball_quotient).

    The steering only picks the pass's targets, in integer binary exponents.
    f^(j) goes to min over i >= j of 2^exps[i] / (2 (i+1) S_ij), S_ij the
    first-order sensitivity of g^(i) to f^(j) at |f| >= lf, |f'| <= mfp and
    |f''| <= mf2, and f to at most lf/4, which keeps its ball off zero; each
    target is snapped down to a power of 2^8.  The first try takes lf, mfp
    and mf2 from lattice.jet_bounds, at the floor eps/4t for the tightest
    target t (|f| decays like 4 pi^2 e^(-2 pi |Im u|), and mfp and mf2
    follow |eps_k(u)| <= |u|^-k + 2^(k+2)); the next try takes them from the
    last try's balls, the third 2^-6 tighter;
    ToleranceUnreachableError after three.
    Within the pole guard g and g' are zero-centred balls at Q = 2W,
    |g| <= 1.5 |u|^2 and |g'| = |sin(2 pi u)| / pi <= 3 |u| there (|u| at
    most |ur| + |ui| + R units), and g'' raises PoleProximityError.
    """
    n, prec = len(exps), work.precision
    ur, ui, W = u

    def charged(re, im, err):
        return rounded_count(re, im, err, prec) if rounded else err

    def fits(jet):
        return all(t is None or charged(*b) <= tshift(1, t + Q) for b, t in zip(jet, exps))

    if in_pole_guard(u, prec, R):
        if n > 2:
            from .printing import nstr
            raise PoleProximityError(f"g'' at {nstr(u, 8)} is within the pole guard of an integer")
        near, Q = R + abs(ur) + abs(ui), 2 * W
        jet = [(0, 0, (3 * near * near + 1) // 2), (0, 0, 3 * near << W)][:n]
        if fits(jet):
            return Q, jet
    else:
        tmin = min(e for e in exps if e is not None)
        # the first steer for |f| not below eps/4t: one ulp of |g| exceeds t there
        lf, _, mfp, mf2 = jet_bounds(u, -prec - 2 - tmin)
        bounds = [lf, mfp, mf2]
        Q = KERNEL_GUARD_BITS - min(0, tmin)
        for attempt in range(3):
            lf, mfp, mf2 = bounds
            sens = ((-2 * lf,),
                    (1 + mfp - 3 * lf, -2 * lf),
                    (1 + max(3 + 2 * mfp - 4 * lf, 1 + mf2 - 3 * lf), 2 + mfp - 3 * lf, -2 * lf))
            ts = [min(exps[i] - (1, 2, 3)[i] - sens[i][j] for i in range(j, n) if exps[i] is not None)
                  for j in range(n)]
            ts[0] = min(ts[0], lf - 2)
            # snapped to a power of 2^8, then over |c| <= 2^(0, 1, 3) for eps_(j+2)
            targets = [8 * ((t - 6 * (attempt // 2)) // 8) - (0, 1, 3)[j] for j, t in enumerate(ts)]
            S, (f, *fd) = fixed_jet(u, work, targets, R)
            # g^(i) = p_i / f^(i+1): p_0 = 1, p_1 = -f', p_2 = 2 f'^2 - f f''
            numerators = [(1, 0, 0)]
            if n > 1:
                fr, fi, ef = fd[0]
                numerators.append((-fr, -fi, ef))
            if n > 2:
                (ar, ai, ea), (br, bi, eb) = ball_mul(fd[0], fd[0]), ball_mul(f, fd[1])
                numerators.append((2 * ar - br, 2 * ai - bi, 2 * ea + eb))
            jet = [ball_quotient(p, f, i + 1, S + Q) for i, p in enumerate(numerators)]
            if fits(jet):
                return Q, jet
            bounds[0] = (floor_abs(*f[:2]) - f[2]).bit_length() - 1 - S
            bounds[1:n] = [(abs(re) + abs(im) + err).bit_length() - S for re, im, err in fd]
    from .printing import nstr
    radii = (nstr(dyadic(charged(*b), -Q), 3) for b in jet)
    raise ToleranceUnreachableError(
        f"the g jet at {nstr(u, 8)} keeps radii {', '.join(radii)} "
        f"at {work.precision} bits, above tolerances "
        f"{', '.join('-' if t is None else f'2^{t}' for t in exps)}")


def g_eval(z, ctx: PrecisionContext) -> BoundedValue:
    """1/f(z), extended by g(integer) := 0 (the double zero of g).

    Within the pole guard of an integer the reciprocal route is unusable;
    there |g(z)| <= 1.5 |z - n|^2 (from f(u) = u^-2 (1 + O(u^2)) with an
    explicit series bound), so a zero-centered ball with that radius is
    returned.  Elsewhere f is evaluated tightly enough that the reciprocal
    ball, rounded, meets the context tolerance, or ToleranceUnreachableError
    is raised.
    """
    Q, (g,) = _g_jet(reduce_point(z, ctx), ctx, 0, (ctx.tolerance_exponent,), rounded=True)
    return to_ball(*g, Q, ctx.precision)


# -- cosine and sine ---------------------------------------------------------------


def _cos_fixed(ev: TrigEvaluator, g, Q: int):
    """(re, im, err, S): 1 - 2 pi^2 g for the ball g at 2^-Q, exact at 2^-S."""
    re, im, err = ball_mul(ev.pi_sq_fixed, g)
    S = ev.scale + Q
    return (1 << S) - 2 * re, -2 * im, 2 * err, S


def _sin_fixed(ev: TrigEvaluator, g1, Q: int):
    """(re, im, err, S): pi-hat g' for the ball g1 of g' at 2^-Q, exact at 2^-S."""
    return (*ball_mul(ev.pi_fixed, g1), ev.scale + Q)


def _at_w(name, z, ctx: PrecisionContext, exps, form) -> BoundedValue:
    """form(ev, the jet's highest order, Q) rounded once, the g jet to 2^exps
    over the disc of w = z / 2 pi (ev.reduced_w, z an exact pair), within the
    tolerance, or ToleranceUnreachableError naming name(z), chained from the
    error of a jet whose radii or reciprocal cannot be certified."""
    ev = evaluator(ctx)
    bv = cause = None
    try:
        u, R = ev.reduced_w(z)
        Q, jet = _g_jet(u, ctx, R, exps)
        bv = to_ball(*form(ev, jet[-1], Q), ctx.precision)
    except (ToleranceUnreachableError, InconclusiveNonvanishingError) as exc:
        cause = exc
    return ctx.certified(bv, lambda nstr: f"{name}({nstr(z, 8).strip('()')}) cannot be certified "
                         f"to tolerance {nstr(ctx._tol, 5)} at {ctx.precision} bits", cause)


def cosine(z, ctx: PrecisionContext) -> BoundedValue:
    """c(z) = 1 - 2 pi^2 g(z / 2 pi); c(0) = 1 exactly; g to tolerance/160
    (the evaluator's g_exp) over the disc of z / 2 pi.
    ToleranceUnreachableError where the radius cannot meet the tolerance."""
    z = ctx.exact(z)
    if not (z[0] or z[1]):
        return ctx.ball(1)
    return _at_w("cos", z, ctx, (evaluator(ctx).g_exp,), _cos_fixed)


def sine(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z) = pi g'(z / 2 pi) (= -c'); s(0) = 0 exactly; g' to tolerance/4
    over the disc of z / 2 pi.

    Within the pole guard of a period multiple, where the quotient route
    degenerates, |g'(w)| <= 3 (|u| + r_w) gives a zero-centered ball.
    ToleranceUnreachableError where the radius cannot meet the tolerance.
    """
    z = ctx.exact(z)
    if not (z[0] or z[1]):
        return ctx.ball(0)
    return _at_w("sin", z, ctx, (None, ctx.tolerance_exponent - 2), _sin_fixed)


# -- Taylor route ----------------------------------------------------------------


def _cos_terms(zr: int, zi: int, Z: int, W: int):
    """The balls (re, im, err) at scale 2^-W of the terms (-1)^m z^(2m)/(2m)!,
    m = 1, 2, ..., for z = (zr + i zi) 2^-Z.  z^2 is shifted to 2^-W exactly
    or truncated, 1 unit per component; each term is the last one times z^2
    (fixedpoint.ball_mul), negated and divided once by (2m-1)(2m) 2^W,
    truncating toward zero: the propagated count over that divisor, rounded
    up, plus 1 unit (2 if complex)."""
    z2r, z2i = tshift(zr * zr - zi * zi, W - 2 * Z), tshift(2 * zr * zi, W - 2 * Z)
    unit = 2 if z2i else 1
    z2 = (z2r, z2i, unit if 2 * Z > W else 0)
    term, m = (1 << W, 0, 0), 0
    while True:
        m += 1
        d = (2 * m - 1) * (2 * m) << W
        re, im, err = ball_mul(term, z2)
        term = (tdiv(-re, d), tdiv(-im, d), -(-err // d) + unit)
        yield term


def taylor_cosine(z, ctx: PrecisionContext) -> BoundedValue:
    """Partial sums of sum (-1)^m z^(2m) / (2m)! with a geometric tail bound,
    the terms t_m within e_m units of 2^-W (_cos_terms), W = precision + 32,
    rounded once.  The sum stops before the first t_m with |t_m|_1 <=
    tolerance/4 and |z|^2 <= (2m+1)(2m+2)/2, where each later term is at most
    half the last: the tail is at most 2 (|t_m|_1 + e_m) units.  Enforced
    domain |z| <= 4, where the terms decay factorially, so the loop ends;
    the domain and the zero test are decided on the exact pair of z.
    ToleranceUnreachableError when the radius exceeds the tolerance.
    """
    zr, zi, Z = ctx.exact(z)
    az2 = zr * zr + zi * zi
    if az2 > 16 << 2 * Z:
        from .printing import modulus, nstr
        r = modulus(dyadic(zr, -Z), dyadic(zi, -Z) if zi else None, ctx.precision)
        raise ValueError(f"taylor_cosine is restricted to |z| <= 4, got |z| = {nstr(r, 6)}")
    if not az2:
        return ctx.ball(1)
    W, (_, man, exp, _) = ctx.precision + 32, ctx._tol
    quarter = tshift(man, exp + W) >> 2  # floor(tolerance 2^W) / 4
    re, im, err = 1 << W, 0, 0
    for m, (tr, ti, e) in enumerate(_cos_terms(zr, zi, Z, W), 1):
        if abs(tr) + abs(ti) <= quarter and 2 * az2 <= (2 * m + 1) * (2 * m + 2) << 2 * Z:
            break
        re, im, err = re + tr, im + ti, err + e
    bv = to_ball(re, im, err + 2 * (abs(tr) + abs(ti) + e), W, ctx.precision)
    return ctx.certified(bv, lambda nstr: f"taylor_cosine({nstr((zr, zi, Z), 8)}) keeps radius "
                         f"{nstr(bv.rad, 3)} at {ctx.precision} bits, above tolerance {nstr(ctx._tol, 5)}")


# -- jet residuals -----------------------------------------------------------------


def _reciprocal_fixed(ev: TrigEvaluator, u, R: int, ctx: PrecisionContext):
    """(re, im, err, S): g''(w) + 4 pi^2 g(w) - 2 (4 pi^2 = 12 a0) over the
    disc of radius R units about the reduced point u, g to tolerance/160 and
    g'' to tolerance/4 from one jet; exact products at 2^-S, S = P + Q."""
    Q, (g, _, g2) = _g_jet(u, ctx, R, (ev.g_exp, None, ctx.tolerance_exponent - 2))
    P = ev.scale
    re, im, err = ball_mul(ev.pi_sq_fixed, g)
    return (g2[0] << P) + 4 * re - (2 << P + Q), (g2[1] << P) + 4 * im, (g2[2] << P) + 4 * err, P + Q


def reciprocal_ode_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """g''(z) + 12 a0 g(z) - 2 from one jet at z (_reciprocal_fixed), rounded
    once.  ToleranceUnreachableError where the error of pi^2 times |g| alone
    exceeds the tolerance (far off the axis, where |g| grows like
    e^(2 pi |Im z|))."""
    ev, z = evaluator(ctx), ctx.exact(z)
    bv = to_ball(*_reciprocal_fixed(ev, reduced(*z), 0, ctx), ctx.precision)
    return ctx.certified(bv, lambda nstr: f"the reciprocal ODE residual at {nstr(z, 8)} keeps radius "
                         f"{nstr(bv.rad, 3)}, above tolerance {nstr(ctx._tol, 5)}")


def ivp_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """c''(z) + c(z) with c(z) = 1 - 2 pi^2 g(w) and c''(z) = -g''(w)/2, that
    is -(g''(w) + 4 pi^2 g(w) - 2)/2: the reciprocal residual's integers over
    the disc of w = z / 2 pi, negated, exact at 2^-(S+1)."""
    ev = evaluator(ctx)
    re, im, err, S = _reciprocal_fixed(ev, *ev.reduced_w(ctx.exact(z)), ctx)
    return to_ball(-re, -im, err, S + 1, ctx.precision)


def ivp_initial_data(ctx: PrecisionContext):
    """(c(0), c'(0)) = (cosine(0), -sine(0)): both exact, because f is even;
    sine(0) is the exact zero ball, its own negative."""
    return cosine(0, ctx), sine(0, ctx)


# -- identity checks ---------------------------------------------------------------


def cosec_identity_check(z, ctx: PrecisionContext, jet=None) -> BoundedValue:
    """f(z) s(pi z)^2 - pi^2, consistent with zero for noninteger z.

    s(pi z) = pi g'(z / 2), from one g jet at the exact point z / 2 (no disc).
    |s(pi z)| = pi / sqrt|f(z)| <= ms = 4 2^(-low/2) + 1 for |f| >= 2^low, so f
    goes to tolerance / (8 ms^2) >= 2^(te - 1 - max(8 - low, 4)), 2^te <=
    tolerance, and g' to tolerance / (64 |f| ms), each a binary exponent from
    the bit lengths of the integer f ball.  f is the jet's (lattice.check_jet),
    that sharp for the first steer 2^lf of |f| (lattice.jet_bounds); where
    its lower end is below 2^lf, one more pass takes f to the target at that
    lower end.  The identity is one exact product of the integer balls,
    rounded once.
    """
    zr, zi, Z = z = ctx.exact(z)
    te = ctx.tolerance_exponent
    P, (f, *_) = jet or check_jet(z, ctx)
    u = reduced(zr, zi, Z)
    # 2^low <= the lower end of |f|, the ball excludes zero (fixed_jet)
    low = (floor_abs(f[0], f[1]) - f[2]).bit_length() - 1 - P
    if low < jet_bounds(u, -4 * ctx.precision)[0]:
        P, (f,) = fixed_jet(u, ctx, (te - 1 - max(8 - low, 4),))
        low = (floor_abs(f[0], f[1]) - f[2]).bit_length() - 1 - P
    # |f| < 2^h and ms <= 4 2^-(low // 2) + 1 <= 2^(max(2 - low // 2, 0) + 1)
    h = (floor_abs(f[0], f[1]) + 1 + f[2]).bit_length() - P
    e = te - 7 - h - max(2 - low // 2, 0)
    Q, (_, g1) = _g_jet(reduced(zr, zi, Z + 1), ctx, 0, (None, e))
    ev = evaluator(ctx)
    *s, S = _sin_fixed(ev, g1, Q)
    re, im, err = ball_mul(f, ball_mul(s, s))
    T = P + 2 * S
    pr, _, ep = ev.pi_sq_fixed
    return to_ball(re - (pr << T - ev.scale), im, err + (ep << T - ev.scale), T, ctx.precision)


def pythagoras_residual(z, ctx: PrecisionContext) -> BoundedValue:
    """s(z)^2 + c(z)^2 - 1, consistent with zero everywhere; c = 1 - 2 pi^2 g(w)
    and s = pi g'(w) from one [g, g'] jet at w = z / 2 pi, g to tolerance/(160 2^m)
    and g' to tolerance/(32 2^m); 2^m > e^|Im z| >= |c|, |s| for m = int(1.45
    |Im z|) + 1 (1.45 > log2 e; the product rounded to the precision, as an
    mpf product rounds it), so the radius stays near tolerance/2.  Exact at
    2^-2S, rounded once."""
    zr, zi, Z = z = ctx.exact(z)
    ev = evaluator(ctx)
    # the float 1.45 is 6530219459687219 2^-52
    _, man, exp, _ = dyadic(6530219459687219 * abs(zi), -Z - 52, ctx.precision, "n")
    m = tshift(man, exp) + 1
    u, R = ev.reduced_w(z)
    Q, (g, g1) = _g_jet(u, ctx, R, (ev.g_exp - m, ctx.tolerance_exponent - 5 - m))
    *c, S = _cos_fixed(ev, g, Q)
    *s, _ = _sin_fixed(ev, g1, Q)
    (ar, ai, ea), (br, bi, eb) = ball_mul(s, s), ball_mul(c, c)
    return to_ball(ar + br - (1 << 2 * S), ai + bi, ea + eb, 2 * S, ctx.precision)
