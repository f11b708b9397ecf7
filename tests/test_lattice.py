"""The lattice sums: values, symmetry, truncation bounds, residuals, scans.

Frozen decimal literals come from an independent closed-form implementation
(45 digits); the code under test computes the same quantities purely by
lattice summation.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from eistrig import lattice
from eistrig import (EistrigError, InconclusiveNonvanishingError, PoleProximityError,
                     PrecisionContext, ToleranceUnreachableError, eisenstein_k,
                     naive_symmetric_value, strip_decay, symmetric_tail_bound)
from eistrig.fixedpoint import to_ball
from eistrig.precision import to_mp
from eistrig.lattice import (first_order_ode_residual, fixed_jet, nonvanishing_scan,
                             reduce_point, second_order_ode_residual)
from test_properties import f_jet, lattice_closed_form, mp_fixed

F_HALF = "9.86960440108935861883449099987615113531369941"      # f(1/2) = pi^2
F_QUARTER = "19.7392088021787172376689819997523022706273988"    # f(1/4) = 2 pi^2
F_03 = "15.079413702802341092319247514096655083116792"
E3_03 = "34.4187718572675540608586404092245653130463632"
F_C_RE = "1.35495456140520999687311287792033351184296195"       # f(0.3+0.4i)
F_C_IM = "-2.70623336370912496065459327637374712443928327"


def assert_matches(bv, literal, ctx, slack="1e-40"):
    wide = ctx.refined(ctx.mp.mpf("1e-44"))
    err = abs(wide.mp.mpf(bv.value) - wide.mp.mpf(literal))
    assert err <= wide.mp.mpf(bv.radius) + wide.mp.mpf(slack)


def test_frozen_real_values(ctx):
    for z, literal in (("0.5", F_HALF), ("0.25", F_QUARTER), ("0.3", F_03)):
        bv = eisenstein_k(2, z, ctx)
        assert bv.radius <= ctx.tolerance
        assert_matches(bv, literal, ctx)


def test_frozen_complex_value(ctx):
    bv = eisenstein_k(2, ctx.point("0.3+0.4i"), ctx)
    assert bv.radius <= ctx.tolerance
    wide = ctx.refined(ctx.mp.mpf("1e-44"))
    ref = wide.mp.mpc(wide.mp.mpf(F_C_RE), wide.mp.mpf(F_C_IM))
    assert abs(wide.mp.mpc(bv.value) - ref) <= wide.mp.mpf(bv.radius) + wide.mp.mpf("1e-40")


def test_third_sum_matches_derivative_route(ctx):
    # f' = -2 eps_3: check the frozen eps_3(0.3) against the jet's scaling
    bv = eisenstein_k(3, "0.3", ctx)
    assert_matches(bv, E3_03, ctx)
    fp = f_jet("0.3", ctx, (ctx.tolerance, ctx.tolerance))[1]
    diff = abs(fp.value + 2 * bv.value)
    assert diff <= fp.radius + 2 * bv.radius + ctx.eps


def test_argument_reduction_gives_bitexact_periodicity(ctx):
    # shifts by exact integers reduce to the identical summation
    base = ctx.point("0.375")  # dyadic: base + n is exactly representable
    ref = eisenstein_k(2, base, ctx)
    for shift in (1, -3, 12345, 10**6):
        moved = eisenstein_k(2, base + shift, ctx)
        assert moved.value == ref.value and moved.radius == ref.radius


def test_evenness_is_bitexact(ctx):
    for z in ("0.3", "0.41", ctx.point("0.2+0.7i")):
        zp = ctx.point(z)
        a = eisenstein_k(2, zp, ctx)
        b = eisenstein_k(2, -zp, ctx)
        assert a.value == b.value and a.radius == b.radius


def test_conjugate_symmetry(ctx):
    zp = ctx.point("0.3+0.4i")
    a = eisenstein_k(2, zp, ctx)
    b = eisenstein_k(2, ctx.mp.conj(zp), ctx)
    assert abs(ctx.mp.conj(b.value) - a.value) <= a.radius + b.radius


def test_pole_guard_rejects_near_integer_points(ctx):
    with pytest.raises(PoleProximityError):
        eisenstein_k(2, "1.0", ctx)
    with pytest.raises(PoleProximityError):
        eisenstein_k(2, ctx.mp.mpf(3) + ctx.eps, ctx)
    # just outside the guard |f| ~ 1e70 outgrows what 128 bits resolve at 1e-12
    with pytest.raises(ToleranceUnreachableError):
        eisenstein_k(2, ctx.mp.mpf(3) + 1000 * ctx.eps, ctx)
    # a little farther out the radius is certified again
    assert eisenstein_k(2, ctx.mp.mpf(3) + ctx.mp.ldexp(1, -24), ctx).radius <= ctx.tolerance


def test_reduce_point_subtracts_the_nearest_integer(ctx):
    assert reduce_point(ctx.point("7.25"), ctx) == (1, 0, 2)  # 0.25
    assert reduce_point(ctx.point("-2.875"), ctx) == (1, 0, 3)  # 0.125


def test_ode_residuals_vanish_on_and_off_axis(ctx):
    for z in ("0.3", "0.05", ctx.point("0.2+1.5i")):
        r2 = second_order_ode_residual(z, ctx)
        assert r2.consistent_with_zero() and r2.radius <= ctx.mp.mpf("1e-9")
        r1 = first_order_ode_residual(z, ctx)
        assert r1.consistent_with_zero() and r1.radius <= ctx.mp.mpf("1e-9")


def test_ode_residuals_near_an_integer_keep_their_tolerance(ctx):
    # f''(3.0001) ~ 6e16: one ulp of it exceeds the residuals' sub-tolerance,
    # yet the residual ball still meets the caller's tolerance
    for residual in (second_order_ode_residual, first_order_ode_residual):
        r = residual("3.0001", ctx)
        assert r.consistent_with_zero() and r.radius <= ctx.tolerance


@pytest.mark.parametrize("point", ["3.00000001", "3.00000000000000000001"])
def test_second_order_residual_close_to_an_integer_meets_the_tolerance(point, ctx):
    # f''(3 + 1e-8) ~ 6e32: the residual works at a precision sized from it
    r = second_order_ode_residual(point, ctx)
    assert r.consistent_with_zero() and r.radius <= ctx.tolerance


@pytest.mark.parametrize("point", ["3.00000001", "3.00000000000000000001"])
def test_first_order_residual_close_to_an_integer_meets_the_tolerance(point, ctx):
    # f'(3 + 1e-8)^2 ~ 4e48: the residual works at a precision sized from it
    r = first_order_ode_residual(point, ctx)
    assert r.consistent_with_zero() and r.radius <= ctx.tolerance


@pytest.mark.parametrize("point", [3, "0", "2+0i"])
@pytest.mark.parametrize("residual", [second_order_ode_residual, first_order_ode_residual])
def test_ode_residuals_at_an_integer_raise_the_pole_guard_error(residual, point, ctx):
    # the targets are sized from |u| < 2^m, which holds at u = 0 too; the
    # pass itself raises the guard's error
    with pytest.raises(PoleProximityError):
        residual(point, ctx)


def test_ode_residual_detects_a_wrong_constant(ctx):
    # shifting a0 by 1e-6 must move the residual to ~12e-6*f, far off zero
    r = second_order_ode_residual("0.3", ctx, a0_shift=ctx.mp.mpf("1e-6"))
    assert not r.consistent_with_zero()
    expected = 12 * ctx.mp.mpf("1e-6") * ctx.mp.mpf(F_03)
    assert abs(abs(r.value) - expected) < expected / 100


# -- the steering of a pass for [f, f', f''] -----------------------------------

#: the default verify grid and five points that stress the steering: high in
#: the strip (0.5+60i is below 2^(-4 precision) at 128 bits) and near 0 and 3
STEERING_EXTRA = ("0.3+20i", "0.3+40i", "0.5+60i", "3.00000001", "1e-20")


def steering_points(ctx):
    from eistrig.verify import RunConfig
    config = RunConfig()
    grid = [ctx.point(q) for q in config.real_grid()]
    grid += [ctx.mp.mpc(ctx.point(re), ctx.point(im))
             for re, im in config.complex_grid()]
    return grid + [ctx.point(z) for z in STEERING_EXTRA]


def mpf_f_floor(u, ctx):
    """The mpf first guess at a lower end of |f| that the integer steering
    replaced: min(|u|^-2, 2^(4 - int(9.07 |Im u|))), not below 2^(-4 precision)."""
    mp = ctx.mp
    y = float(abs(to_mp(u[1], 0, u[2], mp)))
    decay = max(4 - int(9.07 * min(y, 1e6)), -4 * ctx.precision)
    return min(abs(to_mp(*u, mp)) ** -2, mp.ldexp(1, decay))


def mpf_cosec_f_target(lf, ctx):
    """e of the cosec check's f target in mpf: tolerance / (8 (4 / sqrt(lf) + 1)^2)."""
    mp = ctx.mp
    return mp.mag(ctx.tolerance * lf / (8 * (4 + mp.sqrt(lf)) ** 2)) - 1


def mpf_check_targets(u, ctx):
    """The targets of a check jet in mpf, from |eps_k| <= |u|^-k + 2^(k+2):
    f to min(t1, tolerance, the cosec target at mpf_f_floor), f' to t1 / 2
    and f'' to t2 / 6."""
    mp = ctx.mp
    dist = abs(to_mp(*u, mp))
    mf, mfp = dist ** -2 + 17, 2 * (dist ** -3 + 32) + 1
    t1 = ctx.tolerance / (4 * (1 + 2 * mfp + 24 * mf * mf + 96 * mf))
    t2 = ctx.tolerance / (4 * (24 * mf + 53))
    cosec = mpf_cosec_f_target(mpf_f_floor(u, ctx), ctx)
    return (min(mp.mag(t1) - 1, ctx.tolerance_exponent, cosec), mp.mag(t1 / 2) - 1,
            mp.mag(t2 / 6) - 1)


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30")])
def test_check_jet_targets_are_the_mpf_ones_or_at_most_12_bits_tighter(precision, tolerance,
                                                                       monkeypatch):
    ctx = PrecisionContext(precision, tolerance)
    asked = []
    monkeypatch.setattr(lattice, "fixed_jet", lambda u, ctx, targets: asked.append(targets))
    for zp in steering_points(ctx):
        lattice.check_jet(zp, ctx)
        for e, ref in zip(asked.pop(), mpf_check_targets(reduce_point(zp, ctx), ctx)):
            assert ref - 12 <= e <= ref, zp


JET_BOUND_POINTS = ([Fraction(1, 2 ** j) for j in range(1, 30)]
                 + [Fraction(3, 2 ** j) for j in range(2, 30)]
                 + ["0.25+0.25i", "0.5+0.125i", "0.0625i", "0.5+2i", "0.3+9i", "0.05", "0.95"])


def test_jet_bounds_hold_the_eps_k_bound_and_the_jet(ctx):
    # 2^F0 >= |u|^-2 + 17, 2^F1 >= 2 (|u|^-3 + 32) + 1 and 2^F2 >= 6 (|u|^-4 +
    # 64), exactly (at |u| = 2^lo, a real dyadic u, the bound is tight), each
    # within 6 bits of it; 2^lf at most the mpf first guess and within 5 bits
    # of it; and the jet itself, from the closed form, within 2^F0, 2^F1, 2^F2
    for z in JET_BOUND_POINTS:
        u = reduce_point(z, ctx)
        lf, F0, F1, F2 = lattice.jet_bounds(u, -4 * ctx.precision)
        ur, ui, W = u
        d2 = Fraction(ur * ur + ui * ui, 4 ** W)  # |u|^2
        assert 1 / d2 + 17 <= 2 ** F0, z
        assert 2 ** F1 > 65 and 1 / d2 ** 3 <= Fraction(2 ** F1 - 65, 2) ** 2, z
        assert 6 / d2 ** 2 + 384 <= 2 ** F2, z
        d = math.sqrt(d2)
        for F, bound in ((F0, d ** -2 + 17), (F1, 2 * d ** -3 + 65), (F2, 6 * d ** -4 + 384)):
            assert F < math.log2(bound) + 6, z
        floor = mpmath.mpf(mpf_f_floor(u, ctx))
        assert mpmath.ldexp(1, lf) <= floor <= mpmath.ldexp(1, lf + 5), z
        with mpmath.workprec(2 * ctx.precision):
            w = to_mp(*u, mpmath.mp)
            f, f1, f2 = (abs(c * lattice_closed_form(k, w)) for c, k in ((1, 2), (2, 3), (6, 4)))
            assert f + 1 <= mpmath.ldexp(1, F0) and f1 + 1 <= mpmath.ldexp(1, F1), z
            assert f2 <= mpmath.ldexp(1, F2), z


def test_naive_truncation_bound_is_valid_and_not_lax(ctx):
    zp = ctx.point("0.3")
    tight = eisenstein_k(2, zp, ctx.refined(ctx.mp.mpf("1e-30")))
    for n in (4, 16, 64):
        approx = naive_symmetric_value(2, zp, n, ctx)
        bound = symmetric_tail_bound(2, n, ctx)
        true_err = abs(ctx.mp.mpf(tight.value) - approx.value)
        assert true_err <= approx.radius
        assert bound <= approx.radius <= bound * (1 + ctx.mp.mpf("1e-6"))
        assert true_err >= bound / 3  # the closed-form bound is within 3x of truth


def test_the_naive_tail_count_is_the_closed_form_bound_rounded_up(ctx):
    # the tail naive_symmetric_value charges, 2 (N - 1/2)^(1-k) / (k-1) in
    # units of 2^-P, is at least the exact bound and within one unit of it
    # at every scale from the precision to 80 bits above it (_kernel_scale
    # raises P above the precision for a point close to 0)
    for k in (2, 3, 4):
        for N in range(1, 1001):
            bound = 2 * Fraction(2 * N - 1, 2) ** (1 - k) / (k - 1)
            for P in range(ctx.precision, ctx.precision + 81):
                count = lattice._symmetric_tail_units(k, N, P)
                assert count - 1 < bound * 2**P <= count, (k, N, P)


def test_strip_decay_dominates_and_decreases(ctx):
    reports = strip_decay((1, 2, 5, 10), Fraction(1, 2), ctx)
    assert [ctx.mp.make_mpf(r.height) for r in reports] == [1, 2, 5, 10]
    for rep in reports:
        low, high, P = rep.majorant
        assert rep.dominated
        assert rep.f_magnitude.upper() <= to_mp(high, 0, P, ctx.mp)
    for taller, shorter in zip(reports[1:], reports):
        assert taller.f_magnitude.upper() < shorter.f_magnitude.lower()


def test_strip_decay_reaches_extreme_heights(ctx):
    rep = strip_decay((100,), Fraction(1, 2), ctx)[0]
    assert rep.dominated
    assert rep.f_magnitude.upper() < ctx.mp.mpf("1e-200")
    assert rep.f_magnitude.lower() > 0  # resolved, not just bounded


DEFAULT_HEIGHTS = (1, 2, 5, 10, 50, 100)


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30")])
def test_each_strip_height_is_its_own_report(precision, tolerance):
    # each height is steered from jet_bounds alone: its report among the
    # default heights is the one it gets alone
    ctx = PrecisionContext(precision, tolerance)
    together = strip_decay(DEFAULT_HEIGHTS, Fraction(1, 2), ctx)
    for y, rep in zip(DEFAULT_HEIGHTS, together):
        assert strip_decay((y,), Fraction(1, 2), ctx)[0] == rep


@pytest.mark.parametrize("precision, tolerance", [(64, "1e-3"), (128, "1e-12"), (192, "1e-30")])
def test_each_default_strip_height_takes_one_pass(precision, tolerance, monkeypatch):
    # the first steer 2^(4 - int(9.07 y)) lies below |f| >= pi^2 / cosh^2(pi y),
    # so the pass 2^-24 below it excludes zero at once
    ctx = PrecisionContext(precision, tolerance)
    targets, real_pass = [], lattice._lattice_pass

    def counted(exponents, u, ctx, t):
        targets.append(t)
        return real_pass(exponents, u, ctx, t)

    monkeypatch.setattr(lattice, "_lattice_pass", counted)
    strip_decay(DEFAULT_HEIGHTS, Fraction(1, 2), ctx)
    assert len(targets) == len(DEFAULT_HEIGHTS)


def test_a_huge_strip_height_stops_where_the_refine_loop_stops(ctx, monkeypatch):
    # |f(1/2 + 1e5 i)| ~ 2^-906000: the first steer is floored 2160 bits below
    # the tolerance, 24 more for the pass, and the refine loop's eight
    # tightenings take 2160 bits more, so no pass asks for less than
    # 2^(T - 4344) and the call ends in a documented error
    import time
    targets, real_pass = [], lattice._lattice_pass

    def recorded(exponents, u, ctx, t):
        targets.append(min(t))
        return real_pass(exponents, u, ctx, t)

    monkeypatch.setattr(lattice, "_lattice_pass", recorded)
    start = time.perf_counter()
    with pytest.raises(EistrigError):
        strip_decay((1, 2, 100000), Fraction(1, 2), ctx)
    assert time.perf_counter() - start < 1
    assert min(targets) == ctx.tolerance_exponent - 4344


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30")])
def test_each_strip_magnitude_holds_the_closed_form(precision, tolerance):
    # |f(1/2 + iy)| = pi^2 / |sin(pi (1/2 + iy))|^2 = pi^2 / cosh^2(pi y)
    ctx = PrecisionContext(precision, tolerance)
    with mpmath.workprec(2 * precision + 64):
        for rep in strip_decay(DEFAULT_HEIGHTS + (Fraction(7, 3),), Fraction(1, 2), ctx):
            y = mpmath.mpf(rep.height)
            exact = mpmath.pi ** 2 / mpmath.cosh(mpmath.pi * y) ** 2
            assert abs(mpmath.mpf(rep.f_magnitude.value) - exact) <= rep.f_magnitude.radius, y


def test_strip_domination_is_the_exact_comparison(ctx):
    # dominated iff the upper end of the reported |f| ball, value + radius,
    # is at most the majorant's lower end, compared as exact Fractions
    for rep in strip_decay((1, 2, 5, 10, 50, 100, Fraction(7, 3)), Fraction(1, 2), ctx):
        upper = exact(rep.f_magnitude.value) + exact(rep.f_magnitude.radius)
        low, _, P = rep.majorant
        assert rep.dominated == (upper <= Fraction(low, 2**P)), rep.height


def test_strip_domination_is_not_rounded_at_a_tie(ctx, monkeypatch):
    # an |f| ball whose value + radius takes about 180 bits: a lower end equal
    # to that upper end dominates and one 2^-(P+300) below it does not, where
    # the sum rounded to the context's 128 bits falls on one side of both
    monkeypatch.setattr(lattice, "_resolved_f", lambda u, ctx, e: (3 ** 120, 0, 5 ** 60, 200))
    rep = strip_decay((2,), Fraction(1, 2), ctx)[0]
    upper = exact(rep.f_magnitude.value) + exact(rep.f_magnitude.radius)
    S = ctx.precision + 300
    for low, dominated in ((upper, True), (upper - Fraction(1, 2 ** S), False)):
        low = int(low * 2 ** S)
        monkeypatch.setattr(lattice, "_majorant", lambda y, ctx: (low, low, S))
        assert strip_decay((2,), Fraction(1, 2), ctx)[0].dominated is dominated


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("e", [-41, -101])
def test_the_strip_remainder_is_within_a_thousand_of_eps(k, e):
    # 8 |C_m| (k)_2m y^(1-k-2m), C_m = B_2m / (2m)!, at its best order m holds
    # |eps_k(x+iy)| from above and stays within 10^3 of it for y* <= y <= 4 y*;
    # the cached order's coefficient is that formula, and it meets 2^e at y*
    import math
    from eistrig.zetasums import bernoulli_even
    Y, order, num, den = lattice._strip_order(k, e)

    def coefficient(m):
        return (8 * abs(bernoulli_even(2 * m)) / math.factorial(2 * m)
                * math.perm(k + 2 * m - 1, 2 * m))

    assert Fraction(num, den) == coefficient(order)
    assert coefficient(order) * Fraction(256, Y) ** (k + 2 * order - 1) <= Fraction(2) ** e
    for t in (1, 2, 3, 4):
        y = Fraction(Y * t, 256)
        bound = min(coefficient(m) / y ** (k + 2 * m - 1) for m in range(1, 4 * int(y) + 2))
        with mpmath.workprec(320):
            bound = mpmath.mpf(bound.numerator) / bound.denominator
            for x in (0, Fraction(3, 10), Fraction(1, 2)):
                z = mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator if x else 0,
                               mpmath.mpf(y.numerator) / y.denominator)
                exact = abs(lattice_closed_form(k, z))
                assert exact <= bound <= 1000 * exact


def test_strip_decay_validates_inputs(ctx):
    with pytest.raises(ValueError):
        strip_decay((0.5,), Fraction(1, 2), ctx)  # height below 1
    with pytest.raises(ValueError):
        strip_decay((2,), Fraction(3, 2), ctx)  # |x| > 1


MAJORANT_HEIGHTS = (1, 2.5, Fraction(7, 3), 100)


def exact(x) -> Fraction:
    """The mpf x as an exact Fraction: man_exp holds |x| (mpmath's mantissa
    is unsigned), and the sign is x's."""
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * Fraction(int(man)) * Fraction(2) ** int(exp) if x else Fraction(0)


def test_the_exact_fraction_of_an_mpf_keeps_its_sign():
    assert exact(mpmath.mpf(-0.375)) == Fraction(-3, 8)
    assert exact(mpmath.mpf(0.375)) == Fraction(3, 8)
    assert exact(mpmath.mpf(0)) == 0


def majorant(y, ctx):
    """_majorant's bracket [low, high] at the real mpf y, as exact mpf."""
    low, high, P = lattice._majorant(ctx.exact(y), ctx)
    return to_mp(low, 0, P, ctx.mp), to_mp(high, 0, P, ctx.mp)


def test_majorant_brackets_the_exact_partial_sum(ctx):
    # the partial sum 3/y^2 + 2 sum_{n<=M} 1/(n^2+y^2), M = 64 + 4 ceil(y), is
    # an exact Fraction; low holds it plus the tail's lower end 2M / (M(M+1)
    # + y^2), less the 2M + 3 counted truncations at most; high holds it plus
    # the tail's upper end 2/M; and [low, high] is no wider than the 2/4096
    # tail and 8,194 truncation units of a 4096-term sum
    unit = Fraction(1, 2 ** ctx.precision)
    for h in MAJORANT_HEIGHTS:
        y = ctx.point(h)
        y2 = exact(y) ** 2
        M = 64 + 4 * math.ceil(exact(y))
        partial = 3 / y2 + 2 * sum(1 / (n * n + y2) for n in range(1, M + 1))
        tail_low = Fraction(2 * M) / (M * (M + 1) + y2)
        low, high = (exact(v) for v in majorant(y, ctx))
        assert partial + tail_low - (2 * M + 3) * unit < low <= partial + tail_low
        assert partial + Fraction(2, M) <= high
        assert high - low <= Fraction(2, 4096) + (2 * 4096 + 2) * unit


def test_majorant_truncates_the_tail_lower_end_down(ctx, monkeypatch):
    # at y = 1 with one term the partial sum 3/1 + 2/(1 + 1) = 4 is exact at
    # 2^-P, so low is 4 plus the tail's lower end 2 M / (M(M+1) + y^2) = 2/3
    # truncated: within 2 units below, never above
    monkeypatch.setattr(lattice, "_MAJORANT_TERMS", 1)
    low, high = (exact(v) for v in majorant(ctx.point(1), ctx))
    assert 4 + Fraction(2, 3) - Fraction(2, 2 ** ctx.precision) < low <= 4 + Fraction(2, 3)
    assert 6 <= high


def test_majorant_brackets_the_closed_form(ctx):
    # sum_{n>=1} 1/(n^2+y^2) = (pi y coth(pi y) - 1)/(2 y^2); platform pi here only
    for h in MAJORANT_HEIGHTS:
        y = ctx.point(h)
        low, high = majorant(y, ctx)
        with mpmath.workprec(4 * ctx.precision):
            yy = mpmath.mpmathify(y)
            closed = 3 / yy ** 2 + (mpmath.pi * yy * mpmath.coth(mpmath.pi * yy) - 1) / yy ** 2
            assert mpmath.mpmathify(low) <= closed <= mpmath.mpmathify(high)


def test_nonvanishing_scan_reports_the_minimum(ctx):
    grid = [ctx.point(s) for s in ("0.1", "0.5", "0.9")]
    grid.append(ctx.point("0.5+2i"))
    report = nonvanishing_scan(grid, ctx)
    assert len(report.points) == 4
    assert not report.min_modulus.consistent_with_zero()
    # |f| is smallest at the highest point of the strip
    assert report.min_point == grid[-1]


def test_nonvanishing_scan_picks_the_least_lower_end_exactly(ctx):
    # lower ends 1 + 2^-200 and 1 round to the same 128-bit value; the exact
    # integer balls tell the second point's from the first's
    points = [ctx.point("0.3"), ctx.point("0.4")]
    jets = [(200, [((1 << 200) + 1, 0, 0)]), (201, [(1 << 201, 0, 0)])]
    assert nonvanishing_scan(points, ctx, jets).min_point == points[1]


def test_nonvanishing_scan_refines_until_f_excludes_zero(ctx):
    z = ctx.point("0.5+6i")
    assert eisenstein_k(2, z, ctx).consistent_with_zero()  # |f| ~ 2e-15 < 1e-12
    bv = nonvanishing_scan([z], ctx).values[0]
    assert not bv.consistent_with_zero()
    with mpmath.workprec(2 * ctx.precision + 64):
        exact = mpmath.pi ** 2 / mpmath.sin(mpmath.pi * mpmath.mpmathify(z)) ** 2
        assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


def test_tolerance_tracks_refined_contexts(ctx):
    tight = ctx.refined(ctx.mp.mpf("1e-30"))
    bv = eisenstein_k(2, "0.3", tight)
    assert bv.radius <= tight.tolerance
    assert_matches(bv, F_03, ctx, slack="1e-42")


def _table_sizes():
    """Entries in every module-level container of precision, zetasums and lattice."""
    from eistrig import lattice, precision, zetasums

    def size(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, (list, tuple, set, frozenset)):
            return len(obj) + sum(size(v) for v in obj)
        return 0

    return {f"{mod.__name__}.{name}": size(obj)
            for mod in (precision, zetasums, lattice) for name, obj in vars(mod).items()
            if not name.startswith("__") and isinstance(obj, (dict, list, tuple, set))}


def test_module_tables_do_not_grow_with_the_number_of_points(monkeypatch):
    # the same mix as a long-lived process evaluating at ever new points:
    # real, near-axis and high-strip, k = 2, 3, 4, at 192 bits, and the strip
    # decay at rising heights, where |f| falls below the tolerance and each
    # height takes its own target (its first steer for |f|) and kernel scale
    # but opens no new working precision, once per 100 points; the
    # points within 4 rho of an integer take the Laurent routes and their
    # Z_0, Z_1 and Z_2 tables, whose sizes depend on the scales and targets
    # alone, and the strip remainder caches one order per exponent and target;
    # the Horner rows (in _table_sizes, each with the values tuple it serves)
    # stay one per table and exponent, the Euler-Maclaurin coefficient tables
    # keep their keys and lengths, and the D and order memos their lru bounds
    import random
    from eistrig import precision
    rng = random.Random(7)
    ctx = PrecisionContext(192, "1e-30")
    heights = [Fraction(q, 4) for q in range(68, 148)]
    contexts = precision._cached_mp_context.cache_info

    def evaluate(count):
        for i in range(count):
            k, y = 2 + (i // 3) % 3, (0, rng.uniform(-2, 2), rng.uniform(2, 30))[i % 3]
            eisenstein_k(k, complex(rng.uniform(-50, 50), y), ctx)
            if i % 100 == 0:
                strip_decay(heights, Fraction(1, 2), ctx)

    from eistrig import zetasums
    monkeypatch.setattr(lattice, "_rows", {})  # no rows of other tests' exponents
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    zetasums._em_table.cache_clear()
    tables, real_coeffs = {}, zetasums._em_coeffs

    def coeffs(s, Q, count):  # the coefficient tables in use, by (s, Q)
        tables[s, Q] = real_coeffs(s, Q, count)
        return tables[s, Q]

    monkeypatch.setattr(zetasums, "_em_coeffs", coeffs)
    misses = contexts().misses
    evaluate(100)
    caches = (lattice._strip_order, lattice._table_count, zetasums._em_table)
    sizes = (_table_sizes, lambda: [c.cache_info().currsize for c in caches],
             lambda: {key: len(table) for key, table in tables.items()})
    after_100 = [size() for size in sizes]
    assert all(len(values) > 3 for _, values, _ in zetasums._zeta_tables.values())
    assert {i for i, _ in zetasums._zeta_tables} == {0, 1, 2}
    assert {(i, k) for i, _, k in lattice._rows} == {(i, k) for i in range(3) for k in (2, 3, 4)}
    evaluate(200)
    assert [size() for size in sizes] == after_100
    assert all(values is zetasums._zeta_tables[i, q][1] for (i, q, _), (values, _) in lattice._rows.items())
    for memo in (lattice._laurent_terms, zetasums._em_order):
        info = memo.cache_info()
        assert info.maxsize == 4096 and info.currsize <= info.maxsize
    assert contexts().misses == misses


def test_disc_widening_holds_the_jet_over_the_disc():
    # the jet at each point of the circle |w' - w| = r lies inside the jet at
    # w widened by fixed_jet, order by order
    import random
    rng = random.Random(5)
    ctx = PrecisionContext(192, "1e-30")
    mp, r = ctx.mp, ctx.mp.mpf("1e-6")
    tols = (ctx.tolerance,) * 3
    for i in range(6):
        w = ctx.point(complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5) if i % 2 else 0))
        u = reduce_point(w, ctx)  # exact at 2^-W; the disc as R >= r 2^W units
        P, fixed = fixed_jet(u, ctx, (mp.mag(ctx.tolerance) - 1,) * 3, mp_fixed(r, u[2])[0] + 1)
        held = [to_ball(*b, P, ctx.precision) for b in fixed]
        for j in range(8):
            for inner, outer in zip(f_jet(w + r * mp.expjpi(mp.mpf(j) / 4), ctx, tols), held):
                assert abs(inner.value - outer.value) + inner.radius <= outer.radius


def test_widening_refuses_a_disc_that_reaches_an_integer(ctx):
    with pytest.raises(PoleProximityError):
        u = reduce_point("0.25", ctx)
        fixed_jet(u, ctx, (ctx.mp.mag(ctx.tolerance) - 1,), mp_fixed(ctx.mp.mpf("0.3"), u[2])[0])


def test_the_coefficient_table_is_built_once_per_64_bits_of_scale(monkeypatch):
    # 100 jets beyond 4 rho (the lattice route) at ever tighter targets: the
    # Euler-Maclaurin coefficient tables, emptied first, are built once per
    # multiple of 64 that the kernel scales reach, and never again
    from eistrig import lattice, zetasums
    zetasums._em_table.cache_clear()
    scales, real_tails = [], lattice.em_tails

    def tails(exponents, br, bi, P, limits):
        scales.append(P)
        return real_tails(exponents, br, bi, P, limits)

    monkeypatch.setattr(lattice, "em_tails", tails)
    ctx = PrecisionContext(192, "1e-30")
    z = ctx.point("3.3+3.5i")
    for j in range(4, 104):
        f_jet(z, ctx, (ctx.mp.ldexp(ctx.tolerance, -3 * j),))
    built = zetasums._em_table.cache_info()
    assert len(scales) >= 200
    assert built.misses == len({-(-P // 64) for P in scales}) <= -(-(max(scales) - min(scales)) // 64) + 1


def test_the_zeta_table_is_rebuilt_once_per_64_bits_of_scale(monkeypatch):
    # the Laurent twin: 100 jets within rho at ever tighter targets; the zeta
    # table, emptied first, takes a new scale only when the kernel scale
    # passes its own
    from eistrig import lattice, zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    scales, table_scales = [], []
    real = lattice.zeta_table

    def table(P, count, i):
        assert i == 0
        scales.append(P)
        got = real(P, count, i)
        table_scales.append(got[0])
        return got

    monkeypatch.setattr(lattice, "zeta_table", table)
    ctx = PrecisionContext(192, "1e-30")
    z = ctx.point("3.3")
    for j in range(4, 104):
        f_jet(z, ctx, (ctx.mp.ldexp(ctx.tolerance, -3 * j),))
    assert len(scales) == 100
    assert 1 <= len(set(table_scales)) <= -(-(max(scales) - min(scales)) // 64) + 1


@pytest.mark.parametrize("point", ["0.3+1e-3000i", "1e-3000+0.7i", "-0.41-1e-400i",
                                   "1e-400-0.9i", "1e-3000+2.7i", "1e-400-2.9i"])
def test_a_tiny_part_of_the_point_does_not_set_the_kernel_scale(point, ctx, monkeypatch):
    # u exact would take 10^4 bits; the kernel moves it by 2^-P and charges
    # that, on the Laurent routes (i = 0 and 1) and on the lattice route
    # (beyond 4 rho only with a tiny real part); both
    # sum their nearest terms with _explicit_sums, as does the naive sum
    from eistrig import lattice
    scales, real_sums = [], lattice._explicit_sums

    def sums(exponents, ur, ui, N, P):
        scales.append(P)
        return real_sums(exponents, ur, ui, N, P)

    monkeypatch.setattr(lattice, "_explicit_sums", sums)
    z = ctx.point(point)
    for k in (2, 3, 4):
        balls = eisenstein_k(k, z, ctx), naive_symmetric_value(k, z, 8, ctx)
        assert balls[0].radius <= ctx.tolerance
        with mpmath.workprec(2 * ctx.precision + 64):
            exact = lattice_closed_form(k, mpmath.mpmathify(z))
            for bv in balls:
                assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius
    assert len(scales) == 6 and max(scales) <= 2 * ctx.precision


def test_balls_do_not_depend_on_what_earlier_calls_asked_for(monkeypatch):
    # eps_k at 192 bits on every route, before and after one eps_2 call at
    # 1,100 bits on each Laurent route: the same balls, bit for bit
    import random
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    monkeypatch.setattr(lattice, "_rows", {})
    rng = random.Random(11)
    ctx, fine = PrecisionContext(192, "1e-30"), PrecisionContext(1100, "1e-300")
    points = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-y, y)) for y in (0.6, 1.2, 2.4, 6) for _ in range(5)]
    before = [eisenstein_k(k, z, ctx) for k in (2, 3, 4) for z in points]
    for z in (0.3, complex(0.2, 0.9), complex(-0.4, 1.8)):  # i = 0, 1, 2
        eisenstein_k(2, z, fine)
    assert [eisenstein_k(k, z, ctx) for k in (2, 3, 4) for z in points] == before
