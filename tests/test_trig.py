"""Pi, g = 1/f, cosine, sine: values, exactness, residuals, guard behavior.

Platform trigonometry (mpmath's own sin/cos/pi) appears here as an oracle
only; the construction path under test never calls it.
"""

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from eistrig import lattice
from eistrig import (EistrigError, PoleProximityError, PrecisionContext,
                     ToleranceUnreachableError, compute_pi, cosine, eisenstein_k,
                     evaluator, pythagoras_residual, sine, taylor_cosine)
from eistrig import precision, trig
from eistrig.fixedpoint import floor_abs, to_ball
from eistrig.precision import to_mp
from eistrig.lattice import first_order_ode_residual, reduce_point, second_order_ode_residual
from eistrig.sympoly import SymbolPoly
from eistrig.trig import (cosec_identity_check, g_eval, ivp_initial_data, ivp_residual,
                          reciprocal_ode_residual)
from test_lattice import mpf_cosec_f_target, steering_points
from test_properties import f_jet

PI50 = "3.1415926535897932384626433832795028841971693993751"
INV_PISQ = "0.101321183642337771443879463209727638904358775"
G_07 = "0.0663155756390025387609080547388486553397699311"
COS_1 = "0.540302305868139717400936607442976603732310421"
COSH_2 = "3.76219569108363145956221347777374610829397356"
COS_25 = "-0.801143615546933714833502790467351664428567849"
SIN_25 = "0.598472144103956494051854702186162271703597172"


def wide(ctx):
    return ctx.refined(ctx.mp.mpf("1e-44"))


def assert_matches(bv, literal, ctx, slack="1e-40"):
    w = wide(ctx)
    err = abs(w.mp.mpf(bv.value) - w.mp.mpf(literal))
    assert err <= w.mp.mpf(bv.radius) + w.mp.mpf(slack)


def test_pi_matches_fifty_digits(ctx):
    pi = compute_pi(ctx).value
    assert pi.radius <= ctx.tolerance
    assert_matches(pi, PI50, ctx)
    assert compute_pi(ctx).provenance  # carries its construction tag


def test_pi_squared_is_three_a0(ctx):
    ev = evaluator(ctx)
    diff = (SymbolPoly.symbol(0) - SymbolPoly.symbol(1) * 3).substitute([ev.pi_sq, ev.a0], ctx)
    assert diff.consistent_with_zero()


def test_g_values_and_exact_zeros(ctx):
    for z in ("0", "7", "-3"):
        bv = g_eval(z, ctx)
        assert bv.value == 0 and bv.radius == 0
    assert_matches(g_eval("0.5", ctx), INV_PISQ, ctx)
    assert_matches(g_eval("0.7", ctx), G_07, ctx)


def test_g_inside_the_guard_keeps_an_honest_radius(ctx):
    z = ctx.mp.mpf(1) + 3 * ctx.eps  # inside the 10-ulp guard, not integral
    bv = g_eval(z, ctx)
    assert bv.value == 0
    assert 0 < bv.radius < ctx.mp.mpf("1e-70")
    with mpmath.workprec(300):  # oracle must out-resolve the tiny radius
        true_g = (mpmath.sin(mpmath.pi * mpmath.mpf(z)) / mpmath.pi) ** 2
        assert abs(true_g) <= mpmath.mpf(str(bv.radius))


@pytest.mark.parametrize("point", ["0.5+3i", "0.25+4i"])
def test_g_refines_a_coarse_f_that_does_not_exclude_zero(point, ctx):
    z = ctx.point(point)
    assert eisenstein_k(2, z, ctx.refined("1e-5")).consistent_with_zero()
    bv = g_eval(z, ctx)
    assert bv.radius <= ctx.tolerance
    with mpmath.workprec(2 * ctx.precision + 64):
        exact = (mpmath.sin(mpmath.pi * mpmath.mpmathify(z)) / mpmath.pi) ** 2
        assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


@pytest.mark.parametrize("point", ["1e-20", "3.00000000000000000001"])
def test_trig_within_1e_20_of_an_integer_meets_the_tolerance(point, ctx):
    # |f| ~ 1e40 there: one ulp of the coarse f exceeds the coarse tolerance,
    # which must only steer, never fail
    z = ctx.point(point)
    with mpmath.workprec(2 * ctx.precision + 64):
        zm = mpmath.mpmathify(z)
        exact = {cosine: mpmath.cos(zm), sine: mpmath.sin(zm),
                 g_eval: (mpmath.sin(mpmath.pi * zm) / mpmath.pi) ** 2}
        for fn, value in exact.items():
            bv = fn(z, ctx)
            assert bv.radius <= ctx.tolerance
            assert abs(mpmath.mpmathify(bv.value) - value) <= bv.radius


def test_cosec_identity_within_1e_20_of_zero(ctx):
    r = cosec_identity_check("1e-20", ctx)
    assert r.consistent_with_zero() and r.radius <= ctx.tolerance


@pytest.mark.parametrize("point", ["3.00000001", "3.00000000000000000001"])
def test_cosec_identity_close_to_an_integer_meets_the_tolerance(point, ctx):
    # |f(z)| |s(pi z)| ~ 1/|u|: pi z takes a pi sharp enough for that
    r = cosec_identity_check(point, ctx)
    assert r.consistent_with_zero() and r.radius <= ctx.tolerance


def test_cosec_identity_makes_one_f_pass_per_grid_point(ctx, monkeypatch):
    # the grid jet's f is at least as sharp as cosec's first steer asks, and
    # off the axis that steer follows |f|'s e^(-2 pi |Im z|) decay, so f's ball
    # clears it at once: given the jet, cosec makes no f pass of its own (only
    # the g' jet at z / 2 runs), and alone only check_jet's one
    from eistrig.verify import RunConfig
    config = RunConfig()
    grid = [ctx.point(q) for q in config.real_grid()]
    grid += [ctx.mp.mpc(ctx.point(re), ctx.point(im))
             for re, im in config.complex_grid()]
    points = grid + [ctx.point("0.3+20i"), ctx.point("0.3+40i")]
    jets = [lattice.check_jet(z, ctx) for z in points]
    f_passes, refines, inside_g = [], [], []
    real_pass, real_g_jet, real_resolved = lattice._lattice_pass, trig._g_jet, lattice._resolved_f

    def counted_pass(*args):
        if not inside_g:
            f_passes[-1] += 1
        return real_pass(*args)

    def counted_g_jet(*args):
        inside_g.append(True)
        try:
            return real_g_jet(*args)
        finally:
            inside_g.pop()

    def counted_resolved(*args):
        refines.append(args[0])
        return real_resolved(*args)

    monkeypatch.setattr(lattice, "_lattice_pass", counted_pass)
    monkeypatch.setattr(lattice, "_resolved_f", counted_resolved)
    monkeypatch.setattr(trig, "_g_jet", counted_g_jet)
    for z, jet in zip(points, jets):
        f_passes.append(0)
        assert cosec_identity_check(z, ctx, jet).consistent_with_zero()
    assert f_passes == [0] * len(points)
    f_passes.clear()
    for z in points:
        f_passes.append(0)
        assert cosec_identity_check(z, ctx).consistent_with_zero()
    assert f_passes == [1] * len(points)
    assert refines == []


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30")])
def test_the_cosec_steering_is_the_mpf_one_or_at_most_12_bits_tighter(precision, tolerance,
                                                                      monkeypatch):
    # the fallback f target and the g' tolerance from the f ball the check
    # uses, against the mpf formulas tolerance / (8 ms^2) and tolerance /
    # (64 |f| ms), ms = 4 / sqrt(low) + 1; 0.5+60i falls back at 128 bits
    ctx = PrecisionContext(precision, tolerance)
    mp = ctx.mp
    fallbacks, g_exps, inside_g = [], [], []
    real_fixed_jet, real_g_jet = trig.fixed_jet, trig._g_jet

    def recorded_fixed_jet(u, ctx, targets, R=0):
        jet = real_fixed_jet(u, ctx, targets, R)
        if not inside_g:
            fallbacks.append((targets[0], jet))
        return jet

    def recorded_g_jet(u, work, R, exps):
        g_exps.append(exps[1])
        inside_g.append(True)
        try:
            return real_g_jet(u, work, R, exps)
        finally:
            inside_g.pop()

    monkeypatch.setattr(trig, "fixed_jet", recorded_fixed_jet)
    monkeypatch.setattr(trig, "_g_jet", recorded_g_jet)
    fell_back = []
    for zp in steering_points(ctx):
        P, (f, *_) = lattice.check_jet(zp, ctx)
        cosec_identity_check(zp, ctx, (P, [f]))
        low = to_mp(floor_abs(*f[:2]) - f[2], 0, P, mp)
        if fallbacks:
            e, (P, (f,)) = fallbacks.pop()
            ref = mpf_cosec_f_target(low, ctx)
            assert ref - 12 <= e <= ref, zp
            low = to_mp(floor_abs(*f[:2]) - f[2], 0, P, mp)
            fell_back.append(zp)
        high = to_mp(floor_abs(*f[:2]) + 1 + f[2], 0, P, mp)
        ref = mp.mag(ctx.tolerance / (64 * high * (4 / mp.sqrt(low) + 1))) - 1
        assert ref - 12 <= g_exps.pop() <= ref, zp
    assert fell_back == ([ctx.point("0.5+60i")] if precision == 128 else [])


@pytest.fixture
def passes(monkeypatch):
    """Lattice passes and refine loops run since the fixture was set up."""
    count = {"passes": 0, "refines": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            count[key] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    counting(lattice, "_lattice_pass", "passes")
    counting(lattice, "_resolved_f", "refines")
    return count


@pytest.mark.parametrize("point", ["0.37", "-17.5", "0.3+0.2i", "0.4+1.3i", "-17.25+0.75i",
                                   "12.1-1.9i"])
@pytest.mark.parametrize("fn", [cosine, sine, g_eval])
def test_trig_calls_make_one_jet_pass(fn, point, ctx, passes):
    # off the axis g's first steer for |f| decays like e^(-2 pi |Im u|), so
    # g_eval needs no second pass there either
    evaluator(ctx)
    bv = fn(ctx.point(point), ctx)
    assert bv.radius <= ctx.tolerance
    assert passes == {"passes": 1, "refines": 0}


@pytest.mark.parametrize("point", ["0.37", "0.4+1.3i"])
def test_pythagoras_makes_at_most_two_jet_passes(point, ctx, passes):
    evaluator(ctx)
    assert pythagoras_residual(ctx.point(point), ctx).consistent_with_zero()
    assert passes["passes"] <= 2


def f_at_the_tolerance(z, ctx):
    """f(z) from a jet asked for f to the context tolerance alone."""
    return f_jet(z, ctx, (ctx.tolerance,))[0]


@pytest.mark.parametrize("point", ["0.5+3i", "0.25+4i", "0.5+7i"])
@pytest.mark.parametrize("fn", [cosine, sine, g_eval, f_at_the_tolerance])
def test_trig_in_the_strip_certifies_from_its_own_passes(fn, point, ctx, passes):
    # high in the strip g's first steer for |f| follows its e^(-2 pi |Im u|)
    # decay, so the trig evaluators never meet an f ball that straddles zero;
    # f to the tolerance alone does at 0.5+7i (|f| ~ 3e-18 < 1e-12), and the
    # refine loop resolves it
    z = ctx.point(point)
    bv = fn(z, ctx)
    assert bv.radius <= ctx.tolerance
    with mpmath.workprec(2 * ctx.precision + 64):
        zm = mpmath.mpmathify(z)
        g = (mpmath.sin(mpmath.pi * zm) / mpmath.pi) ** 2
        exact = {cosine: mpmath.cos(zm), sine: mpmath.sin(zm), g_eval: g,
                 f_at_the_tolerance: 1 / g}[fn]
        assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius
    assert passes["passes"] <= 3
    assert passes["refines"] == (fn is f_at_the_tolerance and point == "0.5+7i")


@pytest.mark.parametrize("point", ["0.3+1000i", "0.3-1e400i"])
@pytest.mark.parametrize("fn", [cosine, sine, g_eval])
def test_trig_far_off_the_axis_raises_a_documented_error(fn, point, ctx):
    # the first steer for |f| is floored where no steer can help, and takes
    # |Im u| beyond the range of a float
    with pytest.raises(EistrigError):
        fn(ctx.point(point), ctx)


def _g_closed_forms(z):
    """g = sin^2(pi z)/pi^2, g' = sin(2 pi z)/pi and g'' = 2 cos(2 pi z) at
    2 precision + 64 bits (call inside mpmath.workprec)."""
    zm, pi = mpmath.mpmathify(z), mpmath.pi
    return (mpmath.sin(pi * zm) ** 2 / pi ** 2, mpmath.sin(2 * pi * zm) / pi,
            2 * mpmath.cos(2 * pi * zm))


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30")])
def test_the_g_jet_meets_each_order_tolerance_around_the_closed_forms(precision, tolerance,
                                                                    passes):
    # sine's shape (g' only) and every order, each within 2^t for its
    # binary exponent t; on the real axis the first try's steer bounds |f|
    # from below and |f'|, |f''| from above, so one pass suffices; off it the
    # steer may overshoot |f|
    import random
    rng = random.Random(10)
    ctx = PrecisionContext(precision, tolerance)
    T = ctx.tolerance_exponent
    points = [rng.uniform(-6, 6) for _ in range(4)]
    points += [complex(rng.uniform(-6, 6), rng.uniform(-4, 4)) for _ in range(4)]
    for z in points:
        x = ctx.point(z)
        for exps in ((None, T), (T, T - 4, T + 2)):
            passes["passes"] = 0
            Q, jet = trig._g_jet(reduce_point(x, ctx), ctx, 0, exps)
            jet = [to_ball(*b, Q, ctx.precision) for b in jet]
            assert passes["passes"] <= (1 if isinstance(z, float) else 3)
            with mpmath.workprec(2 * precision + 64):
                for bv, t, exact in zip(jet, exps, _g_closed_forms(x)):
                    assert t is None or bv.radius <= ctx.mp.ldexp(1, t)
                    assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


def test_the_g_jet_guard_holds_g_prime(ctx):
    # 3 ulp from an integer the jet returns zero-centred g and g' balls
    x = ctx.mp.mpf(2) + 3 * ctx.eps
    T = ctx.tolerance_exponent
    Q, jet = trig._g_jet(reduce_point(x, ctx), ctx, 0, (T, T))
    jet = [to_ball(*b, Q, ctx.precision) for b in jet]
    assert all(bv.value == 0 and 0 < bv.radius < ctx.mp.mpf("1e-35") for bv in jet)
    with mpmath.workprec(300):
        for bv, exact in zip(jet, _g_closed_forms(x)):
            assert abs(exact) <= mpmath.mpf(str(bv.radius))
    with pytest.raises(PoleProximityError):
        trig._g_jet(reduce_point(x, ctx), ctx, 0, (T, None, T))


def test_the_evaluator_table_stays_bounded():
    limit = trig._cached_evaluator.cache_info().maxsize
    mp = PrecisionContext().mp
    for j in range(1, limit + 3):  # distinct snapped tolerances 2^-8 .. 2^-8(limit+2)
        cosine("0.37", PrecisionContext(320, mp.ldexp(1, -8 * j)))
    assert trig._cached_evaluator.cache_info().currsize <= limit


def test_cosine_frozen_values(ctx):
    assert cosine("0", ctx).value == 1 and cosine("0", ctx).radius == 0
    assert_matches(cosine("1", ctx), COS_1, ctx)
    assert_matches(cosine("2.5", ctx), COS_25, ctx)
    assert_matches(cosine("-2.5", ctx), COS_25, ctx)


def test_cosine_at_the_computed_half_period(ctx):
    pi_hat = evaluator(ctx).pi.value.value
    c = cosine(pi_hat, ctx)
    assert abs(c.value + 1) <= c.radius + ctx.mp.mpf("1e-25")
    mid = cosine(pi_hat / 2, ctx)
    assert mid.consistent_with_zero()


def test_cosine_on_the_imaginary_axis_is_cosh(ctx):
    bv = cosine(ctx.point("0+2i"), ctx)
    assert_matches(bv, COSH_2, ctx)


def test_sine_frozen_values(ctx):
    assert sine("0", ctx).value == 0 and sine("0", ctx).radius == 0
    assert_matches(sine("2.5", ctx), SIN_25, ctx)
    pi_hat = evaluator(ctx).pi.value.value
    s = sine(pi_hat / 2, ctx)
    assert abs(s.value - 1) <= s.radius + ctx.mp.mpf("1e-25")


def test_sine_sign_and_oddness(ctx):
    s = sine("0.1", ctx)
    assert s.value > 0  # positive just above zero fixes the branch
    t = sine("-0.1", ctx)
    assert t.value == -s.value and t.radius == s.radius


def test_sine_near_period_multiples_returns_honest_ball(ctx):
    two_pi = 2 * evaluator(ctx).pi.value.value
    s = sine(two_pi, ctx)
    assert s.value == 0 and s.radius > 0
    with mpmath.workprec(300):  # evaluate the oracle on the exact argument
        true_s = mpmath.sin(mpmath.mpf(two_pi))
        assert abs(true_s) <= mpmath.mpf(str(s.radius))


def test_cosine_is_even_bit_for_bit(ctx):
    for z in ("0.7", "3.3"):
        a, b = cosine(z, ctx), cosine("-" + z, ctx)
        assert a.value == b.value and a.radius == b.radius


def test_periodicity_within_twice_the_radii(ctx):
    z = ctx.mp.mpf("0.375")
    two_pi = 2 * evaluator(ctx).pi.value.value
    base = cosine(z, ctx)
    for k in (1, 1000, 10**6):
        moved = cosine(z + k * two_pi, ctx)
        assert abs(moved.value - base.value) <= 2 * (moved.radius + base.radius)


def test_taylor_route_values_and_domain(ctx):
    assert taylor_cosine("0", ctx).value == 1
    assert_matches(taylor_cosine("1", ctx), COS_1, ctx)
    assert_matches(taylor_cosine(ctx.point("0+2i"), ctx), COSH_2, ctx)
    with pytest.raises(ValueError):
        taylor_cosine("4.5", ctx)
    # deep tolerances need far more than 200 terms at |z| = 4
    deep = PrecisionContext(3000, "1e-700")
    b = taylor_cosine(4, deep)
    assert b.radius <= deep.tolerance
    oracle = deep.mp.cos(4)
    assert abs(b.value - oracle) <= b.radius + deep.eps * 4


def test_taylor_route_decides_its_domain_and_zero_on_the_exact_point(ctx):
    # |4 + 2^-100 i| is 4 + 2^-203 or so, which abs rounds to 4 at 128 bits:
    # the exact pair puts it outside |z| <= 4, and 4i and -4 on its edge
    mp = ctx.mp
    edge = mp.mpc(4, mp.ldexp(1, -100))
    assert abs(edge) == 4
    with pytest.raises(ValueError):
        taylor_cosine(edge, ctx)
    for z in (4j, -4, "0-4i"):
        assert ctx.meets(taylor_cosine(z, ctx))
    # every form of zero gives the exact one; 2^-300 does not, by one term's count
    for zero in (0, 0.0, 0j, "0", "0+0i", mp.mpf(0), mp.mpc(0, 0)):
        assert taylor_cosine(zero, ctx) == ctx.ball(1)
    tiny = taylor_cosine(mp.ldexp(1, -300), ctx)
    assert tiny.value == 1 and 0 < tiny.radius <= ctx.tolerance


def test_taylor_route_compares_its_radius_by_ctx_meets(ctx, monkeypatch):
    # the one radius check, on the tuples: a radius it refuses raises, named
    monkeypatch.setattr(PrecisionContext, "meets", lambda self, bv: False)
    with pytest.raises(ToleranceUnreachableError, match=r"taylor_cosine\(1\.0\) keeps radius"):
        taylor_cosine("1", ctx)


def test_routes_agree_within_summed_bounds(ctx):
    for z in ("-1", "-0.3", "0.2", "0.95"):
        a = cosine(z, ctx)
        b = taylor_cosine(z, ctx)
        assert abs(a.value - b.value) <= a.radius + b.radius


def test_reciprocal_ode_residual_brackets_zero(ctx):
    # off the axis |f| falls below the Laurent steer |u|^-2, and the pass is
    # made once more from the first one's f ball
    for z in ("0.3", "0.62", "0.9+2i", "0.5+3i", "0.25+4i", "0.5+7i"):
        r = reciprocal_ode_residual(ctx.point(z), ctx)
        assert r.consistent_with_zero()
        assert r.radius <= ctx.tolerance


def test_ivp_residual_and_initial_data(ctx):
    r = ivp_residual("0.3", ctx)
    assert r.consistent_with_zero() and r.radius <= ctx.tolerance
    c0, cp0 = ivp_initial_data(ctx)
    assert c0.value == 1 and c0.radius == 0
    assert cp0.value == 0 and cp0.radius == 0


@pytest.mark.parametrize("tolerance, point", [("1e-12", "0.5+10i"), ("1e-12", "0.5+15i"),
                                              ("1e-12", "0.3+25i"), ("1e-12", "0.3+27i"),
                                              ("1e-33", "0.5+3i")])
def test_the_jet_residuals_keep_the_tolerance_contract(tolerance, point):
    # the reciprocal residual is one exact combination of the integer g jet,
    # rounded once, so a large |g| costs no ulp of it; pi^2, 12 units of
    # 2^-283, times |g| ~ 4e66 at 0.3+25i stays below the tolerance, but at
    # 0.3+27i, the first integer y at which it raises, |g| ~ 1e72 takes it above;
    # ivp_residual takes g at z / 2 pi, far smaller, and meets the tolerance
    ctx = PrecisionContext(128, tolerance)
    z = ctx.point(point)
    if point != "0.3+27i":
        r = reciprocal_ode_residual(z, ctx)
        assert r.consistent_with_zero() and r.radius <= ctx.tolerance
    else:
        with pytest.raises(ToleranceUnreachableError):
            reciprocal_ode_residual(z, ctx)
    r = ivp_residual(z, ctx)
    assert r.consistent_with_zero() and r.radius <= ctx.tolerance


def test_the_jet_residuals_catch_a_scaled_second_derivative(ctx, monkeypatch):
    # f'' off by a relative 2^-40 shifts g'' by ~2e-12 at 0.5; the radii stay below 1e-14
    real = trig.fixed_jet

    def skewed_jet(u, sub, targets, R=0):
        P, jet = real(u, sub, targets, R)
        re, im, err = jet[2]
        jet[2] = (re + (re >> 40), im + (im >> 40), err)
        return P, jet

    monkeypatch.setattr(trig, "fixed_jet", skewed_jet)
    for z in ("0.3", "0.5"):
        assert not reciprocal_ode_residual(z, ctx).consistent_with_zero()
        assert not ivp_residual(z, ctx).consistent_with_zero()


def test_cosec_identity_on_and_off_axis(ctx):
    for z in ("0.5", "0.1", ctx.point("0.9+2i")):
        r = cosec_identity_check(z, ctx)
        assert r.consistent_with_zero()
        assert r.radius <= ctx.mp.mpf("1e-9")
    with pytest.raises(PoleProximityError):
        cosec_identity_check("2", ctx)


@pytest.mark.parametrize("precision_bits, tolerance", [(128, "1e-12"), (192, "1e-30")])
@pytest.mark.parametrize("point", ["0.3+6i", "0.3+20i", "0.5+8i", "0.25+12i", "2.00000001"])
def test_cosec_identity_meets_the_tolerance_far_off_the_axis(point, precision_bits, tolerance):
    # s(pi z) = pi g'(z / 2) from the g jet at the exact point z / 2: no disc
    # about pi z to hold the jet over, where |Im pi z| is 19 to 63
    ctx = PrecisionContext(precision_bits, tolerance)
    r = cosec_identity_check(point, ctx)
    assert r.consistent_with_zero() and r.radius <= ctx.tolerance


def test_the_identity_checks_open_no_new_precision_near_an_integer(ctx):
    # each check works in integers at its own kernel scale and rounds once to
    # ctx's precision, however close to 3 the point and however large |f|
    contexts = precision.mp_context.cache_info
    misses = contexts().misses
    for j in range(4, 41, 4):
        z = 3 + ctx.mp.ldexp(1, -j)
        for check in (second_order_ode_residual, first_order_ode_residual, cosec_identity_check):
            assert check(z, ctx).consistent_with_zero()
    assert contexts().misses == misses


def test_pythagoras_everywhere(ctx):
    for z in ("0.05", "1.9", ctx.point("0.4+1.3i")):
        r = pythagoras_residual(z, ctx)
        assert r.consistent_with_zero()


def test_construction_needs_no_platform_trigonometry():
    # the module's source must not call platform trig/exp/pi—only arithmetic,
    # square roots, and the bounded evaluators (tests like this one may)
    import inspect
    import re
    import eistrig.trig
    import eistrig.lattice
    import eistrig.zetasums

    for module in (eistrig.trig, eistrig.lattice, eistrig.zetasums):
        source = inspect.getsource(module)
        for fn in ("sin", "cos", "tan", "exp", "log", "atan", "asin", "acos"):
            assert not re.search(rf"mp\.{fn}\(", source), (module.__name__, fn)
        assert not re.search(r"mp\.pi\b", source), module.__name__
        assert "import math" not in source or module is not eistrig.trig

# -- the integer path from the point to the returned ball --------------------------


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30"),
                                                  (400, "1e-100")])
def test_the_evaluator_constants_hold_pi_at_600_bits(precision, tolerance):
    # pi^2, pi-hat and (2 pi-hat)^-1 as integer balls at the evaluator's scale
    ctx = PrecisionContext(precision, tolerance)
    ev = evaluator(ctx)
    P = ev.scale
    with mpmath.workprec(600):
        pi = +mpmath.pi
        for (re, im, err), exact in ((ev.pi_sq_fixed, pi ** 2), (ev.pi_fixed, pi),
                                     (ev.half_inv_pi, 1 / (2 * pi))):
            assert im == 0
            radius = mpmath.ldexp(err, -P)
            assert abs(mpmath.ldexp(re, -P) - exact) <= radius
            assert radius <= mpmath.ldexp(1, -precision - 126)  # eps 2^-127
            assert err <= 12  # from zeta(2) within 2 units of 2^-P
    assert P >= precision + 128


@given(st.integers(min_value=-10**6 * 64, max_value=10**6 * 64),
       st.integers(min_value=-72 * 64, max_value=72 * 64))
@settings(max_examples=60, deadline=None)
def test_the_reduced_w_ball_holds_z_over_2_pi(re64, im64):
    assert_the_reduced_w_ball_holds(complex(re64 / 64, im64 / 64))


def test_the_reduced_w_ball_holds_small_complex_z():
    # at |z| <= 1 the error of (2 pi-hat)^-1 carried to z, |z| eh, is a few
    # units, so the 1-2 units of the product's truncation are much of R
    for k in range(-40, 41):
        for l in range(1, 41):
            assert_the_reduced_w_ball_holds(complex(k / 64, l / 64))


def assert_the_reduced_w_ball_holds(z):
    """The true z / 2 pi lies within R units of reduced_w's u, at 600 bits."""
    ctx = PrecisionContext()
    (ur, ui, W), R = evaluator(ctx).reduced_w(ctx.exact(z))
    assert W == evaluator(ctx).scale and abs(ur) <= 1 << W - 1
    with mpmath.workprec(600):
        gap = mpmath.mpmathify(z) / (2 * mpmath.pi) - mpmath.mpc(ur, ui) * mpmath.ldexp(1, -W)
        assert abs(gap - mpmath.nint(gap.real)) <= mpmath.ldexp(R, -W), z


@pytest.mark.parametrize("k", [2, -2, 6, -6])
def test_trig_within_the_guard_of_a_period_multiple(k, ctx, passes):
    # w = k pi-hat / 2 pi lies within the pole guard of k / 2: sine and g' take
    # the zero-centred ball 3 (|u| + r_w), cosine 1 - 2 pi^2 g with g's
    z = k * evaluator(ctx).pi.value.value
    s, c = sine(z, ctx), cosine(z, ctx)
    assert s.value == 0 and 0 < s.radius <= ctx.tolerance
    assert c.value == 1 and 0 < c.radius <= ctx.tolerance
    assert passes["passes"] == 0
    with mpmath.workprec(600):
        zm = mpmath.mpf(z)
        assert abs(mpmath.sin(zm)) <= s.radius
        assert abs(mpmath.cos(zm) - 1) <= c.radius
    with pytest.raises(PoleProximityError):  # g'' has no guard ball
        ivp_residual(z, ctx)


@pytest.mark.parametrize("n", [-3, 7])
@pytest.mark.parametrize("offset", ["3 ulp", "-3 ulp", "2^-80", "-2^-80"])
def test_g_next_to_an_integer_holds_g(n, offset, ctx):
    # 3 ulp off n takes the pole guard's zero-centred ball 1.5 |u|^2, 2^-80 off
    # it the quotient route
    guard = offset.endswith("ulp")
    step = 3 * ctx.eps if guard else ctx.mp.ldexp(1, -80)
    z = ctx.mp.mpf(n) + (-step if offset.startswith("-") else step)
    bv = g_eval(z, ctx)
    assert 0 < bv.radius <= (ctx.mp.mpf("1e-70") if guard else ctx.tolerance)
    assert bv.value == 0 or not guard
    with mpmath.workprec(600):
        exact = (mpmath.sin(mpmath.pi * mpmath.mpf(z)) / mpmath.pi) ** 2
        assert abs(exact - mpmath.mpf(bv.value)) <= bv.radius
