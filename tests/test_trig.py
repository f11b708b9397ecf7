"""Pi, g = 1/f, cosine, sine: values, exactness, residuals, guard behavior.

Platform trigonometry (mpmath's own sin/cos/pi) appears here as an oracle
only; the construction path under test never calls it.
"""

import mpmath
import pytest

from eistrig import (PoleProximityError, PrecisionContext, compute_pi, cosine,
                     eisenstein_k, evaluator, pythagoras_residual, sine,
                     taylor_cosine)
from eistrig.trig import (cosec_identity_check, fd_step, g_eval, ivp_initial_data,
                          ivp_residual, reciprocal_ode_residual)

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
    diff = ctx.bsub(ev.pi_sq, ctx.bscale(ev.a0, 3))
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
    assert eisenstein_k(2, z, ctx.coarse()).consistent_with_zero()
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


def test_routes_agree_within_summed_bounds(ctx):
    for z in ("-1", "-0.3", "0.2", "0.95"):
        a = cosine(z, ctx)
        b = taylor_cosine(z, ctx)
        assert abs(a.value - b.value) <= a.radius + b.radius


def test_fd_step_default_and_override(ctx):
    h = fd_step(ctx)
    assert ctx.mp.mpf("1e-6") <= h <= ctx.mp.mpf("1e-3")
    assert fd_step(ctx, ctx.mp.mpf("1e-4")) == ctx.mp.mpf("1e-4")
    with pytest.raises(ValueError):
        fd_step(ctx, ctx.mp.mpf("-1e-4"))


def test_reciprocal_ode_residual_brackets_zero(ctx):
    h = ctx.mp.mpf("1e-4")
    for z in ("0.3", "0.62"):
        r = reciprocal_ode_residual(z, ctx, h=h)
        assert r.consistent_with_zero()
        assert r.radius <= ctx.mp.mpf("1e-6")


def test_ivp_residual_and_initial_data(ctx):
    r = ivp_residual("0.3", ctx, h=ctx.mp.mpf("1e-4"))
    assert r.consistent_with_zero() and r.radius <= ctx.mp.mpf("1e-6")
    c0, cp0 = ivp_initial_data(ctx)
    assert c0.value == 1 and c0.radius == 0
    assert cp0.consistent_with_zero()


def test_cosec_identity_on_and_off_axis(ctx):
    for z in ("0.5", "0.1", ctx.point("0.9+2i")):
        r = cosec_identity_check(z, ctx)
        assert r.consistent_with_zero()
        assert r.radius <= ctx.mp.mpf("1e-9")
    with pytest.raises(PoleProximityError):
        cosec_identity_check("2", ctx)


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