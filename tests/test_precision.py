"""Precision contexts, bounded values, and balls carried through substitution."""

from fractions import Fraction

import pytest

from eistrig import BoundedValue, ConfigurationError, PrecisionContext
from eistrig.sympoly import SymbolPoly

A, B = SymbolPoly.symbol(0), SymbolPoly.symbol(1)


def test_context_validation():
    with pytest.raises(ConfigurationError):
        PrecisionContext(precision=32)
    with pytest.raises(ConfigurationError):
        PrecisionContext(tolerance="not-a-number")
    with pytest.raises(ConfigurationError):
        PrecisionContext(tolerance="-1e-12")
    with pytest.raises(ConfigurationError):
        PrecisionContext(precision=64, tolerance="1e-300")  # guard margin gone


def test_a_complex_ball_whose_modulus_equals_its_radius_is_consistent_with_zero():
    mp = PrecisionContext().mp
    unit = mp.ldexp(1, -200)
    assert BoundedValue(mp.mpc(3 * unit, 4 * unit), 5 * unit).consistent_with_zero()


def test_a_complex_ball_whose_modulus_exceeds_its_radius_by_one_unit_is_not():
    # |2^70 + i|^2 = 2^140 + 1 exceeds the squared radius 2^140 by one unit; a
    # modulus rounded to 128 bits comes out as the radius itself
    mp = PrecisionContext().mp
    value = mp.mpc(mp.ldexp(1, -200), mp.ldexp(1, -270))
    assert abs(value) == mp.ldexp(1, -200)
    assert not BoundedValue(value, mp.ldexp(1, -200)).consistent_with_zero()


def test_context_is_immutable_and_hashable():
    ctx = PrecisionContext()
    with pytest.raises(AttributeError):
        ctx.precision = 256
    assert ctx == PrecisionContext()
    assert hash(ctx) == hash(PrecisionContext())
    assert ctx != PrecisionContext(precision=192)


def test_refined_raises_precision_with_tolerance():
    ctx = PrecisionContext()
    sub = ctx.refined(ctx.mp.mpf("1e-50"))
    assert sub.precision > ctx.precision
    assert sub.tolerance < ctx.tolerance
    same = ctx.refined(ctx.tolerance / 2)
    assert same.precision == ctx.precision


def test_point_parsing():
    ctx = PrecisionContext()
    assert ctx.point("0.5") == ctx.mp.mpf("0.5")
    z = ctx.point("0.1+0.2i")
    assert isinstance(z, ctx.mp.mpc) and z.imag > 0
    assert isinstance(ctx.point("1+0i"), ctx.mp.mpf)  # exact-zero imag demotes
    assert isinstance(ctx.point(complex(0.3, 0.0)), ctx.mp.mpf)
    with pytest.raises(ValueError):
        ctx.point("inf")


def test_point_returns_finite_values_of_its_context_unchanged():
    ctx = PrecisionContext()
    mp = ctx.mp
    x = mp.mpf(1) / 3
    z = mp.mpc(x, -2)
    assert ctx.point(x) is x and ctx.point(z) is z
    demoted = ctx.point(mp.mpc(x, 0))  # a zero imaginary part still demotes
    assert isinstance(demoted, mp.mpf) and demoted == x
    with pytest.raises(ValueError):
        ctx.point(mp.mpf("inf"))
    with pytest.raises(ValueError):
        ctx.point(mp.mpc(1, mp.nan))


def test_from_fraction_is_correctly_rounded_to_one_ulp():
    ctx = PrecisionContext()
    q = Fraction(1, 3)
    v = ctx.from_fraction(q)
    err = abs(Fraction(str(ctx.mp.nstr(v, 50))) - q)
    assert err < Fraction(1, 2 ** (ctx.precision - 2))


def test_ball_ops_carry_enclosures():
    ctx = PrecisionContext()
    mp = ctx.mp
    a = BoundedValue(mp.mpf(2), mp.mpf("1e-20"))
    b = BoundedValue(mp.mpf(3), mp.mpf("1e-20"))
    s = (A + B).substitute([a, b], ctx)
    assert s.value == 5 and s.radius >= mp.mpf("2e-20")
    p = (A * B).substitute([a, b], ctx)
    assert p.value == 6 and p.radius >= mp.mpf("5e-20")


def test_substitute_scales_by_integers_exactly():
    ctx = PrecisionContext()
    a = BoundedValue(ctx.mp.mpf("0.375"), ctx.mp.mpf("1e-18"))
    out = (A * 6).substitute([a], ctx)
    assert out.value == ctx.mp.mpf("2.25")
    assert out.radius >= 6 * a.radius


def test_consistent_with_zero_is_the_only_zero_test():
    ctx = PrecisionContext()
    assert BoundedValue(ctx.mp.mpf("1e-30"), ctx.mp.mpf("1e-29")).consistent_with_zero()
    assert not BoundedValue(ctx.mp.mpf("1e-10"), ctx.mp.mpf("1e-29")).consistent_with_zero()


def test_exactness_of_dyadic_inputs_survives_parsing():
    ctx = PrecisionContext()
    zp = ctx.point("0.375")
    assert zp == ctx.mp.mpf(3) / 8
    ball = ctx.ball(zp)
    assert ball.radius == 0
    wide = ctx.ball(2**200 + 1)  # an int wider than the precision stays exact
    assert int(wide.value) == 2**200 + 1 and wide.radius == 0
    with pytest.raises(TypeError):
        ctx.ball(Fraction(27, 5))  # would need a rounding
