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


def test_an_int_beyond_the_precision_is_one_point_for_every_entry():
    # point, exact and ball take 2^130 + 1 exactly at 128 bits, so the checks
    # that read their point through point name the point cosine evaluates
    from eistrig.precision import to_mp
    ctx = PrecisionContext(128, "1e-12")
    for n in (2**130 + 1, -(2**200) - 3):
        assert int(ctx.point(n)) == n
        assert ctx.point(n) == ctx.ball(n).value == to_mp(*ctx.exact(n), ctx.mp)


# -- the immutable records ------------------------------------------------------


def _records():
    """(class, positional fields) for each record of the package."""
    from eistrig.lattice import NonvanishingReport, StripBoundReport
    from eistrig.trig import PiValue
    from eistrig.verify import ReportItem, RunConfig, VerificationReport
    mp = PrecisionContext().mp
    ball = BoundedValue(mp.mpf("0.5"), mp.mpf("1e-20"))
    return [
        (BoundedValue, (mp.mpf("0.5"), mp.mpf("1e-20"))),
        (PiValue, (ball, "test provenance")),
        (NonvanishingReport, ((mp.mpf("0.25"),), (ball,), ball, mp.mpf("0.25"))),
        (StripBoundReport, (mp.mpf(2), ball, mp.mpf(3), mp.mpf(1), True)),
        (RunConfig, (192, "1e-30", 10, 8, 4, (1, 2), 5, True, "1e-9")),
        (ReportItem, ("ivp", "c'' + c = 0", (("points", 4),), "1e-30", "1e-25", "pass")),
        (VerificationReport, (1, "2026-01-01T00:00:00+00:00", (("precision_bits", 128),),
                              (), "pass")),
    ]


def _changed(field):
    """Another value for the field: three times an mpf (a ball holds the
    tuples of numbers alone), else a string."""
    return 3 * field if hasattr(field, "_mpf_") else "changed"


@pytest.mark.parametrize("index", range(7))
def test_a_record_is_a_value(index):
    cls, args = _records()[index]
    record = cls(*args)
    assert cls(**dict(zip(cls.__slots__, args))) == record
    assert hash(cls(*args)) == hash(record)
    for i in range(len(args)):
        assert cls(*args[:i], _changed(args[i]), *args[i + 1:]) != record
    assert repr(record).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
    with pytest.raises(AttributeError):
        setattr(record, cls.__slots__[0], args[0])
    with pytest.raises(AttributeError):
        delattr(record, cls.__slots__[-1])
    assert record._fields() == args


def test_record_defaults():
    from eistrig.trig import PI_PROVENANCE, PiValue
    from eistrig.verify import RunConfig
    assert RunConfig()._fields() == (128, "1e-12", 8, 64, 16, (1, 2, 5, 10, 50, 100), 41,
                                     False, None)
    assert RunConfig(tolerance="1e-30") == RunConfig(128, "1e-30")
    assert PiValue(BoundedValue(1, 0)).provenance == PI_PROVENANCE
