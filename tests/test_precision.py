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
        (StripBoundReport, ((0, 1, 1, 1), ball, (1, 3, 0), True, 128)),
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


# -- the integer printer ----------------------------------------------------------


def _printer_cases():
    """(tuple, dps) over seeded tuples at 64 to 1,100 bits: zero, both signs,
    a 5 followed by zeros at the rounding digit (a tie), runs of nines that
    roll over, decimal exponents at the edges of the fixed notation,
    |exp + bc| at 3500 and 3501 (where the tuple is first divided by 10^b),
    and |exp + bc| in (3500, 40000] at 64 to 8,800 bits and up to 2,651
    digits."""
    import random
    from eistrig.precision import dyadic, read_real
    rng = random.Random(2016)
    cases = [((0, 0, 0, 0), 1), ((0, 0, 0, 0), 40)]
    for _ in range(400):
        prec = rng.randint(64, 1100)
        x = rng.getrandbits(prec) | 1
        cases.append((dyadic(rng.choice((-x, x)), rng.randint(-prec - 200, 200), prec), rng.randint(1, 333)))
    for j in range(2, 60):  # N 2^-j has j decimals, the last a 5: a tie at dps = its digits - 1
        n = rng.getrandbits(j) | 1
        t = dyadic(n, -j)
        digits = len(str(n * 5**j).rstrip("0"))
        cases += [(t, digits - 1), (dyadic(-n, -j), digits - 1)]
    for j in range(8, 400, 7):  # 1 - 2^-j and 10 - 2^-j: nines that roll over
        for top in (1, 10):
            cases += [(dyadic((top << j) - 1, -j), dps) for dps in (1, j // 4, j // 4 + 1)]
    for dps in (1, 5, 12, 17, 40, 333):  # the fixed notation lies in min_fixed < e < dps
        lo = min(-(dps // 3), -5)
        for e in (lo - 1, lo, lo + 1, dps - 1, dps, dps + 1):
            cases += [(read_real(f"{sign}1.2345678901234567890123{d}e{e}", 1100), dps)
                      for sign in ("", "-") for d in range(3)]
    for edge in (3500, 3501):  # |exp + bc| as it is, and divided by 10^b above it
        for sign in (1, -1):
            x = rng.getrandbits(200) | 1
            cases += [(dyadic(x, sign * edge - x.bit_length()), dps) for dps in (3, 17, 40)]
    for _ in range(300):
        bits = rng.choice((64, 128, 192, 1100, 1800, 4400, 8800))
        x = rng.getrandbits(bits) | 1 << bits - 1 | 1
        top = rng.choice((1, -1)) * rng.randint(3501, 40000)
        cases.append((dyadic(rng.choice((-x, x)), top - bits), rng.choice((3, 5, 8, 17, 40, 333, 2651))))
    return cases


def test_the_printer_prints_every_digit_mpmath_prints():
    from mpmath.libmp import to_str as mp_to_str
    from eistrig.printing import to_str
    mismatches = [(t, dps) for t, dps in _printer_cases() if to_str(t, dps) != mp_to_str(t, dps)]
    assert not mismatches


def test_the_printer_prints_points_and_heights_as_mpmath_does():
    # nstr of an mpf and an mpc to 12 digits, the point labels of a report,
    # nstr to a context's digits (format_real), and str of an mpf
    import random
    from eistrig.precision import dyadic
    from eistrig.printing import _digits, format_real, format_value, nstr, str_real
    rng = random.Random(35)
    for prec in (64, 128, 192, 400, 1100):
        ctx = PrecisionContext(prec, "1e-12")
        mp = ctx.mp
        for _ in range(40):
            re, im = (mp.mpf(rng.uniform(-1, 1)) * mp.mpf(2) ** rng.randint(-80, 80) for _ in "ri")
            zr, zi, W = ctx.exact(mp.mpc(re, im))
            assert nstr((zr, zi, W)) == mp.nstr(mp.mpc(re, im), 12)
            assert nstr((zr, 0, W)) == mp.nstr(re, 12)
            assert format_value(re._mpf_, im._mpf_, _digits(ctx)) == mp.nstr(mp.mpc(re, im), _digits(ctx))
            assert format_real(re._mpf_, ctx) == mp.nstr(re, _digits(ctx), strip_zeros=True)
            assert str_real(re._mpf_, prec) == str(re)
        for y in (1, 2, 5, 10, 50, 100):  # the default strip heights
            assert str_real(dyadic(y, 0), prec) == str(mp.mpf(y))


def test_the_modulus_of_a_complex_ball_is_mpmaths_abs():
    # abs of an mpc: the sum of squares rounded down at prec + 4 bits (with
    # mpf_add's shortcut for parts far apart), its square root to nearest
    import random
    from eistrig.precision import dyadic, mp_context
    from eistrig.printing import modulus
    rng = random.Random(1611)
    for _ in range(600):
        prec = rng.randint(64, 1100)
        mp = mp_context(prec)
        parts = [dyadic(rng.choice((-1, 1)) * (rng.getrandbits(rng.randint(1, prec)) | 1),
                        rng.randint(-prec - 300, 100), prec) for _ in "ri"]
        if rng.random() < 0.3:  # the exponents more than 100 apart
            parts[1] = dyadic(rng.getrandbits(prec) | 1, parts[0][2] - rng.randint(60, 2 * prec), prec)
        if rng.random() < 0.05:
            parts[rng.randint(0, 1)] = (0, 0, 0, 0)
        re, im = parts
        assert modulus(re, im, prec) == abs(mp.make_mpc((re, im)))._mpf_
        assert modulus(re, None, prec) == abs(mp.make_mpf(re))._mpf_
