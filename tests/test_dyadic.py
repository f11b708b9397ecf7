"""The integer roundings of balls and tolerances against mpmath, exactly.

A ball leaves the kernel as mpmath's normalised tuples (precision.dyadic,
fixedpoint.to_ball), and a tolerance is read by one decimal reader
(precision.read_real); both run in Python integers.  Each is checked here
against the mpmath routine it stands for: to_ball's centre and radius
against from_man_exp(x, -P, prec, "d") and "u", the reader against
mp.mpf(text) (its value, or the type of its exception), and the binary
exponents of a context against mp.mag.

Past a decimal exponent of 400 mpmath's reader rounds 10^exp before the
product (its from_str says so), while read_real rounds exactly at every
exponent; there the oracle is the exact rounding of man 10^exp by
from_int or from_rational, and mp.mpf is held within one ulp of it.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_int, from_man_exp, from_rational
from mpmath.libmp.libmpf import str_to_man_exp

from eistrig import BoundedValue, PrecisionContext
from eistrig.fixedpoint import rounding_allowance, to_ball
from eistrig.precision import dyadic, mp_context, read_real, split_point_string

PRECISIONS = (64, 128, 192, 400, 1100)

#: bit lengths around the precisions of the tests, and powers of two with
#: their neighbours, where a rounding up carries into a new bit
INTS = st.one_of(
    st.integers(-(1 << 1300), 1 << 1300),
    st.integers(0, 1200).flatmap(lambda n: st.sampled_from(
        [(1 << n) - 1, 1 << n, (1 << n) + 1, -(1 << n) + 1, -(1 << n)])),
)


def outcome(read):
    """read()'s value, or the type of the exception it raised."""
    try:
        return read()
    except Exception as exc:  # noqa: BLE001 (the type is the outcome)
        return type(exc)


@settings(max_examples=400)
@given(INTS, st.integers(-1500, 200), st.sampled_from((0, 24, 53) + PRECISIONS),
       st.sampled_from("dun"))
def test_dyadic_is_from_man_exp(x, e, prec, rnd):
    assert dyadic(x, e, prec, rnd) == from_man_exp(x, e, prec, rnd)


@settings(max_examples=400)
@given(st.integers(0, 1100).flatmap(lambda n: st.sampled_from([0, 1 << n, (1 << n) - 1, -(1 << n)])),
       st.sampled_from([0, 1, (1 << 40) - 1, 1 << 60]), st.integers(0, 1 << 300),
       st.integers(0, 1200), st.sampled_from(PRECISIONS))
def test_to_ball_rounds_as_from_man_exp(re, im, err, P, prec):
    # zero, powers of two and carries in the real part; an imaginary part of
    # any size against it, down to one unit
    for r, i in ((re, 0), (re, im), (im, re)):
        bv = to_ball(r, i, err, P, prec)
        mp = mp_context(prec)
        centre = (from_man_exp(r, -P, prec, "d"), from_man_exp(i, -P, prec, "d"))
        assert bv.re == centre[0] and (bv.im is None if not i else bv.im == centre[1])
        radius = from_man_exp(err + rounding_allowance(r, i, prec), -P, prec, "u")
        assert bv.rad == radius
        assert bv.radius == mp.make_mpf(radius)
        assert bv.value == (mp.make_mpc(centre) if i else mp.make_mpf(centre[0]))


def test_to_ball_carries_the_radius_into_a_new_bit():
    # 2^70 - 1 units at 64 bits round up to 2^70: mantissa 1, one bit
    bv = to_ball(0, 0, (1 << 70) - 1, 10, 64)
    assert bv.rad == (0, 1, 60, 1) == from_man_exp((1 << 70) - 1, -10, 64, "u")
    assert bv.re == (0, 0, 0, 0) and bv.im is None


#: strings whose reading by mp.mpf the reader must repeat, value or exception
CORPUS = ["1e-12", "1E-30", ".5e-3", "5.", "+2.5e-7", "-0", "1/3", "1_000", " 2 ", "inf",
          "nan", "1e", "e5", "0x10", "1e-300", "1e-100", "0.000", ".000", ".", "", "-",
          "+-1", "1.2.3", "1e5e3", "1 000", "\t7.25e+01\n", "0.1", "3.14159265358979323846264338",
          "1e-401", "1e400", "123456789e-405", "5e-324", "-1.5E+3", "١٢", "1l", "infinity",
          "-inf", "+0.0e-0", "1e-5000", "-3/7", "3/-7", "1/0", "0/0", "0/5", "22/7", "2/3",
          " 5 / 2 ", "1/3/4", "1.5/2", "7l/3l", "1e-500", "1e-600", "1e-640", "1e-1300", "1e-2600",
          "-4.75e+2048", "123456789012345678901234567890e-2000"]


def _ties(prec):
    """Decimal strings of values half-way between two prec-bit numbers: the
    integers 2^prec + 1 and + 3 (ties down and up to even) and the same over
    2^10, written exactly as decimals."""
    out = []
    for n in ((1 << prec) + 1, (1 << prec) + 3):
        out.append(str(n))
        out.append(str(n * 5**10)[:-10] + "." + str(n * 5**10)[-10:])
        out.append(f"-{n}e0")
    return out


def within_one_ulp(a: tuple, b: tuple, prec: int) -> bool:
    """|a - b| <= one ulp of b at prec bits, for finite nonzero tuples,
    compared at the scale of the least exponent among them and that ulp."""
    e = min(a[2], b[2], b[2] + b[3] - prec)
    ints = [(-1) ** sign * man << exp - e for sign, man, exp, _ in (a, b)]
    return abs(ints[0] - ints[1]) <= 1 << b[2] + b[3] - prec - e


def oracle(text: str, prec: int):
    """What read_real must give for text, a tuple or the type of an
    exception: mp.mpf(text), or past |exp| = 400 the exact rounding of man
    10^exp, with mp.mpf within one ulp of it."""
    want = outcome(lambda: mp_context(prec).mpf(text)._mpf_)
    try:
        man, exp = str_to_man_exp(text.lower().strip())
    except ValueError:  # a special string or a ratio, which mpmath reads exactly
        return want
    if abs(exp) <= 400:
        return want
    exact = from_int(man * 10**exp, prec, "n") if exp > 0 else from_rational(man, 10**-exp, prec, "n")
    assert not man or within_one_ulp(want, exact, prec), text
    return exact


@pytest.mark.parametrize("prec", PRECISIONS)
def test_the_reader_gives_what_mp_mpf_gives_on_the_corpus(prec):
    for text in CORPUS + _ties(prec):
        assert outcome(lambda: read_real(text, prec)) == oracle(text, prec), text


@pytest.mark.parametrize("text", ["1e-100000000", "7e1000000", "-3.25e-999999", "1e1" + "0" * 60])
def test_the_reader_rounds_a_huge_exponent_within_one_ulp_of_mpmath(text):
    # 5^|exp| is bracketed, never formed; mp.mpf rounds 10^exp at prec + 10 bits first
    prec = 128
    assert within_one_ulp(mp_context(prec).mpf(text)._mpf_, read_real(text, prec), prec)


@st.composite
def decimals(draw):
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(st.text("0123456789", max_size=40))
    frac = draw(st.text("0123456789", max_size=40))
    point = draw(st.booleans()) or not whole
    exponent = draw(st.one_of(st.none(), st.integers(-420, 420), st.integers(-3000, 3000)))
    text = sign + whole + ("." + frac if point else "")
    if exponent is not None:
        text += draw(st.sampled_from("eE")) + (f"{exponent:+d}" if draw(st.booleans()) else str(exponent))
    return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " ", "\n"]))


@settings(max_examples=500)
@given(decimals(), st.sampled_from(PRECISIONS))
def test_the_reader_gives_what_mp_mpf_gives_on_drawn_decimals(text, prec):
    assert outcome(lambda: read_real(text, prec)) == oracle(text, prec)


@settings(max_examples=300)
@given(st.one_of(st.integers(-(1 << 1200), 1 << 1200), st.floats(allow_nan=False),
                 st.fractions(max_denominator=1 << 200)), st.sampled_from(PRECISIONS))
def test_the_reader_gives_what_the_mpf_path_gives_on_numbers(x, prec):
    mp = mp_context(prec)
    want = (mp.mpf(x.numerator) / x.denominator) if isinstance(x, Fraction) else mp.mpf(x)
    assert read_real(x, prec) == want._mpf_
    wider = mp_context(2 * prec).mpf(want) / 3  # an mpf of another context, rounded again
    assert read_real(wider, prec) == mp.mpf(wider)._mpf_


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"), -0.0, None, 1j, [1],
                               Decimal("1.5")])
def test_the_reader_takes_a_special_float_and_refuses_other_types_as_mp_mpf_does(x):
    assert outcome(lambda: read_real(x, 128)) == outcome(lambda: mp_context(128).mpf(x)._mpf_)


def _tolerances(prec):
    """Powers of two, values one ulp below them, and values about 160 times
    them (where tolerance / 160 rounds next to a power of two), as mpf."""
    mp = mp_context(prec)
    out = []
    for k in range(1, prec - 20, max(1, prec // 37)):
        two = mp.ldexp(1, -k)
        below = mp.make_mpf(from_man_exp((1 << prec) - 1, -k - prec))
        for base in (two, below, 160 * two, 160 * below):
            out += [base, mp.make_mpf(from_man_exp(base.man + 1, base.exp)) if base.man else base]
    out += [mp.mpf(s) for s in ("1e-12", "1e-30", "1e-100", "3e-7", "0.5", "0.999")]
    return [t for t in out if -mp.mag(t) + 16 <= prec]


@pytest.mark.parametrize("prec", PRECISIONS)
def test_the_context_exponents_are_mpmaths_mag(prec):
    mp = mp_context(prec)
    for tol in _tolerances(prec):
        ctx = PrecisionContext(prec, tol)
        assert ctx.tolerance == tol
        assert ctx.tolerance_exponent == mp.mag(tol) - 1
        assert ctx.exponent_below(160) == mp.mag(tol / 160) - 1
        for d in (3, 4, 7, 4096):
            assert ctx.exponent_below(d) == mp.mag(tol / d) - 1


@pytest.mark.parametrize("prec, tol", [(128, "1e-12"), (192, "1e-30"), (400, "1e-100")])
def test_the_evaluator_takes_g_to_mags_exponent(prec, tol):
    from eistrig.trig import evaluator
    ctx = PrecisionContext(prec, tol)
    assert evaluator(ctx).g_exp == ctx.mp.mag(ctx.tolerance / 160) - 1


@settings(max_examples=300)
@given(st.integers(0, 1 << 200), st.integers(100, 400), st.sampled_from(["1e-12", "1e-30", "2.5e-20"]))
def test_meets_is_the_mpf_comparison(err, P, tol):
    ctx = PrecisionContext(192, tol)
    man, exp = ctx.tolerance.man_exp
    # a drawn radius, and radii of the tolerance itself and one unit of its mantissa above
    for bv in (to_ball(1, 0, err, P, 192), to_ball(0, 0, man, -exp, 192), to_ball(0, 0, man + 1, -exp, 192)):
        assert ctx.meets(bv) == (bv.radius <= ctx.tolerance)
    assert ctx.meets(to_ball(0, 0, man, -exp, 192))
    assert not ctx.meets(BoundedValue(ctx.mp.mpf(0), ctx.mp.inf))


@pytest.mark.parametrize("text", ["0.3+0.9i", "-12.6+17.5i", "1e-30", "2.5-1e-7j", "7", "0.1+1/3i"])
def test_exact_and_point_read_a_point_string_as_mp_mpf_does(text):
    ctx = PrecisionContext(192, "1e-30")
    mp = ctx.mp
    want = [mp.mpf(part) for part in split_point_string(text)]
    zp = ctx.point(text)
    assert zp == (want[0] if not want[1] else mp.mpc(*want))
    re, im, W = ctx.exact(text)
    exact = [(-1) ** s * m * Fraction(2) ** e for s, m, e, _ in (x._mpf_ for x in want)]
    assert [Fraction(re, 2**W), Fraction(im, 2**W)] == exact
