"""The fixed-point kernel against exact rational arithmetic.

At a small scale (P = 24..40 bits) rounding dominates every error, so the
kernel's counted units are checked against the exact Fraction value of the
same finite sum: the explicit sum of a lattice pass, and an Euler-Maclaurin
tail up to the order the kernel stopped at (its truncation bound is tested
against the Hurwitz zeta values in test_zetasums), each term of the Taylor
route to cos, and a polynomial in the a_d substituted at balls.  The ball
helpers of the g jet are checked the same way: a product, a quotient and the
final rounding must hold the exact result at every point of their input
balls.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from eistrig import InconclusiveNonvanishingError
from eistrig.fixedpoint import ball_mul, ball_quotient, to_ball
from eistrig.lattice import _explicit_sums
from eistrig.precision import mp_context
from eistrig.sympoly import SymbolPoly
from eistrig.trig import _cos_terms
from eistrig.zetasums import bernoulli_even, em_tails


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def cinv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return a[0] / d, -a[1] / d


def cpow(a, k):
    """a^k for an exact complex pair a and any integer k."""
    out, base = (Fraction(1), Fraction(0)), (a if k >= 0 else cinv(a))
    for _ in range(abs(k)):
        out = cmul(out, base)
    return out


def l1_units(exact, re, im, P):
    """|exact - (re + i im) 2^-P|_1 in units of 2^-P."""
    return abs(exact[0] * 2 ** P - re) + abs(exact[1] * 2 ** P - im)


@st.composite
def kernel_points(draw):
    """(P, ur, ui): u = (ur + i ui) 2^-P, |Re u| <= 1/2, real, complex, near an
    integer, near Re u = +-1/2 (|u -/+ 1| about 1/2, where 1/(u -/+ 1) is
    largest), just beyond |u| = 5/2 (the lattice route) or high in the strip."""
    P = draw(st.integers(24, 40))
    kind = draw(st.sampled_from(["real", "complex", "near", "half", "beyond", "strip"]))
    half = 1 << (P - 1)
    if kind == "near":
        reach = 1 << draw(st.integers(2, P // 2))
        ur, ui = draw(st.integers(-reach, reach)), draw(st.sampled_from([0, 1, -3, reach]))
    elif kind == "half":
        reach = 1 << draw(st.integers(2, P // 2))
        ur = draw(st.sampled_from([1, -1])) * (half - draw(st.integers(0, reach)))
        ui = draw(st.sampled_from([0, draw(st.integers(-reach, reach))]))
    elif kind == "beyond":
        ur = draw(st.integers(-half, half))
        ui = draw(st.sampled_from([1, -1])) * draw(st.integers(5 * half, 8 * half))
    else:
        ur = draw(st.integers(-half, half))
        top = {"real": 0, "complex": 4 * half, "strip": 60 * half}[kind]
        bottom = {"real": 0, "complex": -4 * half, "strip": 10 * half}[kind]
        ui = draw(st.integers(bottom, top))
    assume(ur or ui)
    return P, ur, ui


@settings(max_examples=300)
@given(kernel_points(), st.integers(0, 6), st.integers(2, 4), st.integers(1, 3))
def test_the_explicit_sum_is_within_its_count_of_the_exact_sum(point, N, k0, count):
    P, ur, ui = point
    exponents = tuple(range(k0, k0 + count))
    u = (Fraction(ur, 2 ** P), Fraction(ui, 2 ** P))
    for k, (re, im, err) in zip(exponents, _explicit_sums(exponents, ur, ui, N, P)):
        exact = [Fraction(0), Fraction(0)]
        for n in range(-N, N + 1):
            term = cpow((u[0] - n, u[1]), -k)
            exact = [exact[0] + term[0], exact[1] + term[1]]
        assert l1_units(exact, re, im, P) <= err


def test_the_pairs_where_their_count_is_tightest_are_within_it():
    # Re u just below 1/2 and N = 1: the pair n = 1, where 1/(u - 1) is near
    # -2, attains the bound M on |r| that every term of the pass is charged
    # at, and its propagated error 2k |r|^(k-1) e nears the count, in 1,000
    # real points at P = 24..40
    rng = random.Random(2)
    for _ in range(1000):
        P = rng.randint(24, 40)
        ur = (1 << P - 1) - rng.randint(1, 1 << P // 2)
        u = Fraction(ur, 2 ** P)
        for k, (re, im, err) in zip((2, 3, 4), _explicit_sums((2, 3, 4), ur, 0, 1, P)):
            exact = sum(Fraction(1) / (u - n) ** k for n in (-1, 0, 1))
            assert abs(exact * 2 ** P - re) <= err


@settings(max_examples=300)
@given(kernel_points(), st.integers(0, 6), st.sampled_from([1, -1]), st.integers(2, 4),
       st.integers(1, 3), st.integers(2, 20))
def test_a_tail_is_within_its_count_of_the_exact_euler_maclaurin_sum(point, N, side, s0,
                                                                       count, limit_bits):
    P, ur, ui = point
    exponents = tuple(range(s0, s0 + count))
    br, bi = ((N + 1) << P) + side * ur, side * ui
    got = em_tails(exponents, br, bi, P, [1 << limit_bits] * count)
    assume(got is not None)
    b = (Fraction(br, 2 ** P), Fraction(bi, 2 ** P))
    for s, (re, im, err, bound, m) in zip(exponents, got):
        assert 0 < bound <= 1 << limit_bits
        head0, head1 = cpow(b, 1 - s), cpow(b, -s)
        exact = [head0[0] / (s - 1) + head1[0] / 2, head0[1] / (s - 1) + head1[1] / 2]
        for j in range(1, m):
            rising = math.prod(range(s, s + 2 * j - 1))  # (s)_(2j-1)
            coef = bernoulli_even(2 * j) / math.factorial(2 * j) * rising
            term = cpow(b, 1 - s - 2 * j)
            exact = [exact[0] + coef * term[0], exact[1] + coef * term[1]]
        assert l1_units(exact, re, im, P) <= err


# -- the ball helpers of the g jet ----------------------------------------------

@st.composite
def balls(draw, P, floor=0):
    """(re, im, err) at scale 2^-P, real or complex, |center| above floor err."""
    bits = P + draw(st.integers(-8, 8))
    re = draw(st.integers(-(1 << bits), 1 << bits))
    im = draw(st.sampled_from([0, draw(st.integers(-(1 << bits), 1 << bits))]))
    err = draw(st.integers(0, 1 << draw(st.integers(0, P // 4 if floor else P // 2))))
    if floor:
        assume(math.isqrt(re * re + im * im) > floor * err)
    return re, im, err


@st.composite
def offsets(draw, err):
    """An exact complex offset of modulus at most err: a rational point of the
    circle of radius err (m, n a Pythagorean pair), scaled by s in [0, 1]."""
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    assume(m or n)
    s = Fraction(draw(st.integers(0, 8)), 8) * err / (m * m + n * n)
    return s * (m * m - n * n) * draw(st.sampled_from([1, -1])), s * 2 * m * n * draw(st.sampled_from([1, -1]))


def within_units(exact, re, im, err, P):
    """|exact - (re + i im) 2^-P| <= err units of 2^-P."""
    dr, di = exact[0] * 2 ** P - re, exact[1] * 2 ** P - im
    return dr * dr + di * di <= err * err


def point_in(ball, offset, P):
    return Fraction(ball[0] + offset[0], 2 ** P), Fraction(ball[1] + offset[1], 2 ** P)


@settings(max_examples=300)
@given(st.data(), st.integers(24, 40))
def test_the_ball_product_holds_every_product_of_its_factors(data, P):
    a, b = data.draw(balls(P)), data.draw(balls(P))
    x = point_in(a, data.draw(offsets(a[2])), P)
    y = point_in(b, data.draw(offsets(b[2])), P)
    assert within_units(cmul(x, y), *ball_mul(a, b), 2 * P)


@settings(max_examples=300)
@given(st.data(), st.integers(24, 40), st.integers(1, 3))
def test_the_ball_quotient_holds_every_quotient_in_its_balls(data, P, k):
    # g = 1/f, g' = -f'/f^2 and g'' = (2 f'^2 - f f'')/f^3 at scale 2^-Q, the
    # numerator at scale 2^-(P (k-1))
    Q = P + data.draw(st.integers(-8, 8))
    f = data.draw(balls(P, floor=data.draw(st.sampled_from([1, 2, 1 << 6]))))
    a = (1, 0, 0) if k == 1 else data.draw(balls(P * (k - 1)))
    x = point_in(f, data.draw(offsets(f[2])), P)
    y = point_in(a, data.draw(offsets(a[2])), P * (k - 1))
    assert within_units(cmul(y, cpow(x, -k)), *ball_quotient(a, f, k, P + Q), Q)


@given(st.integers(24, 40), st.integers(1, 3))
def test_the_ball_quotient_refuses_a_ball_about_zero(P, k):
    with pytest.raises(InconclusiveNonvanishingError):
        ball_quotient((1, 0, 0), (3 << P, 4 << P, 5 << P), k, P)


def exact(x):
    """The mpf x as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@settings(max_examples=300)
@given(st.data(), st.integers(24, 40), st.sampled_from([53, 64, 128]))
def test_rounding_once_holds_the_ball_and_truncates_toward_zero(data, P, prec):
    re, im, err = data.draw(balls(P + prec))
    bv = to_ball(re, im, err, P, mp_context(prec))
    got = [exact(bv.value.real), exact(bv.value.imag)] if im else [exact(bv.value), 0]
    center = Fraction(re, 2 ** P), Fraction(im, 2 ** P)
    for c, v in zip(center, got):
        assert abs(v) <= abs(c) and v * c >= 0
    # the ball about the rounded value holds the whole ball about the center
    slack = exact(bv.radius) - Fraction(err, 2 ** P)
    assert slack >= 0 and slack ** 2 >= (got[0] - center[0]) ** 2 + (got[1] - center[1]) ** 2


# -- the Taylor route and substitution --------------------------------------------

@settings(max_examples=300)
@given(st.data(), st.integers(24, 40), st.sampled_from(["real", "imaginary", "complex"]))
def test_each_taylor_term_is_within_its_count_of_the_exact_term(data, W, kind):
    # z = (zr + i zi) 2^-Z, |Re z|, |Im z| <= 4, exact at Z bits: z^2 is exact at 2^-W
    # when 2Z <= W and truncated otherwise
    Z = data.draw(st.integers(1, W + 8))
    reach = 4 << Z
    zr = 0 if kind == "imaginary" else data.draw(st.integers(-reach, reach))
    zi = 0 if kind == "real" else data.draw(st.integers(-reach, reach))
    z = (Fraction(zr, 2 ** Z), Fraction(zi, 2 ** Z))
    z2 = cmul(z, z)
    term = (Fraction(1), Fraction(0))
    for m, (re, im, err) in zip(range(1, 16), _cos_terms(zr, zi, Z, W)):
        term = cmul(term, z2)
        term = (-term[0] / ((2 * m - 1) * 2 * m), -term[1] / ((2 * m - 1) * 2 * m))
        assert l1_units(term, re, im, W) <= err


@st.composite
def polynomials(draw):
    """A polynomial in a0 and a1 of degree at most 3 with up to four terms,
    its coefficients over assorted denominators."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        d0 = draw(st.integers(0, 3))
        coef = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 30)))
        terms[d0, draw(st.integers(0, 3 - d0))] = coef
    poly = SymbolPoly(terms)
    assume(not poly.is_zero())
    return poly


@st.composite
def l1_offsets(draw, err):
    """An integer offset (dr, di) with |dr| + |di| <= err, often a corner."""
    dr = draw(st.sampled_from([-err, 0, err, draw(st.integers(-err, err))]))
    rest = err - abs(dr)
    return dr, draw(st.sampled_from([-rest, rest, draw(st.integers(-rest, rest))]))


@settings(max_examples=300)
@given(st.data(), st.integers(24, 40), polynomials())
def test_substitution_is_within_its_count_of_the_exact_value(data, P, poly):
    # the inputs exact (err 0) or not, real or complex; the value at every
    # point of the input balls lies within the count of the one division
    bs, points = [], []
    for _ in range(2):
        re, im, _ = data.draw(balls(P))
        err = data.draw(st.sampled_from([0, 1, data.draw(st.integers(0, 1 << P // 2))]))
        dr, di = data.draw(l1_offsets(err))
        bs.append((re, im, err))
        points.append((Fraction(re + dr, 2 ** P), Fraction(im + di, 2 ** P)))
    value = (Fraction(0), Fraction(0))
    for mono, coef in poly.terms.items():
        term = (coef, Fraction(0))
        for x, e in zip(points, mono):
            for _ in range(e):
                term = cmul(term, x)
        value = (value[0] + term[0], value[1] + term[1])
    re, im, err, S = poly.substitute_fixed(bs, P)
    assert S == P * poly.total_degree()
    assert l1_units(value, re, im, S) <= err
