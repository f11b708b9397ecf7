"""The fixed-point kernel against exact rational arithmetic.

At a small scale (P = 24..40 bits) rounding dominates every error, so the
kernel's counted units are checked against the exact Fraction value of the
same finite sum: the explicit sum of a lattice pass, and an Euler-Maclaurin
tail up to the order the kernel stopped at (its truncation bound is tested
against the Hurwitz zeta values in test_zetasums), each term of the Taylor
route to cos, and a polynomial in the a_d substituted at balls.  The ball
helpers of the g jet are checked the same way: a product, a quotient and the
final rounding must hold the exact result at every point of their input
balls, and the count that the g jet tests a rounded ball by must hold the
radius to_ball returns.  The charge for moving a point to 2^-P is checked
against the closed forms of eps_2, eps_3 and eps_4.  zeta_fixed's count is checked against zeta(2m) bracketed in
Fractions, on the real Z_0 table and on the worst table its count admits.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from eistrig import InconclusiveNonvanishingError, zetasums
from eistrig.fixedpoint import (ball_mul, ball_quotient, rounded_count, rounding_allowance, series,
                                to_ball)
from eistrig.lattice import _explicit_sums, _move_charge
from eistrig.precision import mp_context
from eistrig.sympoly import SymbolPoly
from eistrig.trig import _cos_terms
from eistrig.zetasums import em_tails, zeta_fixed
from test_properties import lattice_closed_form, mp_fixed
from test_zetasums import bernoulli_even


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


@st.composite
def series_inputs(draw):
    """(coeffs, n, xr, xi, shift): n integer coefficients of up to 40 bits, all
    positive or of alternating sign, and x = (xr + i xi) 2^-shift, shift =
    24..40, real or complex, |x| up to 1/2, near 1/2, or up to 1."""
    shift = draw(st.integers(24, 40))
    n = draw(st.integers(1, 30))
    sign = draw(st.sampled_from([1, -1]))
    coeffs = [draw(st.integers(0, 1 << 40)) * (sign ** j) for j in range(n)]
    kind = draw(st.sampled_from(["small", "edge", "large"]))
    reach = {"small": 1 << shift - 1, "edge": 1 << shift - 1, "large": 1 << shift}[kind]
    if draw(st.booleans()):
        xr, xi = draw(st.integers(-reach, reach)), 0
        if kind == "edge":
            xr = (reach - draw(st.integers(0, 1 << 8))) * draw(st.sampled_from([1, -1]))
    else:
        xr, xi = draw(st.integers(-reach, reach)), draw(st.integers(-reach, reach))
        assume(xi)
        if kind == "edge":  # |x| just below 1/2
            xr = math.isqrt(max(0, reach * reach - xi * xi)) * draw(st.sampled_from([1, -1]))
    assume(xr * xr + xi * xi <= 1 << 2 * shift)
    return coeffs, n, xr, xi, shift


@settings(max_examples=500)
@given(series_inputs())
def test_the_series_kernel_is_within_its_count_of_the_exact_sum(inputs):
    # Horner's rule for a real x, the two-multiply recurrence for a complex x
    coeffs, n, xr, xi, shift = inputs
    x = (Fraction(xr, 2 ** shift), Fraction(xi, 2 ** shift))
    exact, power = [Fraction(0), Fraction(0)], (Fraction(1), Fraction(0))
    for c in coeffs[:n]:
        exact = [exact[0] + c * power[0], exact[1] + c * power[1]]
        power = cmul(power, x)
    re, im, err = series(coeffs, n, xr, xi, shift)
    assert l1_units(exact, re, im, 0) <= err
    if xr * xr + xi * xi << 2 <= 1 << 2 * shift:
        assert err == (4 if xi else 2) or n < 3 and err <= 4


@settings(max_examples=300)
@given(st.integers(1, 40), st.integers(1, 1 << 12), st.integers(0, 6), st.sampled_from([1, -1]))
def test_horner_by_division_is_within_its_count_of_the_exact_sum(n, a, t, sign):
    # the real tails of the zeta sums: x = 4^t / a^2 exact, one division per term
    coeffs = [sign ** j * ((j * 7919 + 3) << 30) for j in range(n)]
    x = Fraction(4 ** t, a * a)
    exact = sum(c * x ** j for j, c in enumerate(coeffs))
    re, im, err = series(coeffs, n, 1 << 2 * t, 0, 0, a * a)
    assert im == 0 and abs(exact - re) <= err


@settings(max_examples=300)
@given(st.data(), st.integers(24, 40), st.sampled_from([0, 1, 2]), st.integers(2, 4),
       st.integers(1, 30))
def test_a_laurent_pass_is_within_its_count_of_the_exact_series(data, P, i, k, D):
    # eps_k on the Laurent route of i with D terms, its Z_i entries exact
    # inputs at scale 2^-P (so its Horner count is in units of 2^-P) and its
    # tail bound one unit: within err of the same truncated series, exactly
    from eistrig import lattice
    L = 1 << i
    zetas = tuple((1 << P) + data.draw(st.integers(0, L << P)) for _ in range(D + 2))
    reach = 5 * L << P - 3  # |u| <= rho L
    ur = data.draw(st.integers(-min(reach, 1 << P - 1), min(reach, 1 << P - 1)))
    ui = data.draw(st.sampled_from([0, data.draw(st.integers(-reach, reach))]))
    assume(ur * ur + ui * ui <= reach * reach and (ur or ui) and (i == 0 or abs(ur) > 0 or ui))
    assume(max(abs(ur), abs(ui)) > 1 << 8)
    with mock.patch.object(lattice, "zeta_table", lambda *_: (P, zetas, 0)):
        (re, im, err), = lattice._laurent_sums((k,), ur, ui, P, i, (D,), ((k - 1) * i - P,))
    u = (Fraction(ur, 2 ** P), Fraction(ui, 2 ** P))
    exact = [Fraction(0), Fraction(0)]
    for n in range(1 - L, L):
        term = cpow((u[0] - n, u[1]), -k)
        exact = [exact[0] + term[0], exact[1] + term[1]]
    w = (u[0] / L, u[1] / L)
    for t in range(D):
        j = k % 2 + 2 * t
        c = Fraction(2 * (-1) ** k * math.comb(k + j - 1, j) * zetas[(k + j) // 2 - 1], 2 ** P * L ** k)
        term = cpow(w, j)
        exact = [exact[0] + c * term[0], exact[1] + c * term[1]]
    assert l1_units(exact, re, im, P) <= err


@settings(max_examples=500)
@given(st.data(), st.integers(24, 40), st.sampled_from([0, 1, 2]), st.integers(2, 4),
       st.integers(1, 40), st.sampled_from(["real", "complex"]), st.booleans())
def test_a_laurent_row_sum_is_within_its_count(data, P, i, k, D, kind, edge):
    # the two-multiply recurrence (or Horner's rule) on the row C(k+j-1, j)
    # Z_i(k+j) at v = w^2, |w| <= rho, exact at 2^-2(P+i), the Z_i entries at
    # scale 2^-P taken as exact values within zerr units: the row sum lies
    # within its count of the exact sum of every such table
    from eistrig import lattice
    L = 1 << i
    zerr = data.draw(st.sampled_from([0, 0, 1, 3]))
    zetas = tuple((1 << P) + data.draw(st.integers(0, L << P)) for _ in range(D + 3))
    shifts = [data.draw(st.integers(-zerr, zerr)) for _ in zetas]  # the exact table
    reach = 5 << P + i - 3  # |w| <= 5/8 at 2^-(P+i)
    if kind == "real":
        wr, wi = data.draw(st.integers(reach - (1 << 12), reach) if edge else st.integers(1, reach)), 0
    else:
        wi = data.draw(st.integers(1, reach))
        wr = math.isqrt(reach * reach - wi * wi) if edge else data.draw(st.integers(-reach, reach))
        assume(wr * wr + wi * wi <= reach * reach)
    shift = 2 * (P + i)
    re, im, err = lattice._laurent_row(i, P, k, zetas, zerr, D, wr * wr - wi * wi, 2 * wr * wi, shift)
    v = (Fraction(wr * wr - wi * wi, 2 ** shift), Fraction(2 * wr * wi, 2 ** shift))
    exact, power = [Fraction(0), Fraction(0)], (Fraction(1), Fraction(0))
    for t in range(D):
        j = k % 2 + 2 * t
        c = math.comb(k + j - 1, j) * (zetas[(k + j) // 2 - 1] + shifts[(k + j) // 2 - 1])
        exact = [exact[0] + c * power[0], exact[1] + c * power[1]]
        power = cmul(power, v)
    assert l1_units(exact, re, im, 0) <= err


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
    bv = to_ball(re, im, err, P, prec)
    got = [exact(bv.value.real), exact(bv.value.imag)] if im else [exact(bv.value), 0]
    center = Fraction(re, 2 ** P), Fraction(im, 2 ** P)
    for c, v in zip(center, got):
        assert abs(v) <= abs(c) and v * c >= 0
    # the ball about the rounded value holds the whole ball about the center
    slack = exact(bv.radius) - Fraction(err, 2 ** P)
    assert slack >= 0 and slack ** 2 >= (got[0] - center[0]) ** 2 + (got[1] - center[1]) ** 2


@settings(max_examples=300)
@given(st.data(), st.integers(24, 40), st.integers(24, 40))
def test_the_rounded_count_holds_the_rounded_radius(data, P, prec):
    # at prec bits of precision, with centres and radii of up to prec + 16
    # bits, where both the centre and the radius round: the radius to_ball
    # returns is at most rounded_count units of 2^-P (the g jet's test of a
    # rounded ball), and the centre moves by at most the rounding allowance
    top = P + prec + 16
    re = data.draw(st.integers(-(1 << top), 1 << top))
    im = data.draw(st.sampled_from([0, data.draw(st.integers(-(1 << top), 1 << top))]))
    err = data.draw(st.integers(0, 1 << prec + 16))
    bv = to_ball(re, im, err, P, prec)
    assert exact(bv.radius) * 2 ** P <= rounded_count(re, im, err, prec)
    got = [exact(bv.value.real), exact(bv.value.imag)] if im else [exact(bv.value), 0]
    moved = abs(got[0] * 2 ** P - re) + abs(got[1] * 2 ** P - im)
    assert moved <= rounding_allowance(re, im, prec)


@settings(max_examples=300)
@given(st.data(), st.integers(24, 40), st.integers(2, 4), st.sampled_from(["real", "complex"]))
def test_the_move_charge_holds_the_closed_form_change(data, P, k, kind):
    # u exact at F = P + s bits, which the kernel truncates toward zero to u'
    # at 2^-P, each part by close to one unit: |eps_k(u) - eps_k(u')| from the
    # closed form at 4P bits is within _move_charge units of 2^-P
    s = data.draw(st.integers(4, 12))
    half = 1 << P - 1

    def part(limit):
        size = 1 << data.draw(st.integers(3, limit.bit_length() - 1))
        return data.draw(st.integers(-size, size))

    ur = part(half - 1)
    ui = part(2 << P) if kind == "complex" else 0
    assume(math.isqrt(ur * ur + ui * ui) > 8)

    def moved(x):  # x 2^s plus a fraction of a unit close to 1, away from zero
        d = (1 << s) - 1 - data.draw(st.integers(0, 3))
        return (x << s) + (d if x > 0 or (x == 0 and data.draw(st.booleans())) else -d)

    u = (moved(ur), moved(ui) if ui else 0)
    with mpmath.workprec(4 * P):
        at = [mpmath.mpc(mpmath.ldexp(a, -e), mpmath.ldexp(b, -e))
              for a, b, e in ((*u, P + s), (ur, ui, P))]
        change = abs(lattice_closed_form(k, at[0]) - lattice_closed_form(k, at[1]))
        assert mpmath.ldexp(change, P) <= _move_charge(k, ur, ui, P)


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


def zeta_bounds(m):
    """Fractions lo < zeta(2m) < hi from zeta(2m) = |B_2m| (2 pi)^2m / (2 (2m)!),
    B_2m from mpmath's table and pi bracketed to 2^-300 by mpmath's value."""
    t = mp_fixed(mp_context(320).pi, 300)[0]
    c = abs(Fraction(*mpmath.bernfrac(2 * m))) / (2 * math.factorial(2 * m))
    return tuple(c * (2 * Fraction(p, 2**300)) ** (2 * m) for p in (t - 1, t + 1))


@pytest.mark.parametrize("P", range(24, 41))
def test_zeta_fixed_holds_zeta_within_its_count(P, monkeypatch):
    # from the Z_0 table at Q = 64, and for 2m > P without it
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    for m in range(1, P // 2 + 4):
        value, err = zeta_fixed(m, P)
        lo, hi = zeta_bounds(m)
        assert Fraction(value - err, 2**P) <= lo and hi <= Fraction(value + err, 2**P)
    assert list(zetasums._zeta_tables) == [(0, 64)]


@pytest.mark.parametrize("P", range(24, 41))
def test_zeta_fixed_count_holds_on_the_worst_table_it_admits(P, monkeypatch):
    # a table value v' whose low Q - P bits are all ones, below zeta(2m) 2^Q
    # by less than its count err_Q: the truncation to 2^-P then drops
    # almost one unit on top of the table's error
    Q = 64
    for m in (1, 2, 5, 9):
        lo, hi = zeta_bounds(m)
        v = math.floor(lo * 2**Q)
        assert v == math.floor(hi * 2**Q)
        worst = (v >> Q - P << Q - P) - 1
        table = [0] * m
        table[m - 1] = worst
        monkeypatch.setattr(zetasums, "zeta_table", lambda *_: (Q, table, v - worst + 1))
        value, err = zeta_fixed(m, P)
        assert Fraction(value - err, 2**P) <= lo and hi <= Fraction(value + err, 2**P)
