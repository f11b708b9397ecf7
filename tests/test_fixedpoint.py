"""The fixed-point lattice kernel against exact rational arithmetic.

At a small scale (P = 24..40 bits) rounding dominates every error, so the
kernel's counted units are checked against the exact Fraction value of the
same finite sum: the explicit sum of a lattice pass, and an Euler-Maclaurin
tail up to the order the kernel stopped at (its truncation bound is tested
against the Hurwitz zeta values in test_zetasums).
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from eistrig.lattice import _explicit_sums
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
    integer or high in the strip."""
    P = draw(st.integers(24, 40))
    kind = draw(st.sampled_from(["real", "complex", "near", "strip"]))
    half = 1 << (P - 1)
    if kind == "near":
        reach = 1 << draw(st.integers(2, P // 2))
        ur, ui = draw(st.integers(-reach, reach)), draw(st.sampled_from([0, 1, -3, reach]))
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
