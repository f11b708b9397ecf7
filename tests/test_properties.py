"""Property-based invariants: soundness, symmetry, periodicity, range.

Points are drawn dyadic (small mantissa over a power of two) so that shifts
and negations are exactly representable and bit-exactness claims are fair.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, strategies as st

from eistrig import (PrecisionContext, cosine, eisenstein_k,
                     naive_symmetric_value, pythagoras_residual, sine,
                     symmetric_tail_bound, taylor_cosine)
from eistrig.trig import g_eval

DEFAULT = PrecisionContext()


def dyadic(min_value: float, max_value: float, denominator: int = 4096):
    lo = int(min_value * denominator)
    hi = int(max_value * denominator)
    return st.integers(min_value=lo, max_value=hi).map(
        lambda m: DEFAULT.from_fraction(Fraction(m, denominator)))


def away_from_integers(x) -> bool:
    return abs(x - mpmath.nint(x)) > mpmath.mpf("0.02")


@given(dyadic(-3, 3), st.integers(min_value=6, max_value=13))
def test_tightening_the_tolerance_stays_inside_the_old_ball(x, exponent):
    assume(away_from_integers(x))
    loose_ctx = PrecisionContext(tolerance=f"1e-{exponent}")
    tight_ctx = loose_ctx.refined(loose_ctx.tolerance / 4)
    loose = eisenstein_k(2, x, loose_ctx)
    tight = eisenstein_k(2, x, tight_ctx)
    assert tight.radius <= loose.radius
    assert abs(loose.value - tight.value) <= loose.radius + tight.radius


def lattice_closed_form(k: int, z):
    """eps_k(z) from pi cot(pi z): pi^2/s^2, pi^3 c/s^3, pi^4 (2 + cos 2 pi z)/(3 s^4)."""
    s, c = mpmath.sin(mpmath.pi * z), mpmath.cos(mpmath.pi * z)
    if k == 2:
        return mpmath.pi ** 2 / s ** 2
    if k == 3:
        return mpmath.pi ** 3 * c / s ** 3
    return mpmath.pi ** 4 * (2 + mpmath.cos(2 * mpmath.pi * z)) / (3 * s ** 4)


@pytest.mark.parametrize("precision, tolerance",
                         [(128, "1e-12"), (192, "1e-30"), (256, "1e-60")])
@given(st.sampled_from([2, 3, 4]), dyadic(-0.5, 0.5), dyadic(-60, 60))
def test_lattice_ball_contains_the_closed_form(precision, tolerance, k, x, y):
    assume(x != 0 or y != 0)
    ctx = PrecisionContext(precision, tolerance)
    z = ctx.point(DEFAULT.mp.mpc(x, y))
    bv = eisenstein_k(k, z, ctx)
    assert bv.radius <= ctx.tolerance
    with mpmath.workprec(2 * precision + 64):
        exact = lattice_closed_form(k, mpmath.mpmathify(z))
        assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


@given(dyadic(-3, 3))
def test_evenness_is_bit_exact(x):
    assume(away_from_integers(x))
    a = eisenstein_k(2, x, DEFAULT)
    b = eisenstein_k(2, -x, DEFAULT)
    assert a.value == b.value and a.radius == b.radius


@given(dyadic(-2, 2), dyadic(0.05, 2))
def test_conjugate_symmetry_of_the_lattice_sum(x, y):
    z = DEFAULT.mp.mpc(x, y)
    a = eisenstein_k(2, z, DEFAULT)
    b = eisenstein_k(2, DEFAULT.mp.conj(z), DEFAULT)
    assert abs(DEFAULT.mp.conj(b.value) - a.value) <= a.radius + b.radius


@given(dyadic(-1, 1), st.integers(min_value=-10**6, max_value=10**6))
def test_lattice_sum_is_exactly_periodic(x, k):
    assume(away_from_integers(x))
    a = eisenstein_k(2, x, DEFAULT)
    b = eisenstein_k(2, x + k, DEFAULT)
    assert a.value == b.value and a.radius == b.radius


@given(dyadic(-2, 2), st.sampled_from([1, 7, 1000, 10**6]))
def test_cosine_periodicity_within_twice_the_radii(x, k):
    from eistrig import evaluator
    two_pi = 2 * evaluator(DEFAULT).pi.value.value
    a = cosine(x, DEFAULT)
    b = cosine(x + k * two_pi, DEFAULT)
    assert abs(a.value - b.value) <= 2 * (a.radius + b.radius)


@given(dyadic(-4, 4))
def test_cosine_is_even_and_sine_is_odd_bitwise(x):
    ce, co = cosine(x, DEFAULT), cosine(-x, DEFAULT)
    assert ce.value == co.value and ce.radius == co.radius
    se, so = sine(x, DEFAULT), sine(-x, DEFAULT)
    assert se.value == -so.value and se.radius == so.radius


@given(dyadic(-6, 6))
def test_real_cosine_and_sine_stay_in_range(x):
    for bv in (cosine(x, DEFAULT), sine(x, DEFAULT)):
        assert abs(bv.value) <= 1 + 2 * bv.radius


@given(dyadic(-3, 3))
def test_pythagoras_holds_within_allowance(x):
    r = pythagoras_residual(x, DEFAULT)
    assert abs(r.value) <= 2 * r.radius


@given(dyadic(-1, 1))
def test_the_two_cosine_routes_always_overlap(x):
    a = cosine(x, DEFAULT)
    b = taylor_cosine(x, DEFAULT)
    assert abs(a.value - b.value) <= a.radius + b.radius


@given(dyadic(-0.45, 0.45), st.sampled_from([4, 8, 32, 128]))
def test_symmetric_truncation_bound_is_never_violated(x, n):
    assume(abs(x) > mpmath.mpf("0.02"))
    tight = eisenstein_k(2, x, DEFAULT.refined(DEFAULT.mp.mpf("1e-30")))
    approx = naive_symmetric_value(2, x, n, DEFAULT)
    assert abs(DEFAULT.mp.mpf(tight.value) - approx.value) <= approx.radius
    assert approx.radius >= symmetric_tail_bound(2, n, DEFAULT)


@given(dyadic(-2, 2, denominator=64))
def test_g_times_f_is_one_wherever_g_is_finite(x):
    assume(away_from_integers(x))
    product = DEFAULT.bmul(g_eval(x, DEFAULT), eisenstein_k(2, x, DEFAULT))
    assert abs(product.value - 1) <= product.radius + DEFAULT.eps
