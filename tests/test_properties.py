"""Property-based invariants: soundness, symmetry, periodicity, range.

Points are drawn dyadic (small mantissa over a power of two) so that shifts
and negations are exactly representable and bit-exactness claims are fair.
"""

import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from eistrig import (EistrigError, PrecisionContext, coeff_a, cosine, eisenstein_k,
                     implied_identities, naive_symmetric_value, pythagoras_residual, sine,
                     symmetric_tail_bound, taylor_cosine)
from eistrig import lattice
from eistrig.fixedpoint import cdiv, cpow, to_ball
from eistrig.lattice import fixed_jet, reduce_point
from eistrig.sympoly import SymbolPoly
from eistrig.trig import g_eval

DEFAULT = PrecisionContext()


def f_jet(z, ctx, tolerances):
    """[f, f', f''][:n] at z as BoundedValues from one lattice.fixed_jet pass,
    n = len(tolerances), order i to the mpf tolerances[i] and rounded once:
    eps_(i+2) to t / (2 |c| - 1) for f^(i) = c eps_(i+2), which keeps room
    for the rounding."""
    mp = ctx.mp
    P, jet = fixed_jet(reduce_point(z, ctx), ctx,
                       [mp.mag(t / (2 * abs(c) - 1)) - 1 for t, c in zip(tolerances, (1, -2, 6))])
    return [to_ball(*b, P, ctx.precision) for b in jet]


def mp_bits(x) -> int:
    """The least P >= 0 at which the mpf or mpc x is exact, from mpmath's own
    exponents: an oracle for PrecisionContext.exact, which reads the tuples."""
    return max([0] + [-part.exp for part in (x.real, x.imag) if part])


def mp_fixed(x, P: int) -> tuple:
    """The parts of the mpf or mpc x at scale 2^-P, each truncated toward
    zero by mpmath's own ldexp and int: an oracle for PrecisionContext.exact."""
    return tuple(int(part.context.ldexp(part, P)) for part in (x.real, x.imag))


def dyadic(min_value: float, max_value: float, denominator: int = 4096):
    lo = int(min_value * denominator)
    hi = int(max_value * denominator)
    return st.integers(min_value=lo, max_value=hi).map(
        lambda m: DEFAULT.point(Fraction(m, denominator)))


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


CONTEXTS = [(128, "1e-12"), (192, "1e-30"), (256, "1e-60")]


@pytest.mark.parametrize("precision, tolerance", CONTEXTS + [(400, "1e-100")])
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


@pytest.mark.parametrize("z", ["0.3+4i", "0.45+6i", "0.3+9i"])
def test_lattice_route_balls_at_1100_bits_contain_the_closed_form(z):
    # the top of the ladder, 1,100 bits and 1e-300: all three points take the
    # lattice route, with its pairs and both tails at about 1,000 bits
    ctx = PrecisionContext(1100, "1e-300")
    zp = ctx.point(z)
    for k in (2, 3, 4):
        bv = eisenstein_k(k, zp, ctx)
        assert bv.radius <= ctx.tolerance
        with mpmath.workprec(2 * ctx.precision + 64):
            exact = lattice_closed_form(k, mpmath.mpmathify(zp))
            assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


def jet_misses(ctx, z):
    """Orders i of f_jet(z) whose ball misses f = eps_2, f' = -2 eps_3 or
    f'' = 6 eps_4 in closed form, or exceeds the tolerance."""
    jet = f_jet(z, ctx, (ctx.tolerance,) * 3)
    with mpmath.workprec(2 * ctx.precision + 64):
        zm = mpmath.mpmathify(z)
        exact = [scale * lattice_closed_form(k, zm) for k, scale in ((2, 1), (3, -2), (4, 6))]
        return [i for i, (bv, value) in enumerate(zip(jet, exact))
                if bv.radius > ctx.tolerance
                or abs(mpmath.mpmathify(bv.value) - value) > bv.radius]


@pytest.mark.parametrize("precision, tolerance", CONTEXTS)
@given(dyadic(-0.5, 0.5), dyadic(-60, 60))
def test_jet_balls_contain_the_closed_form(precision, tolerance, x, y):
    assume(x != 0 or y != 0)
    ctx = PrecisionContext(precision, tolerance)
    assert jet_misses(ctx, ctx.point(DEFAULT.mp.mpc(x, y))) == []


def test_the_jet_check_catches_a_dropped_euler_maclaurin_term(monkeypatch):
    # the kernel's s = 3 tails without their j = 1 term, B_2/2! (3)_1 b^-4
    real = lattice.em_tails

    def short_s3_tails(exponents, br, bi, P, limits):
        got = real(exponents, br, bi, P, limits)
        if got is None:
            return None
        out = []
        for s, (re, im, err, bound, m) in zip(exponents, got):
            if s == 3:
                dr, di = cdiv(1, 0, *cpow(br, bi, 4), 5 * P, 4)  # b^-4/4 at scale 2^-P
                re, im = re - dr, im - di
            out.append((re, im, err, bound, m))
        return out

    monkeypatch.setattr(lattice, "em_tails", short_s3_tails)
    for precision, tolerance in CONTEXTS:
        ctx = PrecisionContext(precision, tolerance)
        assert jet_misses(ctx, ctx.point("0.45+2.6i")) == [1]  # |u| > 4 rho: the lattice route


def test_the_jet_check_catches_a_dropped_zeta_coefficient(monkeypatch):
    # the Laurent route's zeta(2) entry 2^-40 too large: only f uses it
    real = lattice.zeta_table

    def skewed_table(P, count, i):
        assert i == 0
        q, values, err = real(P, count, i)
        return q, (values[0] + (values[0] >> 40),) + values[1:], err

    monkeypatch.setattr(lattice, "zeta_table", skewed_table)
    for precision, tolerance in CONTEXTS:
        ctx = PrecisionContext(precision, tolerance)
        assert jet_misses(ctx, ctx.point("0.3+0.1i")) == [0]


def assert_ball_holds_the_closed_form(k, z, ctx):
    bv = eisenstein_k(k, z, ctx)
    assert bv.radius <= ctx.tolerance
    with mpmath.workprec(2 * ctx.precision + 64):
        exact = lattice_closed_form(k, mpmath.mpmathify(z))
        assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


@pytest.mark.parametrize("precision, tolerance", CONTEXTS)
@given(st.sampled_from([2, 3, 4]), dyadic(-0.5, 0.5), st.sampled_from([0, 1, 2]),
       st.sampled_from([-1, 1]))
def test_balls_at_the_laurent_band_edges_contain_the_closed_form(precision, tolerance, k, x,
                                                                  i, side):
    # |u| = (5/8) 2^i -/+ 2^-40, where a pass takes the Laurent route of i or
    # the next route out
    with mpmath.workprec(256):
        r = mpmath.ldexp(5, i - 3) + side * mpmath.ldexp(1, -40)
        y = mpmath.ldexp(mpmath.nint(mpmath.ldexp(mpmath.sqrt(r * r - x * x), 64)), -64)
    ctx = PrecisionContext(precision, tolerance)
    assert_ball_holds_the_closed_form(k, ctx.point(DEFAULT.mp.mpc(x, y)), ctx)


@pytest.mark.parametrize("precision, tolerance", CONTEXTS)
@given(st.sampled_from([2, 3, 4]), dyadic(-0.5, 0.5), st.sampled_from([-1, 0, 1]),
       st.sampled_from([-1, 1]))
def test_balls_at_the_strip_threshold_contain_the_closed_form(precision, tolerance, k, x,
                                                              step, sign):
    # |Im u| = y* + step 2^-8: the strip remainder from y* on, below it the
    # lattice route
    ctx = PrecisionContext(precision, tolerance)
    e = ctx.mp.mag(ctx.tolerance) - 1
    Y = lattice._strip_order(k, e)[0]
    z = ctx.point(DEFAULT.mp.mpc(x, sign * DEFAULT.mp.ldexp(Y + step, -8)))
    route = lattice._route(lattice.reduce_point(z, ctx), (k,), (e,))[0]
    assert route == ("lattice" if step < 0 else "strip")
    assert_ball_holds_the_closed_form(k, z, ctx)


@pytest.mark.parametrize("point, i", [("0.3+0.9i", 1), ("0.3+1.8i", 2)])
def test_the_jet_check_catches_a_scaled_table_without_a_head_term(point, i, monkeypatch):
    # Z_i without its term n = L + 1, (L/(L+1))^s: the route of i misses
    real = lattice.zeta_table

    def short_table(P, count, j):
        q, values, err = real(P, count, j)
        if j == i:
            L = 1 << j
            values = tuple(v - (L ** (2 * m) << q) // (L + 1) ** (2 * m)
                           for m, v in enumerate(values, start=1))
        return q, values, err

    monkeypatch.setattr(lattice, "zeta_table", short_table)
    for precision, tolerance in CONTEXTS:
        ctx = PrecisionContext(precision, tolerance)
        z = ctx.point(point)
        route, pairs, _ = lattice.pass_size(lattice.reduce_point(z, ctx),
                                            ctx.mp.mag(ctx.tolerance) - 1)
        assert (route, pairs) == ("Laurent", (1 << i) - 1)
        assert jet_misses(ctx, z) == [0, 1, 2]


@pytest.mark.parametrize("precision, tolerance", CONTEXTS)
@given(st.sampled_from([2, 3, 4]), dyadic(-0.5, 0.5), dyadic(-0.625, 0.625))
def test_the_laurent_ball_and_the_lattice_ball_agree_near_the_origin(precision, tolerance,
                                                                     k, x, y):
    assume(x != 0 or y != 0)
    ctx = PrecisionContext(precision, tolerance)
    z = ctx.point(DEFAULT.mp.mpc(x, y))
    u = lattice.reduce_point(z, ctx)
    assume(lattice.pass_size(u, ctx.mp.mag(ctx.tolerance) - 1)[0] == "Laurent")
    laurent = eisenstein_k(k, z, ctx)
    with mock.patch.object(lattice, "_LAURENT_RADIUS", 0):  # the lattice route as the oracle
        oracle = eisenstein_k(k, z, ctx)
    with mpmath.workprec(2 * precision + 64):
        exact = lattice_closed_form(k, mpmath.mpmathify(z))
        for bv in (laurent, oracle):
            assert bv.radius <= ctx.tolerance
            assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius
        gap = abs(mpmath.mpmathify(laurent.value) - mpmath.mpmathify(oracle.value))
        assert gap <= mpmath.mpmathify(laurent.radius) + mpmath.mpmathify(oracle.radius)


@given(dyadic(-3, 3))
def test_evenness_is_bit_exact(x):
    assume(away_from_integers(x))
    a = eisenstein_k(2, x, DEFAULT)
    b = eisenstein_k(2, -x, DEFAULT)
    assert a.value == b.value and a.radius == b.radius


@given(dyadic(-3, 3))
def test_the_third_sum_is_odd_bit_exactly(x):
    assume(away_from_integers(x))
    a = eisenstein_k(3, x, DEFAULT)
    b = eisenstein_k(3, -x, DEFAULT)
    assert a.value == -b.value and a.radius == b.radius


@given(dyadic(0.05, 12))
def test_f_on_the_imaginary_axis_is_real_bit_exactly(y):
    # eps_2(iy) = conj(eps_2(-iy)) = conj(eps_2(iy)) holds bit for bit only
    # if every rounding commutes with negation and conjugation
    bv = eisenstein_k(2, DEFAULT.mp.mpc(0, y), DEFAULT)
    assert DEFAULT.mp.mpmathify(bv.value).imag == 0


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


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30"), (400, "1e-100")])
def test_taylor_cosine_balls_contain_the_closed_form(precision, tolerance):
    # the route_agreement grid, both ends of the domain, complex points and a tiny one
    ctx = PrecisionContext(precision, tolerance)
    points = [ctx.point(Fraction(i - 20, 20)) for i in range(41)]
    points += [ctx.point(p) for p in ("4", "-4", "0.5+2i", "2i", "2.5-1.5i", "1e-30")]
    with mpmath.workprec(2 * precision + 64):
        for z in points:
            bv = taylor_cosine(z, ctx)
            assert bv.radius <= ctx.tolerance
            exact = mpmath.cos(mpmath.mpmathify(z))
            assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius, z


@pytest.mark.parametrize("precision, tolerance", [(128, "1e-12"), (192, "1e-30"), (400, "1e-100")])
def test_substituted_relations_contain_zero(precision, tolerance):
    # the implied_identities check: each relation vanishes at the true a_d
    ctx = PrecisionContext(precision, tolerance)
    relations = implied_identities(8)
    sub = ctx.refined(ctx.tolerance / 4096)
    values = [coeff_a(d, sub) for d in range(max(r.max_symbol() for r in relations) + 1)]
    for relation in relations:
        assert relation.substitute(values, ctx).consistent_with_zero(), relation


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
    g_f = SymbolPoly.symbol(0) * SymbolPoly.symbol(1)
    product = g_f.substitute([g_eval(x, DEFAULT), eisenstein_k(2, x, DEFAULT)], DEFAULT)
    assert abs(product.value - 1) <= product.radius + DEFAULT.eps


def contract_value(name, k, z):
    """The closed form each evaluator of the contract test approximates."""
    if name == "cosine":
        return mpmath.cos(z)
    if name == "sine":
        return mpmath.sin(z)
    if name == "g_eval":
        return (mpmath.sinpi(z) / mpmath.pi) ** 2  # exactly 0 at integers
    return lattice_closed_form(k, z)


CONTRACT = {"cosine": cosine, "sine": sine, "g_eval": g_eval,
            "eisenstein_k": lambda z, ctx, k: eisenstein_k(k, z, ctx)}


@pytest.mark.parametrize("name", sorted(CONTRACT))
@given(dyadic(-10**6, 10**6, denominator=64),
       st.one_of(st.just(0), dyadic(-72, 72, denominator=64)), st.sampled_from([2, 3, 4]))
def test_evaluators_meet_the_tolerance_or_raise(name, x, y, k):
    z = DEFAULT.point(DEFAULT.mp.mpc(x, y))
    fn = CONTRACT[name]
    try:
        bv = fn(z, DEFAULT, k) if name == "eisenstein_k" else fn(z, DEFAULT)
    except EistrigError:
        return
    assert bv.radius <= DEFAULT.tolerance
    with mpmath.workprec(2 * DEFAULT.precision + 64):
        exact = contract_value(name, k, mpmath.mpmathify(z))
        assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


def _float_points():
    """Floats where reading the bits is easy to get wrong: signed zeros,
    subnormals down to 2^-1074, the largest magnitudes, integral values, the
    neighbours of half-integers (where the nearest integer flips), and any."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    subnormal = st.integers(1, 2**52 - 1).map(lambda m: math.ldexp(m, -1074))
    half = st.integers(-10**6, 10**6).map(lambda n: n + 0.5)
    return st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308, sys.float_info.max]),
        subnormal, subnormal.map(lambda x: -x), st.integers(-2**62, 2**62).map(float),
        half, half.map(lambda x: math.nextafter(x, math.inf)),
        half.map(lambda x: math.nextafter(x, -math.inf)), finite)


def _complex_points():
    zero = st.sampled_from([0.0, -0.0])
    return st.one_of(st.builds(complex, _float_points(), zero),
                     st.builds(complex, zero, _float_points()),
                     st.builds(complex, _float_points(), _float_points()))


EXACT_ENTRY = {"eps2": lambda z, ctx: eisenstein_k(2, z, ctx),
               "eps3": lambda z, ctx: eisenstein_k(3, z, ctx),
               "eps4": lambda z, ctx: eisenstein_k(4, z, ctx),
               "f_jet": lambda z, ctx: f_jet(z, ctx, (ctx.tolerance,) * 3),
               "g_eval": g_eval, "cosine": cosine, "sine": sine}


def _outcome(fn, z, ctx):
    """The repr of every ball fn returns at z, or the error it raises."""
    try:
        out = fn(z, ctx)
    except EistrigError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr([(b.value, b.radius) for b in (out if isinstance(out, list) else [out])])


@settings(max_examples=60)
@given(st.one_of(_float_points(), _complex_points()))
def test_the_exact_entry_reads_a_float_as_the_mpf_path_does(z):
    # the pair of ctx.exact equals the mpf's own, and every evaluator returns
    # the same balls, or raises the same error, for z and for its mpf or mpc
    ctx = DEFAULT
    zp = ctx.point(z)
    W = mp_bits(zp)
    assert ctx.exact(z) == (*mp_fixed(zp, W), W)
    mp_z = ctx.mp.mpf(z) if isinstance(z, float) else ctx.mp.mpc(z)
    assert ctx.exact(mp_z) == ctx.exact(z)
    for name, fn in EXACT_ENTRY.items():
        assert _outcome(fn, z, ctx) == _outcome(fn, mp_z, ctx), name


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(math.inf, 0),
                               complex(0, -math.inf), complex(1, math.nan), "inf", "nan+1i"])
def test_the_exact_entry_refuses_non_finite_points(z):
    with pytest.raises(ValueError):
        DEFAULT.exact(z)
    for name, fn in EXACT_ENTRY.items():
        with pytest.raises(ValueError):
            fn(z, DEFAULT)
