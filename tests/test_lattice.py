"""The lattice sums: values, symmetry, truncation bounds, residuals, scans.

Frozen decimal literals come from an independent closed-form implementation
(45 digits); the code under test computes the same quantities purely by
lattice summation.
"""

from fractions import Fraction

import mpmath
import pytest

from eistrig import (InconclusiveNonvanishingError, PoleProximityError,
                     PrecisionContext, ToleranceUnreachableError, eisenstein_k,
                     naive_symmetric_value, strip_decay, symmetric_tail_bound)
from eistrig.lattice import (f_deriv, first_order_ode_residual, nonvanishing_scan,
                             pole_distance, second_order_ode_residual)

F_HALF = "9.86960440108935861883449099987615113531369941"      # f(1/2) = pi^2
F_QUARTER = "19.7392088021787172376689819997523022706273988"    # f(1/4) = 2 pi^2
F_03 = "15.079413702802341092319247514096655083116792"
E3_03 = "34.4187718572675540608586404092245653130463632"
F_C_RE = "1.35495456140520999687311287792033351184296195"       # f(0.3+0.4i)
F_C_IM = "-2.70623336370912496065459327637374712443928327"


def assert_matches(bv, literal, ctx, slack="1e-40"):
    wide = ctx.refined(ctx.mp.mpf("1e-44"))
    err = abs(wide.mp.mpf(bv.value) - wide.mp.mpf(literal))
    assert err <= wide.mp.mpf(bv.radius) + wide.mp.mpf(slack)


def test_frozen_real_values(ctx):
    for z, literal in (("0.5", F_HALF), ("0.25", F_QUARTER), ("0.3", F_03)):
        bv = eisenstein_k(2, z, ctx)
        assert bv.radius <= ctx.tolerance
        assert_matches(bv, literal, ctx)


def test_frozen_complex_value(ctx):
    bv = eisenstein_k(2, ctx.point("0.3+0.4i"), ctx)
    assert bv.radius <= ctx.tolerance
    wide = ctx.refined(ctx.mp.mpf("1e-44"))
    ref = wide.mp.mpc(wide.mp.mpf(F_C_RE), wide.mp.mpf(F_C_IM))
    assert abs(wide.mp.mpc(bv.value) - ref) <= wide.mp.mpf(bv.radius) + wide.mp.mpf("1e-40")


def test_third_sum_matches_derivative_route(ctx):
    # f' = -2 eps_3: check the frozen eps_3(0.3) against f_deriv's scaling
    bv = eisenstein_k(3, "0.3", ctx)
    assert_matches(bv, E3_03, ctx)
    fp = f_deriv(1, "0.3", ctx)
    diff = abs(fp.value + 2 * bv.value)
    assert diff <= fp.radius + 2 * bv.radius + ctx.eps


def test_argument_reduction_gives_bitexact_periodicity(ctx):
    # shifts by exact integers reduce to the identical summation
    base = ctx.point("0.375")  # dyadic: base + n is exactly representable
    ref = eisenstein_k(2, base, ctx)
    for shift in (1, -3, 12345, 10**6):
        moved = eisenstein_k(2, base + shift, ctx)
        assert moved.value == ref.value and moved.radius == ref.radius


def test_evenness_is_bitexact(ctx):
    for z in ("0.3", "0.41", ctx.point("0.2+0.7i")):
        zp = ctx.point(z)
        a = eisenstein_k(2, zp, ctx)
        b = eisenstein_k(2, -zp, ctx)
        assert a.value == b.value and a.radius == b.radius


def test_conjugate_symmetry(ctx):
    zp = ctx.point("0.3+0.4i")
    a = eisenstein_k(2, zp, ctx)
    b = eisenstein_k(2, ctx.mp.conj(zp), ctx)
    assert abs(ctx.mp.conj(b.value) - a.value) <= a.radius + b.radius


def test_pole_guard_rejects_near_integer_points(ctx):
    with pytest.raises(PoleProximityError):
        eisenstein_k(2, "1.0", ctx)
    with pytest.raises(PoleProximityError):
        eisenstein_k(2, ctx.mp.mpf(3) + ctx.eps, ctx)
    # just outside the guard |f| ~ 1e70 outgrows what 128 bits resolve at 1e-12
    with pytest.raises(ToleranceUnreachableError):
        eisenstein_k(2, ctx.mp.mpf(3) + 1000 * ctx.eps, ctx)
    # a little farther out the radius is certified again
    assert eisenstein_k(2, ctx.mp.mpf(3) + ctx.mp.ldexp(1, -24), ctx).radius <= ctx.tolerance


def test_pole_distance_reduces_to_nearest_integer(ctx):
    u, au = pole_distance(ctx.point("7.25"), ctx)
    assert u == ctx.mp.mpf("0.25") and au == ctx.mp.mpf("0.25")
    u, au = pole_distance(ctx.point("-2.875"), ctx)
    assert u == ctx.mp.mpf("0.125")


def test_ode_residuals_vanish_on_and_off_axis(ctx):
    for z in ("0.3", "0.05", ctx.point("0.2+1.5i")):
        r2 = second_order_ode_residual(z, ctx)
        assert r2.consistent_with_zero() and r2.radius <= ctx.mp.mpf("1e-9")
        r1 = first_order_ode_residual(z, ctx)
        assert r1.consistent_with_zero() and r1.radius <= ctx.mp.mpf("1e-9")


def test_ode_residuals_near_an_integer_keep_their_tolerance(ctx):
    # f''(3.0001) ~ 6e16: one ulp of it exceeds the residuals' sub-tolerance,
    # yet the residual ball still meets the caller's tolerance
    for residual in (second_order_ode_residual, first_order_ode_residual):
        r = residual("3.0001", ctx)
        assert r.consistent_with_zero() and r.radius <= ctx.tolerance


def test_ode_residual_detects_a_wrong_constant(ctx):
    # shifting a0 by 1e-6 must move the residual to ~12e-6*f, far off zero
    r = second_order_ode_residual("0.3", ctx, a0_shift=ctx.mp.mpf("1e-6"))
    assert not r.consistent_with_zero()
    expected = 12 * ctx.mp.mpf("1e-6") * ctx.mp.mpf(F_03)
    assert abs(abs(r.value) - expected) < expected / 100


def test_naive_truncation_bound_is_valid_and_not_lax(ctx):
    zp = ctx.point("0.3")
    tight = eisenstein_k(2, zp, ctx.refined(ctx.mp.mpf("1e-30")))
    for n in (4, 16, 64):
        approx = naive_symmetric_value(2, zp, n, ctx)
        bound = symmetric_tail_bound(2, n, ctx)
        true_err = abs(ctx.mp.mpf(tight.value) - approx.value)
        assert true_err <= approx.radius
        assert bound <= approx.radius <= bound * (1 + ctx.mp.mpf("1e-6"))
        assert true_err >= bound / 3  # the closed-form bound is within 3x of truth


def test_strip_decay_dominates_and_decreases(ctx):
    reports = strip_decay((1, 2, 5, 10), Fraction(1, 2), ctx)
    assert [r.y for r in reports] == [1, 2, 5, 10]
    for rep in reports:
        assert rep.dominated
        assert rep.f_magnitude.upper() <= rep.decay_bound
    for taller, shorter in zip(reports[1:], reports):
        assert taller.f_magnitude.upper() < shorter.f_magnitude.lower()


def test_strip_decay_reaches_extreme_heights(ctx):
    rep = strip_decay((100,), Fraction(1, 2), ctx)[0]
    assert rep.dominated
    assert rep.f_magnitude.upper() < ctx.mp.mpf("1e-200")
    assert rep.f_magnitude.lower() > 0  # resolved, not just bounded


def test_strip_decay_validates_inputs(ctx):
    with pytest.raises(ValueError):
        strip_decay((0.5,), Fraction(1, 2), ctx)  # height below 1
    with pytest.raises(ValueError):
        strip_decay((2,), Fraction(3, 2), ctx)  # |x| > 1


def test_nonvanishing_scan_reports_the_minimum(ctx):
    grid = [ctx.point(s) for s in ("0.1", "0.5", "0.9")]
    grid.append(ctx.point("0.5+2i"))
    report = nonvanishing_scan(grid, ctx)
    assert len(report.points) == 4
    assert not report.min_modulus.consistent_with_zero()
    # |f| is smallest at the highest point of the strip
    assert report.min_point == grid[-1]


def test_nonvanishing_scan_refines_until_f_excludes_zero(ctx):
    z = ctx.point("0.5+6i")
    assert eisenstein_k(2, z, ctx).consistent_with_zero()  # |f| ~ 2e-15 < 1e-12
    bv = nonvanishing_scan([z], ctx).values[0]
    assert not bv.consistent_with_zero()
    with mpmath.workprec(2 * ctx.precision + 64):
        exact = mpmath.pi ** 2 / mpmath.sin(mpmath.pi * mpmath.mpmathify(z)) ** 2
        assert abs(mpmath.mpmathify(bv.value) - exact) <= bv.radius


def test_tolerance_tracks_refined_contexts(ctx):
    tight = ctx.refined(ctx.mp.mpf("1e-30"))
    bv = eisenstein_k(2, "0.3", tight)
    assert bv.radius <= tight.tolerance
    assert_matches(bv, F_03, ctx, slack="1e-42")


def _table_sizes():
    """Entries in every module-level container of zetasums and lattice."""
    from eistrig import lattice, zetasums

    def size(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, (list, tuple, set, frozenset)):
            return len(obj) + sum(size(v) for v in obj)
        return 0

    return {f"{mod.__name__}.{name}": size(obj)
            for mod in (zetasums, lattice) for name, obj in vars(mod).items()
            if not name.startswith("__") and isinstance(obj, (dict, list, tuple, set))}


def test_module_tables_do_not_grow_with_the_number_of_points():
    # the same mix as a long-lived process evaluating at ever new points:
    # real, near-axis and high-strip, k = 2, 3, 4, at 192 bits
    import random
    rng = random.Random(7)
    ctx = PrecisionContext(192, "1e-30")

    def evaluate(count):
        for i in range(count):
            k, y = 2 + (i // 3) % 3, (0, rng.uniform(-2, 2), rng.uniform(2, 30))[i % 3]
            eisenstein_k(k, complex(rng.uniform(-50, 50), y), ctx)

    evaluate(100)
    after_100 = _table_sizes()
    evaluate(200)
    assert _table_sizes() == after_100
