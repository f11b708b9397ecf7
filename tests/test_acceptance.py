"""End-to-end acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a one-line
pass/fail verdict per criterion; each test also prints the measured
residuals and bounds.  Platform references (mpmath's pi, sin, cos)
appear only in the two comparison criteria (a06, a12); every other
check is settled by exact rational algebra or by the library's own
error radii.
"""

import json
import math
import random
import time
from fractions import Fraction

import mpmath

from eistrig import (PrecisionContext, coeff_a, combination_first_order,
                     combination_second_order, compute_pi, cosine,
                     derivative_polynomials, eisenstein_k, implied_identities,
                     render_poly, strip_decay, taylor_cosine, zeta_even)
from eistrig.lattice import first_order_ode_residual, second_order_ode_residual
from eistrig.sympoly import SymbolPoly
from eistrig.trig import (cosec_identity_check, g_eval, ivp_residual,
                          reciprocal_ode_residual)
from eistrig.verify import RunConfig
from eistrig.cli import main as cli_main

CONFIG = RunConfig()
CTX = CONFIG.context()


def fmt(x) -> str:
    return mpmath.nstr(mpmath.mpf(x), 6)


def complex_point(re: Fraction, im: Fraction):
    return CTX.mp.mpc(CTX.from_fraction(re), CTX.from_fraction(im))


def default_grid() -> list:
    points = [CTX.from_fraction(x) for x in CONFIG.real_grid()]
    points += [complex_point(re, im) for re, im in CONFIG.complex_grid()]
    return points


def test_a01_second_order_combination_collapses_to_constant():
    series = combination_second_order(8)
    for degree in range(-4, 0):
        assert series.coefficient(degree).is_zero(), f"degree {degree}"
    a0, a1 = SymbolPoly.symbol(0), SymbolPoly.symbol(1)
    assert series.coefficient(0) == a0 * a0 * 6 + a1 * (-10)
    print("\na01: z^-4..z^-1 all vanish exactly; constant ="
          f" {render_poly(series.coefficient(0))}")


def test_a02_first_order_combination_collapses_to_known_terms():
    series = combination_first_order(8)
    for degree in range(series.min_degree, -2):
        assert series.coefficient(degree).is_zero(), f"degree {degree}"
    a0, a1, a2 = (SymbolPoly.symbol(i) for i in range(3))
    assert series.coefficient(-2) == a0 * a0 * 12 + a1 * (-20)
    assert series.coefficient(0) == a0 * a0 * a0 * 8 + a2 * (-28)
    print("\na02: degrees <= -3 all vanish exactly; z^-2 ="
          f" {render_poly(series.coefficient(-2))}, constant ="
          f" {render_poly(series.coefficient(0))}")


def test_a03_derivative_polynomials_shape_and_leading_terms():
    polys = derivative_polynomials(10)
    assert len(polys) == 10
    for k, q in enumerate(polys, start=1):
        assert q.constant_term().is_zero(), f"q_{k} constant term"
        assert q.degree() == k + 1, f"q_{k} degree"
        expected_lead = SymbolPoly.constant(math.factorial(2 * k + 1))
        assert q.leading_coefficient() == expected_lead, f"q_{k} leading"
    print("\na03: q_1..q_10 have zero constant term, degree k+1,"
          " leading coefficient (2k+1)!")


def test_a04_zeta_two_four_identity_fast():
    start = time.perf_counter()
    ctx = PrecisionContext(tolerance="1e-21")
    z2 = zeta_even(1, ctx)
    z4 = zeta_even(2, ctx)
    a0, a1 = SymbolPoly.symbol(0), SymbolPoly.symbol(1)
    residual = (a0 * a0 * 2 - a1 * 5).substitute([z2, z4], ctx)
    elapsed = time.perf_counter() - start
    assert residual.consistent_with_zero()
    assert abs(residual.value) <= ctx.mp.mpf("1e-20")
    assert elapsed < 1.0
    print(f"\na04: |2 zeta(2)^2 - 5 zeta(4)| = {fmt(abs(residual.value))}"
          f" <= 1e-20 (ball radius {fmt(residual.radius)})"
          f" in {elapsed * 1000:.1f} ms")


def test_a05_cubic_lattice_identity_consistent_with_zero():
    ctx = PrecisionContext(tolerance="1e-18")
    relation = implied_identities(8)[1]
    assert render_poly(relation) == "8 a0^3 - 28 a2"
    values = [coeff_a(d, ctx) for d in range(3)]
    residual = relation.substitute(values, ctx)
    assert abs(residual.value) <= residual.radius
    print(f"\na05: |8 a0^3 - 28 a2| = {fmt(abs(residual.value))}"
          f" <= bound {fmt(residual.radius)}")


def test_a06_pi_reconstruction_matches_reference():
    ctx = PrecisionContext(tolerance="1e-13")
    reconstructed = compute_pi(ctx)
    with mpmath.workdps(60):
        reference = +mpmath.pi
        error = abs(mpmath.mpf(reconstructed.value.value) - reference)
        assert error <= mpmath.mpf("1e-12")
    print(f"\na06: |computed pi - reference pi| = {fmt(error)} <= 1e-12"
          f" (provenance: {reconstructed.provenance})")


def test_a07_cosec_identity_bounded_on_default_grid():
    worst_value = worst_radius = CTX.mp.mpf(0)
    for z in default_grid():
        res = cosec_identity_check(z, CTX)
        assert abs(res.value) <= res.radius, f"at z = {z}"
        worst_value = max(worst_value, abs(res.value))
        worst_radius = max(worst_radius, res.radius)
    assert worst_radius <= CTX.mp.mpf("1e-9")
    print(f"\na07: worst |f(z) s(pi z)^2 - pi^2| = {fmt(worst_value)}"
          f" <= worst bound {fmt(worst_radius)} <= 1e-9 over"
          f" {len(default_grid())} grid points")


def test_a08_imaginary_axis_decay_dominated_and_monotone():
    y_values = (1, 2, 5, 10, 50, 100)
    reports = strip_decay(y_values, Fraction(0), CTX)
    for rep in reports:
        assert rep.dominated, f"y = {rep.y}"
        assert rep.f_magnitude.upper() <= rep.decay_bound_low, f"y = {rep.y}"
    for prev, cur in zip(reports, reports[1:]):
        assert cur.f_magnitude.upper() < prev.f_magnitude.lower(), \
            f"decrease between y = {prev.y} and y = {cur.y}"
    assert reports[-1].f_magnitude.upper() <= CTX.mp.mpf("1e-3")
    print("\na08: |f(iy)| below the explicit majorant and strictly"
          f" decreasing for y in {y_values};"
          f" |f(100i)| <= {fmt(reports[-1].f_magnitude.upper())} <= 1e-3")


def test_a09_ode_residuals_bounded_on_default_grid():
    bound = CTX.mp.mpf("1e-9")
    worst = CTX.mp.mpf(0)
    for z in default_grid():
        for res in (second_order_ode_residual(z, CTX),
                    first_order_ode_residual(z, CTX)):
            assert abs(res.value) <= res.radius, f"at z = {z}"
            assert res.radius <= bound, f"at z = {z}"
            worst = max(worst, res.radius)
    print(f"\na09: every residual of f''-6f^2+12a0 f and (f')^2-4f^3+12a0 f^2"
          f" lies inside its radius; worst radius {fmt(worst)} <= 1e-9")


def test_a10_finite_difference_residuals_and_exact_initial_values():
    # g'' and c'' come from one f jet; the test keeps its original name
    bound = CTX.tolerance
    worst = CTX.mp.mpf(0)
    for x in CONFIG.real_grid():
        z = CTX.from_fraction(x)
        for res in (reciprocal_ode_residual(z, CTX),
                    ivp_residual(z, CTX)):
            outer = abs(res.value) + res.radius
            assert outer <= bound, f"at z = {z}"
            worst = max(worst, outer)
    g0 = g_eval("0", CTX)
    c0 = cosine("0", CTX)
    assert g0.value == 0 and g0.radius == 0
    assert c0.value == 1 and c0.radius == 0
    print(f"\na10: |g''+12a0 g-2| and |c''+c| from the f jet <= {fmt(worst)}"
          " <= 1e-12 on the real grid; g(0)=0 and c(0)=1 exact")


def test_a11_cosine_routes_agree_within_summed_radii():
    worst_diff = worst_sum = CTX.mp.mpf(0)
    for i in range(41):
        z = CTX.from_fraction(Fraction(i - 20, 20))
        lattice_route = cosine(z, CTX)
        series_route = taylor_cosine(z, CTX)
        diff = abs(lattice_route.value - series_route.value)
        summed = lattice_route.radius + series_route.radius
        assert diff <= summed, f"at z = {z}"
        worst_diff = max(worst_diff, diff)
        worst_sum = max(worst_sum, summed)
    assert worst_sum <= CTX.mp.mpf("1e-11")
    print(f"\na11: 41 points in [-1,1]; worst route difference"
          f" {fmt(worst_diff)} <= worst summed radii {fmt(worst_sum)}"
          " <= 1e-11")


def test_a12_platform_reference_comparison():
    with mpmath.workdps(60):
        pi_ref = +mpmath.pi
        worst_rel = mpmath.mpf(0)
        for x in CONFIG.real_grid():
            fx = eisenstein_k(2, CTX.from_fraction(x), CTX)
            exact_x = mpmath.mpf(x.numerator) / x.denominator
            oracle = (pi_ref / mpmath.sin(pi_ref * exact_x)) ** 2
            rel = abs(mpmath.mpf(fx.value) - oracle) / oracle
            worst_rel = max(worst_rel, rel)
        assert worst_rel <= mpmath.mpf("1e-10")
        worst_abs = mpmath.mpf(0)
        for j in range(21):
            z = CTX.mp.mpf(j - 10)
            cz = cosine(z, CTX)
            diff = abs(mpmath.mpf(cz.value) - mpmath.cos(mpmath.mpf(j - 10)))
            worst_abs = max(worst_abs, diff)
        assert worst_abs <= mpmath.mpf("1e-10")
    print(f"\na12: f vs platform pi^2/sin^2(pi x), worst relative error"
          f" {fmt(worst_rel)} <= 1e-10; cosine vs platform cos on [-10,10],"
          f" worst |diff| {fmt(worst_abs)} <= 1e-10")


def test_a13_soundness_under_tolerance_tightening():
    rng = random.Random(20260825)
    evaluators = {
        "lattice_k2": lambda z, c: eisenstein_k(2, z, c),
        "lattice_k3": lambda z, c: eisenstein_k(3, z, c),
        "cosine": cosine,
        "reciprocal": g_eval,
    }
    violations = []
    for case in range(50):
        kind = rng.choice(sorted(evaluators))
        loose = PrecisionContext(tolerance=f"1e{rng.choice((-10, -11, -12, -13, -14))}")
        tight = loose.refined(loose.tolerance / 4)
        x = loose.mp.mpf(rng.randrange(205, 3892)) / 4096
        if kind.startswith("lattice") and rng.random() < 0.4:
            z = loose.mp.mpc(x, loose.mp.mpf(rng.randrange(102, 2049)) / 1024)
        else:
            z = x
        a = evaluators[kind](z, loose)
        b = evaluators[kind](z, tight)
        with mpmath.workprec(300):
            drift = abs(mpmath.mpmathify(a.value) - mpmath.mpmathify(b.value))
            if not drift <= mpmath.mpf(a.radius):
                violations.append((case, kind, z))
    assert violations == []
    print("\na13: 50 randomized evaluations re-run at 4x tighter tolerance;"
          " 0 drifted outside the looser radius")


def test_a14_verify_cli_default_perturbed_self_contained(capsys):
    rc = cli_main(["verify"])
    default_report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert default_report["suite_status"] == "pass"

    rc = cli_main(["verify", "--perturb-a0", "1e-3"])
    perturbed_report = json.loads(capsys.readouterr().out)
    assert rc == 1
    failing = sorted({check["check_id"] for check in perturbed_report["checks"]
                      if check["status"] == "fail"})
    assert failing == ["ode_second_order"]

    rc = cli_main(["verify", "--self-contained"])
    contained_report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert contained_report["suite_status"] == "pass"
    contained_ids = {check["check_id"] for check in contained_report["checks"]}
    assert "pi_reference" not in contained_ids
    print("\na14: verify exits 0; --perturb-a0 1e-3 exits 1 failing exactly"
          " the second-order residual check; --self-contained exits 0 with"
          " no reference-constant check")
