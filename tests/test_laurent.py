"""Exact Laurent expansions around z = 0 and the derivative polynomials.

The expected coefficients below were derived by hand and are re-derived
inside this module by an independent brute-force convolution (plain dict
arithmetic, no reuse of the series type's own multiplication), so the
expansion code is checked against something it does not share.
"""

import math
from fractions import Fraction

import pytest

from eistrig import (combination_first_order, combination_second_order,
                     derivative_polynomials, implied_identities, render_poly,
                     series_f)
from eistrig.sympoly import SymbolPoly


def sym(i: int) -> SymbolPoly:
    return SymbolPoly.symbol(i)


# -- independent recomputation ------------------------------------------------


def f_coefficients(order: int) -> dict[int, SymbolPoly]:
    """f = z^-2 + a0 + a1 z^2 + ... as a plain degree -> coefficient dict."""
    coeffs = {-2: SymbolPoly.constant(1)}
    for d in range(order // 2 + 1):
        coeffs[2 * d] = sym(d)
    return coeffs


def convolve(a: dict[int, SymbolPoly], b: dict[int, SymbolPoly]) -> dict[int, SymbolPoly]:
    out: dict[int, SymbolPoly] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = out.get(d, SymbolPoly.zero()) + ca * cb
    return out


def differentiate(a: dict[int, SymbolPoly]) -> dict[int, SymbolPoly]:
    return {d - 1: c * d for d, c in a.items() if d != 0}


def brute_second_combination(order: int) -> dict[int, SymbolPoly]:
    f = f_coefficients(order)
    fpp = differentiate(differentiate(f))
    ff = convolve(f, f)
    out: dict[int, SymbolPoly] = {}
    for d in set(fpp) | set(ff) | set(f):
        out[d] = (fpp.get(d, SymbolPoly.zero())
                  - ff.get(d, SymbolPoly.zero()) * 6
                  + f.get(d, SymbolPoly.zero()) * sym(0) * 12)
    return out


def brute_first_combination(order: int) -> dict[int, SymbolPoly]:
    f = f_coefficients(order)
    fp = differentiate(f)
    out: dict[int, SymbolPoly] = {}
    fp2 = convolve(fp, fp)
    f2 = convolve(f, f)
    f3 = convolve(f2, f)
    for d in set(fp2) | set(f3) | set(f2):
        out[d] = (fp2.get(d, SymbolPoly.zero())
                  - f3.get(d, SymbolPoly.zero()) * 4
                  + f2.get(d, SymbolPoly.zero()) * sym(0) * 12)
    return out


# -- the series f itself -------------------------------------------------------


def test_series_f_renders_expected_window():
    assert str(series_f(4)) == "z^-2 + a0 + a1 z^2 + a2 z^4"
    assert str(series_f(0)) == "z^-2 + a0"
    assert str(series_f(8)) == "z^-2 + a0 + a1 z^2 + a2 z^4 + a3 z^6 + a4 z^8"


def test_series_f_rejects_odd_or_negative_orders():
    with pytest.raises(ValueError):
        series_f(3)
    with pytest.raises(ValueError):
        series_f(-2)


def test_series_f_coefficients_are_pure_symbols():
    s = series_f(6)
    assert s.coefficient(-2) == SymbolPoly.constant(1)
    assert s.coefficient(0) == sym(0)
    assert s.coefficient(6) == sym(3)
    assert s.coefficient(1).is_zero() and s.coefficient(-1).is_zero()


# -- the two pole-cancelling combinations ---------------------------------------


def test_second_combination_pole_parts_cancel():
    c2 = combination_second_order(8)
    for d in range(-4, 0):
        assert c2.coefficient(d).is_zero(), f"z^{d} should cancel"


def test_second_combination_frozen_coefficients():
    c2 = combination_second_order(8)
    a0, a1, a2, a3, a4 = (sym(i) for i in range(5))
    assert c2.coefficient(0) == a0 * a0 * 6 - a1 * 10
    assert c2.coefficient(2).is_zero()
    assert c2.coefficient(4) == a3 * 18 - a1 * a1 * 6
    assert c2.coefficient(6) == a4 * 44 - a1 * a2 * 12


def test_second_combination_matches_independent_convolution():
    c2 = combination_second_order(8)
    brute = brute_second_combination(8)
    for d in range(c2.min_degree, c2.max_degree + 1):
        assert c2.coefficient(d) == brute.get(d, SymbolPoly.zero()), f"degree {d}"


def test_first_combination_frozen_coefficients():
    c1 = combination_first_order(8)
    a0, a1, a2, a3, a4 = (sym(i) for i in range(5))
    for d in range(-6, -2):
        assert c1.coefficient(d).is_zero(), f"z^{d} should cancel"
    assert c1.coefficient(-2) == a0 * a0 * 12 - a1 * 20
    assert c1.coefficient(0) == a0 * a0 * a0 * 8 - a2 * 28
    assert c1.coefficient(2) == a0 * a0 * a1 * 12 - a1 * a1 * 8 - a3 * 36
    assert c1.coefficient(4) == a0 * a0 * a2 * 12 - a1 * a2 * 8 - a4 * 44


def test_first_combination_matches_independent_convolution():
    c1 = combination_first_order(8)
    brute = brute_first_combination(8)
    for d in range(c1.min_degree, c1.max_degree + 1):
        assert c1.coefficient(d) == brute.get(d, SymbolPoly.zero()), f"degree {d}"


def test_combination_renders_are_byte_stable():
    assert str(combination_second_order(6)) == "(6 a0^2 - 10 a1) + (-6 a1^2 + 18 a3) z^4"
    assert (str(combination_first_order(8))
            == "(12 a0^2 - 20 a1) z^-2 + (8 a0^3 - 28 a2)"
               " + (12 a0^2 a1 - 8 a1^2 - 36 a3) z^2"
               " + (12 a0^2 a2 - 8 a1 a2 - 44 a4) z^4")


# -- implied coefficient identities ----------------------------------------------


def test_implied_identities_start_with_the_two_classical_relations():
    rendered = [render_poly(r) for r in implied_identities(8)]
    assert rendered[0] == "6 a0^2 - 10 a1"
    assert rendered[1] == "8 a0^3 - 28 a2"
    assert rendered[2:] == ["-54/25 a0^4 + 18 a3", "-72/35 a0^5 + 44 a4"]


def test_implied_identities_reduce_every_a_to_a0():
    # substituting a_d -> the reduced power of a0 must kill each relation
    reductions = {1: Fraction(3, 5), 2: Fraction(2, 7), 3: Fraction(3, 25), 4: Fraction(18, 385)}
    # a_d = r_d a0^(d+1) with the fractions above (solved by hand from the chain)
    for relation in implied_identities(8):
        substituted = SymbolPoly.zero()
        for mono, coef in relation.terms.items():
            term = SymbolPoly.constant(coef)
            for index, power in enumerate(mono):
                for _ in range(power):
                    if index == 0:
                        term = term * sym(0)
                    else:
                        term = term * sym(0) ** (index + 1) * reductions[index]
            substituted = substituted + term
        assert substituted.is_zero(), render_poly(relation)


# -- derivative polynomials -------------------------------------------------------


def test_derivative_polynomials_frozen_renders():
    q1, q2, q3 = derivative_polynomials(3)
    assert str(q1) == "6 w^2 - 12 a0 w"
    assert str(q2) == "120 w^3 - 360 a0 w^2 + 144 a0^2 w"
    assert str(q3) == "5040 w^4 - 20160 a0 w^3 + 18144 a0^2 w^2 - 1728 a0^3 w"


def test_derivative_polynomials_structure_through_k_10():
    qs = derivative_polynomials(10)
    assert len(qs) == 10
    for k, q in enumerate(qs, start=1):
        assert q.degree() == k + 1
        assert q.constant_term().is_zero()
        lead = q.leading_coefficient()
        assert lead.is_constant() and lead.constant_value() == math.factorial(2 * k + 1)


def test_derivative_polynomials_satisfy_their_recursion():
    # q_{k+1} = 2 q_k'' p + q_k' p' with p = 2w^3 - 6 a0 w^2, checked independently
    from eistrig.laurent import WPolynomial

    zero, one = SymbolPoly.zero(), SymbolPoly.constant(1)
    p = WPolynomial([zero, zero, sym(0) * -6, one * 2])
    qs = derivative_polynomials(5)
    for k in range(len(qs) - 1):
        expected = (qs[k].derivative().derivative() * p) * 2 + qs[k].derivative() * p.derivative()
        assert qs[k + 1] == expected
