"""Exact multivariate polynomial layer: algebra, rendering, substitution."""

from fractions import Fraction

import pytest

from eistrig import BoundedValue, PrecisionContext, render_poly
from eistrig.sympoly import SymbolPoly, reduce_modulo


def sym(i: int) -> SymbolPoly:
    return SymbolPoly.symbol(i)


def test_constants_and_zero():
    zero = SymbolPoly.zero()
    assert zero.is_zero()
    five = SymbolPoly.constant(5)
    assert five.is_constant() and five.constant_value() == 5
    assert (five - five).is_zero()
    assert not sym(0).is_constant()


def test_ring_axioms_on_samples():
    a, b, c = sym(0), sym(1), sym(2)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    assert (a + b) ** 2 == a * a + a * b * 2 + b * b


def test_scalar_multiplication_accepts_int_and_fraction():
    a = sym(0)
    assert a * 3 == a + a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
    with pytest.raises(TypeError):
        a * 0.5  # floats are not exact scalars


def test_rendering_is_graded_and_stable():
    a0, a1, a3 = sym(0), sym(1), sym(3)
    p = a0 * a0 * 6 - a1 * 10
    assert render_poly(p) == "6 a0^2 - 10 a1"
    q = a3 * 18 - a1 * a1 * 6
    assert render_poly(q) == "-6 a1^2 + 18 a3"
    assert render_poly(SymbolPoly.zero()) == "0"
    assert render_poly(SymbolPoly.constant(Fraction(-3, 7))) == "-3/7"


def test_total_degree_and_max_symbol():
    p = sym(0) * sym(0) * sym(4) + sym(1)
    assert p.total_degree() == 3
    assert p.max_symbol() == 4


def test_substitute_evaluates_with_carried_bounds():
    ctx = PrecisionContext()
    p = sym(0) * sym(0) * 6 - sym(1) * 10
    a0 = ctx.ball(3)
    # 27/5 rounded, within an exact Fraction bound on that rounding: 6*9 - 10*27/5 = 0
    q = Fraction(27, 5)
    v = ctx.from_fraction(q)
    a1 = BoundedValue(v, ctx.eps)
    man, exp = v.man_exp
    assert abs(Fraction(man) * Fraction(2) ** exp - q) <= Fraction(2) ** (1 - ctx.precision)
    out = p.substitute([a0, a1], ctx)
    assert out.consistent_with_zero()
    with pytest.raises(ValueError):
        p.substitute([a0], ctx)


def test_reduce_modulo_eliminates_higher_symbols():
    a0, a1 = sym(0), sym(1)
    # modulo 5 a1 - 3 a0^2, the polynomial 10 a1 reduces to 6 a0^2
    generator = a1 * 5 - a0 * a0 * 3
    reduced = reduce_modulo(a1 * 10, [generator])
    assert reduced == a0 * a0 * 6
    assert reduce_modulo(generator, [generator]).is_zero()
