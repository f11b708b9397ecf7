"""Truncated Laurent-series algebra for the period-1 lattice sum.

The central object is f(z) = sum_{n in Z} 1/(z-n)^2, whose expansion about
the origin is z^-2 + a_0 + a_1 z^2 + ... with the a_d kept as formal
symbols (see sympoly).  Every series here carries an explicit reliably-
known degree window [min_degree, max_degree]: degrees below the window are
known to be zero, degrees above it are unknown, and arithmetic narrows the
window by the truncation rule (a product known to orders M1, M2 with
minimal degrees m1, m2 is known to order min(M1+m2, M2+m1)).

The module also builds the polynomials q_k with f^(2k) = q_k(f), generated
from p(w) = 2w^3 - 6 a0 w^2 by q_1 = p' and q_{k+1} = 2 q_k'' p + q_k' p'.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import TruncationError
from .sympoly import SymbolPoly, reduce_modulo

_ZERO = SymbolPoly.zero()


class LaurentSeries:
    """Immutable truncated Laurent series with SymbolPoly coefficients."""

    __slots__ = ("coefficients", "min_degree", "max_degree")

    def __init__(self, coefficients: Mapping[int, SymbolPoly], min_degree: int, max_degree: int):
        if max_degree < min_degree - 1:
            raise TruncationError(
                f"empty degree window [{min_degree}, {max_degree}] is narrower than empty")
        clean: dict[int, SymbolPoly] = {}
        for d, poly in coefficients.items():
            if not isinstance(poly, SymbolPoly):
                poly = SymbolPoly.constant(poly)
            if poly.is_zero():
                continue
            if d < min_degree or d > max_degree:
                raise TruncationError(
                    f"coefficient at degree {d} lies outside the window [{min_degree}, {max_degree}]")
            clean[d] = poly
        object.__setattr__(self, "coefficients", clean)
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "max_degree", max_degree)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def constant(cls, poly, max_degree: int = 0) -> "LaurentSeries":
        """The series with the given constant term, known through max_degree."""
        p = poly if isinstance(poly, SymbolPoly) else SymbolPoly.constant(poly)
        return cls({0: p} if not p.is_zero() else {}, 0, max_degree)

    def coefficient(self, degree: int) -> SymbolPoly:
        """Coefficient of z^degree; exactly zero below the window, an error above it."""
        if degree > self.max_degree:
            raise TruncationError(
                f"degree {degree} exceeds the reliably-known order {self.max_degree}")
        return self.coefficients.get(degree, _ZERO)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        lo = min(self.min_degree, other.min_degree)
        hi = min(self.max_degree, other.max_degree)
        out: dict[int, SymbolPoly] = {}
        for d in range(lo, hi + 1):
            c = self.coefficients.get(d, _ZERO) + other.coefficients.get(d, _ZERO)
            if not c.is_zero():
                out[d] = c
        return LaurentSeries(out, lo, hi)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({d: -c for d, c in self.coefficients.items()},
                             self.min_degree, self.max_degree)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        lo = self.min_degree + other.min_degree
        hi = min(self.max_degree + other.min_degree, other.max_degree + self.min_degree)
        out: dict[int, SymbolPoly] = {}
        for d1, c1 in self.coefficients.items():
            for d2, c2 in other.coefficients.items():
                d = d1 + d2
                if d > hi:
                    continue
                prod = c1 * c2
                if d in out:
                    s = out[d] + prod
                    if s.is_zero():
                        del out[d]
                    else:
                        out[d] = s
                elif not prod.is_zero():
                    out[d] = prod
        return LaurentSeries(out, lo, hi)

    def scale(self, factor) -> "LaurentSeries":
        """Multiply every coefficient by an exact scalar or SymbolPoly.

        Scaling by a single polynomial (not a series) leaves the window alone.
        """
        if not isinstance(factor, SymbolPoly):
            factor = SymbolPoly.constant(factor)
        if factor.is_zero():
            return LaurentSeries({}, self.min_degree, self.max_degree)
        return LaurentSeries({d: c * factor for d, c in self.coefficients.items()},
                             self.min_degree, self.max_degree)

    def differentiate(self) -> "LaurentSeries":
        """Termwise d/dz; the known order drops by one."""
        lo = self.min_degree - 1 if self.min_degree != 0 else 0
        hi = self.max_degree - 1
        out: dict[int, SymbolPoly] = {}
        for d, c in self.coefficients.items():
            if d != 0:
                out[d - 1] = c * d
        return LaurentSeries(out, lo, hi)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentSeries)
                and self.min_degree == other.min_degree
                and self.max_degree == other.max_degree
                and self.coefficients == other.coefficients)

    def __hash__(self) -> int:
        return hash((self.min_degree, self.max_degree,
                     frozenset(self.coefficients.items())))

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        chunks: list[str] = []
        for d in sorted(self.coefficients):
            poly = self.coefficients[d]
            body = _attach(poly, _z_part(d))
            if not chunks:
                chunks.append(body)
            elif body.startswith("-"):
                chunks.append(f"- {body[1:]}")
            else:
                chunks.append(f"+ {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"LaurentSeries({self}, window=[{self.min_degree}, {self.max_degree}])"


def _z_part(degree: int) -> str:
    if degree == 0:
        return ""
    if degree == 1:
        return "z"
    return f"z^{degree}"


def _attach(poly: SymbolPoly, var_part: str) -> str:
    """Render poly * var_part, parenthesizing multi-term coefficients."""
    if not var_part:
        if len(poly.terms) > 1:
            return f"({poly})"
        return str(poly)
    if len(poly.terms) > 1:
        return f"({poly}) {var_part}"
    if poly == SymbolPoly.constant(1):
        return var_part
    if poly == SymbolPoly.constant(-1):
        return f"-{var_part}"
    return f"{poly} {var_part}"


# -- the series f and its combinations ----------------------------------------


def series_f(order: int) -> LaurentSeries:
    """Expansion of the lattice sum about the origin, through z^order:
    z^-2 + a0 + a1 z^2 + ... with the a_d formal.  order must be even and
    nonnegative; odd-degree coefficients are identically zero."""
    if order < 0 or order % 2:
        raise ValueError(f"order must be an even integer >= 0, got {order!r}")
    coeffs: dict[int, SymbolPoly] = {-2: SymbolPoly.constant(1)}
    for d in range(order // 2 + 1):
        coeffs[2 * d] = SymbolPoly.symbol(d)
    return LaurentSeries(coeffs, -2, order)


def combination_second_order(order: int) -> LaurentSeries:
    """f'' - 6 f^2 + 12 a0 f, computed symbolically through the known window.

    The double pole cancels exactly: every negative-degree coefficient is
    the zero polynomial, and the constant term is 6 a0^2 - 10 a1.
    """
    if order < 4 or order % 2:
        raise ValueError(f"order must be an even integer >= 4, got {order!r}")
    f = series_f(order)
    fpp = f.differentiate().differentiate()
    a0 = SymbolPoly.symbol(0)
    return fpp - (f * f).scale(6) + f.scale(a0 * 12)


def combination_first_order(order: int) -> LaurentSeries:
    """(f')^2 - 4 f^3 + 12 a0 f^2, computed symbolically.

    The order-6 pole cancels exactly (coefficients of degree <= -3 vanish);
    the z^-2 coefficient is 2(6 a0^2 - 10 a1) and the constant term is
    8 a0^3 - 28 a2.
    """
    if order < 6 or order % 2:
        raise ValueError(f"order must be an even integer >= 6, got {order!r}")
    f = series_f(order)
    fp = f.differentiate()
    f2 = f * f
    a0 = SymbolPoly.symbol(0)
    return fp * fp - (f2 * f).scale(4) + f2.scale(a0 * 12)


def implied_identities(order: int) -> list[SymbolPoly]:
    """Polynomial relations among the a_d forced by the two combinations.

    Both combinations vanish identically, so each nonzero coefficient within
    the known window is a relation the numeric a_d must satisfy.  Candidates
    are scanned in increasing homogeneous weight (a_d carries weight d+2, so
    the z^d coefficient weighs d+4 for the second-order combination and d+6
    for the first-order one, second-order first at a tie) and reduced by the
    relations already found; only new relations are kept.  No completeness
    claim is made beyond the truncation order.
    """
    if order < 6 or order % 2:
        raise ValueError(f"order must be an even integer >= 6, got {order!r}")
    c2 = combination_second_order(order)
    c1 = combination_first_order(order)
    candidates: list[tuple[int, SymbolPoly]] = []
    for d in range(c2.min_degree, c2.max_degree + 1):
        poly = c2.coefficient(d)
        if not poly.is_zero():
            candidates.append((d + 4, poly))
    for d in range(c1.min_degree, c1.max_degree + 1):
        poly = c1.coefficient(d)
        if not poly.is_zero():
            candidates.append((d + 6, poly))
    candidates.sort(key=lambda item: item[0])  # stable: ties keep source order
    relations: list[SymbolPoly] = []
    for _, poly in candidates:
        normal_form = reduce_modulo(poly, relations)
        if not normal_form.is_zero():
            relations.append(normal_form)
    return relations


# -- polynomials in the function value ----------------------------------------


class WPolynomial:
    """Polynomial in an indeterminate w with SymbolPoly coefficients.

    Here w stands for the value of the lattice sum itself: the even
    derivatives satisfy f^(2k) = q_k(f) for polynomials q_k produced by
    derivative_polynomials.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence):
        coeffs = [c if isinstance(c, SymbolPoly) else SymbolPoly.constant(c)
                  for c in coefficients]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("WPolynomial is immutable")

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, power: int) -> SymbolPoly:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return _ZERO

    def constant_term(self) -> SymbolPoly:
        return self.coefficient(0)

    def leading_coefficient(self) -> SymbolPoly:
        return self.coefficients[-1] if self.coefficients else _ZERO

    def is_zero(self) -> bool:
        return not self.coefficients

    def derivative(self) -> "WPolynomial":
        return WPolynomial([c * i for i, c in enumerate(self.coefficients)][1:])

    def __add__(self, other: "WPolynomial") -> "WPolynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return WPolynomial([self.coefficient(i) + other.coefficient(i) for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymbolPoly)):
            factor = other if isinstance(other, SymbolPoly) else SymbolPoly.constant(other)
            return WPolynomial([c * factor for c in self.coefficients])
        out = [SymbolPoly.zero()] * (len(self.coefficients) + len(other.coefficients) - 1) \
            if self.coefficients and other.coefficients else []
        for i, c1 in enumerate(self.coefficients):
            for j, c2 in enumerate(other.coefficients):
                out[i + j] = out[i + j] + c1 * c2
        return WPolynomial(out)

    __rmul__ = __mul__

    def __sub__(self, other: "WPolynomial") -> "WPolynomial":
        return self + (other * -1)

    def __eq__(self, other) -> bool:
        return isinstance(other, WPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        chunks: list[str] = []
        for power in range(self.degree(), -1, -1):
            poly = self.coefficient(power)
            if poly.is_zero():
                continue
            body = _attach(poly, _w_part(power))
            if not chunks:
                chunks.append(body)
            elif body.startswith("-"):
                chunks.append(f"- {body[1:]}")
            else:
                chunks.append(f"+ {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"WPolynomial({self})"


def _w_part(power: int) -> str:
    if power == 0:
        return ""
    if power == 1:
        return "w"
    return f"w^{power}"


def derivative_polynomials(k_max: int) -> list[WPolynomial]:
    """The induction polynomials q_1..q_k with f^(2k) = q_k(f).

    Starting from p(w) = 2w^3 - 6 a0 w^2 (so that f'' = p'(f)), the chain
    rule with f'^2 = 2p(f) gives q_1 = p' and q_{k+1} = 2 q_k'' p + q_k' p'.
    Every q_k has zero constant term, degree k+1, and leading coefficient
    (2k+1)!.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be a positive integer, got {k_max!r}")
    a0 = SymbolPoly.symbol(0)
    p = WPolynomial([0, 0, a0 * -6, 2])
    p_prime = p.derivative()
    out: list[WPolynomial] = []
    q = p_prime
    for _ in range(k_max):
        out.append(q)
        q = q.derivative().derivative() * p * 2 + q.derivative() * p_prime
    return out
