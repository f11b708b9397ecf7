"""Exact multivariate polynomials in the formal series coefficients a_0, a_1, ...

The even-degree Laurent coefficients a_d of the period-1 lattice sum are
treated as indeterminates by the whole symbolic layer.  This module is the
coefficient ring those identities live in: sparse polynomials over
fractions.Fraction, with a graded order for canonical rendering and an
elimination order (higher symbol index dominates) for reducing relations
by previously discovered ones.

Monomials are stored as exponent tuples with trailing zeros trimmed, so
`(2,)` is a0^2 and `(0, 1)` is a1.  No zero coefficient is ever stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .fixedpoint import ball_mul, fixed_balls, tdiv, to_ball
from .precision import BoundedValue

Monomial = tuple


def _trim(mono: Iterable[int]) -> Monomial:
    t = tuple(mono)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when monomial a divides monomial b."""
    if len(a) > len(b):
        return False
    return all(x <= b[i] for i, x in enumerate(a))


def _mono_quot(b: Monomial, a: Monomial) -> Monomial:
    return _trim(x - (a[i] if i < len(a) else 0) for i, x in enumerate(b))


def _graded_key(mono: Monomial, width: int):
    padded = mono + (0,) * (width - len(mono))
    return (-sum(mono), tuple(-e for e in padded))


def _elim_key(mono: Monomial, width: int):
    """Sort key for the elimination order: exponents compared from the
    highest symbol index down, so any power of a_{i+1} beats any of a_i."""
    padded = mono + (0,) * (width - len(mono))
    return tuple(reversed(padded))


class SymbolPoly:
    """Immutable sparse polynomial in a0, a1, ... over Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                c = coef if isinstance(coef, Fraction) else Fraction(coef)
                if c:
                    clean[_trim(mono)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymbolPoly":
        return cls()

    @classmethod
    def constant(cls, q) -> "SymbolPoly":
        return cls({(): Fraction(q)})

    @classmethod
    def symbol(cls, index: int) -> "SymbolPoly":
        if index < 0:
            raise ValueError("symbol index must be nonnegative")
        return cls({(0,) * index + (1,): Fraction(1)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def constant_value(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def max_symbol(self) -> int:
        """Highest symbol index appearing (or -1 for a constant)."""
        return max((len(m) - 1 for m in self.terms if m), default=-1)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under the elimination order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        width = max(len(m) for m in self.terms)
        mono = max(self.terms, key=lambda m: _elim_key(m, width))
        return mono, self.terms[mono]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "SymbolPoly") -> "SymbolPoly":
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            s = out.get(mono, Fraction(0)) + coef
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return SymbolPoly(out)

    def __neg__(self) -> "SymbolPoly":
        return SymbolPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SymbolPoly") -> "SymbolPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return SymbolPoly()
            q = Fraction(other)
            return SymbolPoly({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, SymbolPoly):
            return NotImplemented  # floats etc. are not exact scalars
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return SymbolPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymbolPoly":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = SymbolPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def monomial_multiple(self, mono: Monomial, coef: Fraction) -> "SymbolPoly":
        """self * coef * (monomial), used by polynomial division."""
        return SymbolPoly({_mono_mul(m, mono): c * coef for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymbolPoly.constant(other)
        return isinstance(other, SymbolPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- numeric substitution ------------------------------------------------

    def substitute(self, values: Sequence, ctx) -> BoundedValue:
        """The value at the BoundedValues a_i = values[i] (every symbol appearing
        must be covered): substitute_fixed at their exact centres and radii
        (fixedpoint.fixed_balls), rounded once to ctx's precision."""
        need = self.max_symbol()
        if need >= len(values):
            raise ValueError(f"substitution needs a{need} but only {len(values)} values given")
        P, balls = fixed_balls(values[:need + 1])
        return to_ball(*self.substitute_fixed(balls, P), ctx.precision)

    def substitute_fixed(self, balls: Sequence, P: int) -> tuple:
        """(re, im, err, S): the value at the balls a_i = (re, im, err) at
        scale 2^-P, as a ball at 2^-S, S = P times the total degree.

        Each monomial is an exact product of balls (fixedpoint.ball_mul), and
        each is multiplied by its coefficient's numerator over the least
        common denominator D and shifted to 2^-S, exactly.  The one rounding
        is the division of the sum by D, truncating toward zero: the error is
        the propagated count over D, rounded up, plus 1 unit (2 if complex)
        when D > 1.
        """
        D = lcm(*(c.denominator for c in self.terms.values()))
        S = P * self.total_degree()
        re = im = err = 0
        for mono, coef in self.terms.items():
            term = (1, 0, 0)
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = ball_mul(term, balls[i])
            n, shift = coef.numerator * (D // coef.denominator), S - P * sum(mono)
            re += n * term[0] << shift
            im += n * term[1] << shift
            err += abs(n) * term[2] << shift
        return tdiv(re, D), tdiv(im, D), -(-err // D) + (0 if D == 1 else 2 if im else 1), S

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"SymbolPoly({render_poly(self)})"


def render_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_monomial(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"a{i}")
        elif e > 1:
            parts.append(f"a{i}^{e}")
    return " ".join(parts)


def _render_terms(pairs: list[tuple[str, Fraction]]) -> str:
    """Join (monomial-string, coefficient) pairs into '+/-'-separated text."""
    chunks: list[str] = []
    for mono_s, coef in pairs:
        mag = abs(coef)
        if not mono_s:
            body = render_fraction(mag)
        elif mag == 1:
            body = mono_s
        else:
            body = f"{render_fraction(mag)} {mono_s}"
        if not chunks:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(chunks)


def render_poly(p: SymbolPoly) -> str:
    if p.is_zero():
        return "0"
    width = max(len(m) for m in p.terms)
    monos = sorted(p.terms, key=lambda m: _graded_key(m, width))
    return _render_terms([(render_monomial(m), p.terms[m]) for m in monos])


def reduce_modulo(poly: SymbolPoly, generators: Sequence[SymbolPoly]) -> SymbolPoly:
    """Normal form of poly modulo the generators, in the given order.

    Repeatedly cancels the elimination-order-largest monomial divisible by
    some generator's leading monomial.  With generators discovered earlier
    in the identity scan, this rewrites higher-index symbols in terms of
    lower ones (a1 -> (3/5) a0^2 and so on).
    """
    gens = [(g.leading_term(), g) for g in generators if not g.is_zero()]
    if not gens:
        return poly
    work = poly
    while not work.is_zero():
        width = max(max(len(m) for m in work.terms),
                    max(len(lm) for (lm, _), _ in gens))
        reducible = None
        for mono in sorted(work.terms, key=lambda m: _elim_key(m, width), reverse=True):
            for (lm, lc), g in gens:
                if _mono_divides(lm, mono):
                    reducible = (mono, lm, lc, g)
                    break
            if reducible:
                break
        if reducible is None:
            return work
        mono, lm, lc, g = reducible
        factor = work.terms[mono] / lc
        work = work - g.monomial_multiple(_mono_quot(mono, lm), factor)
    return work
