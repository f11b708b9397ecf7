"""Working-precision contexts and rigorously bounded values.

Every numeric result in this package is a BoundedValue: a center computed
at a fixed binary precision together with a nonnegative radius bounding
|true - center|.  Radii combine exact truncation-tail bounds with one
rounding model.  Every summation loop (the lattice sums, the zeta tails and
their heads, the strip majorant), the zeta constants, pi-hat and
(2 pi-hat)^-1, the point w = z / 2 pi, the g jet behind g, cos and sin, the
Taylor route to cos, the jet residuals, the identity checks, the lattice ODE
residuals, substitution into the coefficient polynomials, |f| in the
nonvanishing scan and the strip decay, the verify margins and the zero test
(BoundedValue.consistent_with_zero) run in Python integers at scale 2^-P
(fixedpoint).  Each rounding there truncates toward zero and errs by less
than one unit of 2^-P per component; the allowance is an exact count of
those units, a proved bound.  A point enters that layer exactly, as an
integer pair (PrecisionContext.exact), and a ball leaves it rounded once to
its context's precision (fixedpoint.to_ball), the one way a ball is demoted.

mpmath contexts are cached per precision (the 64 used last) and never
mutated afterwards, so evaluations at different precisions can run
concurrently without touching mpmath's global state.

BoundedValue and the package's other result records (trig.PiValue, the
lattice and verify reports, verify.RunConfig) are plain Record classes:
immutable, slotted, equal and hashed by value, built without dataclasses,
which would cost every process its import.  format_real prints a real the
way every report, table and `eistrig eval` line does.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Any, Union

from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_int

from .errors import ConfigurationError

Real = Union[int, float, str, Fraction]

#: extra mantissa bits beyond what the tolerance implies (the guard margin)
GUARD_BITS = 16

#: cap on explicit summation terms for any single truncated sum
TERM_CAP = 10**8


def _new_mp_context(precision: int) -> MPContext:
    ctx = MPContext()
    ctx.prec = precision
    return ctx


#: the MPContexts of the 64 precisions used last
_cached_mp_context = functools.lru_cache(maxsize=64)(_new_mp_context)


def mp_context(precision: int) -> MPContext:
    """Shared immutable MPContext with the given mantissa precision, from the
    bounded cache; a plain function, so that profilers which wrap the public
    functions see its calls."""
    return _cached_mp_context(precision)


class Record:
    """An immutable record: its fields are its __slots__, in order, set once
    by the subclass's __init__ (through _set).  Records compare and hash by
    value, their repr names the class and the fields, and assigning or
    deleting a field raises AttributeError."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class BoundedValue(Record):
    """A numeric center plus a rigorous absolute-error radius.

    `value` is an mpf or mpc at the owning context's precision; `radius`
    is a nonnegative mpf such that |true - value| <= radius.
    """

    __slots__ = ("value", "radius")

    def __init__(self, value: Any, radius: Any):
        # set directly, not through _set: every evaluation ends by building one
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "radius", radius)

    def magnitude(self):
        """|value| (a nonnegative mpf)."""
        return abs(self.value)

    def upper(self):
        """Upper bound on |true|: |value| + radius."""
        return abs(self.value) + self.radius

    def lower(self):
        """Lower bound on |true|: max(|value| - radius, 0)."""
        lo = abs(self.value) - self.radius
        return lo if lo > 0 else lo * 0

    def consistent_with_zero(self) -> bool:
        """The only honest zero test a bounded value supports: |value| <= radius,
        decided exactly from the dyadic centre and radius."""
        from .fixedpoint import fixed_balls  # fixedpoint builds on this module
        _, ((re, im, err),) = fixed_balls((self,))
        return re * re + im * im <= err * err

    def __str__(self) -> str:
        return f"{self.value} +/- {self.radius}"


class PrecisionContext:
    """Immutable bundle of working precision (bits) and target tolerance.

    The working precision must exceed the bits implied by the tolerance by
    GUARD_BITS, so that rounding noise stays below every claimed radius.
    Construction fails fast on contradictory settings, and computes once the
    hash and tolerance_exponent, e = mag(tolerance) - 1 (2^e <= tolerance),
    the target of a lattice pass to the tolerance.
    """

    __slots__ = ("precision", "tolerance", "tolerance_exponent", "_mp", "_eps", "_hash")

    def __init__(self, precision: int = 128, tolerance: Real = "1e-12"):
        if not isinstance(precision, int) or precision < 64:
            raise ConfigurationError(f"working precision must be an integer >= 64 bits, got {precision!r}")
        mp = mp_context(precision)
        try:
            tol = _to_mpf(mp, tolerance)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"tolerance not parseable as a real number: {tolerance!r}") from exc
        if not (tol > 0) or not mp.isfinite(tol):
            raise ConfigurationError(f"tolerance must be a positive finite real, got {tolerance!r}")
        implied = -mp.mag(tol)  # bits needed to resolve the tolerance
        if precision < implied + GUARD_BITS:
            raise ConfigurationError(
                f"tolerance {tolerance!r} implies {implied} bits; working precision "
                f"{precision} leaves less than the {GUARD_BITS}-bit guard margin")
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "tolerance", tol)
        object.__setattr__(self, "_mp", mp)
        object.__setattr__(self, "_eps", mp.ldexp(1, 1 - precision))
        object.__setattr__(self, "tolerance_exponent", mp.mag(tol) - 1)
        object.__setattr__(self, "_hash", hash((precision, tol)))

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionContext is immutable")

    def __repr__(self) -> str:
        return (f"PrecisionContext(precision={self.precision}, "
                f"tolerance={self._mp.nstr(self.tolerance, 8)})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, PrecisionContext)
                and self.precision == other.precision
                and self.tolerance == other.tolerance)

    def __hash__(self) -> int:
        return self._hash

    # -- derived contexts ------------------------------------------------

    @property
    def mp(self) -> MPContext:
        return self._mp

    @property
    def eps(self):
        """One ulp at unit scale: 2^(1-precision)."""
        return self._eps

    def refined(self, tolerance) -> "PrecisionContext":
        """Internal-use context for a (usually tighter) tolerance, raising the
        working precision to keep the guard margin."""
        mp = self._mp
        tol = _to_mpf(mp, tolerance)
        if not tol > 0:
            raise ConfigurationError("refined tolerance must be positive")
        precision = max(self.precision, GUARD_BITS + 8 - mp.mag(tol))
        return PrecisionContext(precision, tol)

    # -- conversions -----------------------------------------------------

    def real(self, x):
        """Convert a real-like (int, float, str, Fraction, mpf) to this context's mpf."""
        v = _to_mpf(self._mp, x)
        if not self._mp.isfinite(v):
            raise ValueError(f"non-finite real input: {x!r}")
        return v

    def point(self, z):
        """Convert a point (real-like, complex, mpc, or 're+imi' string) to mpf/mpc.

        Real inputs stay real mpf; complex inputs with exactly zero imaginary
        part are demoted to mpf.  An int becomes its exact mpf at any size, so
        that point, exact and ball name one point.  A finite mpf of this
        context, and a finite mpc of it with a nonzero imaginary part, come
        back unchanged.
        """
        mp = self._mp
        if (isinstance(z, mp.mpf) or isinstance(z, mp.mpc) and z.imag) and mp.isfinite(z):
            return z
        if isinstance(z, int):
            return mp.make_mpf(from_int(z))
        if isinstance(z, str):
            re_s, im_s = split_point_string(z)
            re, im = mp.mpf(re_s), mp.mpf(im_s)
            if not (mp.isfinite(re) and mp.isfinite(im)):
                raise ValueError(f"non-finite point: {z!r}")
            return re if im == 0 else mp.mpc(re, im)
        if hasattr(z, "imag") and not isinstance(z, (int, float, Fraction)):
            re, im = mp.mpf(z.real) if not isinstance(z.real, Fraction) else self.real(z.real), mp.mpf(z.imag)
        else:
            return self.real(z)
        if not (mp.isfinite(re) and mp.isfinite(im)):
            raise ValueError(f"non-finite point: {z!r}")
        if im == 0:
            return re
        return mp.mpc(re, im)

    def exact(self, z) -> tuple[int, int, int]:
        """The point z as the exact pair (re, im, W): (re + i im) 2^-W, W the
        least scale >= 0 at which it is exact; no mpf is built for a float, a
        complex (read by float.as_integer_ratio), an int (taken as it is) or
        an mpf or mpc of this context (its own mantissa and exponent).  Any
        other input is read by point first."""
        if isinstance(z, (float, complex)):
            re, im = (z, 0.0) if isinstance(z, float) else (z.real, z.imag)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"non-finite {'real input' if re is z else 'point'}: {z!r}")
            (a, b), (c, d) = re.as_integer_ratio(), im.as_integer_ratio()
            m = max(b, d)  # b and d are powers of 2
            return a * (m // b), c * (m // d), m.bit_length() - 1
        if isinstance(z, int):
            return z, 0, 0
        zp = self.point(z)  # its parts read here: fixedpoint builds on this module
        parts = zp._mpc_ if hasattr(zp, "_mpc_") else (zp._mpf_, (0, 0, 0, 0))
        W = max([0] + [-exp for _, man, exp, _ in parts if man])
        re, im = ((-man if sign else man) << exp + W for sign, man, exp, _ in parts)
        return re, im, W

    def from_fraction(self, q: Fraction):
        """mpf nearest to an exact Fraction (two roundings at most)."""
        return self._mp.mpf(q.numerator) / q.denominator

    def ball(self, value, radius=0) -> BoundedValue:
        """The exact value (an int, or an mpf or mpc of this context) within
        radius; TypeError for anything that would need a rounding."""
        mp = self._mp
        if not isinstance(value, (int, mp.mpf, mp.mpc)):
            raise TypeError(f"ball takes an exact int, mpf or mpc, got {type(value).__name__}")
        return BoundedValue(mp.make_mpf(from_int(value)) if isinstance(value, int) else value,
                            _to_mpf(mp, radius))


def split_point_string(text: str) -> tuple[str, str]:
    """Split 're', 'imi', or 're+imi' decimal notation (i or j accepted) into
    decimal strings (re, im), leaving the mpf conversion to the caller so the
    parse introduces no float rounding."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty point")
    if "inf" in s.lower() or "nan" in s.lower():
        raise ValueError(f"non-finite point: {text!r}")
    norm = s.replace("j", "i").replace("I", "i")
    if "i" not in norm:
        return norm, "0"
    if not norm.endswith("i"):
        raise ValueError(f"trailing 'i' expected in complex literal: {text!r}")
    body = norm[:-1]
    for k in range(len(body) - 1, 0, -1):
        ch = body[k]
        if ch in "+-" and body[k - 1] not in "eE":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        re_part, im_part = "0", body
    if im_part in ("", "+"):
        im_part = "1"
    elif im_part == "-":
        im_part = "-1"
    return (re_part or "0"), im_part


def _digits(ctx: PrecisionContext) -> int:
    """Significant decimal digits that show a number at ctx's precision."""
    return max(17, int(ctx.precision * 0.30103) + 2)


def format_real(x, ctx: PrecisionContext) -> str:
    """The real x as a decimal string of _digits(ctx) digits, trailing zeros
    stripped: how reports, tables and the CLI print a real."""
    return ctx.mp.nstr(ctx.mp.mpf(x), _digits(ctx), strip_zeros=True)


def _to_mpf(mp: MPContext, x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)
