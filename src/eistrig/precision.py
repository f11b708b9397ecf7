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

A ball and a context are dyadic: the centre's parts, the radius and the
tolerance are held as mpmath's normalised tuples (sign, man, exp, bc), the
value man 2^exp with man odd and bc its bit length (dyadic builds them, with
mpmath's roundings), and the tolerance is read by one decimal reader
(read_real) that rounds as mpmath's mpf does.  So an evaluation compares its
radius with the tolerance in integers (PrecisionContext.meets), and a
process that only evaluates never imports mpmath.  It is imported where an
mpmath object is read or built: BoundedValue.value and .radius, the
context's tolerance, eps and mp, its real and point, the text of an error,
format_real, a form the decimal reader leaves to mpmath's parser, and the
layers that keep mpmath (verify, taylor_cosine, the CLI's printing).

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
from typing import TYPE_CHECKING, Any, Union

from .errors import ConfigurationError

if TYPE_CHECKING:
    from mpmath.ctx_mp import MPContext

Real = Union[int, float, str, Fraction]

#: extra mantissa bits beyond what the tolerance implies (the guard margin)
GUARD_BITS = 16

#: cap on explicit summation terms for any single truncated sum
TERM_CAP = 10**8

#: mpmath's tuple of zero
ZERO = (0, 0, 0, 0)


def _new_mp_context(precision: int) -> MPContext:
    from mpmath.ctx_mp import MPContext
    ctx = MPContext()
    ctx.prec = precision
    return ctx


#: the MPContexts of the 64 precisions used last
_cached_mp_context = functools.lru_cache(maxsize=64)(_new_mp_context)


def mp_context(precision: int) -> MPContext:
    """Shared immutable MPContext with the given mantissa precision, from the
    bounded cache; a plain function, so that profilers which wrap the public
    functions see its calls.  The first call imports mpmath."""
    return _cached_mp_context(precision)


# -- dyadic numbers ----------------------------------------------------------


def dyadic(x: int, e: int, prec: int = 0, rnd: str = "d") -> tuple:
    """mpmath's normalised tuple (sign, man, exp, bc) of x 2^e, man odd and bc
    its bit length: exact for prec 0, else rounded to prec bits toward zero
    ("d"), away from zero ("u") or to nearest with ties to even ("n"), as
    mpmath.libmp.from_man_exp(x, e, prec, rnd) gives it."""
    if not x:
        return ZERO
    sign = 0
    if x < 0:
        sign, x = 1, -x
    n = x.bit_length() - prec if prec else 0
    if n > 0:
        if rnd == "d":
            x >>= n
        elif rnd == "u":
            x = -(-x >> n)
        else:
            low, half = x & (1 << n) - 1, 1 << n - 1
            x >>= n
            if low > half or low == half and x & 1:
                x += 1
        e += n
    t = (x & -x).bit_length() - 1
    x >>= t
    return sign, x, e + t, x.bit_length()


def _quotient(p: int, q: int, prec: int) -> tuple:
    """p / q (q > 0) rounded to nearest at prec bits, ties to even (as
    mpmath's division): the quotient to at least prec + 2 bits, then one
    sticky bit for a nonzero remainder, below the half of the last place."""
    s = max(0, prec + 2 + q.bit_length() - abs(p).bit_length())
    x, r = divmod(abs(p) << s, q)
    x = x << 1 | (r != 0)
    return dyadic(-x if p < 0 else x, -s - 1, prec, "n")


def _plain_decimal(text: str):
    """(man, exp) with text = man 10^exp for a plain decimal: an optional
    sign, ASCII digits with at most one point, an optional exponent
    e[+-]digits, surrounding whitespace, and |exp| <= 400 once the fraction's
    digits are folded in; None for any other form."""
    s = text.strip().lower()
    signed = s[:1] in ("+", "-")
    mantissa, e, exponent = s[signed:].partition("e")
    whole, _, frac = mantissa.partition(".")
    frac = frac.rstrip("0")
    if not (s.isascii() and (whole + frac).isdigit()):
        return None
    if e and not exponent[exponent[:1] in ("+", "-"):].isdigit():
        return None
    exp = (int(exponent) if e else 0) - len(frac)
    if abs(exp) > 400:  # mpmath rounds these another way
        return None
    man = int(whole + frac)
    return (-man if s[0] == "-" else man), exp


def read_real(x, prec: int) -> tuple:
    """The tuple of mp.mpf(x) at prec bits (mp.mpf(numerator) / denominator
    for a Fraction), read in integers for a str, an int or a Fraction: a
    plain decimal man 10^exp (_plain_decimal) rounded to nearest, ties to
    even, as mpmath's parser rounds it.  Any other form (a ratio 'p/q',
    'inf', '1_000', a huge exponent) or type (a float, an mpf) goes to
    mp.mpf, imported here, with its value or its exception."""
    if isinstance(x, str):
        parts = _plain_decimal(x)
        if parts is not None:
            man, exp = parts
            return dyadic(man * 10**exp, 0, prec, "n") if exp >= 0 else _quotient(man, 10**-exp, prec)
    elif isinstance(x, int):
        return dyadic(x, 0, prec, "n")
    elif isinstance(x, Fraction):
        sign, man, exp, _ = dyadic(x.numerator, 0, prec, "n")  # exp >= 0
        return _quotient((-man if sign else man) << exp, x.denominator, prec)
    return mp_context(prec).mpf(x)._mpf_


def _le(a: tuple, b: tuple) -> bool:
    """a <= b for the tuples of two nonnegative reals, b finite; False for
    an infinite or undefined a."""
    _, am, ae, ab = a
    _, bm, be, bb = b
    if not am:
        return not ae
    if not bm:
        return False
    if ae + ab != be + bb:  # a < 2^(ae+ab) and b >= 2^(be+bb-1)
        return ae + ab < be + bb
    return am << ae - be <= bm if ae >= be else am <= bm << be - ae


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

    A ball holds two forms of its fields, each built from the other at its
    first read and then kept: value and radius, and the dyadic tuples re,
    im (None for a real ball) and rad with the precision prec.  A ball that
    fixedpoint.to_ball rounds is made of the tuples alone (BoundedValue.of),
    and value and radius are built in mp_context(prec) when read; one made
    from an mpf or mpc (BoundedValue(value, radius)) gets its tuples when
    they are read.  Balls compare, hash and print by value and radius.
    """

    __slots__ = ("value", "radius", "re", "im", "rad", "prec")

    def __init__(self, value: Any, radius: Any):
        self._set(value, radius)

    @classmethod
    def of(cls, re: tuple, im, rad: tuple, prec: int) -> "BoundedValue":
        """The ball of the tuples re, im (None for a real ball) and rad, whose
        value and radius are mpf or mpc of mp_context(prec)."""
        bv = object.__new__(cls)
        put = object.__setattr__
        put(bv, "re", re)
        put(bv, "im", im)
        put(bv, "rad", rad)
        put(bv, "prec", prec)
        return bv

    def __getattr__(self, name):
        # only a field that is not set yet comes here
        if name == "value":
            mp = mp_context(self.prec)
            x = mp.make_mpf(self.re) if self.im is None else mp.make_mpc((self.re, self.im))
        elif name == "radius":
            x = mp_context(self.prec).make_mpf(self.rad)
        elif name in ("re", "im"):
            v = self.value
            re, im = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_, None)
            x = im if name == "im" else re
        elif name == "rad":
            x = self.radius._mpf_
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, x)
        return x

    def _fields(self) -> tuple:
        return self.value, self.radius

    def __repr__(self) -> str:
        return f"BoundedValue(value={self.value!r}, radius={self.radius!r})"

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
    Construction fails fast on contradictory settings, and computes once,
    in integers from the tolerance's tuple (read_real), the hash and
    tolerance_exponent, e = mag(tolerance) - 1 (2^e <= tolerance), the
    target of a lattice pass to the tolerance.  tolerance, eps and mp are
    mpmath objects, built when read.
    """

    __slots__ = ("precision", "tolerance_exponent", "_tol", "_hash")

    def __init__(self, precision: int = 128, tolerance: Real = "1e-12"):
        if not isinstance(precision, int) or precision < 64:
            raise ConfigurationError(f"working precision must be an integer >= 64 bits, got {precision!r}")
        try:
            tol = read_real(tolerance, precision)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"tolerance not parseable as a real number: {tolerance!r}") from exc
        sign, man, exp, bc = tol
        if sign or not man:
            raise ConfigurationError(f"tolerance must be a positive finite real, got {tolerance!r}")
        implied = -(exp + bc)  # bits needed to resolve the tolerance: -mag(tolerance)
        if precision < implied + GUARD_BITS:
            raise ConfigurationError(
                f"tolerance {tolerance!r} implies {implied} bits; working precision "
                f"{precision} leaves less than the {GUARD_BITS}-bit guard margin")
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "_tol", tol)
        object.__setattr__(self, "tolerance_exponent", exp + bc - 1)
        object.__setattr__(self, "_hash", hash((precision, tol)))

    def __setattr__(self, name, value):
        raise AttributeError("PrecisionContext is immutable")

    def __repr__(self) -> str:
        return (f"PrecisionContext(precision={self.precision}, "
                f"tolerance={self.mp.nstr(self.tolerance, 8)})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, PrecisionContext)
                and self.precision == other.precision
                and self._tol == other._tol)

    def __hash__(self) -> int:
        return self._hash

    # -- the tolerance in integers ---------------------------------------

    def meets(self, bv: BoundedValue) -> bool:
        """bv.radius <= tolerance, decided in integers from the tuples."""
        return _le(bv.rad, self._tol)

    def exponent_below(self, divisor: int) -> int:
        """mag(tolerance / divisor) - 1, the quotient rounded to the
        precision as an mpf division rounds it: e with 2^e <= tolerance /
        divisor, for an integer divisor >= 1, in integers."""
        _, man, exp, _ = self._tol
        _, _, qexp, qbc = _quotient(man, divisor, self.precision)
        return exp + qexp + qbc - 1

    # -- mpmath objects ---------------------------------------------------

    @property
    def mp(self) -> MPContext:
        return mp_context(self.precision)

    @property
    def tolerance(self):
        """The tolerance, an mpf of this context."""
        return self.mp.make_mpf(self._tol)

    @property
    def eps(self):
        """One ulp at unit scale: 2^(1-precision)."""
        return self.mp.make_mpf((0, 1, 1 - self.precision, 1))

    def refined(self, tolerance) -> "PrecisionContext":
        """Internal-use context for a (usually tighter) tolerance, raising the
        working precision to keep the guard margin."""
        sign, man, exp, bc = tol = read_real(tolerance, self.precision)
        if sign or not man:
            raise ConfigurationError("refined tolerance must be positive")
        precision = max(self.precision, GUARD_BITS + 8 - (exp + bc))
        return PrecisionContext(precision, self.mp.make_mpf(tol))

    # -- conversions -----------------------------------------------------

    def real(self, x):
        """Convert a real-like (int, float, str, Fraction, mpf) to this context's mpf."""
        sign, man, exp, bc = v = read_real(x, self.precision)
        if not man and exp:
            raise ValueError(f"non-finite real input: {x!r}")
        return self.mp.make_mpf(v)

    def _read_point(self, text: str) -> tuple:
        """The tuples (re, im) of a point string (split_point_string), each
        part read by read_real; ValueError for a non-finite part."""
        parts = tuple(read_real(s, self.precision) for s in split_point_string(text))
        if any(not man and exp for _, man, exp, _ in parts):
            raise ValueError(f"non-finite point: {text!r}")
        return parts

    def point(self, z):
        """Convert a point (real-like, complex, mpc, or 're+imi' string) to mpf/mpc.

        Real inputs stay real mpf; complex inputs with exactly zero imaginary
        part are demoted to mpf.  An int becomes its exact mpf at any size, so
        that point, exact and ball name one point.  A finite mpf of this
        context, and a finite mpc of it with a nonzero imaginary part, come
        back unchanged.
        """
        mp = self.mp
        if (isinstance(z, mp.mpf) or isinstance(z, mp.mpc) and z.imag) and mp.isfinite(z):
            return z
        if isinstance(z, int):
            return mp.make_mpf(dyadic(z, 0))
        if isinstance(z, str):
            re, im = self._read_point(z)
            return mp.make_mpf(re) if im == ZERO else mp.make_mpc((re, im))
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
        complex (read by float.as_integer_ratio), an int (taken as it is), a
        string (read by read_real, as point reads it) or an mpf or mpc of
        this context (its own mantissa and exponent).  Any other input is
        read by point first."""
        if isinstance(z, (float, complex)):
            re, im = (z, 0.0) if isinstance(z, float) else (z.real, z.imag)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"non-finite {'real input' if re is z else 'point'}: {z!r}")
            (a, b), (c, d) = re.as_integer_ratio(), im.as_integer_ratio()
            m = max(b, d)  # b and d are powers of 2
            return a * (m // b), c * (m // d), m.bit_length() - 1
        if isinstance(z, int):
            return z, 0, 0
        if isinstance(z, str):
            parts = self._read_point(z)
        else:
            zp = self.point(z)  # its parts read here: fixedpoint builds on this module
            parts = zp._mpc_ if hasattr(zp, "_mpc_") else (zp._mpf_, ZERO)
        W = max([0] + [-exp for _, man, exp, _ in parts if man])
        re, im = ((-man if sign else man) << exp + W for sign, man, exp, _ in parts)
        return re, im, W

    def from_fraction(self, q: Fraction):
        """mpf nearest to an exact Fraction (two roundings at most)."""
        return self.mp.make_mpf(read_real(q, self.precision))

    def ball(self, value, radius=0) -> BoundedValue:
        """The exact value (an int, or an mpf or mpc of this context) within
        radius; TypeError for anything that would need a rounding.  An int
        value makes a ball of tuples, without mpmath."""
        if isinstance(value, int):
            return BoundedValue.of(dyadic(value, 0), None, read_real(radius, self.precision),
                                   self.precision)
        mp = self.mp
        if not isinstance(value, (mp.mpf, mp.mpc)):
            raise TypeError(f"ball takes an exact int, mpf or mpc, got {type(value).__name__}")
        return BoundedValue(value, mp.make_mpf(read_real(radius, self.precision)))


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
