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
mpmath's roundings).  read_real is the one reader of a real (a decimal or a
ratio exactly rounded at every exponent, Clinger, PLDI 1990) and
printing.to_str the one printer, so no command and no error text imports
mpmath.  It is an optional dependency (the `mpmath` extra), imported by
mp_context alone, for the mpf views of the API: a ball's value and radius,
BoundedValue(value, radius), the context's tolerance, eps, mp and point,
and lattice.symmetric_tail_bound.

mpmath contexts are cached per precision (the 64 used last) and never
mutated afterwards, so evaluations at different precisions can run
concurrently without touching mpmath's global state.

BoundedValue and the package's other result records (trig.PiValue, the
lattice and verify reports, verify.RunConfig) are plain Record classes:
immutable, slotted, equal and hashed by value, built without dataclasses,
which would cost every process its import.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Any

from .errors import ConfigurationError, ToleranceUnreachableError

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Union

    from mpmath.ctx_mp import MPContext

    Real = Union[int, float, str, Fraction]

#: extra mantissa bits beyond what the tolerance implies (the guard margin)
GUARD_BITS = 16

#: cap on explicit summation terms for any single truncated sum
TERM_CAP = 10**8

#: mpmath's tuple of zero
ZERO = (0, 0, 0, 0)


@functools.lru_cache(maxsize=64)
def mp_context(precision: int) -> MPContext:
    """Shared immutable MPContext with the given mantissa precision, one for
    each of the 64 precisions used last.  The first call imports mpmath."""
    try:
        from mpmath.ctx_mp import MPContext
    except ImportError as exc:
        raise ImportError("eistrig's mpf views need mpmath: pip install 'eistrig[mpmath]'") from exc
    ctx = MPContext()
    ctx.prec = precision
    return ctx


# -- dyadic numbers ----------------------------------------------------------


def dyadic(x: int, e: int, prec: int = 0, rnd: str = "d") -> tuple:
    """mpmath's normalised tuple (sign, man, exp, bc) of x 2^e, man odd and bc
    its bit length: exact for prec 0, else rounded to prec bits toward zero
    ("d"), away from zero ("u") or to nearest with ties to even ("n"), as
    mpmath builds it from the mantissa x and the exponent e (libmp's
    normalisation)."""
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


def _quotient(p: int, q: int, prec: int, e: int = 0, rnd: str = "n") -> tuple:
    """p / q 2^e (q > 0) rounded at prec bits as dyadic rounds it (by default
    to nearest, ties to even, as mpmath's division): the quotient to at least
    prec + 2 bits, then a sticky bit for a nonzero remainder."""
    s = max(0, prec + 2 + q.bit_length() - abs(p).bit_length())
    x, r = divmod(abs(p) << s, q)
    x = x << 1 | (r != 0)
    return dyadic(-x if p < 0 else x, e - s - 1, prec, rnd)


def _pow5(n: int, w: int) -> tuple:
    """(x, s, c) with x 2^s <= 5^n <= (x + c) 2^s: 5^n by squaring, each
    product truncated to w bits with its error counted in c, so c = 0 (5^n
    exact) while 5^n has at most w bits."""
    x, s, c = 1, 0, 0
    for bit in bin(n)[2:]:
        x, s, c = x * x, 2 * s, (2 * x + c) * c
        if bit == "1":
            x, c = 5 * x, 5 * c
        t = x.bit_length() - w
        if t > 0:
            x, s, c = x >> t, s + t, (c >> t) + 2
    return x, s, c


def _scaled(man: int, e: int, n: int, prec: int, rnd: str = "n") -> tuple:
    """man 2^e 10^n rounded exactly at prec bits as dyadic rounds it, at any
    n: 5^|n| bracketed ever tighter (_pow5) until both ends of the bracket
    round alike, at the latest where 5^|n| is exact."""
    w = prec + abs(n).bit_length() + 32
    while True:
        x, s, c = _pow5(abs(n), w)
        if n >= 0:
            ends = {dyadic(man * y, e + n + s, prec, rnd) for y in {x, x + c}}
        else:
            ends = {_quotient(man, y, prec, e + n - s, rnd) for y in {x, x + c}}
        if len(ends) == 1:
            return ends.pop()
        w *= 2


#: mpmath's tuples of the strings it reads as special values
SPECIAL = {"inf": (0, 0, -456, -2), "+inf": (0, 0, -456, -2), "-inf": (1, 0, -789, -3),
           "nan": (0, 0, -123, -1)}


def read_real(x, prec: int) -> tuple:
    """The tuple of mp.mpf(x) at prec bits (mp.mpf(numerator) / denominator
    for a Fraction), in integers, rounded to nearest with ties to even at
    every exponent: an int, a float (its special tuple if not finite), a
    tuple (sign, man, exp, bc), an mpf, a Fraction, or a str as mpmath's
    from_str reads it: a special string; a ratio 'p/q' of two ints; else a
    decimal man 10^exp, whose syntax float() checks, a trailing 'l'
    stripped, split at 'e' and '.' and read by int().  TypeError for any
    other type, as mp.mpf raises."""
    if isinstance(x, str):
        x = x.lower().strip()
        if x in SPECIAL:
            return SPECIAL[x]
        if "/" in x:
            p, q = (int(part.rstrip("l")) for part in x.split("/"))
            return _quotient(-p if q < 0 else p, abs(q), prec)  # ZeroDivisionError for q = 0
        x = x.rstrip("l")
        float(x)
        mantissa, _, exponent = x.partition("e")
        whole, _, frac = mantissa.partition(".")
        frac = frac.rstrip("0")
        return _scaled(int(whole + frac), 0, (int(exponent) if exponent else 0) - len(frac), prec)
    if isinstance(x, int):
        return dyadic(x, 0, prec, "n")
    if isinstance(x, float):
        if not math.isfinite(x):
            return SPECIAL[repr(x)]
        p, q = x.as_integer_ratio()  # q is a power of 2
        return dyadic(p, 1 - q.bit_length(), prec, "n")
    if isinstance(x, tuple):
        return _nearest(x, prec)
    if hasattr(x, "_mpf_"):
        return _nearest(x._mpf_, prec)
    from fractions import Fraction  # not before a Fraction may come
    if isinstance(x, Fraction):
        sign, man, exp, _ = dyadic(x.numerator, 0, prec, "n")  # exp >= 0
        return _quotient((-man if sign else man) << exp, x.denominator, prec)
    raise TypeError(f"cannot create mpf from {x!r}")


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


def _parts(x) -> tuple:
    """(re, im, prec) for an mpf, mpc or int x: the tuples of its parts, im
    None for a zero imaginary part, and the precision of its context (None
    for an int, taken exactly)."""
    if isinstance(x, int):
        return dyadic(x, 0), None, None
    if hasattr(x, "_mpc_"):
        re, im = x._mpc_
        return re, None if im == ZERO else im, x.context.prec
    if hasattr(x, "_mpf_"):
        return x._mpf_, None, x.context.prec
    raise TypeError(f"a ball holds an mpf, mpc or int, got {type(x).__name__}")


def _nearest(part: tuple, prec: int) -> tuple:
    """The finite tuple rounded to nearest at prec bits, ties to even, as
    mp.mpf rounds it; a non-finite one as it is."""
    sign, man, exp, _ = part
    return dyadic(-man if sign else man, exp, prec, "n") if man else part


def to_mp(re: int, im: int, P: int, mp):
    """The pair at scale 2^-P as an exact mpf (im == 0) or mpc of mp."""
    if not im:
        return mp.make_mpf(dyadic(re, -P))
    return mp.make_mpc((dyadic(re, -P), dyadic(im, -P)))


class BoundedValue(Record):
    """A numeric center plus a rigorous absolute-error radius.

    `value` is an mpf or mpc at the owning context's precision; `radius`
    is a nonnegative mpf such that |true - value| <= radius.

    A ball holds its dyadic tuples alone: re, im (None for a real ball) and
    rad, with the precision prec.  fixedpoint.to_ball makes one of the tuples
    (BoundedValue.of); BoundedValue(value, radius) reads the tuples of an
    mpf, mpc or int once, with prec from the value's context (else the
    radius's, else 53).  value and radius are built from the tuples in
    mp_context(prec) at their first read and then kept.  Balls compare and
    hash by (re, im, rad), so that comparing them imports nothing, and print
    by value and radius.
    """

    __slots__ = ("value", "radius", "re", "im", "rad", "prec")

    def __init__(self, value: Any, radius: Any):
        re, im, prec = _parts(value)
        rad, _, rprec = _parts(radius)
        for name, x in zip(self.__slots__[2:], (re, im, rad, prec or rprec or 53)):
            object.__setattr__(self, name, x)

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
        # only a field that is not set yet comes here: value or radius
        if name == "value":
            mp = mp_context(self.prec)
            x = mp.make_mpf(self.re) if self.im is None else mp.make_mpc((self.re, self.im))
        elif name == "radius":
            x = mp_context(self.prec).make_mpf(self.rad)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, x)
        return x

    def _fields(self) -> tuple:
        return self.value, self.radius

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.re, self.im, self.rad) == (other.re, other.im, other.rad)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im, self.rad))

    def __repr__(self) -> str:
        return f"BoundedValue(value={self.value!r}, radius={self.radius!r})"

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
    target of a lattice pass to the tolerance.  tolerance, eps, mp and point
    are mpmath views, built when read.
    """

    __slots__ = ("precision", "tolerance_exponent", "_tol", "_hash")

    def __init__(self, precision: int = 128, tolerance: Real = "1e-12"):
        if not isinstance(precision, int) or precision < 64:
            raise ConfigurationError(f"working precision must be an integer >= 64 bits, got {precision!r}")
        try:
            tol = read_real(tolerance, precision)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
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
        from .printing import to_str
        return f"PrecisionContext(precision={self.precision}, tolerance={to_str(self._tol, 8)})"

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

    def certified(self, bv, message, cause=None) -> BoundedValue:
        """bv when it is a ball whose radius meets the tolerance, else
        ToleranceUnreachableError(message(nstr)) chained from cause, its text
        printed by printing.nstr, which only this path imports."""
        if bv is not None and self.meets(bv):
            return bv
        from .printing import nstr
        raise ToleranceUnreachableError(message(nstr)) from cause

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
        return PrecisionContext(precision, tol)

    # -- conversions -----------------------------------------------------

    def point(self, z):
        """The mpf (a zero imaginary part) or mpc of the exact pair of z;
        a finite mpf of this context, and a finite mpc of it with a nonzero
        imaginary part, come back unchanged."""
        mp = self.mp
        if (isinstance(z, mp.mpf) or isinstance(z, mp.mpc) and z.imag) and mp.isfinite(z):
            return z
        return to_mp(*self.exact(z), mp)

    def exact(self, z) -> tuple[int, int, int]:
        """The point z as the exact pair (re, im, W): (re + i im) 2^-W, W the
        least scale >= 0 at which it is exact, with no mpf built.  A tuple is
        taken as such a pair and comes back as it is.  A float, a complex
        and an int are exact; a string 're+imi' (each part) and another real
        are read by read_real; an mpc gives its tuples rounded to nearest at
        this precision, as read_real rounds an mpf's (which leaves one of
        this context as it is).  ValueError for a non-finite point."""
        if isinstance(z, (float, complex)):
            re, im = (z, 0.0) if isinstance(z, float) else (z.real, z.imag)
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"non-finite {'real input' if re is z else 'point'}: {z!r}")
            (a, b), (c, d) = re.as_integer_ratio(), im.as_integer_ratio()
            m = max(b, d)  # b and d are powers of 2
            return a * (m // b), c * (m // d), m.bit_length() - 1
        if isinstance(z, int):
            return z, 0, 0
        if isinstance(z, tuple):
            return z
        if isinstance(z, str):
            parts = tuple(read_real(s, self.precision) for s in split_point_string(z))
        elif hasattr(z, "_mpc_"):
            parts = tuple(_nearest(part, self.precision) for part in z._mpc_)
        else:
            parts = read_real(z, self.precision), ZERO
        if any(not man and exp for _, man, exp, _ in parts):
            raise ValueError(f"non-finite point: {z!r}")
        return to_pair(*parts)

    def ball(self, value, radius=0) -> BoundedValue:
        """The exact value (an int, mpf or mpc) within radius, the ball of
        their tuples at this precision; TypeError for anything that would
        need a rounding.  An int value makes a ball without mpmath."""
        re, im, _ = _parts(value)
        return BoundedValue.of(re, im, read_real(radius, self.precision), self.precision)


def to_pair(re: tuple, im: tuple = ZERO) -> tuple[int, int, int]:
    """The exact pair (re, im, W) of the finite tuples re and im: (re + i im)
    2^-W, W the least scale >= 0 at which both are exact."""
    parts = re, im
    W = max([0] + [-exp for _, man, exp, _ in parts if man])
    re, im = ((-man if sign else man) << exp + W for sign, man, exp, _ in parts)
    return re, im, W


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
