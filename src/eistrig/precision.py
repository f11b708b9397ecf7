"""Working-precision contexts and rigorously bounded values.

Every numeric result in this package is a BoundedValue: a center computed
at a fixed binary precision together with a nonnegative radius bounding
|true - center|.  Radii combine exact truncation-tail bounds with a
documented rounding allowance of one ulp of the result per floating
operation (for summation loops, count * (1 + ops_per_term) * ulp * the sum
of term magnitudes).  The allowance is an engineering bound backed by
soundness property tests, not a formal rounding proof.

mpmath contexts are cached per precision and never mutated afterwards, so
evaluations at different precisions can run concurrently without touching
mpmath's global state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Union

from mpmath.ctx_mp import MPContext

from .errors import ConfigurationError, InconclusiveNonvanishingError

Real = Union[int, float, str, Fraction]

_MP_CACHE: dict[int, MPContext] = {}

#: extra mantissa bits beyond what the tolerance implies (the guard margin)
GUARD_BITS = 16

#: cap on explicit summation terms for any single truncated sum
TERM_CAP = 10**8

#: tolerance of the coarse evaluations that only steer other tolerances
_COARSE_TOL = "1e-5"


def mp_context(precision: int) -> MPContext:
    """Shared immutable MPContext with the given mantissa precision."""
    ctx = _MP_CACHE.get(precision)
    if ctx is None:
        ctx = MPContext()
        ctx.prec = precision
        _MP_CACHE[precision] = ctx
    return ctx


@dataclass(frozen=True)
class BoundedValue:
    """A numeric center plus a rigorous absolute-error radius.

    `value` is an mpf or mpc at the owning context's precision; `radius`
    is a nonnegative mpf such that |true - value| <= radius.
    """

    value: Any
    radius: Any

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
        """The only honest zero test a bounded value supports: |value| <= radius."""
        return abs(self.value) <= self.radius

    def __str__(self) -> str:
        return f"{self.value} +/- {self.radius}"


class PrecisionContext:
    """Immutable bundle of working precision (bits) and target tolerance.

    The working precision must exceed the bits implied by the tolerance by
    GUARD_BITS, so that rounding noise stays below every claimed radius.
    Construction fails fast on contradictory settings.
    """

    __slots__ = ("precision", "tolerance", "_mp", "_eps")

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
        return hash((self.precision, self.tolerance))

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
        working precision as needed to keep the guard margin."""
        mp = self._mp
        tol = _to_mpf(mp, tolerance)
        if not tol > 0:
            raise ConfigurationError("refined tolerance must be positive")
        implied = -mp.mag(tol)
        precision = max(self.precision, implied + GUARD_BITS + 8)
        return PrecisionContext(precision, tol)

    def coarse(self) -> "PrecisionContext":
        """Context for the magnitude estimates that steer sub-tolerances:
        tolerance 1e-5, or this context when it is already looser."""
        if self.tolerance < self._mp.mpf(_COARSE_TOL):
            return self.refined(_COARSE_TOL)
        return self

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
        part are demoted to mpf.
        """
        mp = self._mp
        if isinstance(z, str):
            re_s, im_s = split_point_string(z)
            re, im = mp.mpf(re_s), mp.mpf(im_s)
            if not (mp.isfinite(re) and mp.isfinite(im)):
                raise ValueError(f"non-finite point: {z!r}")
            return re if im == 0 else mp.mpc(re, im)
        if isinstance(z, complex):
            re, im = mp.mpf(z.real), mp.mpf(z.imag)
        elif hasattr(z, "imag") and not isinstance(z, (int, float, Fraction)):
            re, im = mp.mpf(z.real) if not isinstance(z.real, Fraction) else self.real(z.real), mp.mpf(z.imag)
        else:
            return self.real(z)
        if not (mp.isfinite(re) and mp.isfinite(im)):
            raise ValueError(f"non-finite point: {z!r}")
        if im == 0:
            return re
        return mp.mpc(re, im)

    def from_fraction(self, q: Fraction):
        """mpf nearest to an exact Fraction (two roundings at most)."""
        return self._mp.mpf(q.numerator) / q.denominator

    def adopt(self, bv: "BoundedValue") -> "BoundedValue":
        """Round a bounded value (possibly from another precision) into this
        context, charging the conversion to the radius."""
        mp = self._mp
        value = bv.value
        if hasattr(value, "imag") and value.imag != 0:
            v = mp.mpc(value)
        else:
            v = mp.mpf(value.real if hasattr(value, "imag") else value)
        r = mp.mpf(bv.radius) * (1 + 8 * self._eps) + self._eps * abs(v)
        return BoundedValue(v, r)

    # -- ball arithmetic -------------------------------------------------
    # Each op adds one ulp of its result to the radius as rounding allowance.

    def _ulp(self, v):
        return abs(v) * self._eps

    def ball(self, value, radius=0) -> BoundedValue:
        mp = self._mp
        r = _to_mpf(mp, radius)
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            if isinstance(value, Fraction) and value.denominator != 1:
                v = self.from_fraction(value)
                r = r + self._ulp(v)
            else:
                v = mp.mpf(int(value))
        else:
            v = value if isinstance(value, (mp.mpf, mp.mpc)) else self.point(value)
        return BoundedValue(v, r)

    def badd(self, a: BoundedValue, b: BoundedValue) -> BoundedValue:
        v = a.value + b.value
        return BoundedValue(v, a.radius + b.radius + self._ulp(v))

    def bsub(self, a: BoundedValue, b: BoundedValue) -> BoundedValue:
        v = a.value - b.value
        return BoundedValue(v, a.radius + b.radius + self._ulp(v))

    def bneg(self, a: BoundedValue) -> BoundedValue:
        return BoundedValue(-a.value, a.radius)

    def bmul(self, a: BoundedValue, b: BoundedValue) -> BoundedValue:
        v = a.value * b.value
        r = abs(a.value) * b.radius + abs(b.value) * a.radius + a.radius * b.radius
        return BoundedValue(v, r + self._ulp(v))

    def bscale(self, a: BoundedValue, c) -> BoundedValue:
        """Multiply by an exact scalar (int or Fraction): radius scales exactly,
        plus rounding allowance when the scalar is not a dyadic integer."""
        if isinstance(c, Fraction):
            cv = self.from_fraction(c)
        else:
            cv = self._mp.mpf(c)
        v = a.value * cv
        r = abs(cv) * a.radius + self._ulp(v)
        if isinstance(c, Fraction) and c.denominator != 1:
            r = r + self._ulp(v)
        return BoundedValue(v, r)

    def brecip(self, a: BoundedValue) -> BoundedValue:
        """1/a; requires the ball to exclude zero."""
        lo = abs(a.value) - a.radius
        if not lo > 0:
            raise InconclusiveNonvanishingError(
                "cannot take a reciprocal: |value| does not exceed the error radius")
        v = 1 / a.value
        r = a.radius / (abs(a.value) * lo)
        return BoundedValue(v, r + self._ulp(v))

    def bpow(self, a: BoundedValue, n: int) -> BoundedValue:
        if n < 0:
            raise ValueError("bpow expects a nonnegative integer exponent")
        out = self.ball(1)
        base = a
        while n:
            if n & 1:
                out = self.bmul(out, base)
            n >>= 1
            if n:
                base = self.bmul(base, base)
        return out

    def bsqrt(self, a: BoundedValue) -> BoundedValue:
        """Square root of a positive real ball."""
        mp = self._mp
        lo = a.value - a.radius
        if not lo > 0:
            raise InconclusiveNonvanishingError(
                "cannot take a square root: the ball is not strictly positive")
        v = mp.sqrt(a.value)
        # |sqrt(x) - sqrt(v)| <= r / (2 sqrt(lo)) for x in [v - r, v + r]
        r = a.radius / (2 * mp.sqrt(lo))
        return BoundedValue(v, r + self._ulp(v))


class RunningSum:
    """Accumulates a truncated sum plus the documented rounding allowance.

    ops_per_term is the (approximate) count of floating operations used to
    build each term; the allowance is count * (1 + ops_per_term) * eps *
    sum(|term|), which dominates both per-term rounding (relative model) and
    the rounding of each partial-sum addition, with eps = 2^(1 - mp.prec)
    (PrecisionContext.eps at the same precision).
    """

    def __init__(self, mp: MPContext, ops_per_term: int = 4):
        self._eps = mp.ldexp(1, 1 - mp.prec)
        self._ops = ops_per_term
        self._sum = mp.mpf(0)
        self._abs = mp.mpf(0)
        self._count = 0

    def add(self, term, magnitude=None) -> None:
        """Add a term; a known magnitude spares computing |term|."""
        self._sum = self._sum + term
        self._abs = self._abs + (abs(term) if magnitude is None else magnitude)
        self._count += 1

    @property
    def value(self):
        return self._sum

    def allowance(self):
        return self._eps * self._abs * (self._count * (1 + self._ops) + 1)


def split_point_string(text: str) -> tuple[str, str]:
    """Split 're', 'imi', or 're+imi' decimal notation (i or j accepted) into
    decimal strings (re, im), leaving the mpf conversion to the caller so the
    parse introduces no float rounding."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty point")
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


def _to_mpf(mp: MPContext, x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)
