"""Fixed-point arithmetic for every summation loop and for the g jet: the
lattice kernel, the zeta tails and their heads, the strip majorant, and the
ball products, quotients and final rounding that form g, g' and g''.

A complex number is a pair of Python ints (re, im) at scale 2^-P: the pair
stands for (re + i im) 2^-P.  Every rounding truncates toward zero, so it errs
by less than one unit (2^-P) in each component, and it commutes with negation
and conjugation: a sum at u and at -u, or at u and at conj(u), comes out exactly
negated or conjugated (inside series the real recurrence floors, which keeps
that, see there).  Error counts are kept in units of the l1 norm
|re| + |im|, which bounds the modulus and is submultiplicative, so a product of
x' = x + dx and y' = y + dy errs by at most |x'| |dy| + |y'| |dx| + |dx| |dy|
before it is rounded.  A ball is a triple (re, im, err) whose err bounds the
modulus of its error in units; every l1 count does.  A ball is rounded to a
context's precision once, by to_ball, when it leaves the kernel: in integers,
to the dyadic tuples of a BoundedValue (precision.dyadic), so that no
evaluation imports mpmath.  This module neither reads nor builds an mpmath
object: a point comes in as an exact pair (PrecisionContext.exact), a ball
as its tuples (fixed_balls); precision.to_mp builds an mpf or mpc from a
pair for the text of an error.
"""

from __future__ import annotations

from math import isqrt

from .errors import InconclusiveNonvanishingError
from .precision import ZERO, BoundedValue, dyadic


def tdiv(x: int, y: int) -> int:
    """x / y rounded toward zero (y != 0)."""
    q = abs(x) // abs(y)
    return q if (x < 0) == (y < 0) else -q


def tshift(x: int, s: int) -> int:
    """x 2^s rounded toward zero."""
    if s >= 0:
        return x << s
    return x >> -s if x >= 0 else -(-x >> -s)


def nearest(x: int, W: int) -> int:
    """The integer nearest to x 2^-W, ties to even (as mpmath's nint)."""
    n, rem = divmod(x, 1 << W)
    return n + 1 if 2 * rem > 1 << W or (2 * rem == 1 << W and n & 1) else n


def floor_abs(re: int, im: int) -> int:
    """floor |re + i im|."""
    return isqrt(re * re + im * im) if im else abs(re)


def cmul(ar: int, ai: int, br: int, bi: int) -> tuple[int, int]:
    """The exact product (ar + i ai)(br + i bi)."""
    return ar * br - ai * bi, ar * bi + ai * br


def cpow(br: int, bi: int, k: int) -> tuple[int, int]:
    """The exact power (br + i bi)^k, k >= 1."""
    if not bi:
        return br**k, 0
    vr, vi = br, bi
    for _ in range(k - 1):
        vr, vi = cmul(vr, vi, br, bi)
    return vr, vi


def cdiv(nr: int, ni: int, dr: int, di: int, shift: int, divisor: int = 1) -> tuple[int, int]:
    """(n / d) 2^shift / divisor, each component rounded toward zero once."""
    if not di:  # the integers below at di = 0, cheaper (with _explicit_sums' real n = 0, ~2.5% of trig)
        d = dr * divisor
        return tdiv(nr << shift, d), tdiv(ni << shift, d)
    d = (dr * dr + di * di) * divisor
    return tdiv((nr * dr + ni * di) << shift, d), tdiv((ni * dr - nr * di) << shift, d)


def geometric(num: int, den: int, k: int) -> int:
    """An integer >= sum_{j<k} (num/den)^j, num >= 0, den > 0: 2 when num/den
    <= 1/2 (k >= 2), else the sum rounded up term by term in Horner's order."""
    if k > 1 and 2 * num <= den:
        return 2
    acc = min(k, 1)
    for _ in range(k - 1):
        acc = 1 - (-acc * num // den)
    return acc


def series(coeffs, n: int, xr: int, xi: int, shift: int, div: int = 1) -> tuple[int, int, int]:
    """(re, im, err): sum_{j<n} coeffs[j] x^j, x = (xr + i xi) 2^-shift / div
    (div > 1 only for a real x), n >= 1, at the scale of the integer
    coefficients and within err units of it (l1 norm), the coefficients
    taken as exact.

    A real x takes Horner's rule, s <- c_j + x s, one rounding per term.  A
    complex x takes the second-order recurrence (Knuth, TAOCP vol. 2, 4.6.4)
      b_j = c_j + r b_(j+1) - q b_(j+2),  r = 2 Re x,  q = |x|^2,
    r and q exact at 2^-2shift, so every b_j stays real: two real products
    and one rounding per term; then S = c_0 + x b_1 - q b_2 (= b_0 -
    conj(x) b_1), one truncation per component.  Inside the loop the
    rounding is a floor, which also errs by less than one unit: the b_j are
    the same at x and conj(x), so S still comes out exactly conjugated.  A
    rounding d_j of b_j (or of Horner's s_j) is the same as adding d_j to
    c_j, the rest being exact, so it reaches S as d_j x^j, j <= n - 2: with
    G = geometric(|x|, n - 1) >= sum_{j<n-1} |x|^j, err is G (real) or
    2 G >= sqrt 2 (G - 1) + 2 (complex), that is 2 or 4 for |x| <= 1/2."""
    if not xi:
        s = 0
        if div == 1:
            for c in coeffs[n - 1::-1]:
                s = c + (s * xr >> shift)
        else:
            d = div << shift
            for c in coeffs[n - 1::-1]:
                s = c + s * xr // d
        return s, 0, geometric(abs(xr), div << shift, n - 1)
    two = 2 * shift
    r, q = xr << shift + 1, xr * xr + xi * xi
    b1 = b2 = 0
    for c in coeffs[n - 1:0:-1]:
        b1, b2 = c + (r * b1 - q * b2 >> two), b1
    y, z = (xr * b1 << shift) - q * b2, xi * b1
    re = coeffs[0] + (y >> two if y >= 0 else -(-y >> two))
    # |x| 2^shift <= isqrt(q) + 1, needed only above 1/2
    top = 1 << shift
    G = 2 if q << 2 <= top * top or n < 3 else geometric(isqrt(q) + 1, top, n - 1)
    return re, z >> shift if z >= 0 else -(-z >> shift), 2 * G


def _at(part, P: int) -> int:
    """The tuple at scale 2^-P, rounded toward zero."""
    sign, man, exp, _ = part
    m = man << (exp + P) if exp + P >= 0 else man >> -(exp + P)
    return -m if sign else m


def fixed_balls(values) -> tuple[int, list]:
    """(P, [(re, im, err), ...]): the BoundedValues at the least scale 2^-P at
    which every centre and radius is exact, converted exactly from their
    dyadic tuples."""
    balls = [(bv.re, bv.im or ZERO, bv.rad) for bv in values]
    P = max([0] + [-exp for ball in balls for _, man, exp, _ in ball if man])
    return P, [tuple(_at(part, P) for part in ball) for ball in balls]


# -- balls (re, im, err) -----------------------------------------------------


def ball_mul(a, b):
    """The exact product of the balls a and b, at the sum of their scales: its
    error is at most |a| e_b + |b| e_a + e_a e_b (|.| <= the l1 norm)."""
    ar, ai, ea = a
    br, bi, eb = b
    return (ar * br - ai * bi, ar * bi + ai * br,
            (abs(ar) + abs(ai)) * eb + (abs(br) + abs(bi)) * ea + ea * eb)


def ball_quotient(a, f, k: int, shift: int):
    """The ball (a / f^k) 2^shift, k >= 1, one division per component rounded
    toward zero, or InconclusiveNonvanishingError when f does not exclude
    zero.  a at scale 2^-Pa and f at 2^-P give a ball at 2^-(Pa - kP + shift).

    With L = floor|f| and M = L + 1 >= |f| in units, every x within e_f of f
    has |x| >= L - e_f and |x^k - f^k| <= (M + e_f)^k - M^k, so for every y
    within e_a of a, |y/x^k - a/f^k| is at most
    2^shift (e_a L^k + |a| ((M + e_f)^k - M^k)) / ((L - e_f)^k L^k) units.
    """
    ar, ai, ea = a
    fr, fi, ef = f
    L = floor_abs(fr, fi)
    if L <= ef:
        raise InconclusiveNonvanishingError(
            "cannot take a reciprocal: |value| does not exceed the error radius")
    Lk, M = L ** k, L + 1
    qr, qi = cdiv(ar, ai, *cpow(fr, fi, k), shift)
    num = (ea * Lk + (abs(ar) + abs(ai)) * ((M + ef) ** k - M ** k)) << shift
    return qr, qi, -(-num // ((L - ef) ** k * Lk)) + (2 if ai or fi else 1)


def rounding_allowance(re: int, im: int, prec: int) -> int:
    """(|re| + |im|) 2^(1-prec) rounded up: the units by which to_ball's rounding
    of (re, im) to prec bits moves it in all (an exact zero stays exact)."""
    return -(-(abs(re) + abs(im)) >> prec - 1)


def rounded_count(re: int, im: int, err: int, prec: int) -> int:
    """Units that hold to_ball's radius for the ball (re, im, err) at prec bits:
    err plus the allowance, rounded up to prec bits (< 2^(1-prec) of it more)."""
    err += rounding_allowance(re, im, prec)
    return err - (-err >> prec - 1)


def to_ball(re: int, im: int, err: int, P: int, prec: int) -> BoundedValue:
    """The ball (re + i im) 2^-P within err units as a BoundedValue at prec
    bits, each component rounded once toward zero to prec bits, err charged
    the rounding allowance, and the radius rounded up; real when im == 0.
    The tuples are those mpmath builds from the mantissa x and exponent -P at
    prec bits, rounding "d" and "u" (precision.dyadic)."""
    radius = dyadic(err + rounding_allowance(re, im, prec), -P, prec, "u")
    return BoundedValue.of(dyadic(re, -P, prec), dyadic(im, -P, prec) if im else None, radius, prec)
