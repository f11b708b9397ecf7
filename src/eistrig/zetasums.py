"""Rigorously bounded zeta tails and even zeta values.

Two layers, both exact or with explicit bounds:

* bernoulli_even(2j): exact Fractions via the integer-only tangent-number
  triangle (cached, grown on demand).
* shifted_tail(exponents, a, c, ...): sum_{n>=a} (n+c)^-s for several s by
  Euler-Maclaurin at the base point a with the DLMF 2.10 remainder bound;
  the one way a tail is summed.  The lattice pass calls it at c = +-u;
  zeta_tail(s, N, ...) is its c = 0, one-s case, moving the base point up.

zeta_even(m, ctx) is the tail beyond N = 0, i.e. zeta(2m), checked against
the context tolerance; coeff_a(d, ctx) wraps the Laurent coefficient
a_d = 2(2d+1) zeta(2d+2).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import ToleranceUnreachableError
from .precision import BoundedValue, PrecisionContext, RunningSum, mp_context

# -- Bernoulli numbers --------------------------------------------------------

_TANGENT: list[int] = [0, 1]  # T_1..T_k as they get computed; index 0 unused
_bern_lock = threading.Lock()


def _grow_tangent(upto: int) -> None:
    """Extend the tangent-number table T_1..T_upto (Seidel triangle, integers)."""
    n = upto
    T = [0] * (n + 1)
    T[1] = 1
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    _TANGENT[:] = T


def bernoulli_even(two_j: int) -> Fraction:
    """Exact B_{2j} from 2n*T_n / (4^n (4^n - 1)) with alternating sign."""
    if two_j < 0 or two_j % 2:
        raise ValueError("bernoulli_even expects a nonnegative even index")
    if two_j == 0:
        return Fraction(1)
    j = two_j // 2
    with _bern_lock:
        if j >= len(_TANGENT):
            _grow_tangent(max(j, 2 * len(_TANGENT)))
        t = _TANGENT[j]
    val = Fraction(2 * j * t, 4**j * (4**j - 1))
    return val if j % 2 else -val


# -- Euler-Maclaurin tails -----------------------------------------------------

#: highest Euler-Maclaurin order tried at one base point
MAX_ORDER = 300

# (precision, (B_2/2!, B_4/4!, ...)): one table at the highest precision asked
# for so far, rebuilt when a caller needs more bits or orders (concurrent
# rebuilds only duplicate work)
_em_coefficients: tuple = (0, ())


def _coefficients(precision: int, count: int) -> tuple:
    """B_2j/(2j)! for j = 1..count (at index j-1), rounded at >= precision bits."""
    global _em_coefficients
    prec, table = _em_coefficients
    if prec < precision or len(table) < count:
        prec = max(prec, precision)
        count = min(MAX_ORDER, max(count, 2 * len(table), 16))
        mp = mp_context(prec)
        ratios = (bernoulli_even(2 * j) / math.factorial(2 * j) for j in range(1, count + 1))
        table = tuple(mp.mpf(b.numerator) / b.denominator for b in ratios)
        _em_coefficients = (prec, table)
    return table


def shifted_tail(exponents, a: int, c, mp, targets):
    """[(value, bound)] for T_s(c) = sum_{n>=a} (n+c)^-s, one per s in
    exponents with its own target, or None at the floor.

    c is an mpf or mpc of the context mp with a + Re c > 0.  DLMF 2.10.1:
      T_s(c) = (a+c)^(1-s)/(s-1) + (a+c)^-s/2
               + sum_{j<m} B_2j/(2j)! (s)_{2j-1} (a+c)^(1-s-2j) + R_m,
      |R_m| <= 2|B_2m|/(2m)! (s)_{2m} int_a^inf |x+c|^(-s-2m) dx.
    |x+c| is convex, so above its tangent r0 + (t0/r0)(x-a) at a, r0 = |a+c|,
    t0 = a + Re c; hence |R_m| <= 2 (r0/t0) |term m|.  m is the first order
    whose bound (rounding allowance included) is below target; None if the
    bounds stop decreasing first (the floor, near e^(-2 pi r0), is above it).
    """
    base = a + c
    r0 = abs(base)
    w = 1 / base
    w2, q2 = w * w, 1 / (r0 * r0)
    coeffs = ()
    out = []
    for s, target in zip(exponents, targets):
        # 2 r0/t0, widened for the rounding in the magnitudes: r0^(1-s-2j) and
        # the coefficient pass through fewer than 2s + 4 MAX_ORDER + 16 roundings
        slope = 2 * r0 / mp.re(base) * (1 + mp.ldexp(2 * s + 4 * MAX_ORDER + 16, 1 - mp.prec))
        wp = w ** (s - 1)  # runs through (a+c)^(1-s-2j); q = |wp| in real arithmetic
        q = r0 ** (1 - s)
        acc = RunningSum(mp, ops_per_term=10)
        acc.add(wp / (s - 1), q / (s - 1))
        acc.add(wp * w / 2, q / r0 / 2)
        wp, q = wp * w2, q * q2
        rising, prev = s, mp.inf  # rising = (s)_{2j-1}
        for j in range(1, MAX_ORDER + 1):
            if j > len(coeffs):
                coeffs = _coefficients(mp.prec, j)
            coef = mp.mpf(coeffs[j - 1]) * rising
            mag = abs(coef) * q
            bound = slope * mag
            if bound <= target:
                out.append((acc.value, bound + acc.allowance()))
                break
            if bound >= prev:
                return None
            acc.add(coef * wp, mag)
            prev = bound
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            wp, q = wp * w2, q * q2
        else:
            return None
    return out


def zeta_tail(s: int, N: int, precision: int, target):
    """(value, bound) for sum_{n>N} n^-s with |true - value| <= bound <= ~target.

    shifted_tail at c = 0 and base point N+1; while its floor is above
    target, explicit terms move the base point up, 16 at a time.
    """
    if s < 2:
        raise ValueError("zeta_tail expects s >= 2")
    mp = mp_context(precision)
    head = RunningSum(mp, ops_per_term=2)
    a = N + 1
    while (got := shifted_tail((s,), a, mp.zero, mp, (target,))) is None:
        for n in range(a, a + 16):
            head.add(mp.mpf(n) ** (-s))
        a += 16
    tail, bound = got[0]
    value = head.value + tail
    return value, bound + head.allowance() + mp.ldexp(1, 1 - precision) * abs(value)


# -- even zeta values ----------------------------------------------------------


def zeta_even(m: int, ctx: PrecisionContext) -> BoundedValue:
    """sum_{n>=1} n^-2m with error radius <= the context tolerance.

    This is the whole tail beyond N = 0, summed by zeta_tail to half the
    tolerance so the rounding allowance fits in the other half.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"zeta_even expects an integer m >= 1, got {m!r}")
    value, radius = zeta_tail(2 * m, 0, ctx.precision, ctx.tolerance / 2)
    if not radius <= ctx.tolerance:
        raise ToleranceUnreachableError(
            f"zeta_even(m={m}) achieved radius {ctx.mp.nstr(radius, 5)} > tolerance")
    return BoundedValue(value, radius)


def coeff_a(d: int, ctx: PrecisionContext) -> BoundedValue:
    """Laurent coefficient a_d = 2(2d+1) * sum n^-(2d+2), radius <= tolerance."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"coeff_a expects an integer d >= 0, got {d!r}")
    factor = 2 * (2 * d + 1)
    z = zeta_even(d + 1, ctx.refined(ctx.tolerance / (2 * factor)))
    return ctx.bscale(ctx.adopt(z), factor)
