"""Rigorously bounded zeta tails and even zeta values.

Two layers, both exact or with explicit bounds:

* bernoulli_even(2j): exact Fractions via the integer-only tangent-number
  triangle (cached, grown on demand).
* zeta_tail(s, N, ...): sum_{n>N} n^-s by Euler-Maclaurin at the base point
  N+1.  For x^-s (completely monotone) the remainder after stopping at an
  even-order term is bounded by the first omitted term, which is the
  returned bound; the base point is extended automatically when the
  asymptotic floor at N+1 is above the target.

zeta_even(m, ctx) is the tail beyond N = 0, i.e. zeta(2m), checked against
the context tolerance; coeff_a(d, ctx) wraps the Laurent coefficient
a_d = 2(2d+1) zeta(2d+2).
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .errors import ToleranceUnreachableError
from .precision import BoundedValue, PrecisionContext, RunningSum, mp_context

# -- Bernoulli numbers --------------------------------------------------------

_TANGENT: list[int] = [0, 1]  # T_1..T_k as they get computed; index 0 unused
_BERNOULLI: list[Fraction] = [Fraction(1)]  # B_0; B_{2j} appended lazily
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
        while len(_BERNOULLI) <= j:
            n = len(_BERNOULLI)
            val = Fraction(2 * n * _TANGENT[n], 4**n * (4**n - 1))
            _BERNOULLI.append(-val if n % 2 == 0 else val)
        return _BERNOULLI[j]


# -- zeta tails ----------------------------------------------------------------

_tail_cache: dict[tuple, tuple] = {}


def zeta_tail(s: int, N: int, precision: int, target):
    """(value, bound) for sum_{n>N} n^-s with |true - value| <= bound <= ~target.

    Euler-Maclaurin at a = N+1:
      sum_{n>=a} n^-s = a^(1-s)/(s-1) + a^-s/2
                        + sum_j B_{2j}/(2j)! (s)_{2j-1} a^(-s-2j+1) + R_J,
    |R_J| <= first omitted term (x^-s is completely monotone).  If the
    bound floor at a is above target, explicit terms extend the base point.
    """
    if s < 2:
        raise ValueError("zeta_tail expects s >= 2")
    mp = mp_context(precision)
    key = (s, N, precision, mp.mag(target))
    hit = _tail_cache.get(key)
    if hit is not None:
        return hit
    extra = RunningSum(mp, ops_per_term=2)
    base = N
    while True:
        a = mp.mpf(base + 1)
        val = a ** (1 - s) / (s - 1) + a ** (-s) / 2
        ops = 6
        rising = mp.mpf(s)  # (s)_{2j-1}, grown incrementally
        prev = mp.inf
        bound = None
        j = 1
        while j <= 300:
            B = bernoulli_even(2 * j)
            term = (mp.mpf(B.numerator) / B.denominator / mp.factorial(2 * j)
                    * rising * a ** (-s - 2 * j + 1))
            if abs(term) >= prev:
                break  # asymptotic series started diverging
            if abs(term) <= target:
                bound = abs(term)
                break
            val += term
            ops += 8
            prev = abs(term)
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            j += 1
        if bound is not None:
            value = extra.value + val
            allowance = extra.allowance() + ops * mp.ldexp(1, 1 - precision) * abs(val)
            result = (value, bound + allowance)
            _tail_cache[key] = result
            return result
        for n in range(base + 1, base + 17):
            extra.add(mp.mpf(n) ** (-s))
        base += 16


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
