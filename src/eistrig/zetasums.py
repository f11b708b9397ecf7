"""Rigorously bounded zeta tails and even zeta values.

Two layers, both exact or with explicit bounds:

* bernoulli_even(2j): exact Fractions via the integer-only tangent-number
  triangle (cached, grown on demand).
* em_tails(exponents, br, bi, P, limits): sum_{n>=0} (b+n)^-s for several s
  by Euler-Maclaurin at the base point b with the DLMF 2.10 remainder bound,
  in Python integers at scale 2^-P with every rounding counted (fixedpoint);
  the one way a tail is summed.  The lattice pass calls it at b = N+1 +- u,
  and zeta_tail(s, N, target) at b = N+1, moving the base point up with head
  terms summed at the same scale, one counted truncation each.

zeta_even(m, ctx) is the tail beyond N = 0, i.e. zeta(2m), checked against
the context tolerance; coeff_a(d, ctx), a_d = 2(2d+1) zeta(2d+2), is its
integer ball times 2(2d+1); each is rounded once (fixedpoint.to_ball).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import inf, isqrt

from .errors import ToleranceUnreachableError
from .fixedpoint import cdiv, cmul, cpow, tdiv, to_ball, units
from .precision import BoundedValue, PrecisionContext

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

#: scale bits beyond the tightest target's, so that the rounding count stays far below it
KERNEL_GUARD_BITS = 28

# (Q, (R_1, R_2, ...)): R_j = C_{j+1}/C_j, C_j = B_2j/(2j)!, rounded toward zero
# at scale 2^-Q; one table at the highest scale asked for so far, Q a multiple
# of 64, rebuilt when a caller needs more bits or orders (concurrent rebuilds
# only duplicate work)
_em_ratios: tuple = (0, ())


def _ratios(P: int, count: int) -> tuple:
    """(Q, R) with Q >= P and R[j-1] = C_{j+1}/C_j at scale 2^-Q for j = 1..count,
    each off by less than one unit."""
    global _em_ratios
    q, table = _em_ratios
    if q < P or len(table) < count:
        q = max(q, -(-P // 64) * 64)
        count = min(MAX_ORDER, max(count, 2 * len(table), 32))
        ratios = (bernoulli_even(2 * j + 2) / (bernoulli_even(2 * j) * (2 * j + 1) * (2 * j + 2))
                  for j in range(1, count + 1))
        table = tuple(tdiv(r.numerator << q, r.denominator) for r in ratios)
        _em_ratios = (q, table)
    return q, table


def em_tails(exponents, br: int, bi: int, P: int, limits):
    """[(re, im, err, bound, m)] for T_s(b) = sum_{n>=0} (b+n)^-s at
    b = (br + i bi) 2^-P, br > 0, one per s in exponents, or None at the floor:
    (re + i im) 2^-P is the Euler-Maclaurin sum of order m, err counts its
    rounding and bound its truncation, both in units of 2^-P (l1 norm).

    DLMF 2.10.1 at the base point b:
      T_s(b) = b^(1-s)/(s-1) + b^-s/2 + sum_{1<=j<m} v_j + R_m,
      v_j = C_j (s)_{2j-1} b^(1-s-2j),  C_j = B_2j/(2j)!,
      |R_m| <= 2|C_m| (s)_{2m} int_0^inf |b+x|^(-s-2m) dx <= 2 (|b|/Re b) |v_m|,
    because |b+x| lies above its tangent |b| + x Re b/|b| at 0.  The two head
    terms and v_1 take one division each, and v_(j+1) = v_j b^-2 z_j one
    truncating shift, z_j = (C_(j+1)/C_j)(s+2j-1)(s+2j) from the ratio table;
    each step adds the propagated error of all three factors and one rounding
    to the count.  m is the first order whose bound is at most limits[i] units;
    None if the bounds stop decreasing first (the floor, near e^(-2 pi |b|),
    is above it).
    """
    d1 = br * br + bi * bi
    root = isqrt(d1)
    twice_b = 2 * (root + (root * root < d1))  # 2|b| 2^P rounded up
    ec = 2 if bi else 1  # l1 units of one rounding of a pair
    b2r, b2i = br * br - bi * bi, 2 * br * bi
    w2r, w2i = cdiv(1, 0, b2r, b2i, 3 * P)  # b^-2
    lw = abs(w2r) + abs(w2i)
    q, ratios = _ratios(P, 1)
    out = []
    for s, limit in zip(exponents, limits):
        vr, vi = cpow(br, bi, s - 1)
        h0r, h0i = cdiv(1, 0, vr, vi, P * s, s - 1)  # b^(1-s)/(s-1)
        vr, vi = cmul(vr, vi, br, bi)
        h1r, h1i = cdiv(1, 0, vr, vi, P * (s + 1), 2)  # b^-s/2
        vr, vi = cmul(vr, vi, br, bi)
        tr, ti = cdiv(s, 0, vr, vi, P * (s + 2), 12)  # v_1 = (1/12) s b^(-1-s)
        accr, acci, acc_err = h0r + h1r, h0i + h1i, 2 * ec
        err, prev = ec, inf
        for j in range(1, MAX_ORDER + 1):
            mag = abs(tr) + abs(ti) + err  # |v_j| 2^P rounded up
            if twice_b * mag <= limit * br:  # the bound 2 (|b|/Re b) |v_j| fits
                out.append((accr, acci, acc_err, -(-twice_b * mag // br), j))
                break
            if mag >= prev:
                return None
            accr, acci, acc_err, prev = accr + tr, acci + ti, acc_err + err, mag
            if j > len(ratios):
                q, ratios = _ratios(P, j)
            k = (s + 2 * j - 1) * (s + 2 * j)
            z = ratios[j - 1] * k  # off by less than k units of 2^-q
            az, shift = abs(z), P + q
            # |v w z - v' w' z'| <= (|v'| + e_v)(|w'| + e_w)(|z'| + e_z) - |v'||w'||z'|
            err = -(-(mag * (ec * az + (lw + ec) * k) + err * lw * az) >> shift) + ec
            fr, fi = w2r * z, w2i * z
            xr, xi = tr * fr - ti * fi, tr * fi + ti * fr
            tr = xr >> shift if xr >= 0 else -(-xr >> shift)
            ti = xi >> shift if xi >= 0 else -(-xi >> shift)
        else:
            return None
    return out


def zeta_tail(s: int, N: int, target):
    """(P, value, err): sum_{n>N} n^-s is within err units of value 2^-P, err
    at most target 2^P plus the counted rounding, for the mpf target > 0.

    em_tails at the base point N+1, at the scale 2^-P, P = -mag(target) +
    KERNEL_GUARD_BITS (at least KERNEL_GUARD_BITS); while its floor is above
    target, head terms n^-s, each one truncating division, move the base
    point up, 16 at a time.  err is the truncation bound plus every counted
    rounding.
    """
    if s < 2:
        raise ValueError("zeta_tail expects s >= 2")
    P = max(KERNEL_GUARD_BITS, KERNEL_GUARD_BITS - target.context.mag(target))
    limit = units(target, P)
    head, a = 0, N + 1
    while (got := em_tails((s,), a << P, 0, P, (limit,))) is None:
        head += sum((1 << P) // n ** s for n in range(a, a + 16))
        a += 16
    (re, _, err, bound, _), = got
    # each head term errs by less than one unit
    return P, head + re, err + bound + a - N - 1


# -- even zeta values ----------------------------------------------------------


def zeta_even(m: int, ctx: PrecisionContext) -> BoundedValue:
    """sum_{n>=1} n^-2m with error radius <= the context tolerance.

    This is the whole tail beyond N = 0, summed by zeta_tail to half the
    tolerance so that its roundings fit in the other half.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"zeta_even expects an integer m >= 1, got {m!r}")
    P, value, err = zeta_tail(2 * m, 0, ctx.tolerance / 2)
    bv = to_ball(value, 0, err, P, ctx.mp)
    if not bv.radius <= ctx.tolerance:
        raise ToleranceUnreachableError(
            f"zeta_even(m={m}) achieved radius {ctx.mp.nstr(bv.radius, 5)} > tolerance")
    return bv


def coeff_a(d: int, ctx: PrecisionContext) -> BoundedValue:
    """Laurent coefficient a_d = 2(2d+1) * sum n^-(2d+2), radius <= tolerance."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"coeff_a expects an integer d >= 0, got {d!r}")
    factor = 2 * (2 * d + 1)
    P, value, err = zeta_tail(2 * d + 2, 0, ctx.tolerance / (4 * factor))
    return to_ball(factor * value, 0, factor * err, P, ctx.mp)
