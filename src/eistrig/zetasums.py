"""Rigorously bounded zeta tails and even zeta values.

Three layers, all exact or with explicit bounds:

* bernoulli_even(2j): exact Fractions via the integer-only tangent-number
  triangle (cached, grown on demand).
* em_tails(exponents, br, bi, P, limits): sum_{n>=0} (b+n)^-s for several s
  by Euler-Maclaurin at the base point b with the DLMF 2.10 remainder bound,
  in Python integers at scale 2^-P with every rounding counted (fixedpoint);
  the one way a tail is summed.  Its ratio table C_(j+1)/C_j, one integer
  division of tangent numbers each, sits at a multiple of 64 bits; each call
  reads it truncated to the multiple of 64 that its own scale sets.  The
  lattice route calls it at b = N+1 +- u, and zeta_tail(s, N, target) at
  b = N+1, moving the base point up with head terms summed at the same
  scale, one counted truncation each.
* zeta_table(P, count, i): Z_i(2m) = sum_{n>=L} (L/n)^2m, L = 2^i, i <= 2,
  m = 1..count (Z_0 = zeta), for the Laurent routes of the lattice pass:
  one builder, one table per i beside the ratio table, at the highest scale
  Q asked for so far (a multiple of 64), grown by degree and shared by every
  exponent.  The first build at a scale sums one head n = L..a-1 and makes
  one multi-exponent em_tails call at a (_base_point: about 2 L (Q+8) ln 2 /
  2 pi, so that the call ends within MAX_ORDER orders on its first try) for
  every s whose tail L^s a^-s (1 + a/(s-1)) is above one unit, at the scale
  where L^s is a shift; below it that bound is the tail.  Later growth adds
  heads alone, each chain from s = 2, so a value and the err depend on (Q,
  i, m) alone, never on how the table grew.  It never calls zeta_tail once
  per m, whose base point would climb 16 terms at a time.

zeta_even(m, ctx) is the tail beyond N = 0, i.e. zeta(2m), checked against
the context tolerance; coeff_a(d, ctx), a_d = 2(2d+1) zeta(2d+2), is its
integer ball times 2(2d+1); each is rounded once (fixedpoint.to_ball).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import ceil, inf, isqrt, lgamma, log, pi

from .errors import ToleranceUnreachableError
from .fixedpoint import cpow, tdiv, to_ball, units
from .precision import BoundedValue, PrecisionContext

# -- Bernoulli numbers --------------------------------------------------------

_TANGENT: list[int] = [0, 1]  # T_0..T_n as they get computed; T_0 unused
# column n of the Seidel triangle after each of its passes 1..n (pass 1 the
# initial value (n-1)!), from which column n+1 follows
_COLUMN: list[int] = [1]
_bern_lock = threading.Lock()


def _tangents(upto: int) -> list[int]:
    """The tangent numbers T_0..T_n, n >= upto, extended in place one column
    of the Seidel triangle at a time (integers): after pass k, column j holds
    (j-k) c_(j-1) + (j-k+2) c_j, so each new T costs one pass over the last
    column and none is computed twice."""
    global _COLUMN
    with _bern_lock:
        col = _COLUMN
        for j in range(len(_TANGENT), upto + 1):
            new = [(j - 1) * col[0]]
            for k in range(2, j + 1):
                new.append((j - k) * (col[k - 1] if k < j else 0) + (j - k + 2) * new[-1])
            col = new
            _TANGENT.append(col[-1])
        _COLUMN = col
        return _TANGENT


def bernoulli_even(two_j: int) -> Fraction:
    """Exact B_{2j} from 2n*T_n / (4^n (4^n - 1)) with alternating sign."""
    if two_j < 0 or two_j % 2:
        raise ValueError("bernoulli_even expects a nonnegative even index")
    if two_j == 0:
        return Fraction(1)
    j = two_j // 2
    val = Fraction(2 * j * _tangents(j)[j], 4**j * (4**j - 1))
    return val if j % 2 else -val


# -- Euler-Maclaurin tails -----------------------------------------------------

#: highest Euler-Maclaurin order tried at one base point
MAX_ORDER = 300

#: scale bits beyond the tightest target's, so that the rounding count stays far below it
KERNEL_GUARD_BITS = 28

# (Q, [R_1, R_2, ...]): R_j = C_{j+1}/C_j, C_j = B_2j/(2j)!, rounded toward
# zero at scale 2^-Q; one table at the highest scale asked for so far, Q a
# multiple of 64, replaced when a caller needs more bits and extended in place,
# under _ratio_lock, when it needs more orders
_em_ratios: tuple = (0, [])
_ratio_lock = threading.Lock()


def _ratios(P: int, count: int) -> tuple:
    """(Q, R) with Q >= P and R[j-1] = C_{j+1}/C_j at scale 2^-Q for j = 1..count,
    each off by less than one unit.  A scale rise computes the table anew at
    the new scale with its count; a longer table is extended in place to
    count (32 at least), so no ratio is computed twice at one scale.  From
    B_2j = (-1)^(j+1) 2j T_j / (4^j (4^j - 1)),
      C_{j+1}/C_j = -T_{j+1} (4^j - 1) / (8j (2j+1) T_j (4^(j+1) - 1)),
    one integer division per ratio."""
    global _em_ratios
    q, table = _em_ratios
    if q < P or len(table) < count:
        with _ratio_lock:
            q, table = _em_ratios
            fresh = q < P
            if fresh:
                count, q, table = max(count, len(table)), -(-P // 64) * 64, []
            if len(table) < count:
                count = min(MAX_ORDER, max(count, 32))
                T = _tangents(count + 1)
                table.extend(tdiv(-T[j + 1] * (4**j - 1) << q,
                                  8 * j * (2 * j + 1) * T[j] * (4**(j + 1) - 1))
                             for j in range(len(table) + 1, count + 1))
            if fresh:
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
    because |b+x| lies above its tangent |b| + x Re b/|b| at 0.  For a
    complex b the two head terms and v_1 come from the exact powers of
    w = 1/b truncated once at 2^-P (off by less than sqrt 2 units): with
    M >= |1/b| in units, w^j errs by less than ec j M^(j-1) units of 2^-jP
    (as the pairs of lattice._explicit_sums), charged divided by what the
    power is divided by; the two heads are summed exactly and truncated
    once, and v_1 once.  For a real b = a 2^t they are exact quotients of
    powers of the integer a, 2^t folded into the shifts, one truncating
    division each.
    v_(j+1) = v_j b^-2 z_j takes one truncating shift, z_j =
    (C_(j+1)/C_j)(s+2j-1)(s+2j) from the ratio table read at 2^-Q, Q the
    multiple of 64 that P sets (truncating a table at a higher scale gives
    the same integers, so no result depends on the table's scale); each
    step adds the propagated error of all three factors and one rounding
    to the count.  m is the first order whose bound is at most limits[i] units;
    None if the bounds stop decreasing first (the floor, near e^(-2 pi |b|),
    is above it).
    """
    d1 = br * br + bi * bi
    root = isqrt(d1)
    twice_b = 2 * (root + (root * root < d1))  # 2|b| 2^P rounded up
    ec = 2 if bi else 1  # l1 units of one rounding of a pair
    if bi:
        # 1/b = conj(b) 2^(2P) / |b|^2, within sqrt 2 units, and b^-2 =
        # conj(b^2) 2^(3P) / |b|^4, each component truncated once (br > 0)
        y, d2 = abs(bi) << 2 * P, d1 * d1
        wr, wi = (br << 2 * P) // d1, -(y // d1) if bi > 0 else y // d1
        x, y = (br * br - bi * bi) << 3 * P, (2 * br * bi) << 3 * P
        w2r = x // d2 if x >= 0 else -(-x // d2)
        w2i = -(y // d2) if y >= 0 else -y // d2
        M = -(-(1 << 2 * P) // root)  # >= |1/b| in units
    else:  # b = a 2^t: the powers of the integer a, 2^t folded into the shifts
        t = min(P, (br & -br).bit_length() - 1)
        a = br >> t
        w2r, w2i = (1 << 3 * P - 2 * t) // (a * a), 0
    lw = abs(w2r) + abs(w2i)
    Q = -(-P // 64) * 64  # the ratios' scale, whatever scale the table holds
    q, ratios = _ratios(P, 1)
    shift, lwe = P + Q, lw + ec
    out = []
    for s, limit in zip(exponents, limits):
        if bi:
            # w^(s-1), w^s and w^(s+1) exact at 2^-jP; the two heads
            # b^(1-s)/(s-1) + b^-s/2 = (2 w^(s-1) 2^P + (s-1) w^s) / (2 (s-1) 2^((s-1)P))
            # summed exactly and truncated once, v_1 = s w^(s+1) / 12 once
            pr, pi = cpow(wr, wi, s - 1)
            qr, qi = pr * wr - pi * wi, pr * wi + pi * wr
            sh = (s - 1) * P
            x, y, d = (2 * pr << P) + (s - 1) * qr, (2 * pi << P) + (s - 1) * qi, 2 * (s - 1) << sh
            accr = x // d if x >= 0 else -(-x // d)
            acci = y // d if y >= 0 else -(-y // d)
            x, y, d = s * (qr * wr - qi * wi), s * (qr * wi + qi * wr), 12 << sh + P
            tr = x // d if x >= 0 else -(-x // d)
            ti = y // d if y >= 0 else -(-y // d)
            Ms = M ** (s - 2)
            acc_err = -(-ec * ((2 * Ms << P) + s * Ms * M) >> sh + 1) + ec
            err = -(-s * (s + 1) * ec * Ms * M * M // (12 << sh + P)) + ec
        else:
            v = a ** (s - 1)
            accr = ((1 << P * s - t * (s - 1)) // (v * (s - 1))  # b^(1-s)/(s-1)
                    + (1 << P * (s + 1) - t * s) // (2 * v * a))  # + b^-s/2
            tr = (s << P * (s + 2) - t * (s + 1)) // (12 * v * a * a)  # v_1 = (1/12) s b^(-1-s)
            acci = ti = 0
            acc_err, err = 2 * ec, ec
        prev, fits, nr = inf, limit * br, len(ratios)
        d, c = q - Q, s + 2  # k = (s + 2j - 1)(s + 2j) = (c - 1) c
        for j in range(1, MAX_ORDER + 1):
            mag = abs(tr) + abs(ti) + err  # |v_j| 2^P rounded up
            if twice_b * mag <= fits:  # the bound 2 (|b|/Re b) |v_j| fits
                out.append((accr, acci, acc_err, -(-twice_b * mag // br), j))
                break
            if mag >= prev:
                return None
            accr, acci, acc_err, prev = accr + tr, acci + ti, acc_err + err, mag
            if j > nr:
                q, ratios = _ratios(P, j)
                d, nr = q - Q, len(ratios)
            k = (c - 1) * c
            c += 2
            # the ratios are negative: -z >= 0, off by less than k units of 2^-Q
            az = (-ratios[j - 1] >> d) * k
            # |v w z - v' w' z'| <= (|v'| + e_v)(|w'| + e_w)(|z'| + e_z) - |v'||w'||z'|
            err = -(-(mag * (ec * az + lwe * k) + err * lw * az) >> shift) + ec
            fr, fi = w2r * az, w2i * az
            xr, xi = ti * fi - tr * fr, -tr * fi - ti * fr
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


# _zeta_tables[i] = (Q, values, err): values[m-1] = Z_i(2m) at scale 2^-Q for
# m = 1..len(values), each within err units; per i one table at the highest
# scale asked for so far, Q a multiple of 64, grown by degree and rebuilt, with
# its count, when a caller needs more bits.  Under _table_lock, a table replaces
# only one of lower scale or, at its scale, fewer values
_zeta_tables: list = [(0, (), 0)] * 3
_table_lock = threading.Lock()

#: ln 2 / 2 pi: a0 = (Q + 8) _LN2_2PI + 2 puts the Euler-Maclaurin floor
#: e^(-2 pi a0) below 2^-(Q+8)
_LN2_2PI = 0.11031780007


def zeta_table(P: int, count: int, i: int) -> tuple:
    """(Q, values, err) with Q >= P and values[m-1] = Z_i(2m) 2^Q within err
    units for m = 1..count at least, Z_i(s) = sum_{n>=L} (L/n)^s, L = 2^i
    (Z_0 = zeta): the coefficients of the Laurent routes."""
    q, values, err = table = _zeta_tables[i]
    if q < P or len(values) < count:
        if q < P:
            count, q, values, err = max(count, len(values)), -(-P // 64) * 64, (), 0
        more, e = _zeta_values(q, len(values) + 1, count, i)
        table = (q, values + more, max(err, e))
        with _table_lock:
            held = _zeta_tables[i]
            if (held[0], len(held[1])) < (q, len(table[1])):
                _zeta_tables[i] = table
    return table


def _base_point(q: int, i: int) -> int:
    """a for the Z_i table at scale 2^-q: 2^i times twice the a0 whose floor
    e^(-2 pi a0) is below 2^-(q+8), where em_tails reaches 2^-(q+8) in about
    0.6 a orders; and far enough that the s = 2 term of order J = MAX_ORDER -
    40, about (2J)! / (2 pi a)^(2J), is below 2^-(q+2i+8) (the larger a above
    850 bits or so): em_tails then ends on its first call."""
    J = MAX_ORDER - 40
    return max(2 * int((q + 8) * _LN2_2PI) + 4 << i,
               ceil(2 ** ((lgamma(2 * J + 1) / log(2) + q + 2 * i + 8) / (2 * J)) / (2 * pi)))


def _zeta_values(q: int, first: int, last: int, i: int) -> tuple:
    """(values, err): Z_i(s) at scale 2^-q for s = 2 first..2 last, each within
    err units, from one head n = L..a-1 and one em_tails call at the base point
    a = _base_point(q, i) for the s whose tail L^s a^-s (1 + a/(s-1)) is above
    one unit; below it that bound is the whole tail.  Every value and err
    depend on (q, i, s) alone, never on how the table grew: the first batch
    (first = 1) runs at least to the last such s, so later batches are heads
    alone, and every head chain starts at s = 2.

    The head term n = L is 1.  For n > L the first term (L/n)^2 takes one
    truncating division and each next (L/n)^(s+2) one more, of the last by
    (n/L)^2; an error e becomes at most e (L/n)^2 + 1, below 1/(1 - (4/5)^2) <
    3 for L <= 4.  The tails are summed at the scale 2^-(q + i s_max), s_max
    the largest such s, where L^s T_s(a) is a shift; each to 64 units of
    2^-q, one more truncation."""
    L, a = 1 << i, _base_point(q, i)
    far = []  # in the first batch: the s whose tail bound is above one unit
    if first == 1:
        s = 2
        while -(-((s - 1 + a) << q + s * i) // ((s - 1) * a**s)) > 1:  # it decreases in s
            far.append(s)
            s += 2
        last = max(last, len(far))
    sums = [1 << q] * last  # Z_i(2m), m = 1..last
    for n in range(L + 1, a):
        n2 = n * n
        t = (1 << q + 2 * i) // n2
        for m in range(last):
            if not t:
                break
            sums[m] += t
            t = (t << 2 * i) // n2
    top = far[-1] * i if far else 0
    got = em_tails(far, a << q + top, 0, q + top, [64 << top - s * i for s in far]) if far else []
    if got is None:  # not reached: _base_point leaves em_tails room
        raise ToleranceUnreachableError(f"the Z_{i} table at 2^-{q} met the Euler-Maclaurin floor")
    err, head = 1, 3 * (a - L - 1)
    for s, (re, _, e, bound, _) in zip(far, got):
        drop = top - s * i
        sums[s // 2 - 1] += re >> drop
        err = max(err, -(-(e + bound) >> drop) + 1)
    return tuple(sums[first - 1:]), err + head


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
