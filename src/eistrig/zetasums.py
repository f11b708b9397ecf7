"""Rigorously bounded zeta tails and even zeta values.

Four layers, all exact or with explicit bounds:

* bernoulli_even(2j): exact Fractions via the integer-only tangent-number
  triangle (cached, grown on demand).
* em_tails(exponents, br, bi, P, limits): sum_{n>=0} (b+n)^-s for several s
  by Euler-Maclaurin at the base point b with the DLMF 2.10 remainder bound,
  in Python integers at scale 2^-P with every rounding counted (fixedpoint);
  the one way a tail is summed.  Its terms are one polynomial in x = b^-2
  with the real coefficients c_j = C_j (s)_(2j-1), C_j = B_2j/(2j)!, of a
  table per (s, Q) (_em_coeffs: one exact quotient of tangent numbers per
  entry, Q the multiple of 64 that the call's scale sets), summed by
  fixedpoint.series; the order m is chosen before summing (_em_order,
  memoised on |b| to 8 bits and the limit's exponent).  The lattice route
  calls it at b = N+1 +- u (real when bi = 0), and zeta_table at its integer
  base point.
* zeta_table(P, count, i): Z_i(2m) = sum_{n>=L} (L/n)^2m, L = 2^i, i <= 2,
  m = 1..count (Z_0 = zeta), for the Laurent routes of the lattice pass:
  one builder, one table per i and scale Q, the multiple of 64 that P sets
  (the last four scales of each i are held), grown by degree and shared by
  every exponent, so that a pass reads the table of its own scale alone.
  The first build at a scale sums one head n = L..a-1 and makes
  one multi-exponent em_tails call at a (_base_point: about 2 L (Q+8) ln 2 /
  2 pi, so that the call ends within MAX_ORDER orders on its first try) for
  every s whose tail L^s a^-s (1 + a/(s-1)) is above one unit, at the scale
  where L^s is a shift; below it that bound is the tail.  Later growth adds
  heads alone, each chain from s = 2, so a value and the err depend on (Q,
  i, m) alone, never on how the table grew or on other calls.
* zeta_fixed(m, P): zeta(2m) at scale 2^-P, read from the Z_0 table, the one
  source of every even zeta value: pi, pi^2 and (2 pi)^-1 of the trig
  evaluator, a0 = 2 zeta(2) of the ODE residuals, zeta_even and coeff_a.

zeta_even(m, ctx) is zeta(2m), checked against the context tolerance;
coeff_a(d, ctx), a_d = 2(2d+1) zeta(2d+2), is its integer ball times
2(2d+1); each is rounded once (fixedpoint.to_ball).
"""

from __future__ import annotations

import functools
import threading
from math import ceil, comb, gcd, isqrt, lgamma, log, log2, pi
from typing import TYPE_CHECKING

from .errors import ToleranceUnreachableError
from .fixedpoint import cpow, geometric, series, to_ball
from .precision import BoundedValue, PrecisionContext

if TYPE_CHECKING:
    from fractions import Fraction

# -- Bernoulli numbers --------------------------------------------------------

_TANGENT: list[int] = [0, 1]  # T_0..T_n as they get computed; T_0 unused
# column n of the Seidel triangle after each of its passes 1..n (pass 1 the
# initial value (n-1)!), from which column n+1 follows; both change only under
# _bern_lock, and a T once appended never changes
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


#: B_2j / 2j for the 512 j used last; lru_cache is thread-safe
@functools.lru_cache(maxsize=512)
def _bernoulli_over(j: int) -> tuple[int, int]:
    """(n, d) with B_2j / 2j = n / d in lowest terms, j >= 1, from
    B_2j = (-1)^(j+1) 2j T_j / (4^j (4^j - 1)); d is small (64 bits at j = 300)."""
    n, d = _tangents(j)[j], 4**j * (4**j - 1)
    g = gcd(n, d)
    return (n if j % 2 else -n) // g, d // g


def bernoulli_even(two_j: int) -> Fraction:
    """Exact B_{2j} from 2n*T_n / (4^n (4^n - 1)) with alternating sign."""
    from fractions import Fraction  # not at import: no evaluation reads one
    if two_j < 0 or two_j % 2:
        raise ValueError("bernoulli_even expects a nonnegative even index")
    if two_j == 0:
        return Fraction(1)
    n, d = _bernoulli_over(two_j // 2)
    return Fraction(two_j * n, d)


# -- Euler-Maclaurin tails -----------------------------------------------------

#: highest Euler-Maclaurin order tried at one base point
MAX_ORDER = 300

#: scale bits beyond the tightest target's, so that the rounding count stays far below it
KERNEL_GUARD_BITS = 28

# _em_table(s, Q) is the list [c_1, c_2, ...] at scale 2^-Q for the 256 (s, Q)
# used last, grown in place under _coeff_lock.  Readers take no lock: lru_cache
# is thread-safe (two concurrent misses may build two equal lists, each caller
# keeping its own), and entries are only appended, each atomically under the
# GIL, so an index below the length a reader saw is always there
_coeff_lock = threading.Lock()


@functools.lru_cache(maxsize=256)
def _em_table(s: int, Q: int) -> list:
    return []


def _em_coeffs(s: int, Q: int, count: int) -> list:
    """[c_1, ..., c_n], n >= count (at most MAX_ORDER), c_j = C_j (s)_(2j-1) at
    scale 2^-Q, C_j = B_2j/(2j)!, each one exact quotient of integers,
    truncated toward zero (within one unit):
      c_j = (B_2j / 2j) binom(s+2j-2, s-1),
    as (s)_(2j-1) / (2j)! = binom(s+2j-2, s-1) / 2j, with B_2j / 2j in lowest
    terms (_bernoulli_over), whose small denominator makes the division
    cheap.  The table grows 4 entries at a time at least."""
    table = _em_table(s, Q)
    if len(table) < count:
        with _coeff_lock:
            for j in range(len(table) + 1, min(MAX_ORDER, max(count, len(table) + 4)) + 1):
                n, d = _bernoulli_over(j)
                c = (abs(n) * comb(s + 2 * j - 2, s - 1) << Q) // d
                table.append(c if n > 0 else -c)
    return table


#: log2(2 pi), for the order estimate of _em_order
_LOG2_2PI = 2.651496129472319


#: the (m, G, D) of the 4096 (s, Q, bm, bx, e) used last; lru_cache is thread-safe
@functools.lru_cache(maxsize=4096)
def _em_order(s: int, Q: int, bm: int, bx: int, e: int):
    """(m, G, D) for the tails T_s(b) at every b with |b| >= B = bm 2^-bx, from
    the coefficients c_j of _em_coeffs(s, Q), |c_j| < mag_j = |c'_j| + 1 units.

    The ratios |c_(j+1)/c_j| = zeta(2j+2)/zeta(2j) (s+2j-1)(s+2j) / (2 pi)^2
    increase with j (log zeta is convex), so the bounds |c_j| B^(1-s-2j)
    fall up to the floor and rise after it.  m is the least order whose bound
    mag_m 2^-Q B^(1-s-2m) is at most 2^e, or the floor's order where none
    before it is (below MAX_ORDER): a float estimate (|B_2j|/(2j)! ~ 2/(2 pi)^2j) gives a
    start, and integer tests settle it, the last that |c_(m-1)| X < |c_(m-2)|
    with X = B^-2 >= |b^-2|, so that every bound up to m - 1 falls.  For the
    polynomial p(x) = sum_{j<m-1} c_(j+1) x^j of em_tails, G = geometric(X,
    m - 1) >= sum_{j<m-1} X^j weighs the table's truncations, and D bounds
    |p'| on the disc |x| <= X in units of 2^-Q: sum_{1<=j<m-1} j |c_(j+1)|
    X^(j-1) 2^Q <= mag_2 (m-1)(m-2)/2 = D, as |c_(j+1)| X^(j-1) <= |c_2|."""
    num, den = (1 << 2 * bx, bm * bm) if bx >= 0 else (1, bm * bm << -2 * bx)  # X = num/den
    lb = log2(bm) - bx  # log2 B

    def estimate(j):  # about log2 |c_j| B^(1-s-2j)
        return 1 + (lgamma(s + 2 * j - 1) - lgamma(s)) / log(2) - 2 * j * _LOG2_2PI - (s - 1 + 2 * j) * lb

    def fits(j):  # mag_j <= bm^n 2^E, n = s - 1 + 2j, E = e + Q - bx n
        n = s - 1 + 2 * j
        mag, pw, E = abs(c[j - 1]) + 1, bm**n, e + Q - bx * n
        return mag <= pw << E if E >= 0 else mag << -E <= pw

    def falls(j):  # |c_(j+1)| X < |c_j|
        return (abs(c[j]) + 1) * num < (abs(c[j - 1]) - 1) * den

    lo, hi = 1, max(1, min(MAX_ORDER - 1, int(pi * 2.0**lb - s / 2) + 1))  # about the floor
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if estimate(mid) <= e else (mid + 1, hi)
    m, c = lo, _em_coeffs(s, Q, lo + 1)
    while m < MAX_ORDER - 1 and not fits(m) and falls(m):
        m += 1
        c = _em_coeffs(s, Q, m + 1)
    while m > 1 and fits(m - 1):
        m -= 1
    while m > 2 and not falls(m - 2):
        m -= 1
    return m, geometric(num, den, m - 1), (abs(c[1]) + 1) * (m - 1) * (m - 2) // 2 if m > 2 else 0


def em_tails(exponents, br: int, bi: int, P: int, limits):
    """[(re, im, err, bound, m)] for T_s(b) = sum_{n>=0} (b+n)^-s at
    b = (br + i bi) 2^-P, br > 0, one per s in exponents, or None at the floor:
    (re + i im) 2^-P is the Euler-Maclaurin sum of order m, err counts its
    rounding and bound its truncation, both in units of 2^-P (l1 norm).

    DLMF 2.10.1 at the base point b:
      T_s(b) = b^(1-s)/(s-1) + b^-s/2 + sum_{1<=j<m} v_j + R_m,
      v_j = c_j b^(1-s-2j),  c_j = C_j (s)_{2j-1},  C_j = B_2j/(2j)!,
      |R_m| <= 2|C_m| (s)_{2m} int_0^inf |b+x|^(-s-2m) dx <= 2 (|b|/Re b) |c_m| |b|^(1-s-2m),
    because |b+x| lies above its tangent |b| + x Re b/|b| at 0.
    m is decided before summing (_em_order, memoised on |b| >= bm 2^-bx, bm
    its 8 leading bits, and on the exponent e of the limit over 2 |b|/Re b),
    and the bound is then computed at b itself from |b| to 16 bits: None if
    it is above limits[i] (the floor, near e^(-2 pi |b|), is above it).
    The terms form one polynomial in x = b^-2 with the real coefficients of
    the table _em_coeffs(s, Q), each within one unit of 2^-Q, Q the multiple
    of 64 that P sets:
      sum_{1<=j<m} v_j = b^(-1-s) p(x),  p(x) = sum_{j<m-1} c_(j+1) x^j,
    summed by fixedpoint.series at 2^-Q.  Its count, in units of 2^-Q: the
    kernel's own err; ec G for the table (each entry's error reaches S times
    |x|^j, sqrt 2 more in l1); and for a complex b, whose x is b^-2 truncated
    once per component at 2^-P (|x - x'| < sqrt 2 units, |x'| <= |x|),
    ec D 2^-P, since |p(x) - p(x')| <= |x - x'| max |p'| on the disc |x| <= X.
    For a complex b the heads and the factor b^(-1-s) come from the exact
    powers of w = 1/b truncated once at 2^-P (off by less than sqrt 2 units):
    with M >= |1/b| in units, w^j errs by less than ec j M^(j-1) units of
    2^-jP (as the pairs of lattice._explicit_sums), charged divided by what
    the power is divided by; the two heads are summed exactly and truncated
    once, and w^(s+1) S once, its count
      ec (s+1) M^s (|S| + E) + |w^(s+1)| E  units of 2^-(sP+Q), plus ec,
    E the count of S.  For a real b = a 2^t (zeta_table's integer base, and
    the lattice route's N+1 +- u at a real u) the heads are exact quotients of
    powers of the integer a, 2^t folded into the shifts, one truncating
    division each, x = 4^-t / a^2 is exact (Horner by division) and
    b^(-1-s) S one more division.
    """
    d1 = br * br + bi * bi
    root = isqrt(d1)  # |b| 2^P >= root
    twice_b = 2 * (root + (root * root < d1))  # 2|b| 2^P rounded up
    ec = 2 if bi else 1  # l1 units of one rounding of a pair
    Q = -(-P // 64) * 64  # the coefficients' scale
    cs = root.bit_length() - 8
    bm, bx = (root >> cs if cs >= 0 else root << -cs), P - cs  # |b| >= bm 2^-bx
    rs = max(0, root.bit_length() - 16)
    rb = root >> rs  # |b| >= rb 2^(rs-P)
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
    out = []
    for s, limit in zip(exponents, limits):
        # the bound 2 (|b|/Re b) |c_m| |b|^(1-s-2m) 2^P fits the limit if
        # |c_m| |b|^(1-s-2m) <= 2^e <= limit br / (twice_b 2^P)
        room = limit * br // twice_b
        e = (room.bit_length() - 1 if room else -(twice_b // max(1, limit * br)).bit_length()) - P
        m, G, D = _em_order(s, Q, bm, bx, e)
        coeffs = _em_coeffs(s, Q, m)
        # the bound at b itself, from |b| >= rb 2^(rs-P); above the limit at the floor
        n = s - 1 + 2 * m
        x, y, k = twice_b * (abs(coeffs[m - 1]) + 1), br * rb**n, (P - rs) * n + P - Q
        bound = -(-(x << k) // y) if k >= 0 else -(-x // (y << -k))
        if bound > limit:
            return None
        if bi:
            # w^(s-1), w^s and w^(s+1) exact at 2^-jP; the two heads
            # b^(1-s)/(s-1) + b^-s/2 = (2 w^(s-1) 2^P + (s-1) w^s) / (2 (s-1) 2^((s-1)P))
            # summed exactly and truncated once
            pr, pi = cpow(wr, wi, s - 1)
            qr, qi = pr * wr - pi * wi, pr * wi + pi * wr
            sh = (s - 1) * P
            x, y, d = (2 * pr << P) + (s - 1) * qr, (2 * pi << P) + (s - 1) * qi, 2 * (s - 1) << sh
            accr = x // d if x >= 0 else -(-x // d)
            acci = y // d if y >= 0 else -(-y // d)
            Ms = M ** (s - 2)
            acc_err = -(-ec * ((2 * Ms << P) + s * Ms * M) >> sh + 1) + ec
        else:
            v = a ** (s - 1)
            accr = ((1 << P * s - t * (s - 1)) // (v * (s - 1))  # b^(1-s)/(s-1)
                    + (1 << P * (s + 1) - t * s) // (2 * v * a))  # + b^-s/2
            acci, acc_err = 0, 2 * ec
        tr = ti = 0
        if m > 1:
            if bi:  # w^(s+1) S at 2^-((s+1)P + Q), truncated to 2^-P
                Sr, Si, E = series(coeffs, m - 1, w2r, w2i, P)
                E += ec * G - (-ec * D >> P)
                Wr, Wi = qr * wr - qi * wi, qr * wi + qi * wr
                x, y, d = Wr * Sr - Wi * Si, Wr * Si + Wi * Sr, s * P + Q
                tr = x >> d if x >= 0 else -(-x >> d)
                ti = y >> d if y >= 0 else -(-y >> d)
                acc_err += -(-(ec * (s + 1) * Ms * M * M * (abs(Sr) + abs(Si) + E)
                               + (abs(Wr) + abs(Wi)) * E) >> d) + ec
            else:  # b^(-1-s) S = S 2^((P-t)(s+1)) / a^(s+1), and 2^(P-Q)
                S, _, E = series(coeffs, m - 1, 1 << 2 * (P - t), 0, 0, a * a)
                E += G
                u, d = (P - t) * (s + 1), v * a * a << Q - P
                tr = (S << u) // d if S >= 0 else -((-S << u) // d)
                acc_err += -(-(E << u) // d) + 1
        out.append((accr + tr, acci + ti, acc_err, bound, m))
    return out


# _zeta_tables[i, Q] = (Q, values, err): values[m-1] = Z_i(2m) at scale 2^-Q for
# m = 1..len(values), each within err units; one table per i and scale Q (a
# multiple of 64), grown by degree, for the last _SCALES_HELD scales of each i.
# Readers take no lock: a get is atomic under the GIL and a stored tuple never
# changes.  Under _table_lock a table replaces only one of its own (i, Q) with
# fewer values, and storing a new scale drops the oldest of that i beyond the cap
_zeta_tables: dict = {}
_table_lock = threading.Lock()
_SCALES_HELD = 4

#: ln 2 / 2 pi: a0 = (Q + 8) _LN2_2PI + 2 puts the Euler-Maclaurin floor
#: e^(-2 pi a0) below 2^-(Q+8)
_LN2_2PI = 0.11031780007


def zeta_table(P: int, count: int, i: int) -> tuple:
    """(Q, values, err), Q the multiple of 64 that P sets, values[m-1] = Z_i(2m)
    2^Q within err units for m = 1..count at least, Z_i(s) = sum_{n>=L}
    (L/n)^s, L = 2^i (Z_0 = zeta): the coefficients of the Laurent routes.
    A table depends on (i, Q) alone, never on what other calls asked for."""
    q = -(-P // 64) * 64
    table = _zeta_tables.get((i, q))
    if table is None or len(table[1]) < count:
        values, err = table[1:] if table else ((), 0)
        more, e = _zeta_values(q, len(values) + 1, count, i)
        table = (q, values + more, max(err, e))
        with _table_lock:
            held = _zeta_tables.get((i, q))
            if held is None:
                scales = [key for key in _zeta_tables if key[0] == i]
                for key in scales[:max(0, len(scales) + 1 - _SCALES_HELD)]:
                    del _zeta_tables[key]
            if held is None or len(held[1]) < len(table[1]):
                _zeta_tables[i, q] = table
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


def zeta_fixed(m: int, P: int) -> tuple:
    """(value, err): zeta(2m) within err units of value 2^-P, m >= 1, P >= 3.

    Read from zeta_table(P, m, 0) at Q, the multiple of 64 that P sets, and
    truncated once to 2^-P: err = ceil(err_Q / 2^(Q-P)) + 1.  For 2m > P the
    table is not grown: zeta(2m) - 1 = sum_{n>=2} n^-2m <= 2^-2m +
    int_2^inf t^-2m dt = 2^-2m (1 + 2/(2m-1)), at most 2^-(P+1) (1 + 2/P),
    below one unit of 2^-P (0.54 for P >= 28), so (2^P, 1) holds it."""
    if 2 * m > P:
        return 1 << P, 1
    q, values, err = zeta_table(P, m, 0)
    return values[m - 1] >> q - P, -(-err >> q - P) + 1


def zeta_even(m: int, ctx: PrecisionContext) -> BoundedValue:
    """sum_{n>=1} n^-2m with error radius <= the context tolerance.

    zeta_fixed at KERNEL_GUARD_BITS below 2^e <= tolerance, e =
    ctx.tolerance_exponent, so that its count and the rounding fit in it.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"zeta_even expects an integer m >= 1, got {m!r}")
    P = max(KERNEL_GUARD_BITS, KERNEL_GUARD_BITS - ctx.tolerance_exponent)
    value, err = zeta_fixed(m, P)
    bv = to_ball(value, 0, err, P, ctx.precision)
    return ctx.certified(bv, lambda nstr: f"zeta_even(m={m}) achieved radius {nstr(bv.rad, 5)} > tolerance")


def coeff_a(d: int, ctx: PrecisionContext) -> BoundedValue:
    """Laurent coefficient a_d = 2(2d+1) * sum n^-(2d+2), radius <= tolerance."""
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"coeff_a expects an integer d >= 0, got {d!r}")
    factor = 2 * (2 * d + 1)
    P = max(KERNEL_GUARD_BITS, KERNEL_GUARD_BITS + 2 + factor.bit_length() - ctx.tolerance_exponent)
    value, err = zeta_fixed(d + 1, P)
    return to_ball(factor * value, 0, factor * err, P, ctx.precision)
