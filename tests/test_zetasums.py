"""Accelerated even-zeta values, tail sums, and Bernoulli numbers.

Frozen decimal literals were produced once by an independent implementation
(45+ significant digits) and are pinned here; the code under test never sees
them.  Tail-bound validity is checked against brute-force partial sums.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from eistrig import PrecisionContext, coeff_a, zeta_even
from eistrig.precision import mp_context, to_mp
from eistrig.sympoly import SymbolPoly
from eistrig.zetasums import KERNEL_GUARD_BITS, _bernoulli_over, em_tails
from test_properties import mp_bits, mp_fixed

ZETA2 = "1.6449340668482264364724151666460251892189499"
ZETA4 = "1.08232323371113819151600369654116790277475095"
ZETA6 = "1.01734306198444913971451792979092052790181749"
ZETA40 = "1.00000000000090949478402638892825331183869491"
A0 = "3.2898681336964528729448303332920503784378998"
A1 = "6.49393940226682914909602217924700741664850571"
A2 = "10.1734306198444913971451792979092052790181749"

# Bernoulli numbers B_2..B_12, from any standard table
BERNOULLI = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730)}


def bernoulli_even(two_j: int) -> Fraction:
    """Exact B_2j, j >= 0, from the tangent numbers behind the coefficient
    tables: 2j T_j / (4^j (4^j - 1)) with alternating sign."""
    if two_j == 0:
        return Fraction(1)
    n, d = _bernoulli_over(two_j // 2)
    return Fraction(two_j * n, d)


def check_against(bv, literal, ctx, slack="1e-40"):
    ref = ctx.refined(ctx.mp.mpf("1e-44"))
    err = abs(ref.mp.mpf(bv.value) - ref.mp.mpf(literal))
    assert err <= ref.mp.mpf(bv.radius) + ref.mp.mpf(slack), f"error {err} exceeds radius {bv.radius}"


def test_bernoulli_numbers_match_the_table():
    for two_j, value in BERNOULLI.items():
        assert bernoulli_even(two_j) == value


def test_the_tables_grow_in_place_and_match_bernoulli():
    # a longer coefficient table extends the one in use: the same list, its
    # earlier entries untouched, each c_j = B_2j/(2j)! (s)_(2j-1) within one
    # unit of the exact quotient from an independent Bernoulli table, at a
    # scale below 2j and above it; the tangent numbers extend one column at a time
    from math import factorial
    from eistrig import zetasums
    zetasums._em_table.cache_clear()
    bern = [Fraction(*mpmath.bernfrac(2 * j)) for j in range(72)]  # an independent table
    for s, Q in ((2, 128), (3, 64), (4, 1088), (17, 192)):
        table = zetasums._em_coeffs(s, Q, 40)
        head = list(table)
        assert zetasums._em_coeffs(s, Q, 70) is table and table[:len(head)] == head
        assert len(table) >= 70
        for j in range(1, 71):
            exact = bern[j] / factorial(2 * j) * math.prod(range(s, s + 2 * j - 1))
            assert abs(table[j - 1] - exact * 2 ** Q) < 1
    T = zetasums._tangents(71)
    assert all(T[j] == abs(bern[j]) * 4**j * (4**j - 1) / (2 * j) for j in range(1, 72))


def test_the_coefficient_tables_reach_the_order_cap():
    # the strip decay's y = 100 pass needs orders far beyond 80; for s = 2,
    # c_j = B_2j (2)_(2j-1) / (2j)! = B_2j
    from eistrig import zetasums
    table = zetasums._em_coeffs(2, 1088, zetasums.MAX_ORDER)
    assert len(table) == zetasums.MAX_ORDER
    assert abs(table[-1] - Fraction(*mpmath.bernfrac(2 * zetasums.MAX_ORDER)) * 2**1088) < 1


@pytest.mark.parametrize("s", [2, 3, 4, 9])
@pytest.mark.parametrize("bm, bx, e", [(192, 4, -104), (131, 2, -70), (255, 7, -40), (200, -4, -300),
                                       (150, 6, -20), (150, 6, -60), (129, 3, -160)])
def test_the_order_cell_bounds_its_counts_and_its_remainder(s, bm, bx, e):
    # at every b with |b| >= B = bm 2^-bx: the order m meets 2^e unless the
    # bounds stopped decreasing first (then m is the least of them; the last
    # two cases reach that floor), and G and D bound the exact sums they
    # stand for at X = B^-2
    from eistrig import zetasums
    Q = 128
    m, G, D = zetasums._em_order(s, Q, bm, bx, e)
    B = Fraction(bm) / Fraction(2) ** bx
    X = 1 / B ** 2
    c = [bernoulli_even(2 * j) / math.factorial(2 * j) * math.prod(range(s, s + 2 * j - 1))
         for j in range(1, m + 2)]  # c_1..c_(m+1), exact
    bound = [abs(cj) * B ** (1 - s - 2 * j) for j, cj in enumerate(c, start=1)]
    if bound[m - 1] > Fraction(2) ** e:
        assert m == zetasums.MAX_ORDER or bound[m] >= bound[m - 1] * (1 - Fraction(1, 1 << 40))
    else:
        assert all(b > Fraction(2) ** e * (1 - Fraction(1, 1 << 40)) for b in bound[:m - 1])
    assert G >= sum(X ** j for j in range(m - 1))
    assert D >= sum(j * abs(c[j]) * X ** (j - 1) for j in range(1, m - 1)) * 2 ** Q


def test_a_tail_at_a_base_beyond_two_to_the_1024_closes_at_order_one():
    # |b| ~ 2^1100, whose 2^log2|b| overflows a float: T_2(b) ~ 1/b lies far
    # below a unit of 2^-128, and the first order meets the limit
    (re, im, err, bound, m), = em_tails((2,), 1 << 128, 1 << 1228, 128, [1 << 88])
    assert m == 1 and bound <= 1 << 88 and abs(re) + abs(im) <= err + bound


def test_zeta_even_matches_frozen_values(ctx):
    for m, literal in ((1, ZETA2), (2, ZETA4), (3, ZETA6), (20, ZETA40)):
        bv = zeta_even(m, ctx)
        assert bv.radius <= ctx.tolerance
        check_against(bv, literal, ctx)


def test_zeta_even_at_tight_tolerance():
    tight = PrecisionContext(192, "1e-40")
    bv = zeta_even(1, tight)
    assert bv.radius <= tight.tolerance
    check_against(bv, ZETA2, tight, slack="1e-43")


@pytest.mark.parametrize("precision, tolerance",
                         [(128, "1e-12"), (192, "1e-30"), (256, "1e-60"), (400, "1e-100")])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
def test_zeta_even_within_radius_of_mpmath_zeta(m, precision, tolerance):
    ctx = PrecisionContext(precision, tolerance)
    bv = zeta_even(m, ctx)
    assert bv.radius <= ctx.tolerance
    with mpmath.workprec(precision + 64):
        err = abs(mpmath.mpf(bv.value) - mpmath.zeta(2 * m))
        assert err <= mpmath.mpf(bv.radius)


def test_coeff_a_matches_frozen_values(ctx):
    for d, literal in ((0, A0), (1, A1), (2, A2)):
        bv = coeff_a(d, ctx)
        assert bv.radius <= ctx.tolerance
        check_against(bv, literal, ctx)


def test_zeta_even_rejects_bad_arguments(ctx):
    with pytest.raises(ValueError):
        zeta_even(0, ctx)
    with pytest.raises(ValueError):
        zeta_even(-3, ctx)


def test_two_zeta_identity_margin(ctx):
    # 2 zeta(2)^2 = 5 zeta(4), evaluated through the package's own balls
    sub = ctx.refined(ctx.mp.mpf("1e-21"))
    z2 = zeta_even(1, sub)
    z4 = zeta_even(2, sub)
    a0, a1 = SymbolPoly.symbol(0), SymbolPoly.symbol(1)
    combo = (a0 * a0 * 2 - a1 * 5).substitute([z2, z4], sub)
    assert combo.consistent_with_zero()
    assert abs(combo.value) <= sub.mp.mpf("1e-20")


def shifted_tail(k, a, c, mp, target):
    """(value, bound) for the shifted tail T_k(c) = sum_{n>=a} (n+c)^-k from
    em_tails, or None at the floor: the sum runs at the scale 2^-P that makes c exact and leaves
    KERNEL_GUARD_BITS below the target; value and bound come back as exact
    mpf/mpc, the bound the truncation bound plus the counted rounding."""
    P = max(mp_bits(c), KERNEL_GUARD_BITS, KERNEL_GUARD_BITS - mp.mag(target))
    cr, ci = mp_fixed(c, P)
    got = em_tails((k,), (a << P) + cr, ci, P, (mp_fixed(target, P)[0],))
    if got is None:
        return None
    (re, im, err, bound, _), = got
    return to_mp(re, im, P, mp), to_mp(err + bound, 0, P, mp)


@pytest.mark.parametrize("k, c, N, target", [
    (2, (0.3, 0), 8, "1e-12"),
    (2, (-0.5, 0), 8, "1e-20"),
    (3, (0.25, 0.75), 6, "1e-15"),
    (4, (0.1, -12), 0, "1e-30"),
    (2, (0.5, -2), 14, "1e-40"),
    (4, (0, 60), 0, "1e-100"),
])
def test_shifted_tail_bound_holds_and_is_within_1e3_of_the_true_remainder(k, c, N, target):
    # the target fixes the order m; at these scales the counted rounding is
    # negligible, so the returned bound is the remainder bound at that order.
    # The truth is the Hurwitz zeta value zeta(k, N+1+c).
    mp = mp_context(512)
    cc = mp.mpc(*c) if c[1] else mp.mpf(c[0])
    value, bound = shifted_tail(k, N + 1, cc, mp, mp.mpf(target))
    with mpmath.workprec(768):
        exact = mpmath.zeta(k, N + 1 + mpmath.mpmathify(cc))
        err = abs(mpmath.mpmathify(value) - exact)
    assert bound <= mp.mpf(target)
    assert err <= bound <= 1000 * err


@pytest.mark.parametrize("a, target", [(5, "1e-12"), (12, "1e-30")])
def test_em_tails_at_an_integer_base_match_brute_force_where_feasible(a, target):
    # s = 12 converges fast enough that the truncated brute sum is exact to
    # ~1e-38, well below the claimed bound; an integer base takes the real
    # path (12 = 3 2^2 folds its power of 2 into the shifts), each to near
    # its Euler-Maclaurin floor
    wide = PrecisionContext(256, "1e-40")
    target = wide.mp.mpf(target)
    tail, bound = shifted_tail(12, a, wide.mp.mpf(0), wide.mp, target)
    brute = sum(wide.mp.mpf(k) ** -12 for k in range(a, 2000))
    assert bound <= target
    assert abs(tail - brute) <= bound + wide.mp.mpf("1e-37")


def test_zeta_even_at_a_large_m_leaves_the_tables_alone(ctx):
    # 2m above the scale: zeta(2m) is 1 within one unit, and no table grows
    from eistrig import zetasums
    before = dict(zetasums._zeta_tables)
    bv = zeta_even(200_000, ctx)
    assert bv.radius <= ctx.tolerance and abs(bv.value - 1) <= bv.radius
    assert zetasums._zeta_tables == before


def test_shifted_tail_reports_a_floor_above_the_target():
    # at the base point 21 the asymptotic series bottoms out near e^(-2 pi 20.5)
    mp = mp_context(512)
    assert shifted_tail(3, 21, mp.mpf(-0.5), mp, mp.mpf("1e-60")) is None
    assert shifted_tail(3, 21, mp.mpf(-0.5), mp, mp.mpf("1e-50")) is not None


@pytest.mark.parametrize("i", [0, 1, 2])
def test_scaled_zeta_tables_hold_the_exact_partial_sum_and_its_tail(i, monkeypatch):
    # Z_i(s) = sum_{n>=L} (L/n)^s, L = 2^i, lies within the table's error count
    # of the exact sum over n = L..M plus the integral bounds of the rest:
    # int_(M+1)^inf (L/t)^s dt <= sum_{n>M} (L/n)^s <= int_M^inf (L/t)^s dt
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    q, values, err = zetasums.zeta_table(128, 24, i)
    L, M = 1 << i, 256
    for m, value in enumerate(values, start=1):
        s = 2 * m
        partial = sum(Fraction(L, n) ** s for n in range(L, M + 1))
        low = partial + Fraction(L ** s, (s - 1) * (M + 1) ** (s - 1))
        high = partial + Fraction(L ** s, (s - 1) * M ** (s - 1))
        assert low - Fraction(err, 1 << q) <= Fraction(value, 1 << q) <= high + Fraction(err, 1 << q)


def test_a_concurrent_store_does_not_change_the_table_a_caller_gets(monkeypatch):
    # another caller's 128-bit store lands right after this caller's 1,088-bit one
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    low = zetasums.zeta_table(128, 50, 0)

    class Interleaved(dict):
        def __setitem__(self, key, table):
            super().__setitem__(key, table)
            super().__setitem__((0, 128), low)

    monkeypatch.setattr(zetasums, "_zeta_tables", Interleaved())
    q, values, _ = zetasums.zeta_table(1088, 50, 0)
    assert q == 1088 and len(values) >= 50
    assert zetasums._zeta_tables[0, 1088][0] == 1088


def test_a_table_never_replaces_one_of_higher_scale(monkeypatch):
    # another caller stores a 1,088-bit table while this one builds at 128
    # bits: each scale keeps its own table
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    high = zetasums.zeta_table(1088, 8, 0)
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    real = zetasums._zeta_values

    def values(*args):
        zetasums._zeta_tables[0, 1088] = high
        return real(*args)

    monkeypatch.setattr(zetasums, "_zeta_values", values)
    q, _, _ = zetasums.zeta_table(128, 8, 0)
    assert q == 128 and zetasums._zeta_tables[0, 1088] is high
    assert zetasums._zeta_tables[0, 128][0] == 128


def test_each_table_keeps_its_own_scale_and_only_the_last_four_are_held(monkeypatch):
    # a pass reads the table of its own multiple of 64, never a finer one
    # that an earlier call left; per i at most four scales stay
    from eistrig import zetasums
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    for P in (1088, 100, 128, 129, 300, 500, 700):
        q, values, err = zetasums.zeta_table(P, 12, 1)
        assert q == -(-P // 64) * 64
    assert sorted(zetasums._zeta_tables) == [(1, 192), (1, 320), (1, 512), (1, 704)]
    again = zetasums.zeta_table(1088, 12, 1)
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    assert zetasums.zeta_table(1088, 12, 1) == again


def test_threads_at_different_scales_each_get_a_table_of_their_own_scale(monkeypatch):
    # 4 threads, with a short switch interval, ask for the Z_i tables and the
    # Euler-Maclaurin coefficient tables at mixed scales: every table holds at
    # least what its caller asked for, and its values and err are those of a
    # serial build at its scale.  The threads also take the Horner rows of
    # those tables and evaluate eps_k on the Laurent routes and on the lattice
    # route at two contexts, which build rows and tables as they grow: every
    # row is that of its own tuple, every ball is the one a serial call gave
    import sys
    import threading
    from math import comb
    from eistrig import lattice, zetasums
    from eistrig.lattice import eisenstein_k
    scales = (128, 256, 384)
    serial, coeffs = {}, {}
    for i in range(3):
        for P in scales:
            monkeypatch.setattr(zetasums, "_zeta_tables", {})
            q, values, err = zetasums.zeta_table(P, 40, i)
            serial[i, q] = values, err
    for s in (2, 3, 4):
        for Q in scales:
            zetasums._em_table.cache_clear()
            coeffs[s, Q] = list(zetasums._em_coeffs(s, Q, 80))
    contexts = (PrecisionContext(128, "1e-12"), PrecisionContext(192, "1e-30"))
    points = (0.3, complex(0.2, 0.9), complex(-0.4, 1.8), complex(0.3, 4.2))  # i = 0, 1, 2, lattice
    alone = {(k, z, ctx): eisenstein_k(k, z, ctx) for k in (2, 3) for z in points for ctx in contexts}
    monkeypatch.setattr(zetasums, "_zeta_tables", {})
    monkeypatch.setattr(lattice, "_rows", {})
    zetasums._em_table.cache_clear()
    zetasums._em_order.cache_clear()
    problems = []

    def work(offset):
        try:
            for j in range(30):
                i, P, count = j % 3, scales[(j + offset) % 3], 10 + j
                q, values, err = zetasums.zeta_table(P, count, i)
                want, want_err = serial[i, q]
                if q != P or len(values) < count or values[:count] != want[:count] or err != want_err:
                    problems.append((i, P, count, q, len(values)))
                k = 2 + j % 2
                row = lattice._horner_row(i, q, k, values)
                if row[:5] != [comb(k + t - 1, t) * want[(k + t) // 2 - 1] for t in range(k % 2, 10, 2)]:
                    problems.append(("row", i, k, q))
                s = 2 + (j + offset) % 3
                table = zetasums._em_coeffs(s, P, 20 + 2 * j)
                if len(table) < 20 + 2 * j or table[:20 + 2 * j] != coeffs[s, P][:20 + 2 * j]:
                    problems.append(("coefficients", s, P, len(table)))
                ctx, z = contexts[(j + offset) % 2], points[(j + offset) % 4]
                if eisenstein_k(k, z, ctx) != alone[k, z, ctx]:
                    problems.append(("ball", k, z, ctx.precision))
        except Exception as exc:  # a thread's exception would otherwise go unseen
            problems.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []


@pytest.mark.parametrize("i", [0, 1, 2])
def test_a_grown_table_equals_a_table_built_in_one_step(i, monkeypatch):
    # every value and the err depend on the scale, i and m alone: a table
    # grown one entry at a time from 10 to 40 equals one built at 40 at once
    from eistrig import zetasums
    for q in (384, 1088):
        monkeypatch.setattr(zetasums, "_zeta_tables", {})
        for count in range(10, 41):
            grown = zetasums.zeta_table(q, count, i)
        monkeypatch.setattr(zetasums, "_zeta_tables", {})
        once = zetasums.zeta_table(q, 40, i)
        assert grown[0] == once[0] and grown[2] == once[2]
        assert grown[1][:40] == once[1][:40]


def test_every_zeta_table_ends_on_one_euler_maclaurin_call(monkeypatch):
    # the base point leaves em_tails room, up to 1,100 bits and 1e-300
    from eistrig import zetasums
    calls = []
    real = zetasums.em_tails

    def tails(exponents, br, bi, P, limits):
        got = real(exponents, br, bi, P, limits)
        calls.append(got is not None)
        return got

    monkeypatch.setattr(zetasums, "em_tails", tails)
    for i in range(3):
        for P, count in ((128, 40), (384, 260), (1088, 757)):
            monkeypatch.setattr(zetasums, "_zeta_tables", {})
            calls.clear()
            zetasums.zeta_table(P, count, i)
            assert calls == [True]
